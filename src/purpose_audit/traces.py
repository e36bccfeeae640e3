"""Executions, contingencies and the sub-execution ordering.

A strategy plus a resolution of every probabilistic choice (a contingency)
yields one deterministic execution. What the ordering reads of it is its
active part, the tokens before the first nothing-action, and
:func:`simulate` returns only that, as :class:`ActiveTokens`: finite when
the run reaches the nothing-action, a prefix and a period repeated forever
when it revisits a state, or the tokens so far, marked incomplete, when a
simulation horizon cuts it.

One execution is "smaller" than another when its active part is a
subsequence of the other's. An infinite active part is never a proper
sub-execution of anything; it can only be equal to another execution.

Under a stationary contingency every run ends absorbed or in a closed cycle,
so :func:`compare_active` decides the order exactly; it orders complete runs
only. An occurrence-indexed contingency is simulated to a horizon, and loops
are not detected there: a run whose known tokens fail :func:`embeds` against
a complete run is never smaller than it, but a failure against a larger
trace that never stops is never seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from math import lcm
from typing import Mapping, Sequence

from .errors import ModelError
from .model import NOTHING, Action, EnvironmentModel, State, Strategy


@dataclass(frozen=True)
class ActiveTokens:
    """Comparison form of an active part.

    ``period`` is set when the active part is infinite (tokens = prefix
    followed by period repeated forever). ``complete`` is False for
    horizon-cut prefixes whose active part may extend beyond the known tokens.
    """

    prefix: tuple[str, ...]
    period: tuple[str, ...] | None
    complete: bool


class SampledContingency:
    """Occurrence-indexed contingency drawn lazily from the transition supports.

    Choices are memoized so repeated queries of (state, action, occurrence)
    agree, which makes the object a genuine contingency restricted to the
    queries actually made.
    """

    def __init__(self, model: EnvironmentModel, rng: random.Random):
        self._model = model
        self._rng = rng
        self._memo: dict[tuple[State, Action, int], State] = {}

    def resolve(self, state: State, action: Action, occurrence: int) -> State:
        key = (state, action, occurrence)
        if key not in self._memo:
            support = sorted(self._model.successors(state, action))
            self._memo[key] = self._rng.choice(support)
        return self._memo[key]


def simulate(
    model: EnvironmentModel,
    strategy: Strategy,
    contingency,
    start: State,
    *,
    horizon: int | None = None,
) -> ActiveTokens:
    """The active part of a strategy's run under a contingency from ``start``.

    A stationary contingency is a Mapping (state, action) -> successor; an
    occurrence-indexed one has ``resolve(state, action, occurrence)``, as
    :class:`SampledContingency` does. With ``horizon=None`` the contingency
    must be stationary; the future is then a function of the current state, so
    the run stops exactly when it reaches the nothing-action (a finite active
    part) or revisits a state (the prefix up to that state's first visit, then
    the period after it). With a horizon, occurrence-indexed contingencies are
    supported, and a run still going after ``horizon`` steps is cut there,
    marked incomplete.
    """
    stationary = isinstance(contingency, Mapping)
    if horizon is None and not stationary:
        raise ValueError("occurrence-indexed contingencies need a horizon")
    resolver = (
        (lambda q, a, i: contingency[(q, a)]) if stationary else contingency.resolve
    )

    choice = strategy.as_dict()
    tokens: list[str] = [start]
    # Index in ``tokens`` of each state's first visit.
    seen: dict[State, int] = {}
    occurrences: dict[tuple[State, Action], int] = {}
    q = start
    while True:
        action = choice[q]
        if action == NOTHING:
            return ActiveTokens(tuple(tokens), None, True)
        if horizon is None:
            if q in seen:
                cut = seen[q] + 1
                return ActiveTokens(tuple(tokens[:cut]), tuple(tokens[cut:]), True)
            seen[q] = len(tokens) - 1
        elif len(tokens) > 2 * horizon:
            return ActiveTokens(tuple(tokens), None, False)
        support = model.successors(q, action)
        if len(support) == 1:
            # Only one consistent resolution; the contingency need not list it.
            target = next(iter(support))
        else:
            index = occurrences.get((q, action), 0)
            occurrences[(q, action)] = index + 1
            target = resolver(q, action, index)
            if support.get(target, 0) == 0:
                raise ModelError(
                    f"contingency picked zero-probability successor {target!r}"
                    f" for {(q, action)}"
                )
        tokens += (action, target)
        q = target


class TraceOrder(Enum):
    EQUAL = "equal"
    PROPER = "proper"
    NEITHER = "neither"


def _unrolled(tokens: ActiveTokens, length: int) -> list[str]:
    out = list(tokens.prefix)
    while len(out) < length:
        out.extend(tokens.period)
    return out[:length]


def embeds(needle: Sequence[str], hay: ActiveTokens) -> bool:
    """Whether ``needle`` is a subsequence of all of ``hay``'s tokens."""
    tokens = hay.prefix
    if hay.period is not None:
        # Greedy matching consumes at most one full period per needle token,
        # so this bounded unroll decides the infinite embedding exactly.
        tokens = _unrolled(hay, len(tokens) + (len(needle) + 1) * len(hay.period))
    it = iter(tokens)
    return all(token in it for token in needle)


def _periodic_equal(left: ActiveTokens, right: ActiveTokens) -> bool:
    # Two ultimately periodic streams agree everywhere iff they agree on
    # max(prefix lengths) + lcm(period lengths) tokens.
    bound = max(len(left.prefix), len(right.prefix)) + lcm(
        len(left.period), len(right.period)
    )
    return _unrolled(left, bound) == _unrolled(right, bound)


def compare_active(left: ActiveTokens, right: ActiveTokens) -> TraceOrder:
    """Order two complete active parts under the proper-subsequence relation.

    PROPER means left is a proper sub-execution of right. An infinite left is
    EQUAL to an infinite right that agrees with it everywhere and NEITHER
    otherwise. A finite left is NEITHER when it does not embed in right,
    EQUAL when it is the same run and PROPER otherwise. Raises ValueError on
    a horizon-cut run, whose order is not known.
    """
    if not (left.complete and right.complete):
        raise ValueError("compare_active orders complete runs only")
    if left.period is not None:
        if right.period is not None and _periodic_equal(left, right):
            return TraceOrder.EQUAL
        return TraceOrder.NEITHER
    if not embeds(left.prefix, right):
        return TraceOrder.NEITHER
    return TraceOrder.EQUAL if left == right else TraceOrder.PROPER
