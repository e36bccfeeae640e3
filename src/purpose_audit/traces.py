"""Executions, contingencies and the sub-execution ordering.

A strategy plus a resolution of every probabilistic choice (a contingency)
yields one deterministic execution. Executions are infinite, so they are kept
in finite form: a prefix that either reached the nothing-action (everything
after is nothing forever), closed a cycle (the active part is infinite and
eventually periodic), or was cut at a simulation horizon.

The ordering used to call one execution "smaller" compares active parts, the
tokens before the first nothing-action, under the standard subsequence
relation. An infinite active part is never a proper sub-execution of anything;
it can only be equal to another execution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from math import lcm
from typing import Mapping, Sequence

from .errors import IndeterminateComparison, ModelError
from .model import NOTHING, Action, Behavior, EnvironmentModel, State, Strategy


class Termination(Enum):
    """How a simulated prefix ended."""

    NOTHING_ABSORBED = "nothing-absorbed"
    LOOP_DETECTED = "loop-detected"
    HORIZON_CUT = "horizon-cut"


@dataclass(frozen=True)
class ExecutionPrefix:
    """A finitely represented execution.

    For LOOP_DETECTED prefixes, ``loop_start`` is the index (into the state
    sequence) of the first state of the cycle; the final state of the stored
    behavior is its second occurrence.
    """

    behavior: Behavior
    termination: Termination
    loop_start: int | None = None


@dataclass(frozen=True)
class StationaryContingency:
    """Occurrence-independent resolution: (state, action) -> successor."""

    choice: Mapping[tuple[State, Action], State]

    def resolve(self, state: State, action: Action, occurrence: int) -> State:
        return self.choice[(state, action)]


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
) -> ExecutionPrefix:
    """Run a strategy under a contingency from ``start``.

    With ``horizon=None`` the contingency must be stationary; the future is
    then a function of the current state, so the run stops exactly when it
    absorbs into the nothing-action (one nothing step is recorded) or revisits
    a state (the active part is infinite). With a horizon, occurrence-indexed
    contingencies are supported and the run may be cut mid-flight.
    """
    stationary = isinstance(contingency, (StationaryContingency, Mapping))
    if horizon is None and not stationary:
        raise ValueError("occurrence-indexed contingencies need a horizon")
    resolver = (
        contingency.resolve
        if not isinstance(contingency, Mapping)
        else lambda q, a, i: contingency[(q, a)]
    )

    choice = strategy.as_dict()
    nothing = model.nothing_action
    steps: list[tuple[Action, State]] = []
    seen: dict[State, int] = {}
    occurrences: dict[tuple[State, Action], int] = {}
    q = start
    position = 0
    while True:
        action = choice[q]
        if action == nothing:
            steps.append((nothing, q))
            return ExecutionPrefix(
                Behavior(start, tuple(steps)), Termination.NOTHING_ABSORBED
            )
        if horizon is None:
            if q in seen:
                return ExecutionPrefix(
                    Behavior(start, tuple(steps)),
                    Termination.LOOP_DETECTED,
                    loop_start=seen[q],
                )
            seen[q] = position
        elif len(steps) >= horizon:
            return ExecutionPrefix(
                Behavior(start, tuple(steps)), Termination.HORIZON_CUT
            )
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
        steps.append((action, target))
        q = target
        position += 1


def active_prefix(
    execution: ExecutionPrefix | Behavior, nothing: Action = NOTHING
) -> Behavior:
    """The stored tokens before the first nothing-action.

    Equals the input behavior when no nothing-action occurs in it.
    """
    behavior = (
        execution.behavior if isinstance(execution, ExecutionPrefix) else execution
    )
    for i, (action, _) in enumerate(behavior.steps):
        if action == nothing:
            return Behavior(behavior.start, behavior.steps[:i])
    return behavior


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

    def finite(self) -> bool:
        return self.complete and self.period is None


def active_tokens(
    execution: ExecutionPrefix, nothing: Action = NOTHING
) -> ActiveTokens:
    tokens = execution.behavior.tokens()
    for step, action in enumerate(execution.behavior.actions()):
        if action == nothing:
            # Tokens before the first nothing-action: [q0 .. q_step].
            return ActiveTokens(tuple(tokens[: 2 * step + 1]), None, True)
    if execution.termination is Termination.LOOP_DETECTED:
        cut = 2 * execution.loop_start + 1
        return ActiveTokens(tuple(tokens[:cut]), tuple(tokens[cut:]), True)
    if execution.termination is Termination.NOTHING_ABSORBED:
        # Absorbed prefixes always contain their nothing step.
        raise ValueError("absorbed prefix without a nothing step")
    return ActiveTokens(tuple(tokens), None, False)


class TraceOrder(Enum):
    EQUAL = "equal"
    PROPER = "proper"
    NEITHER = "neither"
    UNDECIDED = "undecided"


def _is_subsequence(needle: Sequence[str], hay: Sequence[str]) -> bool:
    it = iter(hay)
    return all(token in it for token in needle)


def _unrolled(tokens: ActiveTokens, length: int) -> list[str]:
    out = list(tokens.prefix)
    while len(out) < length:
        out.extend(tokens.period)
    return out[:length]


def _embeds_in_periodic(needle: Sequence[str], hay: ActiveTokens) -> bool:
    # Greedy matching consumes at most one full period per needle token, so
    # this bounded unroll decides the infinite embedding exactly.
    bound = len(hay.prefix) + (len(needle) + 1) * len(hay.period)
    return _is_subsequence(needle, _unrolled(hay, bound))


def _periodic_equal(left: ActiveTokens, right: ActiveTokens) -> bool:
    # Two ultimately periodic streams agree everywhere iff they agree on
    # max(prefix lengths) + lcm(period lengths) tokens.
    bound = max(len(left.prefix), len(right.prefix)) + lcm(
        len(left.period), len(right.period)
    )
    return _unrolled(left, bound) == _unrolled(right, bound)


def compare_active(left: ActiveTokens, right: ActiveTokens) -> TraceOrder:
    """Order two active parts under the proper-subsequence relation.

    PROPER means left is a proper sub-execution of right. An infinite left
    active part is never proper. UNDECIDED arises only when a horizon-cut
    side prevents a definite answer; refutations stay definite because a
    prefix that fails to embed in a fully known sequence can never embed.
    """
    if left.finite():
        if right.finite():
            if left.prefix == right.prefix:
                return TraceOrder.EQUAL
            if _is_subsequence(left.prefix, right.prefix):
                return TraceOrder.PROPER
            return TraceOrder.NEITHER
        if right.complete:
            if _embeds_in_periodic(left.prefix, right):
                return TraceOrder.PROPER
            return TraceOrder.NEITHER
        if _is_subsequence(left.prefix, right.prefix):
            if left.prefix != right.prefix:
                return TraceOrder.PROPER
            return TraceOrder.UNDECIDED
        return TraceOrder.UNDECIDED
    if left.complete:
        if right.finite():
            return TraceOrder.NEITHER
        if right.complete:
            return (
                TraceOrder.EQUAL
                if _periodic_equal(left, right)
                else TraceOrder.NEITHER
            )
        return TraceOrder.UNDECIDED
    # Left was horizon-cut: its known tokens are a prefix of its true active
    # part, so a failed embedding into a complete right side is final.
    if right.finite():
        return (
            TraceOrder.UNDECIDED
            if _is_subsequence(left.prefix, right.prefix)
            else TraceOrder.NEITHER
        )
    if right.complete:
        return (
            TraceOrder.UNDECIDED
            if _embeds_in_periodic(left.prefix, right)
            else TraceOrder.NEITHER
        )
    return TraceOrder.UNDECIDED


def is_proper_subexecution(
    first: ExecutionPrefix, second: ExecutionPrefix, nothing: Action = NOTHING
) -> bool:
    """Whether the first execution's active part is a strict subsequence of
    the second's.

    Raises IndeterminateComparison when a horizon cut on either side prevents
    a verdict.
    """
    order = compare_active(
        active_tokens(first, nothing), active_tokens(second, nothing)
    )
    if order is TraceOrder.UNDECIDED:
        raise IndeterminateComparison(
            "horizon-cut execution prefix: comparison undecided"
        )
    return order is TraceOrder.PROPER
