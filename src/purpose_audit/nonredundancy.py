"""Non-redundancy machinery: useless pairs, the strategy precedence order
and the non-redundant optimal set.

A (state, action) pair is useless when taking it can never beat stopping:
its one-step value is <= 0 under every strategy, which reduces to the
optimal-value test Q*(q, a) <= 0. A strategy precedes another when, under
every resolution of chance, it produces the same execution or a strict
sub-execution, i.e. it provably achieves the same outcome with fewer actions.
The non-redundant optimal strategies are the optimal ones not preceded by any
other optimal strategy.

What :func:`precedes` decides is the order over stationary contingencies,
one successor per (state, action) pair: those are enumerated exactly and
lazily. Both traces run through :func:`~purpose_audit.traces.simulate` on a
partial contingency, and the first chance node one of them reaches
unresolved is where the enumeration branches. Occurrence-indexed
contingencies, whose choice may change at each visit, are only sampled, and
a sample refutes only when the larger trace stops within ``HORIZON``. A
failure on a larger trace that never stops is never caught, so a YES is
exact for the stationary order and only sampled for the occurrence-indexed
one. This module is a reference layer: the engine never imports it.
"""

from __future__ import annotations

import random
from enum import Enum

from .errors import SizeCapExceeded
from .model import NOTHING, Action, EnvironmentModel, State, Strategy
from .oracle import oracle_opt
from .solve import solve_optimal
from .traces import (
    SampledContingency,
    TraceOrder,
    active_tokens,
    compare_active,
    simulate,
)

# Calls of the stationary enumeration allowed per precedence test.
MAX_CONTINGENCIES = 200_000
# Occurrence-indexed contingencies drawn per precedence test, the steps each
# sampled trace runs, and the seed of the draws.
OCCURRENCE_SAMPLES = 16
HORIZON = 32
SEED = 0


def useless_pairs(model: EnvironmentModel) -> frozenset[tuple[State, Action]]:
    """All non-nothing pairs with Q*(q, a) <= 0, from one exact solve."""
    q_star = solve_optimal(model).q_star
    return frozenset(
        (q, a) for (q, a) in model.pairs() if a != NOTHING and q_star[(q, a)] <= 0
    )


class Precedence(Enum):
    YES = "yes"
    NO = "no"


class _Refuted(Exception):
    pass


class _Unresolved(Exception):
    """A trace reached a chance node that the partial contingency leaves
    open; the exception's one argument is that (state, action) pair."""


class _PartialContingency(dict):
    """A stationary contingency resolved so far; ``simulate`` reading a
    pair it does not resolve yet raises _Unresolved."""

    def __missing__(self, pair):
        raise _Unresolved(pair)


def _check_dominated_from(
    model: EnvironmentModel,
    smaller: Strategy,
    larger: Strategy,
    start: State,
    assignment: _PartialContingency,
    budget: list[int],
) -> None:
    """Raise _Refuted unless smaller's trace is <= larger's from ``start``
    under every completion of ``assignment``.

    Branches only at chance nodes a trace actually reaches, sharing choices
    between the two traces, so the enumeration covers exactly the stationary
    contingencies distinguishable from this start state.
    """
    budget[0] -= 1
    if budget[0] < 0:
        raise SizeCapExceeded("stationary contingency enumeration cap hit")

    try:
        small_trace = simulate(model, smaller, assignment, start)
        large_trace = simulate(model, larger, assignment, start)
    except _Unresolved as unresolved:
        (branch,) = unresolved.args
    else:
        order = compare_active(active_tokens(small_trace), active_tokens(large_trace))
        if order not in (TraceOrder.EQUAL, TraceOrder.PROPER):
            raise _Refuted
        return
    for target in sorted(model.successors(*branch)):
        assignment[branch] = target
        _check_dominated_from(model, smaller, larger, start, assignment, budget)
    del assignment[branch]


def _sampled_refutation(
    model: EnvironmentModel,
    smaller: Strategy,
    larger: Strategy,
) -> bool:
    """Try to refute domination with occurrence-indexed contingencies.

    Horizon-cut comparisons that stay undecided are not refutations; only a
    definite failure counts, so a True here is a genuine counterexample. A
    definite failure needs the larger trace to reach the nothing-action
    within ``HORIZON`` steps: against a horizon-cut larger trace,
    :func:`~purpose_audit.traces.compare_active` never answers NEITHER.
    """
    rng = random.Random(SEED)
    for _ in range(OCCURRENCE_SAMPLES):
        contingency = SampledContingency(model, rng)
        for start in model.states:
            small = simulate(model, smaller, contingency, start, horizon=HORIZON)
            large = simulate(model, larger, contingency, start, horizon=HORIZON)
            order = compare_active(active_tokens(small), active_tokens(large))
            if order is TraceOrder.NEITHER:
                return True
    return False


def precedes(
    model: EnvironmentModel, earlier: Strategy, later: Strategy
) -> Precedence:
    """Does ``earlier`` precede ``later`` (same or smaller trace everywhere,
    strictly smaller somewhere)?

    Decided exactly over stationary contingencies: all of them are
    enumerated, with active parts classified finite or infinite by loop
    detection, and a NO from there is a proof. Occurrence-indexed
    contingencies are then sampled up to ``HORIZON`` steps and can only
    refute, and only where ``later``'s trace stops within the horizon. So
    YES means domination under every stationary contingency and under the
    samples; it is not a proof of domination under every occurrence-indexed
    contingency (``tests/test_nonredundancy.py`` pins a case where it fails).
    For distinct strategies, domination everywhere already implies a strict
    pair: starting at a state where the strategies differ, the active traces
    differ.
    """
    if earlier == later:
        return Precedence.NO
    budget = [MAX_CONTINGENCIES]
    try:
        for start in model.states:
            _check_dominated_from(
                model, earlier, later, start, _PartialContingency(), budget
            )
    except _Refuted:
        return Precedence.NO
    if _sampled_refutation(model, earlier, later):
        return Precedence.NO
    return Precedence.YES


def opt_star_enumerate(model: EnvironmentModel) -> list[Strategy]:
    """The optimal strategies not preceded by another optimal strategy.

    Enumerates the optimal set exactly (oracle scale), then prunes every
    strategy some other optimal strategy precedes.
    """
    optimal = oracle_opt(model)
    return [
        candidate
        for candidate in optimal
        if not any(
            precedes(model, other, candidate) is Precedence.YES
            for other in optimal
            if other != candidate
        )
    ]
