"""Non-redundancy machinery: useless pairs, behavior constraints, the
strategy precedence order and the non-redundant optimal set.

A (state, action) pair is useless when taking it can never beat stopping:
its one-step value is <= 0 under every strategy, which reduces to the
optimal-value test Q*(q, a) <= 0. A strategy precedes another when, under
every resolution of chance, it produces the same execution or a strict
sub-execution, i.e. it provably achieves the same outcome with fewer actions.
The non-redundant optimal strategies are the optimal ones not preceded by any
other optimal strategy.

The precedence test enumerates the stationary contingencies lazily: both
traces run through :func:`~purpose_audit.traces.simulate` on a partial
contingency, and the first chance node one of them reaches unresolved is
where the enumeration branches.
"""

from __future__ import annotations

import random
from enum import Enum

from .errors import SizeCapExceeded
from .model import (
    Action,
    EnvironmentModel,
    State,
    Strategy,
    observed_choices,
)
from .oracle import DEFAULT_OPTIONS, OracleOptions, oracle_opt
from .solve import OptimalSolution, solve_optimal
from .traces import (
    SampledContingency,
    TraceOrder,
    active_tokens,
    compare_active,
    simulate,
)

__all__ = [
    "Precedence",
    "useless_pairs",
    "observed_choices",
    "replace_useless_with_nothing",
    "precedes",
    "opt_star_enumerate",
]


def useless_pairs(
    model: EnvironmentModel, solution: OptimalSolution | None = None
) -> frozenset[tuple[State, Action]]:
    """All non-nothing pairs with Q*(q, a) <= 0, from one exact solve."""
    solution = solution or solve_optimal(model)
    return frozenset(
        (q, a)
        for (q, a) in model.pairs()
        if a != model.nothing_action and solution.q_star[(q, a)] <= 0
    )


def replace_useless_with_nothing(
    strategy: Strategy, useless: frozenset[tuple[State, Action]], nothing: Action
) -> Strategy:
    """Swap every useless choice for the nothing-action.

    Never lowers any state's value when ``useless`` is a subset of the
    model's useless pairs.
    """
    return Strategy(
        tuple(
            (q, nothing if (q, a) in useless else a)
            for q, a in strategy.assignments
        )
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
        nothing = model.nothing_action
        order = compare_active(
            active_tokens(small_trace, nothing), active_tokens(large_trace, nothing)
        )
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
    options: OracleOptions,
) -> bool:
    """Try to refute domination with occurrence-indexed contingencies.

    Horizon-cut comparisons that stay undecided are not refutations; only a
    definite failure counts, so a True here is a genuine counterexample.
    """
    rng = random.Random(options.seed)
    nothing = model.nothing_action
    for _ in range(options.occurrence_samples):
        contingency = SampledContingency(model, rng)
        for start in model.states:
            small = simulate(
                model, smaller, contingency, start, horizon=options.horizon
            )
            large = simulate(
                model, larger, contingency, start, horizon=options.horizon
            )
            order = compare_active(
                active_tokens(small, nothing), active_tokens(large, nothing)
            )
            if order is TraceOrder.NEITHER:
                return True
    return False


def precedes(
    model: EnvironmentModel,
    earlier: Strategy,
    later: Strategy,
    options: OracleOptions = DEFAULT_OPTIONS,
) -> Precedence:
    """Does ``earlier`` precede ``later`` (same or smaller trace everywhere,
    strictly smaller somewhere)?

    All stationary contingencies are enumerated exactly, with active parts
    classified finite or infinite by loop detection; occurrence-indexed
    contingencies are sampled up to the horizon and can only refute. For
    distinct strategies, domination everywhere already implies a strict pair:
    starting at a state where the strategies differ, the active traces differ.
    """
    if earlier == later:
        return Precedence.NO
    budget = [options.max_contingencies]
    try:
        for start in model.states:
            _check_dominated_from(
                model, earlier, later, start, _PartialContingency(), budget
            )
    except _Refuted:
        return Precedence.NO
    if _sampled_refutation(model, earlier, later, options):
        return Precedence.NO
    return Precedence.YES


def opt_star_enumerate(
    model: EnvironmentModel, options: OracleOptions = DEFAULT_OPTIONS
) -> list[Strategy]:
    """The optimal strategies not preceded by another optimal strategy.

    Enumerates the optimal set exactly (oracle scale), then prunes every
    strategy some other optimal strategy precedes.
    """
    optimal = oracle_opt(model, options)
    return [
        candidate
        for candidate in optimal
        if not any(
            precedes(model, other, candidate, options) is Precedence.YES
            for other in optimal
            if other != candidate
        )
    ]
