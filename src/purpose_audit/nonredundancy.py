"""Non-redundancy: the strategy precedence order and the non-redundant
optimal set.

A strategy precedes another when, under every resolution of chance, it
produces the same execution or a strict sub-execution, i.e. it provably
achieves the same outcome with fewer actions. The non-redundant optimal
strategies are the optimal ones not preceded by any other optimal strategy.

What :func:`precedes` decides is the order over stationary contingencies,
one successor per (state, action) pair: those are enumerated exactly and
lazily. Both traces run through :func:`~purpose_audit.traces.simulate` on a
partial contingency, and the first chance node one of them reaches
unresolved is where the enumeration branches. Occurrence-indexed
contingencies, whose choice may change at each visit, are only sampled, and
a sample refutes only when the larger trace stops within ``HORIZON``. A
failure on a larger trace that never stops is never caught, so True is
exact for the stationary order and only sampled for the occurrence-indexed
one. This module is a reference layer: it uses no solver, and the engine
never imports it.
"""

from __future__ import annotations

import random

from .errors import SizeCapExceeded
from .model import EnvironmentModel, State, Strategy
from .traces import SampledContingency, TraceOrder, compare_active, embeds, simulate

# Calls of the stationary enumeration allowed per precedence test.
MAX_CONTINGENCIES = 200_000
# Occurrence-indexed contingencies drawn per precedence test, the steps each
# sampled trace runs, and the seed of the draws.
OCCURRENCE_SAMPLES = 16
HORIZON = 32
SEED = 0


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
        small = simulate(model, smaller, assignment, start)
        large = simulate(model, larger, assignment, start)
    except _Unresolved as unresolved:
        (branch,) = unresolved.args
    else:
        if compare_active(small, large) not in (TraceOrder.EQUAL, TraceOrder.PROPER):
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

    A horizon-cut larger trace is skipped. Against one that stops within
    ``HORIZON`` steps, a sample refutes iff the smaller trace's known tokens
    do not embed in it, so a True here is a genuine counterexample. Both are
    simulated every time: the samples draw lazily from one shared generator.
    """
    rng = random.Random(SEED)
    for _ in range(OCCURRENCE_SAMPLES):
        contingency = SampledContingency(model, rng)
        for start in model.states:
            small = simulate(model, smaller, contingency, start, horizon=HORIZON)
            large = simulate(model, larger, contingency, start, horizon=HORIZON)
            if large.complete and not embeds(small.prefix, large):
                return True
    return False


def precedes(model: EnvironmentModel, earlier: Strategy, later: Strategy) -> bool:
    """Does ``earlier`` precede ``later`` (same or smaller trace everywhere,
    strictly smaller somewhere)?

    Decided exactly over stationary contingencies: all of them are
    enumerated, with active parts classified finite or infinite by loop
    detection, and a False from there is a proof. Occurrence-indexed
    contingencies are then sampled up to ``HORIZON`` steps and can only
    refute, and only where ``later``'s trace stops within the horizon. So
    True means domination under every stationary contingency and under the
    samples; it is not a proof of domination under every occurrence-indexed
    contingency (``tests/test_nonredundancy.py`` pins a case where it fails).
    For distinct strategies, domination everywhere already implies a strict
    pair: starting at a state where the strategies differ, the active traces
    differ.
    """
    if earlier == later:
        return False
    budget = [MAX_CONTINGENCIES]
    try:
        for start in model.states:
            _check_dominated_from(
                model, earlier, later, start, _PartialContingency(), budget
            )
    except _Refuted:
        return False
    return not _sampled_refutation(model, earlier, later)


def opt_star_enumerate(
    model: EnvironmentModel, optimal: tuple[Strategy, ...]
) -> list[Strategy]:
    """The strategies of ``optimal``, the model's optimal set (as
    ``purpose_audit.oracle.reference(model).optimal`` enumerates it), that no
    other strategy of that set precedes."""
    return [
        candidate
        for candidate in optimal
        if not any(
            precedes(model, other, candidate)
            for other in optimal
            if other != candidate
        )
    ]
