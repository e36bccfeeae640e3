"""Brute-force reference implementations.

Everything here works by exhaustive enumeration over the (finite) strategy
space, evaluated exactly, and is deliberately independent of the optimized
paths it cross-checks: no policy iteration, no Q*-shortcut for useless pairs,
no penalty construction, and nothing from the solver module. A strategy's
values come from dense Gaussian elimination in Fractions, and one-step
values straight from the transition and reward tables. Enumeration sizes are
capped by ``MAX_STRATEGIES``. Nothing on the engine's paths imports this
module; ``purpose-audit oracle`` loads it on demand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .errors import InconsistentBehavior, SizeCapExceeded
from .model import (
    NOTHING,
    Action,
    Behavior,
    EnvironmentModel,
    Rational,
    State,
    Strategy,
    observed_choices,
)

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_STRATEGIES = 1_000_000


def strategy_space_size(model: EnvironmentModel) -> int:
    return math.prod(len(model.available_actions(q)) for q in model.states)


def enumerate_strategies(model: EnvironmentModel) -> list[Strategy]:
    """Every total choice map, each exactly once, in deterministic order."""
    size = strategy_space_size(model)
    if size > MAX_STRATEGIES:
        raise SizeCapExceeded(f"{size} strategies exceed the cap of {MAX_STRATEGIES}")
    per_state = [model.available_actions(q) for q in model.states]
    return [
        Strategy(tuple(zip(model.states, combo)))
        for combo in product(*per_state)
    ]


def strategy_values(
    model: EnvironmentModel, strategy: Strategy
) -> dict[State, Rational]:
    """Exact values of a strategy: (I - gamma P_sigma) V = r_sigma solved by
    dense Gaussian elimination with row exchanges and back-substitution, in
    Fractions."""
    states, choice = model.states, strategy.as_dict()
    n = len(states)
    column = {q: j for j, q in enumerate(states)}
    matrix = []
    for i, q in enumerate(states):
        a = choice[q]
        row = [ONE if j == i else ZERO for j in range(n)] + [model.rewards[(q, a)]]
        for target, p in model.transitions[(q, a)].items():
            row[column[target]] -= model.discount * p
        matrix.append(row)
    for c in range(n):
        pivot = next(r for r in range(c, n) if matrix[r][c] != 0)
        matrix[c], matrix[pivot] = matrix[pivot], matrix[c]
        top = matrix[c]
        for row in matrix[c + 1 :]:
            if row[c]:
                factor = row[c] / top[c]
                for j in range(c, n + 1):
                    if top[j]:
                        row[j] -= factor * top[j]
    values = [ZERO] * n
    for i in reversed(range(n)):
        row = matrix[i]
        known = sum((row[j] * values[j] for j in range(i + 1, n)), ZERO)
        values[i] = (row[n] - known) / row[i]
    return dict(zip(states, values))


def evaluate_all_strategies(
    model: EnvironmentModel,
) -> dict[Strategy, dict[State, Rational]]:
    """Exact value table of every strategy."""
    return {
        sigma: strategy_values(model, sigma) for sigma in enumerate_strategies(model)
    }


def oracle_opt(
    model: EnvironmentModel,
    *,
    tables: dict[Strategy, dict[State, Rational]] | None = None,
) -> list[Strategy]:
    """The optimal strategies, by evaluating every strategy exactly.

    A strategy is kept iff it attains the pointwise maximum value at every
    state. Nonempty for every valid model.
    """
    tables = tables if tables is not None else evaluate_all_strategies(model)
    best = {q: max(table[q] for table in tables.values()) for q in model.states}
    return [
        sigma
        for sigma, table in tables.items()
        if all(table[q] == best[q] for q in model.states)
    ]


def oracle_useless(
    model: EnvironmentModel,
    *,
    tables: dict[Strategy, dict[State, Rational]] | None = None,
) -> frozenset[tuple[State, Action]]:
    """Pairs (q, a), a not the nothing-action, whose one-step value is <= 0
    under every strategy, straight from the definition."""
    tables = tables if tables is not None else evaluate_all_strategies(model)
    useless = set()
    for q, a in model.pairs():
        if a == NOTHING:
            continue
        # r(q, a) + sum of gamma * t(q, a)(q') * V(q'), under each strategy.
        successors = model.transitions[(q, a)].items()
        weights = [(t, model.discount * p) for t, p in successors]
        reward = model.rewards[(q, a)]
        best = max(
            sum((w * table[t] for t, w in weights), reward) for table in tables.values()
        )
        if best <= 0:
            useless.add((q, a))
    return frozenset(useless)


def oracle_audit(
    model: EnvironmentModel,
    behavior: Behavior,
    *,
    tables: dict[Strategy, dict[State, Rational]] | None = None,
) -> bool:
    """Reference emptiness decision for "could this log come from an agent
    planning for this purpose".

    True iff (1) some observed non-nothing step uses a pair that is useless
    under every strategy, or (2) no optimal strategy is consistent with the
    behavior. No contingency enumeration is involved. ``tables``, the value
    table of every strategy from :func:`evaluate_all_strategies`, may be
    passed in to share one enumeration across the behaviors of a model.
    """
    try:
        constraints = observed_choices(behavior)
    except InconsistentBehavior:
        return True

    tables = tables if tables is not None else evaluate_all_strategies(model)

    useless = oracle_useless(model, tables=tables)
    if any(pair in useless for pair in behavior.pairs()):
        return True

    optimal = oracle_opt(model, tables=tables)
    consistent = [
        sigma
        for sigma in optimal
        if all(sigma[q] == a for q, a in constraints.items())
    ]
    return not consistent
