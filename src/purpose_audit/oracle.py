"""Brute-force reference implementations.

Everything here works by exhaustive enumeration over the (finite) strategy
space, evaluated exactly, and is deliberately independent of the optimized
paths it cross-checks: no policy iteration, no Q*-shortcut for useless pairs,
no penalty construction, and nothing from the solver module. A strategy's
values come from dense Gaussian elimination in Fractions, and one-step
values straight from the transition and reward tables. ``reference(model)``
evaluates every strategy of a model once and derives its optimal and useless
sets; ``Reference.empty`` then decides each log off those sets. Enumeration
sizes are capped by ``MAX_STRATEGIES``. Nothing on the engine's paths imports
this module; ``purpose-audit oracle`` loads it on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping

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


@dataclass(frozen=True)
class Reference:
    """One model's strategies, each evaluated once, and the two sets the
    definitions read off those values."""

    tables: Mapping[Strategy, Mapping[State, Rational]]
    optimal: tuple[Strategy, ...]
    useless: frozenset[tuple[State, Action]]

    def empty(self, behavior: Behavior) -> bool:
        """Reference emptiness decision for "could this log come from an agent
        planning for this purpose": True iff the log observes two actions at
        one state, takes a useless pair, or is consistent with no optimal
        strategy. No contingency enumeration is involved."""
        try:
            constraints = observed_choices(behavior)
        except InconsistentBehavior:
            return True
        if any(pair in self.useless for pair in behavior.pairs()):
            return True
        return not any(
            all(sigma[q] == a for q, a in constraints.items()) for sigma in self.optimal
        )


def reference(model: EnvironmentModel) -> Reference:
    """Every strategy of ``model`` evaluated exactly, once. A strategy is
    optimal iff it attains the pointwise maximum value at every state (so some
    strategy is); a pair (q, a), a not the nothing-action, is useless iff its
    one-step value is <= 0 under every strategy."""
    tables = {
        sigma: strategy_values(model, sigma) for sigma in enumerate_strategies(model)
    }
    best = {q: max(table[q] for table in tables.values()) for q in model.states}
    optimal = tuple(
        sigma
        for sigma, table in tables.items()
        if all(table[q] == best[q] for q in model.states)
    )
    useless = set()
    for q, a in model.pairs():
        if a == NOTHING:
            continue
        # r(q, a) + sum of gamma * t(q, a)(q') * V(q'), under each strategy.
        successors = model.transitions[(q, a)].items()
        weights = [(t, model.discount * p) for t, p in successors]
        reward = model.rewards[(q, a)]
        if all(
            sum((w * table[t] for t, w in weights), reward) <= 0
            for table in tables.values()
        ):
            useless.add((q, a))
    return Reference(tables, optimal, frozenset(useless))
