"""Brute-force reference implementations and randomized generators.

Everything here works by exhaustive enumeration over the (finite) strategy
space, evaluated exactly, and is deliberately independent of the optimized
paths it cross-checks: no policy iteration, no Q*-shortcut for useless pairs,
no penalty construction. Enumeration sizes are capped.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import InconsistentBehavior, SizeCapExceeded
from .model import (
    Action,
    Behavior,
    EnvironmentModel,
    Rational,
    State,
    Strategy,
    observed_choices,
    validate_model,
)
from .solve import evaluate_strategy, q_value

ZERO = Fraction(0)


@dataclass(frozen=True)
class OracleOptions:
    """Caps and knobs for the enumeration-based reference implementations."""

    max_strategies: int = 1_000_000
    max_contingencies: int = 200_000
    horizon: int = 32
    occurrence_samples: int = 16
    seed: int = 0


DEFAULT_OPTIONS = OracleOptions()


def strategy_space_size(model: EnvironmentModel) -> int:
    return math.prod(len(model.available_actions(q)) for q in model.states)


def enumerate_strategies(
    model: EnvironmentModel, options: OracleOptions = DEFAULT_OPTIONS
) -> list[Strategy]:
    """Every total choice map, each exactly once, in deterministic order."""
    size = strategy_space_size(model)
    if size > options.max_strategies:
        raise SizeCapExceeded(
            f"{size} strategies exceed the cap of {options.max_strategies}"
        )
    per_state = [model.available_actions(q) for q in model.states]
    return [
        Strategy(tuple(zip(model.states, combo)))
        for combo in product(*per_state)
    ]


def evaluate_all_strategies(
    model: EnvironmentModel, options: OracleOptions = DEFAULT_OPTIONS
) -> dict[Strategy, dict[State, Rational]]:
    """Exact value table of every strategy."""
    return {
        sigma: evaluate_strategy(model, sigma)
        for sigma in enumerate_strategies(model, options)
    }


def _pointwise_best(
    model: EnvironmentModel, tables: dict[Strategy, dict[State, Rational]]
) -> dict[State, Rational]:
    return {q: max(table[q] for table in tables.values()) for q in model.states}


def oracle_opt(
    model: EnvironmentModel,
    options: OracleOptions = DEFAULT_OPTIONS,
    *,
    tables: dict[Strategy, dict[State, Rational]] | None = None,
) -> list[Strategy]:
    """The optimal strategies, by evaluating every strategy exactly.

    A strategy is kept iff it attains the pointwise maximum value at every
    state. Nonempty for every valid model.
    """
    tables = tables if tables is not None else evaluate_all_strategies(model, options)
    best = _pointwise_best(model, tables)
    return [
        sigma
        for sigma, table in tables.items()
        if all(table[q] == best[q] for q in model.states)
    ]


def oracle_useless(
    model: EnvironmentModel,
    options: OracleOptions = DEFAULT_OPTIONS,
    *,
    tables: dict[Strategy, dict[State, Rational]] | None = None,
) -> frozenset[tuple[State, Action]]:
    """Pairs (q, a), a not the nothing-action, whose one-step value is <= 0
    under every strategy, straight from the definition."""
    tables = tables if tables is not None else evaluate_all_strategies(model, options)
    useless = set()
    for q, a in model.pairs():
        if a == model.nothing_action:
            continue
        best = max(q_value(model, table, q, a) for table in tables.values())
        if best <= 0:
            useless.add((q, a))
    return frozenset(useless)


def oracle_audit(
    model: EnvironmentModel,
    behavior: Behavior,
    options: OracleOptions = DEFAULT_OPTIONS,
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

    tables = tables if tables is not None else evaluate_all_strategies(model, options)

    useless = oracle_useless(model, options, tables=tables)
    if any(pair in useless for pair in behavior.pairs()):
        return True

    optimal = oracle_opt(model, options, tables=tables)
    consistent = [
        sigma
        for sigma in optimal
        if all(sigma[q] == a for q, a in constraints.items())
    ]
    return not consistent


# ---------------------------------------------------------------------------
# Randomized generators for the property suites.


def random_model(
    rng: random.Random,
    *,
    n_states: tuple[int, int] = (2, 5),
    n_actions: tuple[int, int] = (2, 3),
    max_denominator: int = 16,
    max_support: int | None = None,
    reward_range: tuple[int, int] = (-10, 12),
    gammas: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)),
    action_presence: float = 0.85,
    zero_reward_fraction: float = 0.0,
) -> EnvironmentModel:
    """A random small model with exact rational probabilities.

    Rewards are integers straddling zero so that useless pairs occur but are
    not universal; probabilities have bounded denominators so exact arithmetic
    stays cheap. ``zero_reward_fraction`` skews that many pairs to reward 0,
    which manufactures value ties (larger optimal sets, more redundancy).
    """
    n = rng.randint(*n_states)
    states = [f"q{i}" for i in range(n)]
    base_actions = [f"a{i}" for i in range(rng.randint(*n_actions))]

    transitions: dict[tuple[State, Action], dict[State, Fraction]] = {}
    rewards: dict[tuple[State, Action], int] = {}
    for q in states:
        present = [a for a in base_actions if rng.random() < action_presence]
        for a in present:
            support_cap = min(n, max_support or n)
            support = rng.sample(states, rng.randint(1, support_cap))
            denominator = rng.randint(len(support), max_denominator)
            weights = _random_composition(rng, denominator, len(support))
            transitions[(q, a)] = {
                target: Fraction(w, denominator)
                for target, w in zip(support, weights)
            }
            if rng.random() < zero_reward_fraction:
                rewards[(q, a)] = 0
            else:
                rewards[(q, a)] = rng.randint(*reward_range)

    return validate_model(
        states=states,
        actions=base_actions,
        transitions=transitions,
        rewards=rewards,
        discount=rng.choice(gammas),
    )


def _random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Positive integers summing to ``total``, uniformly over compositions."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def random_walk_behavior(
    rng: random.Random,
    model: EnvironmentModel,
    *,
    max_length: int = 6,
    force_pair: tuple[State, Action] | None = None,
) -> Behavior:
    """A random walk along nonzero-probability edges.

    Walks pick actions freely at each visit, so revisiting a state may yield
    an inconsistent behavior; that is intended coverage. ``force_pair`` makes
    the walk start through a chosen (state, action) step.
    """
    if force_pair is not None:
        q, a = force_pair
        steps = [(a, _random_successor(rng, model, q, a))]
        start = q
        q = steps[0][1]
        budget = rng.randint(0, max_length - 1)
    else:
        start = rng.choice(model.states)
        steps = []
        q = start
        budget = rng.randint(0, max_length)
    for _ in range(budget):
        a = rng.choice(model.available_actions(q))
        target = _random_successor(rng, model, q, a)
        steps.append((a, target))
        q = target
    return Behavior(start, tuple(steps))


def random_consistent_behavior(
    rng: random.Random,
    model: EnvironmentModel,
    *,
    max_length: int = 6,
) -> Behavior:
    """A walk driven by a fixed random strategy, so it never forces two
    actions at one state. Stops after one nothing step."""
    choice = {
        q: rng.choice(model.available_actions(q)) for q in model.states
    }
    start = rng.choice(model.states)
    steps: list[tuple[Action, State]] = []
    q = start
    for _ in range(rng.randint(0, max_length)):
        a = choice[q]
        if a == model.nothing_action:
            steps.append((a, q))
            break
        target = _random_successor(rng, model, q, a)
        steps.append((a, target))
        q = target
    return Behavior(start, tuple(steps))


def _random_successor(
    rng: random.Random, model: EnvironmentModel, state: State, action: Action
) -> State:
    return rng.choice(sorted(model.successors(state, action)))
