"""Randomized model and log generators for the property suites, and the
Bellman backup in plain Fractions that the suites check solutions against.

Every generator draws from the ``random.Random`` it is given, so a seed
reproduces the same models and logs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from purpose_audit.model import (
    NOTHING,
    Action,
    Behavior,
    EnvironmentModel,
    State,
    validate_model,
)


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
        q = _random_successor(rng, model, q, a)
        tokens = [*force_pair, q]
        budget = rng.randint(0, max_length - 1)
    else:
        q = rng.choice(model.states)
        tokens = [q]
        budget = rng.randint(0, max_length)
    for _ in range(budget):
        a = rng.choice(model.available_actions(q))
        q = _random_successor(rng, model, q, a)
        tokens += (a, q)
    return Behavior(tuple(tokens))


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
    q = rng.choice(model.states)
    tokens = [q]
    for _ in range(rng.randint(0, max_length)):
        a = choice[q]
        if a == NOTHING:
            tokens += (a, q)
            break
        q = _random_successor(rng, model, q, a)
        tokens += (a, q)
    return Behavior(tuple(tokens))


def mostly_greedy_walk(
    rng: random.Random, model: EnvironmentModel, solution, max_length: int = 6
) -> Behavior:
    """A walk of a fixed strategy that is greedy at most states of
    ``solution``, so fits, gaps and zero-reward ties all occur; following it
    never forces two actions."""
    choice = {
        q: rng.choice(
            solution.greedy[q]
            if rng.random() < 0.8
            else model.available_actions(q)
        )
        for q in model.states
    }
    q = rng.choice(model.states)
    tokens = [q]
    for _ in range(rng.randint(0, max_length)):
        a = choice[q]
        q = rng.choice(sorted(model.successors(q, a)))
        tokens += (a, q)
    return Behavior(tuple(tokens))


def _random_successor(
    rng: random.Random, model: EnvironmentModel, state: State, action: Action
) -> State:
    return rng.choice(sorted(model.successors(state, action)))


def lookahead(model: EnvironmentModel, values, q: State, a: Action) -> Fraction:
    """r(q, a) + gamma * sum t(q, a)(q') values[q'], in plain Fractions."""
    expected = sum(p * values[t] for t, p in model.successors(q, a).items())
    return model.rewards[(q, a)] + model.discount * expected


def q_on(model: EnvironmentModel, values) -> dict:
    """Q per defined pair, one backup from ``values``."""
    return {pair: lookahead(model, values, *pair) for pair in model.pairs()}


def bellman_residual(model: EnvironmentModel, values) -> Fraction:
    """max over states of |values[q] - max_a lookahead(q, a)|: exactly 0
    for V*."""
    return max(
        abs(v - max(lookahead(model, values, q, a) for a in model.available_actions(q)))
        for q, v in values.items()
    )
