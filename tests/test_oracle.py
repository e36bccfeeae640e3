from __future__ import annotations

import ast
import inspect
import random

import pytest

from purpose_audit import (
    Behavior,
    SizeCapExceeded,
    Strategy,
    audit,
    evaluate_strategy,
    solve_optimal,
    validate_model,
)
from purpose_audit import oracle, solve
from purpose_audit.oracle import (
    enumerate_strategies,
    reference,
    strategy_space_size,
    strategy_values,
)

from generators import (
    lookahead,
    random_consistent_behavior,
    random_model,
    random_walk_behavior,
)


def max_q_over_strategies(model, state, action):
    """max over strategies of the one-step value of (state, action)."""
    tables = reference(model).tables.values()
    return max(lookahead(model, table, state, action) for table in tables)


def flat(states, actions, rewards, gamma="1/2"):
    transitions = {
        (q, a): {q: 1} for q in states for a in actions
    }
    return validate_model(
        states=states,
        actions=actions,
        transitions=transitions,
        rewards={pair: rewards.get(pair, 0) for pair in transitions},
        discount=gamma,
    )


class TestEnumeration:
    def test_one_state_two_actions(self):
        model = flat(["s"], ["a"], {})
        assert len(enumerate_strategies(model)) == 2  # a and N

    def test_two_states_three_actions(self):
        model = flat(["s", "u"], ["a", "b"], {})
        assert len(enumerate_strategies(model)) == 9  # (a, b, N)^2

    def test_physician_count_frozen(self, treat):
        # Per-state availability: 2 * 3 * 2 * 2 * 2 * 2.
        assert strategy_space_size(treat) == 96
        assert len(enumerate_strategies(treat)) == 96

    def test_each_exactly_once(self, treat):
        strategies = enumerate_strategies(treat)
        assert len(set(strategies)) == len(strategies)

    def test_cap(self, treat, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_STRATEGIES", 95)
        with pytest.raises(SizeCapExceeded):
            enumerate_strategies(treat)


class TestOracleOpt:
    def test_treat_membership(self, treat, sigmas):
        sigma1, sigma2, sigma3 = sigmas
        optimal = reference(treat).optimal
        assert sigma1 in optimal
        assert sigma3 in optimal
        assert sigma2 not in optimal
        assert len(optimal) == 2

    def test_unique_dominant_action(self):
        model = flat(["s"], ["good", "bad"], {("s", "good"): 5, ("s", "bad"): 1})
        optimal = reference(model).optimal
        assert len(optimal) == 1
        assert optimal[0]["s"] == "good"

    def test_all_zero_rewards_make_everything_optimal(self):
        model = flat(["s", "u"], ["a"], {})
        assert len(reference(model).optimal) == len(enumerate_strategies(model))

    def test_nonempty_on_random_models(self):
        rng = random.Random(67)
        for _ in range(20):
            model = random_model(rng)
            optimal = reference(model).optimal
            assert optimal
            for sigma in optimal:
                values = evaluate_strategy(model, sigma)
                assert values == dict(solve_optimal(model).v_star)


class TestOracleUseless:
    def test_agrees_with_engine_on_treat(self, treat):
        assert reference(treat).useless == {("6", "send")}

    def test_all_negative_rewards(self):
        model = flat(["s", "u"], ["a"], {("s", "a"): -1, ("u", "a"): -2})
        assert reference(model).useless == {("s", "a"), ("u", "a")}

    def test_zero_one_step_value_is_useless(self):
        # Every reward is 0, so every pair's best one-step value is exactly
        # 0: the boundary of the definition, Q* <= 0.
        model = flat(["s", "u"], ["a"], {})
        assert reference(model).useless == {("s", "a"), ("u", "a")}
        assert solve_optimal(model)._useless == {("s", "a"), ("u", "a")}

    def test_max_q_matches_q_star(self):
        rng = random.Random(71)
        for _ in range(10):
            model = random_model(rng, n_states=(2, 4))
            v_star = solve_optimal(model).v_star
            for q, a in model.pairs():
                q_star = lookahead(model, v_star, q, a)
                assert max_q_over_strategies(model, q, a) == q_star


class TestOracleAudit:
    def test_fixture_logs(self, treat, logs):
        b1, b2 = logs
        ref = reference(treat)
        assert ref.empty(b1) is True
        assert ref.empty(b2) is False

    def test_bare_state(self, treat):
        assert reference(treat).empty(Behavior(("4",))) is False

    def test_inconsistent_behavior_is_empty(self, treat):
        clash = Behavior(("2", "diagnose", "6", "send", "6", "N", "6"))
        assert reference(treat).empty(clash) is True

    def test_agrees_with_engine_on_random_pairs(self):
        rng = random.Random(73)
        for _ in range(40):
            model = random_model(rng, n_states=(2, 4))
            behavior = random_walk_behavior(rng, model)
            assert (
                audit(model, behavior).empty_intersection
                == reference(model).empty(behavior)
            )


class TestGenerators:
    def test_models_validate_and_vary(self):
        rng = random.Random(79)
        sizes = set()
        for _ in range(20):
            model = random_model(rng)
            sizes.add(len(model.states))
            total = sum(
                sum(dist.values()) for dist in model.transitions.values()
            )
            assert total == len(model.transitions)  # each row sums to one
        assert len(sizes) > 1

    def test_probability_denominators_bounded(self):
        rng = random.Random(83)
        for _ in range(10):
            model = random_model(rng)
            for dist in model.transitions.values():
                for p in dist.values():
                    assert p.denominator <= 16

    def test_walks_fit_their_model(self):
        from purpose_audit import validate_behavior

        rng = random.Random(89)
        for _ in range(30):
            model = random_model(rng)
            validate_behavior(model, random_walk_behavior(rng, model))

    def test_forced_pair_walks_start_through_it(self):
        rng = random.Random(97)
        found = 0
        while found < 5:
            model = random_model(rng)
            useless = reference(model).useless
            if not useless:
                continue
            found += 1
            pair = sorted(useless)[0]
            walk = random_walk_behavior(rng, model, force_pair=pair)
            assert walk.pairs()[0] == pair

    def test_consistent_walks_are_consistent(self):
        from purpose_audit import observed_choices

        rng = random.Random(101)
        for _ in range(30):
            model = random_model(rng)
            observed_choices(random_consistent_behavior(rng, model))


class TestOracleIndependence:
    def test_imports_nothing_from_solve(self):
        tree = ast.parse(inspect.getsource(oracle))
        imported = [
            node.module or ""
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ] + [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        ]
        assert not [name for name in imported if name.split(".")[-1] == "solve"]
        assert not [
            name
            for name, value in vars(oracle).items()
            if getattr(value, "__module__", None) == "purpose_audit.solve"
        ]

    def test_runs_with_the_solver_disabled(self, treat, logs, monkeypatch):
        def disabled(*args, **kwargs):
            raise AssertionError("the oracle called the solver")

        for name, value in vars(solve).items():
            if callable(value) and not isinstance(value, type):
                monkeypatch.setattr(solve, name, disabled)
        ref = reference(treat)
        assert ref.useless == {("6", "send")}
        assert [ref.empty(b) for b in logs] == [True, False]

    def test_values_match_engine(self):
        rng = random.Random(83)
        for _ in range(30):
            model = random_model(rng, n_states=(2, 6), zero_reward_fraction=0.3)
            choice = {q: rng.choice(model.available_actions(q)) for q in model.states}
            sigma = Strategy.from_mapping(choice, model)
            assert strategy_values(model, sigma) == evaluate_strategy(model, sigma)
