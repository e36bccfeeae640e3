from __future__ import annotations

import random

import pytest

from purpose_audit import (
    Behavior,
    SizeCapExceeded,
    audit,
    enumerate_strategies,
    evaluate_strategy,
    oracle_audit,
    oracle_opt,
    oracle_useless,
    solve_optimal,
    validate_model,
)
from purpose_audit.oracle import (
    DEFAULT_OPTIONS,
    OracleOptions,
    evaluate_all_strategies,
    random_consistent_behavior,
    random_model,
    random_walk_behavior,
    strategy_space_size,
)
from purpose_audit.solve import q_value


def max_q_over_strategies(model, state, action, options=DEFAULT_OPTIONS):
    """max over strategies of the one-step value of (state, action)."""
    tables = evaluate_all_strategies(model, options)
    return max(q_value(model, table, state, action) for table in tables.values())


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

    def test_cap(self, treat):
        with pytest.raises(SizeCapExceeded):
            enumerate_strategies(treat, OracleOptions(max_strategies=95))


class TestOracleOpt:
    def test_treat_membership(self, treat, sigmas):
        sigma1, sigma2, sigma3 = sigmas
        optimal = oracle_opt(treat)
        assert sigma1 in optimal
        assert sigma3 in optimal
        assert sigma2 not in optimal
        assert len(optimal) == 2

    def test_unique_dominant_action(self):
        model = flat(["s"], ["good", "bad"], {("s", "good"): 5, ("s", "bad"): 1})
        optimal = oracle_opt(model)
        assert len(optimal) == 1
        assert optimal[0]["s"] == "good"

    def test_all_zero_rewards_make_everything_optimal(self):
        model = flat(["s", "u"], ["a"], {})
        assert len(oracle_opt(model)) == len(enumerate_strategies(model))

    def test_nonempty_on_random_models(self):
        rng = random.Random(67)
        for _ in range(20):
            model = random_model(rng)
            optimal = oracle_opt(model)
            assert optimal
            for sigma in optimal:
                values = evaluate_strategy(model, sigma)
                assert values == dict(solve_optimal(model).v_star)


class TestOracleUseless:
    def test_agrees_with_engine_on_treat(self, treat):
        assert oracle_useless(treat) == {("6", "send")}

    def test_all_negative_rewards(self):
        model = flat(["s", "u"], ["a"], {("s", "a"): -1, ("u", "a"): -2})
        assert oracle_useless(model) == {("s", "a"), ("u", "a")}

    def test_max_q_matches_q_star(self):
        rng = random.Random(71)
        for _ in range(10):
            model = random_model(rng, n_states=(2, 4))
            solution = solve_optimal(model)
            for q, a in model.pairs():
                assert max_q_over_strategies(model, q, a) == solution.q_star[(q, a)]


class TestOracleAudit:
    def test_fixture_logs(self, treat, logs):
        b1, b2 = logs
        assert oracle_audit(treat, b1) is True
        assert oracle_audit(treat, b2) is False

    def test_bare_state(self, treat):
        assert oracle_audit(treat, Behavior("4")) is False

    def test_inconsistent_behavior_is_empty(self, treat):
        clash = Behavior.from_tokens(["2", "diagnose", "6", "send", "6", "N", "6"])
        assert oracle_audit(treat, clash) is True

    def test_agrees_with_engine_on_random_pairs(self):
        rng = random.Random(73)
        for _ in range(40):
            model = random_model(rng, n_states=(2, 4))
            behavior = random_walk_behavior(rng, model)
            assert (
                audit(model, behavior).empty_intersection
                == oracle_audit(model, behavior)
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
            useless = oracle_useless(model)
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
