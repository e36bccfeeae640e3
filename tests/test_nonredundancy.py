from __future__ import annotations

import random
from itertools import combinations

import pytest

from purpose_audit import (
    Precedence,
    SizeCapExceeded,
    Strategy,
    evaluate_strategy,
    opt_star_enumerate,
    oracle_opt,
    precedes,
    replace_useless_with_nothing,
    useless_pairs,
    validate_model,
)
from purpose_audit.oracle import OracleOptions, oracle_useless, random_model


class TestUselessPairs:
    def test_treat_fixture(self, treat):
        useless = useless_pairs(treat)
        assert ("6", "send") in useless
        assert ("1", "take") not in useless
        assert useless == {("6", "send")}

    def test_nothing_never_included(self):
        rng = random.Random(23)
        for _ in range(10):
            model = random_model(rng)
            assert all(a != "N" for _, a in useless_pairs(model))

    def test_matches_oracle_on_random_models(self):
        rng = random.Random(29)
        for _ in range(30):
            model = random_model(rng)
            assert useless_pairs(model) == oracle_useless(model)


class TestUselessReplacement:
    def test_never_lowers_values(self):
        # Swapping useless choices for the nothing-action cannot hurt.
        rng = random.Random(31)
        checked = 0
        while checked < 15:
            model = random_model(rng)
            useless = useless_pairs(model)
            if not useless:
                continue
            checked += 1
            choice = {q: rng.choice(model.available_actions(q)) for q in model.states}
            sigma = Strategy.from_mapping(choice, model)
            swapped = replace_useless_with_nothing(sigma, useless, model.nothing_action)
            before = evaluate_strategy(model, sigma)
            after = evaluate_strategy(model, swapped)
            assert all(after[q] >= before[q] for q in model.states)


class TestPrecedes:
    def test_irreflexive(self, treat, sigmas):
        sigma1, _, _ = sigmas
        assert precedes(treat, sigma1, sigma1) is Precedence.NO

    def test_sigma1_precedes_sigma3(self, treat, sigmas):
        sigma1, _, sigma3 = sigmas
        assert precedes(treat, sigma1, sigma3) is Precedence.YES
        assert precedes(treat, sigma3, sigma1) is Precedence.NO

    def test_only_the_larger_trace_reaches_a_chance_node(self):
        # From s the smaller strategy stops at once, so only the larger one's
        # trace reaches the unresolved chance node (s, go): the enumeration
        # branches there, on t and on u.
        model = validate_model(
            states=["s", "t", "u"],
            actions=["go"],
            transitions={("s", "go"): {"t": "1/2", "u": "1/2"}},
            rewards={("s", "go"): 1},
            discount="1/2",
            fill_missing_rewards=True,
        )
        stop = Strategy.from_mapping({"s": "N", "t": "N", "u": "N"}, model)
        go = Strategy.from_mapping({"s": "go", "t": "N", "u": "N"}, model)
        assert precedes(model, go, stop) is Precedence.NO
        # One call per start state plus one per branch at (s, go).
        options = OracleOptions(max_contingencies=5)
        assert precedes(model, stop, go, options) is Precedence.YES
        with pytest.raises(SizeCapExceeded):
            precedes(model, stop, go, OracleOptions(max_contingencies=4))

    def test_size_cap(self, treat, sigmas):
        sigma1, _, sigma3 = sigmas
        with pytest.raises(SizeCapExceeded):
            precedes(treat, sigma1, sigma3, OracleOptions(max_contingencies=1))

    def test_partial_order_on_random_optimal_sets(self):
        rng = random.Random(37)
        models = 0
        while models < 12:
            model = random_model(rng, n_states=(2, 4), max_support=3)
            optimal = oracle_opt(model)
            if len(optimal) < 2:
                continue
            models += 1
            verdicts = {}
            for a, b in combinations(optimal[:5], 2):
                verdicts[(a, b)] = precedes(model, a, b)
                verdicts[(b, a)] = precedes(model, b, a)
                # Asymmetry.
                assert not (
                    verdicts[(a, b)] is Precedence.YES
                    and verdicts[(b, a)] is Precedence.YES
                )
            # Transitivity on the sampled set.
            front = optimal[:5]
            for a in front:
                for b in front:
                    for c in front:
                        if a == b or b == c or a == c:
                            continue
                        if (
                            verdicts.get((a, b)) is Precedence.YES
                            and verdicts.get((b, c)) is Precedence.YES
                        ):
                            assert precedes(model, a, c) is Precedence.YES


class TestOptStar:
    def test_treat_fixture(self, treat, sigmas):
        sigma1, _, sigma3 = sigmas
        survivors = opt_star_enumerate(treat)
        assert sigma1 in survivors
        assert sigma3 not in survivors
        assert survivors == [sigma1]

    def test_profit_fixture(self, profit, sigmas):
        sigma1, _, _ = sigmas
        assert sigma1 in opt_star_enumerate(profit)

    def test_all_nothing_model(self):
        # Every optimal strategy stops immediately; nothing precedes stopping.
        model = validate_model(
            states=["x", "y"],
            actions=["go"],
            transitions={("x", "go"): {"y": 1}, ("y", "go"): {"x": 1}},
            rewards={("x", "go"): -1, ("y", "go"): -1},
            discount="1/2",
        )
        survivors = opt_star_enumerate(model)
        all_nothing = Strategy.from_mapping({"x": "N", "y": "N"}, model)
        assert survivors == [all_nothing]

    def test_subset_of_optimal_and_nonempty(self):
        rng = random.Random(41)
        for _ in range(12):
            model = random_model(rng, n_states=(2, 4), max_support=3)
            optimal = oracle_opt(model)
            survivors = opt_star_enumerate(model)
            assert survivors
            assert all(s in optimal for s in survivors)
