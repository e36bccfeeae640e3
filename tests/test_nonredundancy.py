from __future__ import annotations

import random
from itertools import combinations

import pytest

from purpose_audit import (
    NOTHING,
    AuditReason,
    Behavior,
    SizeCapExceeded,
    Strategy,
    audit,
    evaluate_strategy,
    validate_model,
)
from purpose_audit import nonredundancy
from purpose_audit.nonredundancy import opt_star_enumerate, precedes
from purpose_audit.oracle import reference
from purpose_audit.traces import (
    ActiveTokens,
    TraceOrder,
    _unrolled,
    compare_active,
    simulate,
)

from conftest import step_one_useless
from generators import random_model


class TestUselessPairs:
    """Useless pairs as ``audit``'s step one finds them, one-step logs each,
    against the oracle's definition."""

    def test_treat_fixture(self, treat):
        useless = step_one_useless(treat)
        assert ("6", "send") in useless
        assert ("1", "take") not in useless
        assert useless == {("6", "send")}

    def test_nothing_never_included(self):
        # A nothing step never trips step one, whatever its Q* reads.
        rng = random.Random(23)
        for _ in range(10):
            model = random_model(rng)
            for q in model.states:
                outcome = audit(model, Behavior((q, NOTHING, q)))
                assert outcome.reason is not AuditReason.STEP_ONE_USELESS

    def test_matches_oracle_on_random_models(self):
        rng = random.Random(29)
        for _ in range(30):
            model = random_model(rng)
            assert step_one_useless(model) == reference(model).useless


class TestUselessReplacement:
    def test_never_lowers_values(self):
        # Swapping useless choices for the nothing-action cannot hurt.
        rng = random.Random(31)
        checked = 0
        while checked < 15:
            model = random_model(rng)
            useless = step_one_useless(model)
            if not useless:
                continue
            checked += 1
            choice = {q: rng.choice(model.available_actions(q)) for q in model.states}
            sigma = Strategy.from_mapping(choice, model)
            swapped = Strategy.from_mapping(
                {q: NOTHING if (q, a) in useless else a for q, a in choice.items()},
                model,
            )
            before = evaluate_strategy(model, sigma)
            after = evaluate_strategy(model, swapped)
            assert all(after[q] >= before[q] for q in model.states)


class TestPrecedes:
    def test_irreflexive(self, treat, sigmas):
        sigma1, _, _ = sigmas
        assert precedes(treat, sigma1, sigma1) is False

    def test_sigma1_precedes_sigma3(self, treat, sigmas):
        sigma1, _, sigma3 = sigmas
        assert precedes(treat, sigma1, sigma3) is True
        assert precedes(treat, sigma3, sigma1) is False

    def test_only_the_larger_trace_reaches_a_chance_node(self, monkeypatch):
        # From s the smaller strategy stops at once, so only the larger one's
        # trace reaches the unresolved chance node (s, go): the enumeration
        # branches there, on t and on u.
        model = validate_model(
            states=["s", "t", "u"],
            actions=["go"],
            transitions={("s", "go"): {"t": "1/2", "u": "1/2"}},
            rewards={("s", "go"): 1},
            discount="1/2",
        )
        stop = Strategy.from_mapping({"s": "N", "t": "N", "u": "N"}, model)
        go = Strategy.from_mapping({"s": "go", "t": "N", "u": "N"}, model)
        assert precedes(model, go, stop) is False
        # One call per start state plus one per branch at (s, go).
        monkeypatch.setattr(nonredundancy, "MAX_CONTINGENCIES", 5)
        assert precedes(model, stop, go) is True
        monkeypatch.setattr(nonredundancy, "MAX_CONTINGENCIES", 4)
        with pytest.raises(SizeCapExceeded):
            precedes(model, stop, go)

    def test_size_cap(self, treat, sigmas, monkeypatch):
        sigma1, _, sigma3 = sigmas
        monkeypatch.setattr(nonredundancy, "MAX_CONTINGENCIES", 1)
        with pytest.raises(SizeCapExceeded):
            precedes(treat, sigma1, sigma3)

    def test_partial_order_on_random_optimal_sets(self):
        rng = random.Random(37)
        models = 0
        while models < 12:
            model = random_model(rng, n_states=(2, 4), max_support=3)
            optimal = reference(model).optimal
            if len(optimal) < 2:
                continue
            models += 1
            verdicts = {}
            for a, b in combinations(optimal[:5], 2):
                verdicts[(a, b)] = precedes(model, a, b)
                verdicts[(b, a)] = precedes(model, b, a)
                # Asymmetry.
                assert not (verdicts[(a, b)] and verdicts[(b, a)])
            # Transitivity on the sampled set.
            front = optimal[:5]
            for a in front:
                for b in front:
                    for c in front:
                        if a == b or b == c or a == c:
                            continue
                        if verdicts.get((a, b)) and verdicts.get((b, c)):
                            assert precedes(model, a, c) is True


class TestOptStar:
    def test_treat_fixture(self, treat, sigmas):
        sigma1, _, sigma3 = sigmas
        survivors = opt_star_enumerate(treat, reference(treat).optimal)
        assert sigma1 in survivors
        assert sigma3 not in survivors
        assert survivors == [sigma1]

    def test_profit_fixture(self, profit, sigmas):
        sigma1, _, _ = sigmas
        assert sigma1 in opt_star_enumerate(profit, reference(profit).optimal)

    def test_all_nothing_model(self):
        # Every optimal strategy stops immediately; nothing precedes stopping.
        model = validate_model(
            states=["x", "y"],
            actions=["go"],
            transitions={("x", "go"): {"y": 1}, ("y", "go"): {"x": 1}},
            rewards={("x", "go"): -1, ("y", "go"): -1},
            discount="1/2",
        )
        survivors = opt_star_enumerate(model, reference(model).optimal)
        all_nothing = Strategy.from_mapping({"x": "N", "y": "N"}, model)
        assert survivors == [all_nothing]

    def test_subset_of_optimal_and_nonempty(self):
        rng = random.Random(41)
        for _ in range(12):
            model = random_model(rng, n_states=(2, 4), max_support=3)
            optimal = reference(model).optimal
            survivors = opt_star_enumerate(model, optimal)
            assert survivors
            assert all(s in optimal for s in survivors)


class TestStationaryVersusOccurrenceIndexed:
    """``precedes`` decides domination exactly over stationary contingencies
    and only samples occurrence-indexed ones. This pins a pair where the two
    orders part: every stationary contingency keeps sigma's trace inside
    sigma-prime's, but a contingency that sends (y2, a) to y3 on its first
    visit and to v on every later one does not, and sigma-prime's trace
    under it never stops, so no horizon-cut sample can see the failure."""

    @staticmethod
    def model():
        return validate_model(
            states=["x", "y1", "y2", "y3", "v"],
            actions=["a", "b", "c"],
            transitions={
                ("x", "a"): {"y1": 1},
                ("x", "b"): {"y2": 1},
                ("y1", "a"): {"y2": 1},
                ("y2", "a"): {"y3": "1/2", "v": "1/2"},
                ("y3", "c"): {"y1": 1},
                ("v", "c"): {"y1": 1},
            },
            rewards={},
            discount="1/2",
        )

    class FirstVisitOnly:
        """kappa((y2, a), 0) = y3 and kappa((y2, a), i) = v for i >= 1."""

        def resolve(self, state, action, occurrence):
            return "y3" if occurrence == 0 else "v"

    def strategies(self, model):
        sigma = Strategy.from_mapping(
            {"x": "a", "y1": "a", "y2": "a", "y3": NOTHING, "v": NOTHING}, model
        )
        sigma_prime = Strategy.from_mapping(
            {"x": "b", "y1": "a", "y2": "a", "y3": "c", "v": "c"}, model
        )
        return sigma, sigma_prime

    def test_stationary_order_says_yes(self):
        model = self.model()
        sigma, sigma_prime = self.strategies(model)
        assert precedes(model, sigma, sigma_prime) is True

    def test_occurrence_indexed_contingency_refutes(self):
        model = self.model()
        sigma, sigma_prime = self.strategies(model)
        kappa = self.FirstVisitOnly()
        smaller = simulate(model, sigma, kappa, "x", horizon=nonredundancy.HORIZON)
        assert smaller == ActiveTokens(
            ("x", "a", "y1", "a", "y2", "a", "y3"), None, True
        )
        # sigma-prime's whole trace: a prefix, then (v c y1 a y2 a) forever.
        larger = ActiveTokens(
            ("x", "b", "y2", "a", "y3", "c", "y1", "a", "y2", "a"),
            ("v", "c", "y1", "a", "y2", "a"),
            True,
        )
        assert compare_active(smaller, larger) is TraceOrder.NEITHER
        # Simulated to the horizon, the larger trace is cut, so the sampled
        # refutation skips it.
        large = simulate(model, sigma_prime, kappa, "x", horizon=nonredundancy.HORIZON)
        known = 2 * nonredundancy.HORIZON + 1
        assert large == ActiveTokens(tuple(_unrolled(larger, known)), None, False)
        assert not large.complete

