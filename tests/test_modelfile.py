from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from purpose_audit import (
    NOTHING,
    AlternationError,
    DomainMismatch,
    NothingActionConflict,
    ParseError,
    PurposeAuditError,
    format_log,
    format_model_document,
    parse_log,
    parse_model,
    validate_model,
)
from purpose_audit.fixtures import (
    PHYSICIAN_LOG,
    PHYSICIAN_MODEL,
    TRAVEL_LOG,
    TRAVEL_MODEL,
)
from purpose_audit.modelfile import (
    MAX_LITERAL_DIGITS,
    MAX_LITERAL_EXPONENT,
    MAX_REWARD_ENTRIES,
    _rational,
)

from generators import random_model


class TestParseModel:
    def test_physician_document(self):
        models = parse_model(PHYSICIAN_MODEL)
        assert set(models) == {"treat", "profit"}
        treat, profit = models["treat"], models["profit"]
        assert treat.transitions == profit.transitions
        assert treat.discount == profit.discount == Fraction(9, 10)
        assert treat.reward("2", "send") == 0
        assert profit.reward("2", "send") == 9

    def test_travel_document(self):
        models = parse_model(TRAVEL_MODEL)
        assert set(models) == {"business", "lecture"}
        business, lecture = models["business"], models["lecture"]
        assert business.reward("home", "driveNY") == 2
        assert business.reward("home", "flyNY") == 1
        assert lecture.reward("home", "driveDC") == 2
        assert lecture.reward("home", "flyDC") == 1
        assert business.transitions == lecture.transitions

    def test_purposes_share_one_structure(self):
        treat, profit = parse_model(PHYSICIAN_MODEL).values()
        assert treat.transitions is profit.transitions

    def test_nothing_reward_rejected_declared_or_implicit(self):
        body = (
            "gamma: 1/2\nstates: s t\nactions: go\ntransition: s go -> t 1\n{}"
            "purpose: p\nreward: s N = 5\n"
        )
        with pytest.raises(NothingActionConflict) as implicit:
            parse_model(body.format(""))
        with pytest.raises(NothingActionConflict) as declared:
            parse_model(body.format("transition: s N -> s 1\n"))
        assert str(implicit.value) == str(declared.value)
        zero = parse_model(body.format("").replace("= 5", "= 0"))["p"]
        assert zero.reward("s", "N") == 0

    def test_missing_gamma(self):
        text = "states: a\nactions: x\ntransition: a x -> a 1\npurpose: p\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert "gamma" in str(err.value)

    def test_decimal_probabilities_exact(self):
        text = (
            "gamma: 0.5\nstates: a b\nactions: x\n"
            "transition: a x -> a 0.9, b 0.1\npurpose: p\nreward: a x = 0.25\n"
        )
        model = parse_model(text)["p"]
        assert model.successors("a", "x") == {"a": Fraction(9, 10), "b": Fraction(1, 10)}
        assert model.reward("a", "x") == Fraction(1, 4)
        assert model.discount == Fraction(1, 2)

    def test_errors_carry_line_numbers(self):
        text = "gamma: 1/2\nstates: a\nactions: x\ntransition: a x => a 1\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert err.value.line == 4

    def test_reward_before_purpose(self):
        text = (
            "gamma: 1/2\nstates: a\nactions: x\n"
            "transition: a x -> a 1\nreward: a x = 1\npurpose: p\n"
        )
        with pytest.raises(ParseError):
            parse_model(text)

    def test_duplicate_purpose(self):
        text = (
            "gamma: 1/2\nstates: a\nactions: x\ntransition: a x -> a 1\n"
            "purpose: p\npurpose: p\n"
        )
        with pytest.raises(ParseError):
            parse_model(text)

    def test_validation_passthrough(self):
        # Reward on an undefined pair surfaces as a model error, not a parse error.
        text = (
            "gamma: 1/2\nstates: a b\nactions: x\n"
            "transition: a x -> b 1\npurpose: p\nreward: b x = 1\n"
        )
        with pytest.raises(DomainMismatch):
            parse_model(text)

    def test_bad_distribution_passthrough(self):
        from purpose_audit import DistributionError

        text = (
            "gamma: 1/2\nstates: a b\nactions: x\n"
            "transition: a x -> b 1/2\npurpose: p\n"
        )
        with pytest.raises(DistributionError):
            parse_model(text)


class TestRoundTrip:
    def test_physician_round_trip_bit_exact(self):
        models = parse_model(PHYSICIAN_MODEL)
        printed = format_model_document(models)
        assert parse_model(printed) == models
        # Canonical form is a fixed point of format(parse(.)).
        assert format_model_document(parse_model(printed)) == printed

    def test_travel_round_trip(self):
        models = parse_model(TRAVEL_MODEL)
        assert parse_model(format_model_document(models)) == models

    def test_random_models_round_trip(self):
        rng = random.Random(103)
        for i in range(10):
            model = random_model(rng)
            text = format_model_document({f"p{i}": model})
            assert parse_model(text) == {f"p{i}": model}


class TestParseLog:
    def test_bundled_log(self, treat):
        b1, b2 = parse_log(PHYSICIAN_LOG, treat)
        assert b1.tokens() == ["1", "take", "2", "send", "3", "diagnose", "6", "N", "6"]
        assert b2.tokens() == ["1", "take", "4", "send", "5", "diagnose", "6", "N", "6"]

    def test_travel_log(self, travel):
        both, drive = parse_log(TRAVEL_LOG, travel["business"])
        assert both.start == "home"
        assert drive.actions() == ["driveNY", "N"]

    def test_alternation_error(self, treat):
        with pytest.raises(AlternationError):
            parse_log("take 1\n", treat)

    def test_unknown_tokens_are_hard_errors(self, treat):
        with pytest.raises(ParseError):
            parse_log("1 take 9\n", treat)
        with pytest.raises(ParseError):
            parse_log("1 zap 2\n", treat)

    def test_zero_probability_step_rejected(self, treat):
        with pytest.raises(ParseError):
            parse_log("1 take 6\n", treat)

    def test_trailing_nothing_runs_preserved(self, treat):
        (b,) = parse_log("1 take 2 diagnose 6 N 6 N 6\n", treat)
        assert b.actions() == ["take", "diagnose", "N", "N"]

    def test_format_round_trip(self, treat):
        behaviors = parse_log(PHYSICIAN_LOG, treat)
        assert parse_log(format_log(behaviors), treat) == behaviors


class TestLinearInSize:
    """Parsing, validation and indexing cost grows with the document, not
    with the product of two of its sizes."""

    N = 12_000

    def test_many_states_and_actions(self):
        n = self.N
        text = (
            "states: " + " ".join(f"s{i}" for i in range(n)) + "\n"
            "actions: " + " ".join(f"a{i}" for i in range(n)) + "\n"
            "gamma: 1/2\ntransition: s0 a0 -> s1 1\npurpose: p\nreward: s0 a0 = 1\n"
        )
        start = time.perf_counter()
        model = parse_model(text)["p"]
        index = model._index
        index.rows, index.coefficients, index.predecessors
        assert time.perf_counter() - start < 2.0
        assert index.pairs[:3] == (("s0", "a0"), ("s0", NOTHING), ("s1", NOTHING))
        assert len(index.pairs) == n + 1

    def test_long_log(self):
        n = self.N
        text = (
            "states: " + " ".join(f"s{i}" for i in range(n)) + "\n"
            "actions: go\ngamma: 1/2\ntransition: s0 go -> s1 1\npurpose: p\n"
        )
        model = parse_model(text)["p"]
        log = "".join(f"s{i}\n" for i in range(n))
        start = time.perf_counter()
        behaviors = parse_log(log, model)
        assert time.perf_counter() - start < 2.0
        assert [b.start for b in behaviors[:2]] == ["s0", "s1"]
        assert len(behaviors) == n

    def test_purposes_times_pairs_capped(self):
        # 1,001 pairs (one transition and a nothing row per state) under
        # 1,000 purposes is just over the cap on reward-table entries.
        states, purposes = 1_000, 1_000
        assert purposes * (states + 1) > MAX_REWARD_ENTRIES
        text = (
            "states: " + " ".join(f"s{i}" for i in range(states)) + "\n"
            "actions: go\ngamma: 1/2\ntransition: s0 go -> s1 1\n"
            + "".join(f"purpose: p{i}\n" for i in range(purposes))
        )
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert time.perf_counter() - start < 0.5
        assert "1000 purposes times 1001" in err.value.message


class TestLiteralBounds:
    DOCUMENT = (
        "gamma: 9/10\nstates: a b\nactions: x\n"
        "transition: a x -> b 1\npurpose: p\nreward: a x = {}\n"
    )

    def test_huge_exponent_fails_fast(self):
        # Building this value exactly takes seconds; the bound rejects it first.
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_model(self.DOCUMENT.format("1e10000000"))
        assert time.perf_counter() - start < 0.5
        assert err.value.line == 6
        assert "exponent" in err.value.message

    def test_too_many_digits_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_model(self.DOCUMENT.format("1" * (MAX_LITERAL_DIGITS + 1)))
        assert err.value.line == 6

    def test_literals_at_the_bounds_accepted(self):
        big = parse_model(self.DOCUMENT.format(f"1e{MAX_LITERAL_EXPONENT}"))["p"]
        assert big.reward("a", "x") == 10**MAX_LITERAL_EXPONENT
        tiny = parse_model(self.DOCUMENT.format(f"25e-{MAX_LITERAL_EXPONENT}"))["p"]
        assert tiny.reward("a", "x") == Fraction(25, 10**MAX_LITERAL_EXPONENT)
        wide = parse_model(self.DOCUMENT.format("7" * MAX_LITERAL_DIGITS))["p"]
        assert wide.reward("a", "x") == int("7" * MAX_LITERAL_DIGITS)


def reward_family(seed: int, count: int) -> dict:
    """A random structure with ``count`` reward tables on it."""
    rng = random.Random(seed)
    model = random_model(rng, zero_reward_fraction=0.3)
    return {
        f"p{i}": model.with_rewards(
            {
                (q, a): 0 if a == NOTHING else rng.randint(-9, 9)
                for q, a in model.transitions
            }
        )
        for i in range(count)
    }


class TestNothingAtEveryState:
    """Every validated model, built directly or parsed from a document, has
    (q, N) -> {q: 1} with reward 0 at every state, so no state is left
    without an available action; a declared N row that is not that
    self-loop is rejected."""

    @staticmethod
    def _model(seed: int, presence: float):
        # A low action presence leaves states with no action but N.
        return random_model(
            random.Random(seed), action_presence=presence, zero_reward_fraction=0.3
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from((0.2, 0.5, 0.85)))
    def test_self_loop_with_reward_zero(self, seed, presence):
        built = self._model(seed, presence)
        models = [built]
        if any(a != NOTHING for _, a in built.transitions):
            models.append(parse_model(format_model_document({"p": built}))["p"])
        for model in models:
            for q in model.states:
                assert NOTHING in model.available_actions(q)
                assert model.successors(q, NOTHING) == {q: 1}
                assert model.reward(q, NOTHING) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from((0.2, 0.5, 0.85)), st.data())
    def test_declared_non_self_loop_rejected(self, seed, presence, data):
        model = self._model(seed, presence)
        q = data.draw(st.sampled_from(model.states))
        other = data.draw(st.sampled_from([t for t in model.states if t != q]))
        row = data.draw(
            st.sampled_from(
                [{other: Fraction(1)}, {q: Fraction(1, 2), other: Fraction(1, 2)}]
            )
        )
        targets = ", ".join(f"{t} {p}" for t, p in row.items())
        lines = format_model_document({"p": model}).split("\n")
        # After the gamma, states and actions lines.
        lines.insert(3, f"transition: {q} {NOTHING} -> {targets}")
        with pytest.raises(NothingActionConflict, match=repr(q)):
            parse_model("\n".join(lines))
        with pytest.raises(NothingActionConflict, match=repr(q)):
            validate_model(
                states=model.states,
                actions=model.actions,
                transitions={**model.transitions, (q, NOTHING): row},
                rewards=model.rewards,
                discount=model.discount,
            )


class TestSharedStructure:
    """``parse_model`` validates the structure once and shares it."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 4))
    def test_equals_per_purpose_validation(self, seed, count):
        family = reward_family(seed, count)
        parsed = parse_model(format_model_document(family))
        assert parsed == family
        first = next(iter(parsed.values()))
        for name, model in parsed.items():
            assert model.transitions is first.transitions
            alone = validate_model(
                states=model.states,
                actions=model.actions,
                transitions=family[name].transitions,
                rewards=family[name].rewards,
                discount=model.discount,
            )
            assert model == alone
            assert list(model.rewards) == list(alone.rewards)

    def test_long_literal_under_last_purpose(self):
        family = reward_family(5, 3)
        q, a = next(iter(family["p0"].transitions))
        text = format_model_document(family) + "purpose: last\n"
        line_no = text.count("\n") + 1
        bad = text + f"reward: {q} {a} = {'1' * (MAX_LITERAL_DIGITS + 1)}\n"
        with pytest.raises(ParseError) as err:
            parse_model(bad)
        assert err.value.line == line_no
        assert "digits" in err.value.message

    def test_undefined_pair_under_last_purpose(self):
        text = format_model_document(reward_family(6, 3))
        with pytest.raises(DomainMismatch):
            parse_model(text + "reward: q0 nowhere = 1\n")

    def test_rejected_token_is_rejected_again(self):
        literals = {}
        for line_no in (3, 8):
            with pytest.raises(ParseError) as err:
                _rational("1/0", line_no, literals)
            assert err.value.line == line_no
        assert literals == {}
        assert _rational("1/4", 9, literals) is _rational("1/4", 12, literals)
        text = (
            "gamma: 1/2\nstates: a b\nactions: x y\n"
            "transition: a x -> b 1\ntransition: a y -> b 1e999\n"
        )
        for _ in range(2):
            with pytest.raises(ParseError) as err:
                parse_model(text)
            assert err.value.line == 5


HEADER = "gamma: 1/2\nstates: a b\nactions: x y\n"
DIRECTIVES = ("gamma:", "states:", "actions:", "transition:", "purpose:", "reward:")
NAMES = ("a", "b", "x", "y", "N", "zz")
NUMBERS = ("1", "0", "5", "-1", "1/2", "1/0", "0.5", "1e400", "1e-3", "nan", "inf")
WORDS = (*NAMES, *NUMBERS, "->", "=", ",", ":", "#", "\t", *DIRECTIVES)
names, numbers = st.sampled_from(NAMES), st.sampled_from(NUMBERS)
words = st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join)
targets = st.lists(st.tuples(names, numbers).map(" ".join), max_size=3).map(", ".join)
lines = st.one_of(
    st.text(max_size=80),
    words,
    st.tuples(st.sampled_from(DIRECTIVES), words).map(" ".join),
    st.tuples(names, names, targets).map("transition: {0[0]} {0[1]} -> {0[2]}".format),
    st.tuples(names, names, numbers).map("reward: {0[0]} {0[1]} = {0[2]}".format),
    names.map("purpose: {}".format),
)
# No header, a header, or a whole valid document, then fuzzed lines.
PREFIXES = ("", HEADER, HEADER + "transition: a x -> b 1\npurpose: p\n")
documents = st.tuples(st.sampled_from(PREFIXES), st.lists(lines, max_size=6)).map(
    lambda parts: parts[0] + "\n".join(parts[1])
)


class TestParserFuzz:
    """Any text either parses or raises a PurposeAuditError."""

    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_parse_model(self, text):
        try:
            parse_model(text)
        except PurposeAuditError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_parse_log(self, text):
        model = parse_model(PREFIXES[2])["p"]
        try:
            parse_log(text, model)
        except PurposeAuditError:
            pass
