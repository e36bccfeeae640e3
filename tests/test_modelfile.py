from __future__ import annotations

import io
import random
import re
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings, strategies as st

from purpose_audit import (
    NOTHING,
    AlternationError,
    DiscountError,
    DistributionError,
    DomainMismatch,
    ModelError,
    NothingActionConflict,
    ParseError,
    PurposeAuditError,
    audit,
    parse_log,
    parse_model,
    validate_model,
)
from purpose_audit.cli import main
from purpose_audit.fixtures import (
    PHYSICIAN_LOG,
    PHYSICIAN_MODEL,
    TRAVEL_LOG,
    TRAVEL_MODEL,
)
from purpose_audit.model import MAX_LITERAL_DIGITS, MAX_LITERAL_EXPONENT
from purpose_audit.modelfile import MAX_REWARD_ENTRIES, _rational, _slices

from generators import random_model


def _format_rational(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def format_model_document(models: dict) -> str:
    """Canonical text for a purpose family; parse(format(parse(x))) == parse(x).

    Nothing-action rows and zero rewards are left implicit.
    """
    items = list(models.items())
    first = items[0][1]
    lines = [
        f"gamma: {_format_rational(first.discount)}",
        "states: " + " ".join(first.states),
        "actions: " + " ".join(a for a in first.actions if a != NOTHING),
        "",
    ]
    position = {q: i for i, q in enumerate(first.states)}
    for q, a in first.pairs():
        if a == NOTHING:
            continue
        targets = ", ".join(
            f"{target} {_format_rational(p)}"
            for target, p in sorted(
                first.successors(q, a).items(), key=lambda kv: position[kv[0]]
            )
        )
        lines.append(f"transition: {q} {a} -> {targets}")
    for name, model in items:
        lines.append("")
        lines.append(f"purpose: {name}")
        for q, a in model.pairs():
            if a == NOTHING:
                continue
            reward = model.rewards[(q, a)]
            if reward != 0:
                lines.append(f"reward: {q} {a} = {_format_rational(reward)}")
    return "\n".join(lines) + "\n"


def format_log(behaviors: list) -> str:
    return "\n".join(" ".join(b.tokens) for b in behaviors) + "\n"


class TestParseModel:
    def test_physician_document(self):
        models = parse_model(PHYSICIAN_MODEL)
        assert set(models) == {"treat", "profit"}
        treat, profit = models["treat"], models["profit"]
        assert treat.transitions == profit.transitions
        assert treat.discount == profit.discount == Fraction(9, 10)
        assert treat.rewards[("2", "send")] == 0
        assert profit.rewards[("2", "send")] == 9

    def test_travel_document(self):
        models = parse_model(TRAVEL_MODEL)
        assert set(models) == {"business", "lecture"}
        business, lecture = models["business"], models["lecture"]
        assert business.rewards[("home", "driveNY")] == 2
        assert business.rewards[("home", "flyNY")] == 1
        assert lecture.rewards[("home", "driveDC")] == 2
        assert lecture.rewards[("home", "flyDC")] == 1
        assert business.transitions == lecture.transitions

    def test_pairs_follow_declared_action_order(self):
        # The transition lines come in neither state nor action order, and the
        # actions line places N between the other two actions.
        models = parse_model(
            "gamma: 1/2\n"
            "states: u s\n"
            "actions: b N a\n"
            "transition: s a -> u 1\n"
            "transition: u N -> u 1\n"
            "transition: s b -> s 1\n"
            "transition: u a -> s 1\n"
            "purpose: p\n"
            "reward: s a = 1\n"
        )
        model = models["p"]
        assert model.actions == ("b", "N", "a")
        assert model._index.available == (("N", "a"), ("b", "N", "a"))
        assert [model.available_actions(q) for q in "us"] == [("N", "a"), ("b", "N", "a")]
        assert list(model.pairs()) == [
            ("u", "N"), ("u", "a"), ("s", "b"), ("s", "N"), ("s", "a"),
        ]

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
        assert zero.rewards[("s", "N")] == 0

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
        assert model.rewards[("a", "x")] == Fraction(1, 4)
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
        text = (
            "gamma: 1/2\nstates: a b\nactions: x\n"
            "transition: a x -> b 1/2\npurpose: p\n"
        )
        with pytest.raises(DistributionError):
            parse_model(text)


def _outcome(call):
    """(type, message, line, column) of the error ``call()`` raises, or None."""
    try:
        call()
    except ParseError as err:
        return type(err), err.message, err.line, err.column
    except (PurposeAuditError, ValueError, TypeError) as err:
        return type(err), str(err), 0, 0
    return None


HEAD = "gamma: 1/2\nstates: a b\nactions: x\n"
ROW = "transition: a x -> b 1\n"
TAIL = ROW + "purpose: p\n"
BODY = HEAD + TAIL
NEGATIVE = "negative probability {} for ('a', 'x') -> {!r}"
UNKNOWN_TARGET = "transition ('a', 'x') targets unknown state {!r}"
NOTHING_ROW = "nothing-action at 'b' must be a self-loop with probability 1"
NOTHING_REWARD = "nothing-action at {!r} must have reward 0"
UNDEFINED = "reward defined for ('b', 'x') but no transition is"

# Every raise of parse_model, _check_distribution, validate_model and
# with_rewards that a document can reach, with its type, message and position.
MALFORMED = [
    (BODY + "  stray words\n", ParseError, "expected 'directive: ...'", 6, 3),
    # A line of only whitespace is blank; the column is that of the first word.
    (BODY + " \t \n\t stray words\n", ParseError, "expected 'directive: ...'", 7, 3),
    ("states:\n", ParseError, "states line lists no states", 1, 0),
    ("actions:  # none\n", ParseError, "actions line lists no actions", 1, 0),
    ("gamma: 1/x\n", ParseError, "bad rational literal '1/x'", 1, 0),
    (HEAD + "transition: a x => b 1\n", ParseError, "transition line needs '->'", 4, 0),
    (
        HEAD + "transition: a -> b 1\n",
        ParseError, "transition head must be '<state> <action>'", 4, 0,
    ),
    (HEAD + ROW + ROW, ParseError, "duplicate transition for a x", 5, 0),
    (
        HEAD + "transition: a x -> b\n",
        ParseError, "each transition target must be '<state> <probability>'", 4, 0,
    ),
    (
        HEAD + "transition: a x -> b 1/2, b 1/2\n",
        ParseError, "duplicate target b in transition", 4, 0,
    ),
    (
        BODY + "purpose: two names\n",
        ParseError, "purpose line needs exactly one name", 6, 0,
    ),
    (BODY + "purpose: p\n", ParseError, "duplicate purpose 'p'", 6, 0),
    (
        HEAD + ROW + "reward: a x = 1\n",
        ParseError, "reward line before any purpose", 5, 0,
    ),
    (BODY + "reward: a x 1\n", ParseError, "reward line needs '='", 6, 0),
    (
        BODY + "reward: a = 1\n",
        ParseError, "reward head must be '<state> <action>'", 6, 0,
    ),
    # The head ends at the first '=', even one inside a token.
    (
        BODY + "reward: s= x = 1\n",
        ParseError, "reward head must be '<state> <action>'", 6, 0,
    ),
    (
        BODY + "reward: a x = 1\nreward: a x = 2\n",
        ParseError, "duplicate reward for ('a', 'x') under purpose 'p'", 7, 0,
    ),
    # The first copy keys the pair by its own tuple, read before the
    # transition line; the second by the transition's.
    (
        HEAD + "purpose: q\nreward: a x = 1\n" + ROW + "reward: a x = 2\n",
        ParseError, "duplicate reward for ('a', 'x') under purpose 'q'", 7, 0,
    ),
    (BODY + "reward: a x = 1/0\n", ParseError, "bad rational literal '1/0'", 6, 0),
    (BODY + "rewards: a x = 1\n", ParseError, "unknown directive 'rewards'", 6, 0),
    ("actions: x\ngamma: 1/2\n", ParseError, "missing 'states:' line", 0, 0),
    ("states: a\ngamma: 1/2\n", ParseError, "missing 'actions:' line", 0, 0),
    ("states: a\nactions: x\n", ParseError, "missing 'gamma:' line", 0, 0),
    (HEAD + "purpose: p\n", ParseError, "no transitions declared", 0, 0),
    (HEAD + ROW, ParseError, "no purposes declared", 0, 0),
    (
        HEAD + "transition: a x -> a 3/2, b -1/2\npurpose: p\n",
        DistributionError, NEGATIVE.format("-1/2", "b"), 0, 0,
    ),
    (
        HEAD + "transition: a x -> a 1/2, b 1/4\npurpose: p\n",
        DistributionError, "probabilities for ('a', 'x') sum to 3/4, not 1", 0, 0,
    ),
    # A row's bad sum is reported before its unknown target.
    (
        HEAD + "transition: a x -> c 1/2\npurpose: p\n",
        DistributionError, "probabilities for ('a', 'x') sum to 1/2, not 1", 0, 0,
    ),
    # A row of zeros sums to 0, however its first entry is spelled.
    (
        HEAD + "transition: a x -> a 0, b 0/3\npurpose: p\n",
        DistributionError, "probabilities for ('a', 'x') sum to 0, not 1", 0, 0,
    ),
    # A negative entry is reported before the row's bad sum.
    (
        HEAD + "transition: a x -> a -1/4, b 1/2\npurpose: p\n",
        DistributionError, NEGATIVE.format("-1/4", "a"), 0, 0,
    ),
    (
        "gamma: 1\nstates: a b\nactions: x\n" + TAIL,
        DiscountError, "discount must satisfy 0 < gamma < 1, got 1", 0, 0,
    ),
    (
        HEAD + "transition: c x -> b 1\npurpose: p\n",
        ModelError, "transition references unknown state 'c'", 0, 0,
    ),
    (
        HEAD + "transition: a y -> b 1\npurpose: p\n",
        ModelError, "transition references unknown action 'y'", 0, 0,
    ),
    (
        HEAD + "transition: a x -> c 1\npurpose: p\n",
        ModelError, UNKNOWN_TARGET.format("c"), 0, 0,
    ),
    (
        HEAD + ROW + "transition: b N -> a 1\npurpose: p\n",
        NothingActionConflict, NOTHING_ROW, 0, 0,
    ),
    # Of two nonzero nothing-action rewards, the first in state order.
    (
        BODY + "reward: b N = 1\nreward: a N = 2\n",
        NothingActionConflict, NOTHING_REWARD.format("a"), 0, 0,
    ),
    (BODY + "reward: b x = 1\n", DomainMismatch, UNDEFINED, 0, 0),
    # Of two undefined pairs, the first listed.
    (BODY + "reward: b x = 1\nreward: a y = 1\n", DomainMismatch, UNDEFINED, 0, 0),
    # A nonzero nothing-action reward is reported before an undefined pair.
    (
        BODY + "reward: b x = 1\nreward: b N = 3\n",
        NothingActionConflict, NOTHING_REWARD.format("b"), 0, 0,
    ),
    # A target is checked even where its probability is zero.
    (
        HEAD + "transition: a x -> b 1, zzz 0\npurpose: p\n",
        ModelError, UNKNOWN_TARGET.format("zzz"), 0, 0,
    ),
    (HEAD + "gamma: 9/10\n" + TAIL, ParseError, "duplicate 'gamma:' line", 4, 0),
    (HEAD + "states: a b c\n" + TAIL, ParseError, "duplicate 'states:' line", 4, 0),
    (HEAD + "actions: x\n" + TAIL, ParseError, "duplicate 'actions:' line", 4, 0),
    (
        "gamma: 1/2\nstates: a b a\nactions: x\n" + TAIL,
        ParseError, "states line lists 'a' twice", 2, 0,
    ),
    (
        "gamma: 1/2\nstates: a b\nactions: x x\n" + TAIL,
        ParseError, "actions line lists 'x' twice", 3, 0,
    ),
]


class TestPinnedErrors:
    """Malformed documents and tables raise exactly these errors."""

    @pytest.mark.parametrize(
        "text, kind, message, line, column",
        MALFORMED,
        ids=[message for _, _, message, _, _ in MALFORMED],
    )
    def test_document(self, text, kind, message, line, column):
        assert _outcome(lambda: parse_model(text)) == (kind, message, line, column)

    def test_zero_probability_target_checked(self):
        text = HEAD + "transition: a x -> b 1, zzz 0\npurpose: p\n"
        row = {("a", "x"): {"b": 1, "zzz": 0}}
        expected = (ModelError, UNKNOWN_TARGET.format("zzz"), 0, 0)
        assert _outcome(lambda: parse_model(text)) == expected
        assert _outcome(
            lambda: validate_model(
                states="ab", actions="x", transitions=row, discount=0.5
            )
        ) == expected

    def test_nothing_action_may_be_listed(self):
        text = "gamma: 1/2\nstates: a b\nactions: x N\n" + TAIL
        assert parse_model(text)["p"].actions == ("x", "N")

    def test_library_tables(self):
        structure = parse_model(BODY)["p"]
        rows = {("a", "x"): {"b": 1}}
        required = "states, actions, transitions and discount are all required"
        assert _outcome(lambda: validate_model(states=["a"], actions=["x"])) == (
            ModelError, required, 0, 0,
        )
        assert _outcome(
            lambda: validate_model(states=[], actions=[], transitions={}, discount=0.5)
        ) == (ModelError, "a model needs at least one state", 0, 0)
        # The library keeps deduplicating names; only the document rejects them.
        twice = validate_model(
            states=["a", "b", "a"], actions=["x", "x"], transitions=rows, discount=0.5
        )
        assert twice.states == ("a", "b") and twice.actions == ("x", NOTHING)
        # Every entry is converted before any nothing-action or domain check.
        late = {("b", "x"): 1, ("a", NOTHING): 5, ("a", "x"): "1/0"}
        assert _outcome(lambda: structure.with_rewards(late)) == (
            ValueError, "bad rational literal '1/0'", 0, 0,
        )
        assert _outcome(lambda: structure.with_rewards({("a", "x"): True})) == (
            TypeError, "cannot interpret True as a rational number", 0, 0,
        )
        assert _outcome(
            lambda: structure.with_rewards({("b", NOTHING): 0.5, ("a", NOTHING): "1"})
        ) == (NothingActionConflict, NOTHING_REWARD.format("a"), 0, 0)
        assert _outcome(
            lambda: structure.with_rewards({("b", "x"): 0, ("b", NOTHING): 0.0})
        ) == (DomainMismatch, UNDEFINED, 0, 0)
        # Of two undefined pairs, the first listed, not the first in state order.
        assert _outcome(
            lambda: structure.with_rewards({("b", "x"): 1, ("a", "y"): 2})
        ) == (DomainMismatch, UNDEFINED, 0, 0)
        # A nonzero nothing-action reward listed after an undefined pair wins.
        assert _outcome(
            lambda: structure.with_rewards({("b", "x"): 1, ("b", NOTHING): 3})
        ) == (NothingActionConflict, NOTHING_REWARD.format("b"), 0, 0)
        mixed = structure.with_rewards({("a", "x"): "0.25", ("b", NOTHING): 0.0})
        assert list(mixed.rewards.items()) == [
            (("a", "x"), Fraction(1, 4)),
            (("a", NOTHING), 0),
            (("b", NOTHING), 0),
        ]
        # A table not handed over by the parser is converted, whatever its values.
        for value in (-3, "-3", -3.0, "5e-1", 0.5):
            reward = structure.with_rewards({("a", "x"): value}).rewards[("a", "x")]
            assert type(reward) is Fraction and reward == Fraction(str(value))


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

    @pytest.mark.parametrize("purposes_first", [1, 3])
    def test_rewards_before_their_transitions(self, purposes_first):
        # Purpose and reward lines may come before the transition lines that
        # define their pairs: the models equal those of the canonical order.
        family = reward_family(7, 3)
        text = format_model_document(family)
        header, rows, *blocks = text.split("\n\n")
        reordered = "\n\n".join(
            [header, *blocks[:purposes_first], rows, *blocks[purposes_first:]]
        )
        assert reordered.index("reward:") < reordered.index("transition:")
        parsed = parse_model(reordered)
        assert parsed == parse_model(text) == family
        for name, model in parsed.items():
            assert list(model.rewards) == list(family[name].rewards)

    def test_random_models_round_trip(self):
        rng = random.Random(103)
        for i in range(10):
            model = random_model(rng)
            text = format_model_document({f"p{i}": model})
            assert parse_model(text) == {f"p{i}": model}


class TestParseLog:
    def test_bundled_log(self, treat):
        b1, b2 = parse_log(PHYSICIAN_LOG, treat)
        assert b1.tokens == ("1", "take", "2", "send", "3", "diagnose", "6", "N", "6")
        assert b2.tokens == ("1", "take", "4", "send", "5", "diagnose", "6", "N", "6")

    def test_travel_log(self, travel):
        both, drive = parse_log(TRAVEL_LOG, travel["business"])
        assert both.start == "home"
        assert list(drive.tokens[1::2]) == ["driveNY", "N"]

    def test_alternation_error(self, treat):
        with pytest.raises(AlternationError):
            parse_log("take 1\n", treat)

    def test_even_length_record_names_its_line(self, treat):
        with pytest.raises(AlternationError) as raised:
            parse_log("1 take 2\n\n# note\n1 take 2 send\n", treat)
        error = raised.value
        assert (error.line, error.column) == (4, 0)
        assert str(error) == (
            "line 4: behavior must alternate state, action, ... starting and "
            "ending with a state"
        )
        # No chained error shows in its traceback.
        assert error.__cause__ is None
        assert error.__context__ is None or error.__suppress_context__

    def test_first_fault_wins(self, treat):
        # Records are read in order, and a record's steps in order.
        cases = (
            ("1 zap 2 take 9\n", 1, "unknown action 'zap' in behavior"),
            ("1 take 2 zap\n1 zap 2\n", 1, None),
            ("1 zap 2\n1 take 2 send\n", 1, "unknown action 'zap' in behavior"),
            ("1 take 2\n1 take 6\n1 take\n", 2,
             "transition '1' --take--> '6' has probability 0"),
        )
        for text, line, message in cases:
            with pytest.raises(ParseError) as raised:
                parse_log(text, treat)
            assert raised.value.line == line
            assert type(raised.value) is (ParseError if message else AlternationError)
            if message:
                assert raised.value.message == message

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
        assert list(b.tokens[1::2]) == ["take", "diagnose", "N", "N"]

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
        index.rows, index.coefficients, index.incoming
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

    @staticmethod
    def _held(call):
        """``call()`` and the bytes that tracemalloc still traces after it,
        which is what its result holds."""
        tracemalloc.start()
        try:
            result = call()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return result, held

    def test_parsed_log_memory_per_record(self):
        # A behavior is its token tuple, with one slotted object around it:
        # about 330 bytes per record here, the nine token strings of each
        # line included. One (action, state) tuple per step besides, and an
        # instance dict, took it to about 560.
        treat = parse_model(PHYSICIAN_MODEL)["treat"]
        text = PHYSICIAN_LOG * 10_000
        parse_log(text, treat)
        behaviors, held = self._held(lambda: parse_log(text, treat))
        assert len(behaviors) == 20_000
        assert held <= 400 * len(behaviors)

    def test_audit_outcomes_memory_per_record(self):
        # A slotted outcome and its list entry take about 80 bytes per
        # record; with an instance dict each took about 185.
        treat = parse_model(PHYSICIAN_MODEL)["treat"]
        behaviors = parse_log(PHYSICIAN_LOG * 10_000, treat)
        audit(treat, behaviors[0])  # solves the model, once
        outcomes, held = self._held(lambda: [audit(treat, b) for b in behaviors])
        assert len(outcomes) == 20_000
        assert held <= 120 * len(outcomes)

    @staticmethod
    def two_documents() -> list[str]:
        rng = random.Random(13)
        documents = []
        for n in (200, 2_000):
            model = random_model(rng, n_states=(n, n), max_support=3)
            documents.append(format_model_document({"p": model, "q": model}))
        return documents

    def test_no_fraction_sums_or_comparisons(self, monkeypatch):
        # Rows are checked and rewards installed with integer and dict work:
        # the only Fraction sums or ordering comparisons left are gamma's
        # range check, whatever the numbers of rows and reward entries.
        documents = self.two_documents()
        counts = Counter()
        for name in ("__add__", "__radd__", "__lt__", "__le__", "__gt__", "__ge__"):
            method = getattr(Fraction, name)

            def counted(a, b, name=name, method=method):
                counts[name] += 1
                return method(a, b)

            monkeypatch.setattr(Fraction, name, counted)
        for text in documents:
            counts.clear()
            parse_model(text)
            assert counts == {"__lt__": 2}

    def test_solver_tables_read_integer_ratios(self, monkeypatch):
        # The float weights, the exact scales and coefficients and the reward
        # numerators are built from each rational's integer ratio, with no
        # float(Fraction) call at all.
        calls = []
        to_float = Rational.__float__

        def counted(value):
            calls.append(value)
            return to_float(value)

        monkeypatch.setattr(Rational, "__float__", counted)
        assert float(Fraction(1, 4)) == 0.25 and len(calls) == 1
        for text in self.two_documents():
            models = parse_model(text).values()
            calls.clear()
            for model in models:
                index = model._index
                index.rows, index.scales, index.coefficients, model._reward_numerators
            assert calls == []

    def test_parse_memory_linear_in_document(self):
        # A parse holds about 5.1 bytes per document byte at its peak, the
        # lines of one 16 KiB slice, the transition heads and the tables
        # included. A string of its own for each name in every transition line
        # would take it to about 6.4, and splitting the whole text into lines
        # at once to about 8.0. A key tuple and names of its own per reward
        # line, kept until the parse ends, would take it to about 11.
        rng = random.Random(17)
        model = random_model(
            rng, n_states=(300, 300), n_actions=(3, 3), max_support=3
        )
        family = {
            f"p{i}": model.with_rewards(
                {
                    (q, a): 0 if a == NOTHING else rng.choice((-3, -2, -1, 1, 2, 3))
                    for q, a in model.transitions
                }
            )
            for i in range(6)
        }
        text = format_model_document(family)
        tracemalloc.start()
        try:
            parse_model(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * len(text)

    def test_validate_memory_per_document_byte(self, tmp_path):
        # `validate` holds each fact of the document once: the text, one
        # slice of its lines, the shared rows, one string per name, and per
        # purpose only the rewards it lists. Its peak, the text included, is
        # about 5.2 bytes per document byte here. A string of its own for
        # each name in every transition line would take it to about 6.6, and
        # splitting the whole text into lines at once to about 8.2.
        rng = random.Random(5)
        model = random_model(
            rng, n_states=(600, 600), n_actions=(3, 3), max_support=3
        )
        family = {
            f"p{i}": model.with_rewards(
                {
                    (q, a): rng.randint(-25, 12)
                    for q, a in model.transitions
                    if a != NOTHING and rng.random() < 0.7
                }
            )
            for i in range(8)
        }
        text = format_model_document(family)
        path = tmp_path / "family.model"
        path.write_text(text, encoding="utf-8")
        argv = ["validate", str(path)]
        main(argv, out=io.StringIO())  # the command line parser is built once
        tracemalloc.start()
        try:
            assert main(argv, out=io.StringIO()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * len(text)

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
        assert big.rewards[("a", "x")] == 10**MAX_LITERAL_EXPONENT
        tiny = parse_model(self.DOCUMENT.format(f"25e-{MAX_LITERAL_EXPONENT}"))["p"]
        assert tiny.rewards[("a", "x")] == Fraction(25, 10**MAX_LITERAL_EXPONENT)
        wide = parse_model(self.DOCUMENT.format("7" * MAX_LITERAL_DIGITS))["p"]
        assert wide.rewards[("a", "x")] == int("7" * MAX_LITERAL_DIGITS)


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


def respell(text: str, rng: random.Random) -> str:
    """``text`` with the same meaning spelled differently: each ':', '=',
    '->' and ',' gets 0-3 spaces or tabs on either side, lines get leading
    and trailing blanks and '# ...' comments, blank and comment-only lines
    are added, and lines end in CRLF."""

    def blanks() -> str:
        return "".join(rng.choice(" \t") for _ in range(rng.randint(0, 3)))

    def separator(match: re.Match) -> str:
        return blanks() + match.group(1) + blanks()

    lines = []
    for line in text.splitlines():
        if line:
            line = blanks() + re.sub(r"[ \t]*(->|[:=,])[ \t]*", separator, line)
            line += blanks()
        if rng.random() < 0.3:
            line += "#" + rng.choice(("", " note", "# : = -> , 1/0"))
        lines.append(line)
        if rng.random() < 0.2:
            lines.append(rng.choice(("", blanks(), blanks() + "# states: x")))
    return "\r\n".join(lines) + "\r\n"


def spell_numbers(text: str, rng: random.Random) -> str:
    """``text`` with each probability and reward literal spelled another way
    of the same value: "a/b", and where it terminates "0.5", "5e-1" or "5E-1";
    an integer also as "-3", "-3.0" or "-30e-1"."""

    def spell(match: re.Match) -> str:
        value = Fraction(match.group(2))
        k = next((k for k in range(8) if (value * 10**k).denominator == 1), None)
        choices = [f"{value.numerator}/{value.denominator}"]
        if k is not None:
            m = int(value * 10**k)
            choices += [str(Decimal(m).scaleb(-k)), f"{m}e-{k}", f"{m * 10}E-{k + 1}"]
            if not k:
                choices.append(f"{m}.0")
        return match.group(1) + rng.choice(choices)

    return re.sub(r"(= |(?:->|,) \S+ )(-?\d+(?:/\d+)?)\b", spell, text)


def assert_fractions(models: dict) -> None:
    """Every probability and reward of ``models`` is exactly a Fraction."""
    for model in models.values():
        for row in model.transitions.values():
            assert all(type(p) is Fraction for p in row.values())
        assert all(type(r) is Fraction for r in model.rewards.values())


class TestSpelling:
    """Comments, blank lines, blanks around separators, line ends and the
    spelling of a number do not change what a document means, and its models
    hold Fractions only."""

    def test_examples(self):
        text = BODY + "reward: a x = 3\n"
        assert parse_model(text) == parse_model(
            "  gamma :1/2\nstates:\ta b # two\n\n# none\nactions: x\r\n"
            "transition:a x->b 1\npurpose :\tp\nreward:a x=3 # r\n"
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 3), st.integers(0, 10**9))
    def test_respelled_document_parses_equal(self, seed, count, spelling):
        family = reward_family(seed, count)
        text = format_model_document(family)
        rng = random.Random(spelling)
        respelled = respell(spell_numbers(text, rng), rng)
        assert respelled != text
        parsed = parse_model(respelled)
        assert parsed == parse_model(text) == family
        # validate_model and with_rewards convert none of the parser's values.
        assert_fractions(parsed)

    def test_number_spellings(self):
        spelled = parse_model(
            "gamma: 9e-1\nstates: a b\nactions: x y\n"
            "transition: a x -> a 0.5, b 5e-1\ntransition: a y -> b 1.0\n"
            "transition: b x -> a 25E-2, b 3/4\npurpose: p\n"
            "reward: a x = -3\nreward: a y = 0.5\nreward: b x = 5e-1\n"
            "purpose: q\nreward: a x = -3.0\nreward: b N = 0e0\n"
        )
        assert_fractions(spelled)
        assert spelled == parse_model(
            "gamma: 9/10\nstates: a b\nactions: x y\n"
            "transition: a x -> a 1/2, b 1/2\ntransition: a y -> b 1\n"
            "transition: b x -> a 1/4, b 3/4\npurpose: p\n"
            "reward: a x = -3\nreward: a y = 1/2\nreward: b x = 1/2\n"
            "purpose: q\nreward: a x = -3\n"
        )


# Every character str.splitlines() breaks at, "\r\n" counted as one break.
LINE_BREAKS = (
    "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
)
line_texts = st.lists(
    st.sampled_from((*LINE_BREAKS, " ", "\t", "#", "reward", "q1 a0"))
).map("".join)


class TestSlices:
    """The model parser splits a document into lines one slice at a time, and
    gets exactly the lines of ``text.splitlines()``."""

    @settings(max_examples=500, deadline=None)
    @given(
        line_texts,
        st.sampled_from(LINE_BREAKS),
        st.sampled_from(LINE_BREAKS),
        line_texts,
        st.integers(1, 6),
    )
    def test_lines_are_splitlines(self, head, before, after, tail, size):
        text = head + before + after + tail
        # The first cut is looked for from between the two breaks.
        for size in (len(head + before), size):
            pieces = list(_slices(text, size))
            assert "".join(pieces) == text
            assert all(piece.endswith("\n") for piece in pieces[:-1])
            lines = [line for piece in pieces for line in piece.splitlines()]
            assert lines == text.splitlines()

    def test_line_numbers_across_slices(self):
        # Past the first slice, errors still name the line of the whole text.
        text = "gamma: 1/2\n" + "# filler\n" * 20_000 + "states a\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert (err.value.line, err.value.column) == (20_002, 1)

    def test_comments_after_a_comment_free_slice(self):
        # A parse looks for '#' in a line only where its slice has one.
        rng = random.Random(8)
        model = random_model(rng, n_states=(250, 250), n_actions=(3, 3), max_support=3)
        text = format_model_document({"p": model, "r": model})
        first = next(_slices(text))
        lines = text[len(first):].splitlines()
        assert "#" not in first and len(text) > 2 * len(first)
        spelled = []
        for line in lines:
            directive, colon, rest = line.partition(":")
            if colon:  # ' reward :', ' transition :', ' purpose :\t'
                pad = "\t" if directive == "purpose" else ""
                line = f" {directive} :{pad}{rest}"
            if rng.random() < 0.3:
                line += " # reward: q0 a0 = 1"
            spelled.append(line)
            if rng.random() < 0.1:
                spelled.append("# purpose: x")
        respelled = first + "\n".join(spelled) + "\n"
        assert next(_slices(respelled)) == first
        assert parse_model(respelled) == parse_model(text)
        at = len(spelled) // 2
        spelled.insert(at, "  stray words # reward: q0 a0 = 1")
        with pytest.raises(ParseError) as err:
            parse_model(first + "\n".join(spelled))
        assert (err.value.line, err.value.column) == (first.count("\n") + at + 1, 3)


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
                assert model.rewards[(q, NOTHING)] == 0

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

    def test_one_string_per_name(self):
        # Keys, row targets, reward keys, states and actions share one object
        # per name, whether the names are declared before or after their use,
        # and every listed reward is keyed by the pair tuple of its transition.
        family = reward_family(8, 3)
        text = format_model_document(family)
        header, _, body = text.partition("\n\n")
        for document in (text, body + header + "\n"):
            parsed = parse_model(document)
            assert parsed == family
            first = next(iter(parsed.values()))
            names = [*first.states, *first.actions]
            for pair, row in first.transitions.items():
                names += (*pair, *row)
            keys = {pair: pair for pair in first.transitions}
            for model in parsed.values():
                for pair in model.rewards:
                    names += pair
                assert model.rewards._listed
                for pair in model.rewards._listed:
                    assert pair is keys[pair]
            assert len({id(name) for name in names}) == len(set(names))

    HEAD = "gamma: 1/2\nstates: a b x=y\nactions: go\ntransition: a go -> b 1\n"

    @pytest.mark.parametrize(
        "text, error",
        [
            # Spelled as its transition, a reward takes the pair from that
            # line; spelled otherwise, it is split again. A duplicate is
            # found either way.
            (
                HEAD + "purpose: p\nreward: a go = 1\nreward: a  go = 2\n",
                ("duplicate reward for ('a', 'go') under purpose 'p'", 7),
            ),
            (
                HEAD + "purpose: p\nreward: a  go = 1\nreward: a go = 2\n",
                ("duplicate reward for ('a', 'go') under purpose 'p'", 7),
            ),
            (
                HEAD + "reward: a go = 1\npurpose: p\n",
                ("reward line before any purpose", 5),
            ),
            # A reward head ends at its first '=', so it never matches a
            # transition head holding one.
            (
                HEAD + "transition: x=y go -> a 1\npurpose: p\nreward: x=y go = 1\n",
                ("reward head must be '<state> <action>'", 7),
            ),
            (
                HEAD + "transition: b go -> a 1/2, b 1/2\npurpose: p\n"
                "reward: a go = 1\nreward: b go = -2\npurpose: q\nreward: b go = 3\n",
                None,
            ),
            (PHYSICIAN_MODEL, None),
            (TRAVEL_MODEL, None),
        ],
        ids=[
            "duplicate-missed",
            "duplicate-hit",
            "before-purpose",
            "equals-in-state",
            "two-purposes",
            "physician",
            "travel",
        ],
    )
    def test_reward_head_spelling_changes_nothing(self, text, error):
        # Each reward head is respelled with a tab and an extra blank, so no
        # reward line is spelled as its transition line: the models, or the
        # error and its line, are the same either way.
        respelled, count = re.subn(
            r"^(reward:\s*\S+)\s+(\S+)", "\\1\t \\2", text, flags=re.MULTILINE
        )
        assert count == len(re.findall("^reward:", text, flags=re.MULTILINE))
        outcomes = []
        for document in (text, respelled):
            try:
                outcomes.append(parse_model(document))
            except ParseError as exc:
                outcomes.append((exc.message, exc.line))
        assert outcomes[0] == outcomes[1]
        if error is None:
            assert isinstance(outcomes[0], dict)
        else:
            assert outcomes[0] == error

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
