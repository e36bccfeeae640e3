from __future__ import annotations

import math
import random
import time
import unicodedata
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from purpose_audit import (
    NOTHING,
    Behavior,
    DiscountError,
    DistributionError,
    DomainMismatch,
    EnvironmentModel,
    InconsistentBehavior,
    BehaviorError,
    NothingActionConflict,
    ParseError,
    Strategy,
    StrategyError,
    as_rational,
    audit,
    compute_fix,
    observed_choices,
    parse_log,
    solve_optimal,
    validate_behavior,
    validate_model,
)
from purpose_audit.errors import ModelError
from purpose_audit.model import (
    MAX_LITERAL_DIGITS,
    MAX_LITERAL_EXPONENT,
    RewardTable,
    _check_distribution,
)

from generators import random_model, random_walk_behavior


# Decimal digits of three scripts: ASCII, ARABIC-INDIC and FULLWIDTH.
LITERAL_DIGITS = "0123456789" "\u0660\u0661\u0662\u0663\u0669" "\uff10\uff11\uff15\uff19"


def digit_runs(max_chunks=3, max_size=3):
    """A run of digits as chunks: its spelling joins them with single
    underscores, its value reads the digits by their Unicode decimal value."""
    chunk = st.text(st.sampled_from(LITERAL_DIGITS), min_size=1, max_size=max_size)
    return st.lists(chunk, min_size=1, max_size=max_chunks)


def run_value(chunks) -> int:
    value = 0
    for ch in "".join(chunks):
        value = 10 * value + unicodedata.decimal(ch)
    return value


def run_length(chunks) -> int:
    return sum(map(len, chunks))


@st.composite
def spelled_literals(draw):
    """A literal spelled from parts, and its value computed from those parts
    with integer arithmetic: optional whitespace, an optional sign, then a
    ratio of two runs, or a decimal with an optional point part and exponent."""
    space = st.sampled_from(["", " ", "\t", "\n", " \r\n", "\u00a0"])
    sign = draw(st.sampled_from(["", "+", "-"]))
    if draw(st.booleans()):
        numerator = draw(digit_runs())
        denominator = draw(digit_runs().filter(run_value))
        body = "_".join(numerator) + "/" + "_".join(denominator)
        n, d = run_value(numerator), run_value(denominator)
    else:
        whole = draw(st.none() | digit_runs())
        point = draw(st.none() | st.just([]) | digit_runs())
        if whole is None and not point:
            whole = draw(digit_runs())
        body = "_".join(whole or [])
        n, shift = run_value(whole or []), 0
        if point is not None:
            body += "." + "_".join(point)
            n = n * 10 ** run_length(point) + run_value(point)
            shift -= run_length(point)
        if draw(st.booleans()):
            exponent_sign = draw(st.sampled_from(["", "+", "-"]))
            exponent = draw(digit_runs(max_chunks=2, max_size=1))
            body += draw(st.sampled_from("eE")) + exponent_sign + "_".join(exponent)
            shift += -run_value(exponent) if exponent_sign == "-" else run_value(exponent)
        n, d = n * 10 ** max(shift, 0), 10 ** max(-shift, 0)
    text = draw(space) + sign + body + draw(space)
    return text, Fraction(-n if sign == "-" else n, d)


@st.composite
def near_miss_literals(draw):
    """A spelling one step outside the grammar, with an optional sign."""
    a, b, c = ("_".join(draw(digit_runs())) for _ in range(3))
    broken = draw(
        st.sampled_from(
            [
                f"{a}__{b}",  # doubled underscore
                f"_{a}",  # leading underscore
                f"{a}_",  # trailing underscore
                f"{a}_.{b}",
                f"{a}._{b}",
                f"{a}e_{b}",
                f"{a}_/{b}",
                f"{a}/_{b}",
                f"{a} /{b}",  # space around "/"
                f"{a}/ {b}",
                f"{a} / {b}",
                f"\u2212{a}",  # MINUS SIGN
                f"0x{a}",
                f"{a}e",  # dangling exponent
                f"{a}E-",
                f"{a}.{b}e",
                f"{a}/",  # dangling "/"
                f"/{a}",
                f"{a}/{b}e{c}",  # exponent on a ratio
                f"{a}/{b}.{c}",
            ]
        )
    )
    return draw(st.sampled_from(["", "+", "-"])) + broken


def tiny(**overrides):
    fields = dict(
        states=["s", "u"],
        actions=["a"],
        transitions={("s", "a"): {"u": 1}},
        rewards={("s", "a"): 1},
        discount="1/2",
    )
    fields.update(overrides)
    return validate_model(**fields)


class TestAsRational:
    def test_string_forms(self):
        assert as_rational("9/10") == Fraction(9, 10)
        assert as_rational("0.9") == Fraction(9, 10)
        assert as_rational("3") == 3

    def test_float_via_decimal_repr(self):
        assert as_rational(0.9) == Fraction(9, 10)

    def test_huge_literals_rejected_fast(self):
        # Building 10**10000000 exactly takes seconds; the size cap answers first.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            as_rational("1e10000000")
        assert time.perf_counter() - start < 0.01
        with pytest.raises(ValueError, match="digits"):
            as_rational("1" * (MAX_LITERAL_DIGITS + 1))
        with pytest.raises(ValueError):
            model = tiny()
            model.with_rewards({**model.rewards, ("s", "a"): "1e10000000"})

    # Each spelling and what as_rational's own grammar makes of it, the same
    # on every Python version: a value, or the exception type and message.
    BAD = "bad rational literal "
    LITERALS = [
        ("3", Fraction(3)),
        ("-0", Fraction(0)),
        ("00/01", Fraction(0)),
        ("-0/5", Fraction(0)),
        ("-7/16", Fraction(-7, 16)),
        ("+1", Fraction(1)),
        (" 1", Fraction(1)),
        ("1 ", Fraction(1)),
        ("1_000", Fraction(1000)),
        ("1__0", (ValueError, BAD + "'1__0'")),
        ("١", Fraction(1)),  # ARABIC-INDIC DIGIT ONE
        ("٣/٤", Fraction(3, 4)),
        ("−1", (ValueError, BAD + "'−1'")),  # MINUS SIGN
        ("--1", (ValueError, BAD + "'--1'")),
        ("-", (ValueError, BAD + "'-'")),
        ("/", (ValueError, BAD + "'/'")),
        ("1/", (ValueError, BAD + "'1/'")),
        ("/2", (ValueError, BAD + "'/2'")),
        ("1/0", (ValueError, BAD + "'1/0'")),
        ("-1/0", (ValueError, BAD + "'-1/0'")),
        ("1/-2", (ValueError, BAD + "'1/-2'")),
        ("1/2/3", (ValueError, BAD + "'1/2/3'")),
        ("0x10", (ValueError, BAD + "'0x10'")),
        ("1.5", Fraction(3, 2)),
        ("1e3", Fraction(1000)),
        ("9" * 32, Fraction(10**32 - 1)),
        ("-" + "9" * 31, Fraction(1 - 10**31)),
        ("1/" + "9" * 30, Fraction(1, 10**30 - 1)),
        ("9" * 33, Fraction(10**33 - 1)),
        (
            "9" * (MAX_LITERAL_DIGITS + 1),
            (ValueError, f"numeric literal has more than {MAX_LITERAL_DIGITS} digits"),
        ),
        ("1 / 2", (ValueError, BAD + "'1 / 2'")),  # no space around "/"
        ("1_0/2", Fraction(5)),
        ("1_000.000_1", Fraction(10_000_001, 10_000)),
        (".5", Fraction(1, 2)),
        ("5.", Fraction(5)),
        ("+.5", Fraction(1, 2)),
        ("-5.e2", Fraction(-500)),
        ("1e+3", Fraction(1000)),
        ("1E3", Fraction(1000)),
        ("\t2\n", Fraction(2)),
        ("1/2e3", (ValueError, BAD + "'1/2e3'")),  # no exponent on a ratio
        ("1e", (ValueError, BAD + "'1e'")),
        ("e3", (ValueError, BAD + "'e3'")),
        (".", (ValueError, BAD + "'.'")),
        ("1.5e_3", (ValueError, BAD + "'1.5e_3'")),
        ("1e٠٠٠٣", Fraction(1000)),  # leading zeros of any script
        (
            "1e٠٣٠١",
            (ValueError, f"numeric literal has an exponent beyond {MAX_LITERAL_EXPONENT}"),
        ),
    ]

    @pytest.mark.parametrize("text, expected", LITERALS)
    def test_literal_table(self, text, expected):
        if isinstance(expected, Fraction):
            value = as_rational(text)
            assert type(value) is Fraction
            assert value.as_integer_ratio() == expected.as_integer_ratio()
        else:
            kind, message = expected
            with pytest.raises(kind) as raised:
                as_rational(text)
            assert type(raised.value) is kind and str(raised.value) == message

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            as_rational("1/0")
        with pytest.raises(TypeError):
            as_rational(True)
        with pytest.raises(TypeError, match="cannot interpret None"):
            as_rational(None)

    @given(spelled_literals())
    @settings(max_examples=300, deadline=None)
    def test_spellings_from_parts(self, spelled):
        text, expected = spelled
        value = as_rational(text)
        assert type(value) is Fraction and value == expected

    @given(near_miss_literals())
    @settings(max_examples=300, deadline=None)
    def test_near_misses(self, text):
        with pytest.raises(ValueError) as raised:
            as_rational(text)
        assert str(raised.value) == f"bad rational literal {text!r}"

    def test_caps_before_big_integers(self):
        # Digits are counted without underscores.
        digits = f"numeric literal has more than {MAX_LITERAL_DIGITS} digits"
        with pytest.raises(ValueError) as raised:
            as_rational("1" + "_1" * MAX_LITERAL_DIGITS)
        assert str(raised.value) == digits
        assert as_rational("1" + "_1" * (MAX_LITERAL_DIGITS - 1)) == (
            10**MAX_LITERAL_DIGITS - 1
        ) // 9
        # On 3.11 and later int() refuses more than 4,300 digits with a message
        # of its own, so these read their caps' messages only if the caps come
        # first; each answers long before building the integer would.
        exponent = f"numeric literal has an exponent beyond {MAX_LITERAL_EXPONENT}"
        for text, message in (("1" * 100_000, digits), ("1e" + "9" * 5000, exponent)):
            elapsed = []
            for _ in range(3):
                start = time.perf_counter()
                with pytest.raises(ValueError) as raised:
                    as_rational(text)
                elapsed.append(time.perf_counter() - start)
                assert str(raised.value) == message
            assert min(elapsed) < 0.01
        # An exponent's leading zeros, in any script, are read without int().
        for text in ("1e" + "0" * 5000 + "3", "1e" + "٠" * 5000 + "3"):
            elapsed = []
            for _ in range(3):
                start = time.perf_counter()
                assert as_rational(text) == 1000
                elapsed.append(time.perf_counter() - start)
            assert min(elapsed) < 0.01


class TestValidateModel:
    def test_physician_probabilities_preserved(self, treat):
        assert treat.successors("1", "take") == {
            "2": Fraction(9, 10),
            "4": Fraction(1, 10),
        }
        assert treat.rewards[("1", "take")] == 0

    def test_nothing_completed_everywhere(self, treat):
        for q in treat.states:
            assert treat.successors(q, "N") == {q: Fraction(1)}
            assert treat.rewards[(q, "N")] == 0

    def test_half_probability_row_rejected(self):
        with pytest.raises(DistributionError):
            tiny(transitions={("s", "a"): {"u": "1/2"}})

    def test_negative_probability_rejected(self):
        with pytest.raises(DistributionError):
            tiny(transitions={("s", "a"): {"u": "3/2", "s": "-1/2"}})

    def test_discount_boundaries_rejected(self):
        for gamma in (1, 0, "5/4", -1):
            with pytest.raises(DiscountError):
                tiny(discount=gamma)

    def test_reward_without_transition_rejected(self):
        with pytest.raises(DomainMismatch):
            tiny(rewards={("s", "a"): 1, ("u", "a"): 2})
        model = tiny()
        with pytest.raises(DomainMismatch, match="'u', 'a'"):
            model.with_rewards({**model.rewards, ("u", "a"): 2})

    def test_fill_missing_rewards(self):
        # A pair without a listed reward gets 0, in validate_model and in
        # with_rewards alike.
        model = tiny(rewards={})
        assert model.rewards[("s", "a")] == 0
        assert list(model.rewards) == list(model.pairs())
        other = tiny().with_rewards({("s", "a"): 3})
        assert other.rewards == {("s", "a"): 3, ("s", "N"): 0, ("u", "N"): 0}
        assert list(other.rewards) == list(other.pairs())

    def test_nothing_conflict_non_self_loop(self):
        with pytest.raises(NothingActionConflict):
            tiny(
                transitions={("s", "a"): {"u": 1}, ("s", "N"): {"u": 1}},
                rewards={("s", "a"): 1, ("s", "N"): 0},
            )

    def test_nothing_conflict_nonzero_reward(self):
        with pytest.raises(NothingActionConflict):
            tiny(
                transitions={("s", "a"): {"u": 1}, ("s", "N"): {"s": 1}},
                rewards={("s", "a"): 1, ("s", "N"): 5},
            )
        model = tiny()
        with pytest.raises(NothingActionConflict, match="'u' must have reward 0"):
            model.with_rewards({**model.rewards, ("u", "N"): 5})

    def test_nothing_reward_rejected_on_implicit_row(self):
        # The validator adds the (s, N) row here; a nonzero reward on it is
        # the same conflict as on a declared row, not silently zeroed.
        implicit = {("s", "a"): 1, ("s", "N"): 5}
        with pytest.raises(NothingActionConflict) as undeclared:
            tiny(rewards=implicit)
        with pytest.raises(NothingActionConflict) as declared:
            tiny(
                transitions={("s", "a"): {"u": 1}, ("s", "N"): {"s": 1}},
                rewards=implicit,
            )
        assert str(undeclared.value) == str(declared.value)
        assert "'s' must have reward 0" in str(undeclared.value)

    def test_missing_nothing_reward_is_zero(self):
        # A declared nothing row needs no reward entry either.
        model = tiny(transitions={("s", "a"): {"u": 1}, ("s", "N"): {"s": 1}})
        assert model.rewards[("s", "N")] == 0
        assert list(model.rewards) == list(model.pairs())

    def test_explicit_valid_nothing_row_accepted(self):
        model = tiny(
            transitions={("s", "a"): {"u": 1}, ("s", "N"): {"s": 1}},
            rewards={("s", "a"): 1, ("s", "N"): 0},
        )
        assert model.successors("s", "N") == {"s": Fraction(1)}

    def test_two_item_keys_become_tuples(self):
        # Any two-item key names a (state, action) pair; the model keys every
        # row, a declared nothing row included, by a plain tuple.
        model = tiny(transitions={"sa": {"u": 1}, "sN": {"s": 1}})
        assert list(model.transitions) == [("s", "a"), ("s", "N"), ("u", "N")]
        assert all(type(pair) is tuple for pair in model.transitions)
        assert model.successors("s", "a") == {"u": 1}

    def test_unknown_target_state_rejected(self):
        with pytest.raises(ModelError):
            tiny(transitions={("s", "a"): {"x": 1}})

    def test_negative_entry_before_bad_literal_wins(self):
        # One walk converts and checks each entry in turn, so the negative
        # entry is reported before the literal after it is read.
        with pytest.raises(DistributionError) as raised:
            tiny(transitions={("s", "a"): {"u": "-1/2", "s": "x"}})
        assert str(raised.value) == "negative probability -1/2 for ('s', 'a') -> 'u'"
        with pytest.raises(ValueError, match="bad rational literal 'x'"):
            tiny(transitions={("s", "a"): {"u": "x", "s": "-1/2"}})

    def test_caller_rows_are_not_written(self):
        # The check converts and cleans a copy of a row the caller owns.
        spelled = {"u": "1", "s": 0}
        assert tiny(transitions={("s", "a"): spelled}).successors("s", "a") == {"u": 1}
        assert spelled == {"u": "1", "s": 0}


def fraction_sum_check(pair, distribution):
    """The row check as it was before the integer sum: Fractions added and
    compared entry by entry, the reference for ``_check_distribution``."""
    cleaned = {}
    total = Fraction(0)
    for target, probability in distribution.items():
        p = as_rational(probability)
        if p < 0:
            raise DistributionError(
                f"negative probability {p} for {pair} -> {target!r}"
            )
        if p > 0:
            cleaned[target] = p
        total += p
    if total != 1:
        raise DistributionError(f"probabilities for {pair} sum to {total}, not 1")
    return cleaned


# The forms an entry may take: a Fraction, its "a/b" text, the decimal text
# of its float, that float, and an int where it is whole; ``rows`` sometimes
# adds a literal that does not parse.
ENTRY_FORMS = (
    lambda v: v,
    str,
    lambda v: str(float(v)),
    float,
    lambda v: int(v) if v.denominator == 1 else v,
)


@st.composite
def rows(draw):
    values = draw(st.lists(st.fractions(-1, 2, max_denominator=24), max_size=5))
    if draw(st.booleans()):
        values.append(1 - sum(values, Fraction(0)))
    entries = [draw(st.sampled_from(ENTRY_FORMS))(v) for v in values]
    if draw(st.integers(0, 9)) == 0:
        bad = draw(st.sampled_from(("x", "1/0")))
        entries.insert(draw(st.integers(0, len(entries))), bad)
    return {f"t{i}": entry for i, entry in enumerate(entries)}


def _result(check, row):
    try:
        return list(check(("s", "a"), row).items())
    except (ModelError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


class TestCheckDistribution:
    @settings(max_examples=400, deadline=None)
    @given(rows())
    def test_matches_fraction_sums(self, row):
        # Every target is a known state here, so only the sums can differ. A
        # row of nonzero Fractions comes back as it is; any other row comes
        # back as a cleaned copy.
        def check(pair, row):
            return _check_distribution(pair, row, row)

        result = _result(check, row)
        assert result == _result(fraction_sum_check, row)
        if isinstance(result, list):
            clean = all(type(p) is Fraction and p for p in row.values())
            assert (check(("s", "a"), row) is row) == clean


class TestRewardTable:
    """A model stores the listed rewards only, and its ``rewards`` reads as
    the full table over its pairs: in pair order, with 0 where nothing is
    listed, and a KeyError on an undefined pair."""

    def test_caller_dicts_not_aliased(self):
        row = {"u": Fraction(1)}
        transitions = {("s", "a"): row}
        rewards = {("s", "a"): Fraction(2)}
        model = tiny(transitions=transitions, rewards=rewards)
        other = model.with_rewards(rewards)
        row["u"], row["s"] = Fraction(1, 2), Fraction(1, 2)
        transitions[("u", "a")] = {"s": Fraction(1)}
        rewards[("s", "a")], rewards[("s", NOTHING)] = Fraction(5), Fraction(7)
        for built in (model, other):
            assert built.successors("s", "a") == {"u": 1}
            assert list(built.transitions) == [("s", "a"), ("s", "N"), ("u", "N")]
            assert dict(built.rewards) == {("s", "a"): 2, ("s", "N"): 0, ("u", "N"): 0}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_reads_as_the_full_table(self, seed):
        rng = random.Random(seed)
        structure = random_model(rng, n_states=(2, 6))
        listed = {
            pair: rng.randint(-9, 9)
            for pair in structure.transitions
            if pair[1] != NOTHING and rng.random() < 0.6
        }
        model = structure.with_rewards(listed)
        twin = structure.with_rewards(dict(listed))
        full = {pair: Fraction(listed.get(pair, 0)) for pair in structure.pairs()}
        reference = EnvironmentModel(
            model.states, model.actions, model.transitions, full, model.discount
        )
        assert type(model.rewards) is RewardTable
        assert list(model.rewards) == list(full) == list(model.pairs())
        assert dict(model.rewards) == full and len(model.rewards) == len(full)
        assert model.rewards == full and full == model.rewards
        assert model == twin == reference and reference == model
        assert repr(model) == repr(reference)
        for q, a in model.pairs():
            assert model.rewards[(q, a)] == full[(q, a)]
        q = model.states[0]
        for undefined in ((q, "zz"), ("zz", NOTHING)):
            assert undefined not in model.rewards
            assert model.rewards.get(undefined) is None
            with pytest.raises(KeyError):
                model.rewards[undefined]
        for pair in model.pairs():
            if pair[1] != NOTHING:
                assert model.with_rewards({**listed, pair: full[pair] + 1}) != model
        behavior = random_walk_behavior(rng, model)
        try:
            observed_choices(behavior)
        except InconsistentBehavior:
            return
        assert compute_fix(model, behavior) == compute_fix(reference, behavior)


class TestStrategy:
    def test_totality_enforced(self, treat):
        with pytest.raises(StrategyError):
            Strategy.from_mapping({"1": "take"}, treat)

    def test_undefined_action_rejected(self, treat):
        full = {q: "N" for q in treat.states}
        with pytest.raises(StrategyError):
            Strategy.from_mapping({**full, "1": "diagnose"}, treat)

    def test_unknown_state_rejected(self, treat):
        full = {q: "N" for q in treat.states}
        with pytest.raises(StrategyError, match="unknown states \\['9'\\]"):
            Strategy.from_mapping({**full, "9": "N"}, treat)

    def test_lookup_of_unknown_state(self, sigmas):
        sigma1, _, _ = sigmas
        assert sigma1["1"] == "take"
        with pytest.raises(KeyError):
            sigma1["9"]


class TestBehavior:
    def test_tokens_round_trip(self, logs):
        b1, _ = logs
        assert Behavior(b1.tokens) == b1
        assert b1.pairs() == [
            ("1", "take"), ("2", "send"), ("3", "diagnose"), ("6", "N"),
        ]

    def test_even_token_count_rejected(self):
        with pytest.raises(BehaviorError):
            Behavior(("take", "1"))

    def test_constructor_takes_an_odd_length_tuple(self, treat):
        bare = Behavior(("1",))
        assert bare.start == "1"
        assert bare.pairs() == []
        # A string is not read as its characters, nor a list as a tuple.
        for tokens in ("q1", ["1"], ("1", "take"), ()):
            with pytest.raises(BehaviorError):
                Behavior(tokens)
        walk = Behavior(("1", "take", "2"))
        assert walk.tokens == ("1", "take", "2")
        assert walk.pairs() == [("1", "take")]
        (checked,) = parse_log("1 take 2\n", treat)
        assert checked._checked is treat._index and walk._checked is None
        assert checked == walk and hash(checked) == hash(walk)

    def test_validate_against_model(self, treat, logs):
        b1, b2 = logs
        validate_behavior(treat, b1)
        validate_behavior(treat, b2)

    def test_zero_probability_step_rejected(self, treat):
        bad = Behavior(("1", "take", "6"))
        with pytest.raises(BehaviorError):
            validate_behavior(treat, bad)

    def test_unknown_tokens_rejected(self, treat):
        with pytest.raises(BehaviorError):
            validate_behavior(treat, Behavior(("9",)))
        with pytest.raises(BehaviorError):
            validate_behavior(treat, Behavior(("1", "zap", "2")))

    def test_unavailable_action_rejected(self, treat):
        # diagnose is a known action, but not one available at state 1.
        bad = Behavior(("1", "diagnose", "6"))
        message = "action 'diagnose' is not available at state '1'"
        with pytest.raises(BehaviorError, match=message):
            validate_behavior(treat, bad)
        with pytest.raises(BehaviorError, match=message):
            audit(treat, bad)
        with pytest.raises(ParseError, match=f"line 1: {message}") as caught:
            parse_log("1 diagnose 6\n", treat)
        assert caught.value.line == 1


class TestObservedChoices:
    def test_empty_for_bare_state(self):
        assert observed_choices(Behavior(("1",))) == {}

    def test_b1_constraints(self, logs):
        b1, _ = logs
        assert observed_choices(b1) == {
            "1": "take", "2": "send", "3": "diagnose", "6": "N",
        }

    def test_inconsistent_behavior_detected(self):
        b = Behavior(("2", "send", "3", "diagnose", "6", "send", "6"))
        # fine: three distinct states
        assert observed_choices(b)["6"] == "send"
        clash = Behavior(("2", "send", "2", "diagnose", "6"))
        with pytest.raises(InconsistentBehavior):
            observed_choices(clash)


class TestStructureIndex:
    def test_pair_order_ignores_declaration_order(self):
        transitions = {
            ("u", "b"): {"s": 1},
            ("s", "b"): {"u": 1},
            ("u", "a"): {"u": 1},
            ("s", "a"): {"s": 1},
        }
        model = tiny(
            actions=["a", "b"],
            transitions=transitions,
            rewards={pair: 1 for pair in transitions},
        )
        expected = [
            ("s", "a"), ("s", "b"), ("s", "N"), ("u", "a"), ("u", "b"), ("u", "N"),
        ]
        assert list(model.pairs()) == list(model.rewards) == expected
        # The rows keep their declared order, the missing nothing rows last.
        assert list(model.transitions) == [*transitions, ("s", "N"), ("u", "N")]
        assert model._index.available == (("a", "b", "N"), ("a", "b", "N"))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_declaration_order_is_invisible(self, seed):
        # The same rows and rewards, declared in any order, give the same
        # model, pair numbers, solver tables and solutions; only
        # ``transitions`` keeps the declared order. Each row keeps the order of
        # its targets, which the float sums follow.
        rng = random.Random(seed)
        canonical = random_model(rng, n_states=(1, 6), zero_reward_fraction=0.3)
        declared = [
            pair for pair in canonical.transitions
            if pair[1] != NOTHING or rng.random() < 0.5
        ]
        rng.shuffle(declared)
        listed = rng.sample(list(canonical.rewards), len(canonical.rewards))
        model = validate_model(
            states=canonical.states,
            actions=canonical.actions,
            transitions={pair: canonical.successors(*pair) for pair in declared},
            rewards={pair: canonical.rewards[pair] for pair in listed},
            discount=canonical.discount,
        )
        missing = [
            (q, NOTHING) for q in canonical.states if (q, NOTHING) not in declared
        ]
        assert list(model.transitions) == declared + missing
        assert model == canonical
        assert list(model.pairs()) == list(model.rewards) == list(canonical.pairs())
        for table in ("rows", "coefficients", "scales", "incoming"):
            assert getattr(model._index, table) == getattr(canonical._index, table)
        for mode in ("exact", "float"):
            ours = solve_optimal(model, mode=mode)
            theirs = solve_optimal(canonical, mode=mode)
            assert list(ours.greedy.items()) == list(theirs.greedy.items())
            assert list(ours.v_star.items()) == list(theirs.v_star.items())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_tables_are_their_rational_definitions(self, seed):
        # However the rows, rewards and gamma are spelled, each scale L is the
        # lcm of the denominators of gamma * p over its state's pairs, each
        # coefficient is L * gamma * p, each float weight is float(gamma) *
        # float(p) to the bit, and the rewards are n / R over their least
        # common denominator R, with float(r) as their floats.
        rng = random.Random(seed)
        family = random_model(
            rng,
            n_states=(1, 6),
            gammas=(Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), Fraction(99, 100)),
        )
        listed = {
            pair: Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 8, 10)))
            for pair in family.transitions
            if pair[1] != NOTHING and rng.random() < 0.7
        }

        def decimal(x):
            if 10**4 % x.denominator:
                return str(x)
            return str(Decimal(x.numerator) / x.denominator)

        spellings = (
            lambda x: x.numerator if x.denominator == 1 else x,
            decimal,
            lambda x: Fraction(x.numerator, x.denominator),
        )
        hexed = [
            [(k, [(j, w.hex()) for j, w in successors]) for k, successors in row]
            for row in family._index.rows
        ]
        for spell in spellings:
            model = validate_model(
                states=family.states,
                actions=family.actions,
                transitions={
                    pair: {t: spell(p) for t, p in row.items()}
                    for pair, row in family.transitions.items()
                },
                rewards={pair: spell(r) for pair, r in listed.items()},
                discount=spell(family.discount),
            )
            index, gamma = model._index, model.discount
            rows = []
            for i, (q, actions) in enumerate(zip(model.states, index.available)):
                scale = math.lcm(*(
                    (gamma * p).denominator
                    for a in actions
                    for p in model.successors(q, a).values()
                ))
                assert index.scales[i] == scale
                row = []
                for a in actions:
                    k, successors = index.number[(q, a)], model.successors(q, a)
                    coefficients = index.coefficients[k]
                    assert all(type(c) is int for _, c in coefficients)
                    assert coefficients == tuple(
                        (index.position[t], scale * gamma * p)
                        for t, p in successors.items()
                    )
                    row.append((k, [
                        (index.position[t], (float(gamma) * float(p)).hex())
                        for t, p in successors.items()
                    ]))
                rows.append(row)
            assert hexed == rows == [
                [(k, [(j, w.hex()) for j, w in successors]) for k, successors in row]
                for row in index.rows
            ]
            q = rng.choice(model.states)
            a = rng.choice(model.available_actions(q))
            behavior = Behavior((q, a, rng.choice(list(model.successors(q, a)))))
            plain = replace(model, rewards=dict(model.rewards))
            for built in (model, plain, compute_fix(model, behavior)):
                table = [built.rewards[pair] for pair in built.pairs()]
                common = math.lcm(*(r.denominator for r in table))
                numerators, denominator = built._reward_numerators
                assert all(type(n) is int for n in numerators)
                assert (numerators, denominator) == (
                    tuple(r * common for r in table), common
                )
                assert [r.hex() for r in built._float_rewards] == [
                    float(r).hex() for r in table
                ]

    def test_replaced_rows_keep_pair_order(self):
        # A model made by ``replace`` from reordered rows numbers its pairs
        # as validate_model's does, so its greedy tuples match.
        model = tiny(
            actions=["a", "b"],
            transitions={
                ("s", "a"): {"s": 1},
                ("s", "b"): {"u": 1},
                ("u", "a"): {"u": 1},
            },
            rewards={("s", "b"): 1},
        )
        rows = dict(reversed(model.transitions.items()))
        reordered = replace(model, transitions=rows)
        assert reordered == model
        assert list(reordered.pairs()) == list(model.pairs())
        for mode in ("exact", "float"):
            greedy = solve_optimal(reordered, mode=mode).greedy
            assert greedy == solve_optimal(model, mode=mode).greedy
            assert greedy["u"] == ("a", "N")

    def test_shared_by_derived_models(self):
        model = tiny()
        other = model.with_rewards({("s", "a"): 3, ("s", "N"): 0, ("u", "N"): 0})
        assert other._index is model._index
        assert other.with_rewards({})._index is model._index
        # Any other construction builds its own index, even on the same
        # structure objects.
        assert replace(model, rewards=other.rewards)._index is not model._index
        assert replace(model, discount=Fraction(1, 3))._index is not model._index

    def test_rebuilt_for_a_new_structure(self):
        model = tiny()
        shifted = replace(model, discount=Fraction(1, 3))
        assert shifted._index is not model._index
        assert shifted._index.rows[0][0][1] == ((1, 1 / 3),)

    def test_not_part_of_equality_or_repr(self):
        first, second = tiny(), tiny()
        assert first._index is not second._index
        assert first == second
        assert repr(first) == repr(second)
        assert "_index" not in repr(first)

    def test_lists(self):
        model = tiny(
            transitions={("s", "a"): {"u": Fraction(1, 4), "s": Fraction(3, 4)}}
        )
        index = model._index
        assert index.position == {"s": 0, "u": 1}
        assert index.available == (("a", "N"), ("N",))
        assert index.pairs == (("s", "a"), ("s", "N"), ("u", "N"))
        assert index.rows == (
            ((0, ((1, 0.5 * 0.25), (0, 0.5 * 0.75))), (1, ((0, 0.5),))),
            ((2, ((1, 0.5),)),),
        )
        assert index.incoming == (((0, 0), (0, 1)), ((0, 0), (1, 2)))
        assert model._float_rewards == (1.0, 0.0, 0.0)
        # gamma * p is 1/8, 3/8 and 1/2 at s, and 1/2 at u.
        assert index.scales == (8, 2)
        assert index.coefficients == (((1, 1), (0, 3)), ((0, 4),), ((1, 1),))
        thirds = model.with_rewards(
            {("s", "a"): Fraction(-2, 3), ("s", "N"): 0, ("u", "N"): 0}
        )
        assert thirds._reward_numerators == ((-2, 0, 0), 3)
        assert thirds.max_reward_magnitude() == Fraction(2, 3)
