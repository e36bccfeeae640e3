from __future__ import annotations

import time
from fractions import Fraction

import pytest

from purpose_audit import (
    AlternationError,
    DomainMismatch,
    ParseError,
    format_log,
    format_model_document,
    parse_log,
    parse_model,
)
from purpose_audit.fixtures import (
    PHYSICIAN_LOG,
    TRAVEL_LOG,
    physician_document,
    travel_document,
)
from purpose_audit.modelfile import MAX_LITERAL_DIGITS, MAX_LITERAL_EXPONENT


class TestParseModel:
    def test_physician_document(self):
        models = parse_model(physician_document())
        assert set(models) == {"treat", "profit"}
        treat, profit = models["treat"], models["profit"]
        assert treat.transitions == profit.transitions
        assert treat.discount == profit.discount == Fraction(9, 10)
        assert treat.reward("2", "send") == 0
        assert profit.reward("2", "send") == 9

    def test_travel_document(self):
        models = parse_model(travel_document())
        assert set(models) == {"business", "lecture"}
        business, lecture = models["business"], models["lecture"]
        assert business.reward("home", "driveNY") == 2
        assert business.reward("home", "flyNY") == 1
        assert lecture.reward("home", "driveDC") == 2
        assert lecture.reward("home", "flyDC") == 1
        assert business.transitions == lecture.transitions

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
        models = parse_model(physician_document())
        printed = format_model_document(models)
        assert parse_model(printed) == models
        # Canonical form is a fixed point of format(parse(.)).
        assert format_model_document(parse_model(printed)) == printed

    def test_travel_round_trip(self):
        models = parse_model(travel_document())
        assert parse_model(format_model_document(models)) == models

    def test_random_models_round_trip(self):
        import random

        from purpose_audit.oracle import random_model

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

    def test_alternation_error(self):
        with pytest.raises(AlternationError):
            parse_log("take 1\n")

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
