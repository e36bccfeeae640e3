from __future__ import annotations

import random

import pytest

from purpose_audit import (
    Behavior,
    IndeterminateComparison,
    SampledContingency,
    StationaryContingency,
    active_prefix,
    is_proper_subexecution,
    simulate,
)
from purpose_audit.errors import ModelError
from purpose_audit.traces import ExecutionPrefix, Termination


def validate_contingency(model, contingency):
    """A contingency may only pick successors of nonzero probability."""
    for (q, a), target in contingency.choice.items():
        if (q, a) not in model.transitions:
            raise ModelError(f"contingency resolves undefined pair {(q, a)}")
        if model.successors(q, a).get(target, 0) == 0:
            raise ModelError(
                f"contingency picks zero-probability successor {target!r} for {(q, a)}"
            )


def absorbed(tokens):
    return ExecutionPrefix(Behavior.from_tokens(tokens), Termination.NOTHING_ABSORBED)


def cut(tokens):
    return ExecutionPrefix(Behavior.from_tokens(tokens), Termination.HORIZON_CUT)


class TestActivePrefix:
    def test_nothing_from_the_start(self):
        b = Behavior.from_tokens(["q", "N", "q", "N", "q"])
        assert active_prefix(b) == Behavior("q")

    def test_without_nothing_unchanged(self):
        b = Behavior.from_tokens(["1", "take", "2", "diagnose", "6"])
        assert active_prefix(b) == b

    def test_trailing_nothing_stripped(self):
        b = Behavior.from_tokens(["1", "take", "2", "diagnose", "6", "N", "6"])
        assert active_prefix(b) == Behavior.from_tokens(["1", "take", "2", "diagnose", "6"])


class TestSimulate:
    def test_sigma1_absorbs(self, treat, sigmas):
        sigma1, _, _ = sigmas
        kappa = StationaryContingency({("1", "take"): "2", ("4", "send"): "5"})
        run = simulate(treat, sigma1, kappa, "1")
        assert run.termination is Termination.NOTHING_ABSORBED
        assert run.behavior.tokens() == ["1", "take", "2", "diagnose", "6", "N", "6"]

    def test_sigma3_loops(self, treat, sigmas):
        _, _, sigma3 = sigmas
        kappa = StationaryContingency({("1", "take"): "2", ("4", "send"): "5"})
        run = simulate(treat, sigma3, kappa, "2")
        assert run.termination is Termination.LOOP_DETECTED
        assert run.behavior.tokens() == ["2", "diagnose", "6", "send", "6"]
        assert run.loop_start == 1

    def test_contingency_via_second_branch(self, treat, sigmas):
        sigma1, _, _ = sigmas
        kappa = StationaryContingency({("1", "take"): "4", ("4", "send"): "5"})
        run = simulate(treat, sigma1, kappa, "1")
        assert run.behavior.tokens() == [
            "1", "take", "4", "send", "5", "diagnose", "6", "N", "6",
        ]

    def test_occurrence_indexed_needs_horizon(self, treat, sigmas):
        sigma1, _, _ = sigmas
        rng = random.Random(0)
        with pytest.raises(ValueError):
            simulate(treat, sigma1, SampledContingency(treat, rng), "1")
        run = simulate(treat, sigma1, SampledContingency(treat, rng), "1", horizon=32)
        assert run.termination is Termination.NOTHING_ABSORBED

    def test_horizon_cut(self, treat, sigmas):
        _, _, sigma3 = sigmas
        rng = random.Random(0)
        run = simulate(treat, sigma3, SampledContingency(treat, rng), "6", horizon=4)
        assert run.termination is Termination.HORIZON_CUT
        assert len(run.behavior) == 4

    def test_inconsistent_contingency_rejected(self, treat):
        with pytest.raises(ModelError):
            validate_contingency(treat, StationaryContingency({("1", "take"): "6"}))


class TestIsProperSubexecution:
    def test_identical_is_not_proper(self):
        e = absorbed(["1", "take", "2", "diagnose", "6", "N", "6"])
        assert not is_proper_subexecution(e, e)

    def test_absorbed_versus_infinite_loop(self, treat, sigmas):
        sigma1, _, sigma3 = sigmas
        kappa = StationaryContingency({("1", "take"): "2", ("4", "send"): "5"})
        short = simulate(treat, sigma1, kappa, "2")
        long = simulate(treat, sigma3, kappa, "2")
        assert is_proper_subexecution(short, long)
        assert not is_proper_subexecution(long, short)

    def test_absorbed_versus_horizon_capped(self):
        short = absorbed(["2", "diagnose", "6", "N", "6"])
        capped = cut(["2", "diagnose", "6", "send", "6", "send", "6"])
        assert is_proper_subexecution(short, capped)

    def test_prefix_pair_both_absorbed(self):
        first = absorbed(["1", "take", "2", "N", "2"])
        second = absorbed(["1", "take", "2", "send", "3", "N", "3"])
        assert is_proper_subexecution(first, second)
        assert not is_proper_subexecution(second, first)

    def test_scattered_subsequence_counts(self):
        # Not contiguous: the embedding may skip tokens.
        first = absorbed(["2", "diagnose", "6", "N", "6"])
        second = absorbed(["2", "send", "3", "diagnose", "6", "N", "6"])
        assert is_proper_subexecution(first, second)

    def test_horizon_cut_raises_when_undecidable(self):
        # The capped side has not shown the needed tokens yet.
        first = absorbed(["2", "diagnose", "6", "N", "6"])
        capped = cut(["2", "send", "3"])
        with pytest.raises(IndeterminateComparison):
            is_proper_subexecution(first, capped)

    def test_cut_prefix_refuted_by_complete_side(self):
        # A prefix that already fails to embed can never embed later.
        growing = cut(["2", "send", "3", "send", "3"])
        complete = absorbed(["2", "diagnose", "6", "N", "6"])
        assert not is_proper_subexecution(growing, complete)

    def test_infinite_active_part_never_proper(self, treat, sigmas):
        _, _, sigma3 = sigmas
        kappa = StationaryContingency({("1", "take"): "2", ("4", "send"): "5"})
        looping = simulate(treat, sigma3, kappa, "6")
        other = simulate(treat, sigma3, kappa, "2")
        assert not is_proper_subexecution(looping, other)
        # ... even against itself (equality, not properness).
        assert not is_proper_subexecution(looping, looping)
