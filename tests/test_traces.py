from __future__ import annotations

import itertools
import random

import pytest

from purpose_audit.errors import ModelError
from purpose_audit.traces import (
    ActiveTokens,
    SampledContingency,
    TraceOrder,
    compare_active,
    embeds,
    simulate,
)

KAPPA = {("1", "take"): "2", ("4", "send"): "5"}


def validate_contingency(model, contingency):
    """A contingency may only pick successors of nonzero probability."""
    for (q, a), target in contingency.items():
        if (q, a) not in model.transitions:
            raise ModelError(f"contingency resolves undefined pair {(q, a)}")
        if model.successors(q, a).get(target, 0) == 0:
            raise ModelError(
                f"contingency picks zero-probability successor {target!r} for {(q, a)}"
            )


def absorbed(tokens):
    return ActiveTokens(tuple(tokens), None, True)


def cut(tokens):
    return ActiveTokens(tuple(tokens), None, False)


class TestActivePrefix:
    # The active part is the tokens before the first nothing-action.
    def test_nothing_from_the_start(self, treat, sigmas):
        sigma1, _, _ = sigmas
        assert simulate(treat, sigma1, KAPPA, "6") == absorbed(["6"])

    def test_without_nothing_unchanged(self, treat, sigmas):
        _, _, sigma3 = sigmas
        run = simulate(treat, sigma3, KAPPA, "1", horizon=2)
        assert run == cut(["1", "take", "2", "diagnose", "6"])
        assert not run.complete

    def test_trailing_nothing_stripped(self, treat, sigmas):
        sigma1, _, _ = sigmas
        run = simulate(treat, sigma1, KAPPA, "1")
        assert run == absorbed(["1", "take", "2", "diagnose", "6"])
        assert run.complete and run.period is None


class TestSimulate:
    def test_sigma1_absorbs(self, treat, sigmas):
        sigma1, _, _ = sigmas
        run = simulate(treat, sigma1, KAPPA, "1")
        assert run == ActiveTokens(("1", "take", "2", "diagnose", "6"), None, True)

    def test_sigma3_loops(self, treat, sigmas):
        _, _, sigma3 = sigmas
        run = simulate(treat, sigma3, KAPPA, "2")
        # The prefix ends at 6's first visit; the period returns to 6.
        assert run == ActiveTokens(("2", "diagnose", "6"), ("send", "6"), True)

    def test_contingency_via_second_branch(self, treat, sigmas):
        sigma1, _, _ = sigmas
        kappa = {("1", "take"): "4", ("4", "send"): "5"}
        run = simulate(treat, sigma1, kappa, "1")
        assert run == absorbed(["1", "take", "4", "send", "5", "diagnose", "6"])

    def test_occurrence_indexed_needs_horizon(self, treat, sigmas):
        sigma1, _, _ = sigmas
        rng = random.Random(0)
        with pytest.raises(ValueError):
            simulate(treat, sigma1, SampledContingency(treat, rng), "1")
        run = simulate(treat, sigma1, SampledContingency(treat, rng), "1", horizon=32)
        assert run.complete and run.period is None

    def test_horizon_cut(self, treat, sigmas):
        _, _, sigma3 = sigmas
        rng = random.Random(0)
        run = simulate(treat, sigma3, SampledContingency(treat, rng), "6", horizon=4)
        assert run == cut(["6", "send", "6", "send", "6", "send", "6", "send", "6"])

    def test_zero_probability_successor_rejected(self, treat, sigmas):
        sigma1, _, _ = sigmas
        with pytest.raises(ModelError):
            simulate(treat, sigma1, {("1", "take"): "6"}, "1")

    def test_inconsistent_contingency_rejected(self, treat):
        with pytest.raises(ModelError):
            validate_contingency(treat, {("1", "take"): "6"})


class TestIsProperSubexecution:
    def test_identical_is_not_proper(self):
        e = absorbed(["1", "take", "2", "diagnose", "6"])
        assert compare_active(e, e) is TraceOrder.EQUAL

    def test_absorbed_versus_infinite_loop(self, treat, sigmas):
        sigma1, _, sigma3 = sigmas
        short = simulate(treat, sigma1, KAPPA, "2")
        long = simulate(treat, sigma3, KAPPA, "2")
        assert compare_active(short, long) is TraceOrder.PROPER
        assert compare_active(long, short) is TraceOrder.NEITHER

    def test_absorbed_versus_horizon_capped(self):
        # A cut run has no order; its known tokens only show an embedding.
        short = absorbed(["2", "diagnose", "6"])
        capped = cut(["2", "diagnose", "6", "send", "6", "send", "6"])
        with pytest.raises(ValueError):
            compare_active(short, capped)
        assert embeds(short.prefix, capped)

    def test_prefix_pair_both_absorbed(self):
        first = absorbed(["1", "take", "2"])
        second = absorbed(["1", "take", "2", "send", "3"])
        assert compare_active(first, second) is TraceOrder.PROPER
        assert compare_active(second, first) is TraceOrder.NEITHER

    def test_scattered_subsequence_counts(self):
        # Not contiguous: the embedding may skip tokens.
        first = absorbed(["2", "diagnose", "6"])
        second = absorbed(["2", "send", "3", "diagnose", "6"])
        assert compare_active(first, second) is TraceOrder.PROPER

    def test_horizon_cut_raises(self):
        # The capped side has not shown the needed tokens yet, and may later.
        first = absorbed(["2", "diagnose", "6"])
        capped = cut(["2", "send", "3"])
        with pytest.raises(ValueError, match="complete runs only"):
            compare_active(first, capped)
        assert not embeds(first.prefix, capped)

    def test_cut_prefix_refuted_by_complete_side(self):
        # A prefix that already fails to embed can never embed later.
        growing = cut(["2", "send", "3", "send", "3"])
        complete = absorbed(["2", "diagnose", "6"])
        with pytest.raises(ValueError):
            compare_active(growing, complete)
        assert not embeds(growing.prefix, complete)

    def test_infinite_active_part_never_proper(self, treat, sigmas):
        _, _, sigma3 = sigmas
        looping = simulate(treat, sigma3, KAPPA, "6")
        other = simulate(treat, sigma3, KAPPA, "2")
        assert compare_active(looping, other) is TraceOrder.NEITHER
        # ... even against itself (equality, not properness).
        assert compare_active(looping, looping) is TraceOrder.EQUAL


def _words(longest, shortest=0):
    return [
        "".join(word)
        for n in range(shortest, longest + 1)
        for word in itertools.product("ab", repeat=n)
    ]


# Runs are unrolled this far; every finite run, prefix and period below is
# short enough that embedding and equality are decided well inside it.
UNROLL = 48


def _run(prefix, period=None):
    """A complete run: its tokens, unrolled to UNROLL if it is infinite."""
    if period is None:
        return prefix, False
    while len(prefix) < UNROLL:
        prefix += period
    return prefix[:UNROLL], True


def _true_order(left, right):
    """The order of two complete runs, from the definition: equal runs are
    EQUAL, and a finite run inside another is PROPER; an infinite run never
    is."""
    if left == right:
        return TraceOrder.EQUAL
    (needle, infinite), (hay, _) = left, right
    it = iter(hay)
    if not infinite and all(token in it for token in needle):
        return TraceOrder.PROPER
    return TraceOrder.NEITHER


def _shapes(prefixes, periods, extensions, extension_periods):
    """Every shape over {a, b} with the complete runs it stands for: a
    complete shape stands for itself, a cut one for each run that extends its
    known tokens by up to ``extensions`` tokens, finite or followed by a
    period of up to ``extension_periods`` tokens."""
    shapes = []
    for prefix in _words(prefixes):
        known = tuple(prefix)
        shapes.append((ActiveTokens(known, None, True), [_run(prefix)]))
        completions = [
            _run(prefix + extra, period)
            for extra in _words(extensions)
            for period in [None, *_words(extension_periods, 1)]
        ]
        shapes.append((ActiveTokens(known, None, False), completions))
        for period in _words(periods, 1):
            shapes.append((ActiveTokens(known, tuple(period), True), [_run(prefix, period)]))
    return shapes


class TestOrderSemantics:
    """The order on every ordered pair of shapes over {a, b}: on two complete
    shapes compare_active answers the true order, and the sampled refutation
    rule is sound: when a left shape's known tokens do not embed in a
    complete right, every completion of the left side is NEITHER."""

    def test_every_pair_of_shapes(self):
        shapes = _shapes(prefixes=4, periods=3, extensions=2, extension_periods=3)
        complete = [(right, runs) for right, runs in shapes if right.complete]
        wrong, refuted = [], 0
        for left, left_runs in shapes:
            for right, (large,) in complete:
                if left.complete:
                    answer = compare_active(left, right)
                    if _true_order(left_runs[0], large) is not answer:
                        wrong.append((left, right, answer))
                if not embeds(left.prefix, right):
                    refuted += 1
                    if any(
                        _true_order(small, large) is not TraceOrder.NEITHER
                        for small in left_runs
                    ):
                        wrong.append((left, right, "refuted"))
        assert refuted
        assert not wrong, f"{len(wrong)} wrong answers, first {wrong[:3]}"
