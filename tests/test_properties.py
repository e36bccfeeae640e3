"""Cross-cutting invariants driven by hypothesis."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from purpose_audit import (
    AuditReason,
    Behavior,
    Strategy,
    audit,
    bellman_residual,
    compute_fix,
    compute_omega,
    evaluate_strategy,
    oracle_audit,
    q_value,
    solve_optimal,
    validate_model,
)
from purpose_audit.model import observed_choices
from purpose_audit.oracle import (
    random_consistent_behavior,
    random_model,
    random_walk_behavior,
)
from purpose_audit.traces import (
    ActiveTokens,
    TraceOrder,
    compare_active,
)

seeds = st.integers(min_value=0, max_value=10**9)
tokens = st.lists(st.sampled_from("abcxyz"), min_size=0, max_size=8)


def finite(seq) -> ActiveTokens:
    return ActiveTokens(tuple(seq), None, True)


class TestSubsequenceEngine:
    @given(tokens)
    def test_reflexive_equal(self, seq):
        assert compare_active(finite(seq), finite(seq)) is TraceOrder.EQUAL

    @given(tokens, st.data())
    def test_deleting_tokens_gives_proper(self, seq, data):
        if not seq:
            return
        keep = data.draw(st.lists(st.booleans(), min_size=len(seq), max_size=len(seq)))
        sub = [t for t, k in zip(seq, keep) if k]
        if sub == seq:
            return
        assert compare_active(finite(sub), finite(seq)) is TraceOrder.PROPER

    @given(tokens, tokens, tokens)
    def test_transitive(self, a, b, c):
        first = compare_active(finite(a), finite(b))
        second = compare_active(finite(b), finite(c))
        ok = (TraceOrder.EQUAL, TraceOrder.PROPER)
        if first in ok and second in ok:
            assert compare_active(finite(a), finite(c)) in ok

    @given(tokens, tokens)
    def test_antisymmetric(self, a, b):
        if a == b:
            return
        forward = compare_active(finite(a), finite(b))
        backward = compare_active(finite(b), finite(a))
        assert not (forward is TraceOrder.PROPER and backward is TraceOrder.PROPER)

    @given(tokens, st.lists(st.sampled_from("abcxyz"), min_size=1, max_size=4))
    def test_finite_embeds_in_its_own_unrolling(self, prefix, period):
        infinite = ActiveTokens(tuple(prefix), tuple(period), True)
        probe = finite(list(prefix) + list(period) * 3)
        assert compare_active(probe, infinite) is TraceOrder.PROPER


class TestSolverInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_evaluation_satisfies_bellman_identity(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        choice = {q: rng.choice(model.available_actions(q)) for q in model.states}
        sigma = Strategy.from_mapping(choice, model)
        values = evaluate_strategy(model, sigma)
        for q in model.states:
            assert values[q] == q_value(model, values, q, sigma[q])

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_optimal_bellman_residual_exactly_zero(self, seed):
        model = random_model(random.Random(seed))
        assert bellman_residual(model, solve_optimal(model).v_star) == 0

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_greedy_sets_attain_the_max(self, seed):
        model = random_model(random.Random(seed))
        solution = solve_optimal(model)
        for q in model.states:
            best = max(
                solution.q_star[(q, a)] for a in model.available_actions(q)
            )
            assert solution.v_star[q] == best
            assert solution.greedy[q] == tuple(
                a
                for a in model.available_actions(q)
                if solution.q_star[(q, a)] == best
            )


class TestOmegaInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_omega_exceeds_twice_value_bound(self, seed):
        model = random_model(random.Random(seed))
        params = compute_omega(model)
        assert params.omega > 2 * params.r_star / (1 - model.discount)
        assert params.r_star == max(abs(r) for r in model.rewards.values())


class TestAuditInvariants:
    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_engine_matches_oracle(self, seed):
        rng = random.Random(seed)
        model = random_model(rng, n_states=(2, 4))
        behavior = random_walk_behavior(rng, model)
        assert audit(model, behavior).empty_intersection == oracle_audit(model, behavior)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_fix_only_lowers_rewards_at_observed_states(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        behavior = random_consistent_behavior(rng, model)
        constraints = observed_choices(behavior)
        fixed = compute_fix(model, behavior)
        omega = compute_omega(model).omega
        for (q, a), reward in model.rewards.items():
            if q in constraints and a != constraints[q]:
                assert fixed.reward(q, a) == -omega
            else:
                assert fixed.reward(q, a) == reward

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_empty_behavior_audits_false(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        start = rng.choice(model.states)
        assert not audit(model, Behavior(start)).empty_intersection


class TestExactDecisionMatchesPenalisedModel:
    """Exact audits decide step two from the greedy sets; the paper decides it
    by solving the penalised model. Both must give the same verdict and the
    same gap witness: the first state whose penalised optimum differs."""

    GAMMAS = (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(99, 100))

    @staticmethod
    def _mostly_greedy_walk(rng, model, solution) -> Behavior:
        # A fixed strategy that is greedy at most states, so fits, gaps and
        # zero-reward ties all occur; following it never forces two actions.
        choice = {
            q: rng.choice(
                solution.greedy[q]
                if rng.random() < 0.8
                else model.available_actions(q)
            )
            for q in model.states
        }
        q = start = rng.choice(model.states)
        steps = []
        for _ in range(rng.randint(0, 6)):
            target = rng.choice(sorted(model.successors(q, choice[q])))
            steps.append((choice[q], target))
            q = target
        return Behavior(start, tuple(steps))

    @settings(max_examples=80, deadline=None)
    @given(seeds, st.sampled_from(GAMMAS), st.sampled_from((0.3, 0.6)))
    def test_verdict_and_witness_match(self, seed, gamma, zero_fraction):
        rng = random.Random(seed)
        model = random_model(
            rng,
            n_states=(2, 6),
            gammas=(gamma,),
            zero_reward_fraction=zero_fraction,
        )
        solution = solve_optimal(model)
        for _ in range(4):
            behavior = self._mostly_greedy_walk(rng, model, solution)
            outcome = audit(model, behavior, solution=solution)
            if outcome.reason is AuditReason.STEP_ONE_USELESS:
                continue
            v_fixed = solve_optimal(compute_fix(model, behavior)).v_star
            gaps = [q for q in model.states if v_fixed[q] != solution.v_star[q]]
            assert outcome.empty_intersection == bool(gaps)
            if gaps:
                assert outcome.reason is AuditReason.VALUE_GAP_AT_ALL_STATES
                assert outcome.witness_state == gaps[0]
            else:
                assert outcome.reason is AuditReason.WITNESS_STATE_EQUAL_VALUE
            assert outcome.v_star_fixed == v_fixed

    def test_tie_at_an_observed_state_binds_the_logged_action(self):
        # At s0, "a" (into s1) and "b" (a self-loop) tie at V* = 2. The log
        # takes "a", then the non-greedy "N" at s1. Only "a" is free of the
        # penalty at s0, so s0 falls short too and is the first gap state,
        # although "b" alone would keep the optimum there.
        model = validate_model(
            states=["s0", "s1", "s2"],
            actions=["a", "b", "c"],
            transitions={
                ("s0", "a"): {"s1": 1},
                ("s0", "b"): {"s0": 1},
                ("s1", "c"): {"s2": 1},
            },
            rewards={("s0", "a"): Fraction(3, 2), ("s0", "b"): 1, ("s1", "c"): 1},
            discount=Fraction(1, 2),
        )
        behavior = Behavior.from_tokens(["s0", "a", "s1", "N", "s1"])
        outcome = audit(model, behavior)
        assert outcome.reason is AuditReason.VALUE_GAP_AT_ALL_STATES
        assert outcome.witness_state == "s0"
        assert outcome.v_star_fixed["s0"] == Fraction(3, 2) < outcome.v_star["s0"]
