"""Cross-cutting invariants driven by hypothesis."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from purpose_audit import (
    NOTHING,
    AuditReason,
    Behavior,
    ConvergenceError,
    Strategy,
    audit,
    auditing,
    compute_fix,
    compute_omega,
    evaluate_strategy,
    solve_optimal,
    validate_model,
)
from purpose_audit import solve
from purpose_audit.model import StructureIndex, observed_choices
from purpose_audit.solve import FLOAT_EQUALITY, FLOAT_ITERATION_CAP, FLOAT_RESIDUAL
from purpose_audit.oracle import reference
from purpose_audit.traces import (
    ActiveTokens,
    SampledContingency,
    TraceOrder,
    compare_active,
    simulate,
)

from generators import (
    bellman_residual,
    lookahead,
    mostly_greedy_walk,
    random_consistent_behavior,
    random_model,
    random_walk_behavior,
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


def _random_strategy(rng, model) -> Strategy:
    choice = {q: rng.choice(model.available_actions(q)) for q in model.states}
    return Strategy.from_mapping(choice, model)


class TestSimulateReadsTheDefinition:
    """``simulate`` returns the active part, the tokens before the first
    nothing-action, of the run it makes."""

    @staticmethod
    def _by_definition(model, sigma, kappa, start) -> ActiveTokens:
        # Walk the whole execution, nothing steps included, until a state
        # comes round again: under a stationary contingency the run repeats
        # from there. Its active part ends at the first nothing-action; with
        # none before the revisit, it is the tokens up to that state's first
        # visit, then the period back to it, forever.
        states, tokens = [start], [start]
        while states[-1] not in states[:-1]:
            q = states[-1]
            target = q if sigma[q] == NOTHING else kappa[(q, sigma[q])]
            states.append(target)
            tokens += (sigma[q], target)
        if NOTHING in tokens:
            return ActiveTokens(tuple(tokens[: tokens.index(NOTHING)]), None, True)
        first = 2 * states.index(states[-1]) + 1
        return ActiveTokens(tuple(tokens[:first]), tuple(tokens[first:]), True)

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_stationary_runs_match_the_definition(self, seed):
        rng = random.Random(seed)
        model = random_model(rng, n_states=(1, 6), max_support=3)
        sigma = _random_strategy(rng, model)
        kappa = {
            pair: rng.choice(sorted(model.successors(*pair)))
            for pair in model.transitions
        }
        for start in model.states:
            assert simulate(model, sigma, kappa, start) == self._by_definition(
                model, sigma, kappa, start
            )

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(min_value=0, max_value=8))
    def test_sampled_runs_are_cut_at_the_horizon(self, seed, horizon):
        rng = random.Random(seed)
        model = random_model(rng, n_states=(1, 6), max_support=3)
        sigma = _random_strategy(rng, model)
        contingency = SampledContingency(model, rng)
        for start in model.states:
            run = simulate(model, sigma, contingency, start, horizon=horizon)
            tokens = run.prefix
            assert run.period is None
            assert NOTHING not in tokens
            # Cut at 2 * horizon + 1 tokens unless it reached the nothing-action.
            if run.complete:
                assert len(tokens) <= 2 * horizon + 1
                assert sigma[tokens[-1]] == NOTHING
            else:
                assert len(tokens) == 2 * horizon + 1
                assert sigma[tokens[-1]] != NOTHING
            # Each step follows sigma, and a chance node's k-th visit takes
            # the contingency's choice for occurrence k.
            visits = {}
            for q, a, target in zip(tokens[::2], tokens[1::2], tokens[2::2]):
                assert a == sigma[q]
                support = model.successors(q, a)
                if len(support) == 1:
                    assert target in support
                else:
                    k = visits.get((q, a), 0)
                    visits[(q, a)] = k + 1
                    assert target == contingency.resolve(q, a, k)


class TestSolverInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_evaluation_satisfies_bellman_identity(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        sigma = _random_strategy(rng, model)
        values = evaluate_strategy(model, sigma)
        for q in model.states:
            assert values[q] == lookahead(model, values, q, sigma[q])

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
            actions = model.available_actions(q)
            backups = [lookahead(model, solution.v_star, q, a) for a in actions]
            assert solution.v_star[q] == max(backups)
            assert solution.greedy[q] == tuple(
                a for a, backup in zip(actions, backups) if backup == max(backups)
            )


class TestOmegaInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_omega_exceeds_twice_value_bound(self, seed):
        model = random_model(random.Random(seed))
        r_star = model.max_reward_magnitude()
        assert compute_omega(model) > 2 * r_star / (1 - model.discount)
        assert r_star == max(abs(r) for r in model.rewards.values())


class TestAuditInvariants:
    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_engine_matches_oracle(self, seed):
        rng = random.Random(seed)
        model = random_model(rng, n_states=(2, 4))
        behavior = random_walk_behavior(rng, model)
        engine = audit(model, behavior).empty_intersection
        assert engine == reference(model).empty(behavior)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_fix_only_lowers_rewards_at_observed_states(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        behavior = random_consistent_behavior(rng, model)
        constraints = observed_choices(behavior)
        fixed = compute_fix(model, behavior)
        omega = compute_omega(model)
        for (q, a), reward in model.rewards.items():
            if q in constraints and a != constraints[q]:
                assert fixed.rewards[(q, a)] == -omega
            else:
                assert fixed.rewards[(q, a)] == reward

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_empty_behavior_audits_false(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        start = rng.choice(model.states)
        assert not audit(model, Behavior((start,))).empty_intersection


class TestCertifiedDecisions:
    """An exact decision reads tables certified on the warm start's float
    iterate, or on that iterate swept on, when every comparison settles, and
    policy iteration's otherwise.
    Either way they are ``solve_optimal``'s greedy sets, useless pairs and
    greedy template, and every audit decides as it does on those. Low action
    presence leaves states with only the nothing-action, and zero rewards
    make exact ties, which never settle."""

    GAMMAS = (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100))

    @staticmethod
    def certified(seed, gamma, zero_fraction, presence) -> bool:
        rng = random.Random(seed)
        model = random_model(
            rng,
            n_states=(2, 12),
            max_support=3,
            gammas=(gamma,),
            action_presence=presence,
            zero_reward_fraction=zero_fraction,
        )
        decided = solve._decision_solution(model, "exact")
        exact = solve_optimal(model)
        assert decided.greedy == exact.greedy
        assert decided._useless == exact._useless
        assert decided._greedy_template == exact._greedy_template
        twin = model.with_rewards(model.rewards)
        model._solutions["exact"], twin._solutions["exact"] = decided, exact
        for _ in range(4):
            for behavior in (
                mostly_greedy_walk(rng, model, exact, max_length=8),
                random_walk_behavior(rng, model),
            ):
                assert audit(model, behavior) == audit(twin, behavior)
        return decided.v_star is None

    @settings(max_examples=80, deadline=None)
    @given(
        seeds,
        st.sampled_from(GAMMAS),
        st.sampled_from((0.0, 0.3, 0.6)),
        st.sampled_from((0.85, 0.4)),
    )
    def test_tables_and_outcomes_match_the_exact_solve(
        self, seed, gamma, zero_fraction, presence
    ):
        self.certified(seed, gamma, zero_fraction, presence)

    @settings(max_examples=150, deadline=None)
    @given(
        seeds,
        st.sampled_from(GAMMAS),
        st.sampled_from((0.0, 0.3, 0.6)),
        st.sampled_from((1e-1, 1e-2, 1e-3, 1e-4, 1e-6)),
    )
    def test_any_iterate_certifies_only_exact_tables(
        self, seed, gamma, zero_fraction, noise
    ):
        # The bounds hold for every vector, not only for warm-start iterates:
        # V* over max |r| / R, moved by up to ``noise`` at each state but at
        # some where V* is 0, is certified either not at all or to the exact
        # tables, including where the moves reorder actions or flip signs.
        rng = random.Random(seed)
        model = random_model(
            rng,
            n_states=(2, 8),
            max_support=3,
            gammas=(gamma,),
            action_presence=0.6,
            zero_reward_fraction=zero_fraction,
        )
        exact = solve_optimal(model)
        numerators, denominator = model._reward_numerators
        unit = Fraction(denominator, max(map(abs, numerators)) or 1)
        values = [
            float(v * unit)
            + (0.0 if not v and rng.random() < 0.5 else noise * rng.uniform(-1, 1))
            for v in exact.v_star.values()
        ]
        certified = solve._certified(model, values)
        if certified is not None:
            assert certified.greedy == exact.greedy
            assert certified._useless == exact._useless
            assert certified._greedy_template == exact._greedy_template

    def test_both_branches_occur(self):
        branches = [
            self.certified(seed, gamma, 0.3, 0.4)
            for seed in range(8)
            for gamma in self.GAMMAS
        ]
        assert any(branches) and not all(branches)


class TestExactDecisionMatchesPenalisedModel:
    """Exact audits decide step two from the greedy sets; the paper decides it
    by solving the penalised model. Both must give the same verdict and the
    same gap witness: the first state whose penalised optimum differs."""

    GAMMAS = (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(99, 100))

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
            behavior = mostly_greedy_walk(rng, model, solution)
            outcome = audit(model, behavior)
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

    @settings(max_examples=100, deadline=None)
    @given(
        seeds,
        st.sampled_from((Fraction(1, 2), Fraction(9, 10), Fraction(99, 100))),
        st.sampled_from((1, 3)),
    )
    def test_safe_set_is_where_the_penalised_optimum_holds(
        self, seed, gamma, max_support
    ):
        # The whole safe set, not only its first missing state: a state is
        # in it iff the penalised optimum equals V* there. Mostly zero
        # rewards over three or four actions make greedy ties common, and
        # long logs observe most states.
        rng = random.Random(seed)
        model = random_model(
            rng,
            n_states=(2, 7),
            n_actions=(3, 4),
            max_support=max_support,
            gammas=(gamma,),
            zero_reward_fraction=rng.choice((0.6, 0.8)),
        )
        solution = solve_optimal(model)
        for _ in range(6):
            behavior = mostly_greedy_walk(rng, model, solution, max_length=12)
            choices = observed_choices(behavior)
            safe = auditing._safe_states(model, solution, choices)
            v_fixed = solve_optimal(compute_fix(model, behavior)).v_star
            assert safe == [v_fixed[q] == solution.v_star[q] for q in model.states]

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
        behavior = Behavior(("s0", "a", "s1", "N", "s1"))
        outcome = audit(model, behavior)
        assert outcome.reason is AuditReason.VALUE_GAP_AT_ALL_STATES
        assert outcome.witness_state == "s0"
        v_fixed = solve_optimal(compute_fix(model, behavior)).v_star
        assert v_fixed["s0"] == Fraction(3, 2) < solve_optimal(model).v_star["s0"]


def reference_sweeps(model, rewards, target, sweeps):
    """Float value iteration as the solver first ran it: Jacobi sweeps from
    V = 0 over a full lookahead table, ``max`` per row, stopping once
    gamma * (largest change) <= target or after ``sweeps`` sweeps.
    ``rewards`` maps each pair to a float. Returns (values in state order,
    whether the target was met, the lookahead table function)."""
    gamma = float(model.discount)
    position = {q: i for i, q in enumerate(model.states)}
    rows = [
        [
            (
                rewards[(q, a)],
                [(position[t], gamma * float(p)) for t, p in model.successors(q, a).items()],
            )
            for a in model.available_actions(q)
        ]
        for q in model.states
    ]

    def lookahead(values):
        table = []
        for row in rows:
            backups = []
            for acc, successors in row:
                for j, weight in successors:
                    acc += weight * values[j]
                backups.append(acc)
            table.append(backups)
        return table

    values = [0.0] * len(rows)
    for _ in range(sweeps):
        updated = [max(backups) for backups in lookahead(values)]
        gap = max(abs(new - old) for new, old in zip(updated, values))
        values = updated
        if gamma * gap <= target:
            return values, True, lookahead
    return values, False, lookahead


def reference_value_iteration(model):
    """Float mode by :func:`reference_sweeps`, to the relative residual
    FLOAT_RESIDUAL * scale. Returns (V*, Q*, greedy) in state, then action,
    order."""
    gamma = float(model.discount)
    rewards = {pair: float(r) for pair, r in model.rewards.items()}
    scale = max(1.0, max(abs(r) for r in rewards.values()) / (1 - gamma))
    target = FLOAT_RESIDUAL * scale * (1 - gamma)
    values, converged, lookahead = reference_sweeps(
        model, rewards, target, FLOAT_ITERATION_CAP
    )
    if not converged:
        raise AssertionError("reference value iteration did not converge")
    available = {q: model.available_actions(q) for q in model.states}
    v_star = dict(zip(model.states, values))
    q_star = {
        (q, a): value
        for q, row in zip(model.states, lookahead(values))
        for a, value in zip(available[q], row)
    }
    tolerance = FLOAT_EQUALITY * scale
    greedy = {
        q: tuple(a for a in available[q] if abs(q_star[(q, a)] - v_star[q]) <= tolerance)
        for q in model.states
    }
    return v_star, q_star, greedy


def hexed(table):
    return [(key, value.hex()) for key, value in table.items()]


class TestFloatModeIsBitIdentical:
    """Float mode runs on the shared structure index, and float step two
    iterates the reward vector of ``compute_fix(model, b)`` on that index
    too. Values must be bit for bit those of the reference iteration on the
    full model, and every float verdict and witness that of comparing them
    with the reference iteration on ``compute_fix(model, b)``."""

    GAMMAS = (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100))

    @staticmethod
    def _expected(model, behavior, base):
        # The float audit's step two by its definition: solve the penalised
        # model, then compare values at a relative 1e-6 tolerance.
        fixed, _, _ = reference_value_iteration(compute_fix(model, behavior))
        for q in model.states:
            left, right = base[q], fixed[q]
            if abs(left - right) > FLOAT_EQUALITY * max(1.0, abs(left), abs(right)):
                return AuditReason.VALUE_GAP_AT_ALL_STATES, q
        return AuditReason.WITNESS_STATE_EQUAL_VALUE, behavior.start

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.sampled_from(GAMMAS), st.sampled_from((0.3, 0.6)))
    def test_solve_and_audit_match_reference(self, seed, gamma, zero_fraction):
        rng = random.Random(seed)
        model = random_model(
            rng, n_states=(2, 6), gammas=(gamma,), zero_reward_fraction=zero_fraction
        )
        solution = solve_optimal(model, mode="float")
        v_star, q_star, greedy = reference_value_iteration(model)
        assert hexed(solution.v_star) == hexed(v_star)
        values = list(solution.v_star.values())
        table = solve._lookahead(model._index.rows, model._float_rewards, values)
        q_float = dict(zip(model.pairs(), (b for row in table for b in row)))
        assert hexed(q_float) == hexed(q_star)
        assert list(solution.greedy.items()) == list(greedy.items())
        exact = solve_optimal(model)
        for _ in range(3):
            behavior = mostly_greedy_walk(rng, model, exact)
            outcome = audit(model, behavior, mode="float")
            if outcome.reason in (
                AuditReason.STEP_ONE_USELESS,
                AuditReason.INCONSISTENT_BEHAVIOR,
            ):
                continue
            reason, witness = self._expected(model, behavior, v_star)
            assert (outcome.reason, outcome.witness_state) == (reason, witness)

    @settings(max_examples=80, deadline=None)
    @given(
        seeds,
        st.sampled_from(GAMMAS),
        st.sampled_from((0.3, 0.6)),
        st.sampled_from((Fraction(-1, 2), 0, Fraction(1, 2), 2)),
    )
    def test_step_one_threshold(self, seed, gamma, zero_fraction, near):
        # Float step one reads a logged non-N pair as useless when its float
        # Q* is at most 1e-6 * max(1, max |r| / (1 - gamma)), all in floats.
        rng = random.Random(seed)
        model = random_model(
            rng, n_states=(2, 6), gammas=(gamma,), zero_reward_fraction=zero_fraction
        )
        candidates = [pair for pair in model.pairs() if pair[1] != "N"]
        assume(candidates)
        # A near tie: with (q, a) too costly to be optimal, V* does not depend
        # on its reward, so the reward eps - gamma * sum p V*(q') puts Q*(q, a)
        # at eps, `near` times the threshold, whenever V*(q) >= eps.
        q, a = rng.choice(candidates)
        top = model.max_reward_magnitude()
        penalty = -2 * top / (1 - gamma) - 1
        v = solve_optimal(model.with_rewards({**model.rewards, (q, a): penalty})).v_star
        eps = near * Fraction(1, 10**6) * max(1, top / (1 - gamma))
        backup = gamma * sum(p * v[t] for t, p in model.successors(q, a).items())
        model = model.with_rewards({**model.rewards, (q, a): eps - backup})

        top = float(max(abs(r) for r in model.rewards.values()))
        threshold = 1e-6 * max(1.0, top / (1 - float(gamma)))
        _, q_star, _ = reference_value_iteration(model)
        exact = solve_optimal(model)
        behaviors = [Behavior((q, a, rng.choice(sorted(model.successors(q, a)))))]
        for _ in range(3):
            behaviors.append(mostly_greedy_walk(rng, model, exact))
        for behavior in behaviors:
            useless = [
                pair
                for pair in behavior.pairs()
                if pair[1] != "N" and q_star[pair] <= threshold
            ]
            outcome = audit(model, behavior, mode="float")
            assert (outcome.reason is AuditReason.STEP_ONE_USELESS) == bool(useless)
            if useless:
                assert (outcome.witness_state, outcome.witness_action) == useless[0]

    @settings(max_examples=40, deadline=None)
    @given(
        seeds,
        st.sampled_from(GAMMAS),
        st.sampled_from((0.3, 0.6)),
        st.sampled_from((Fraction(1, 4), Fraction(3, 4), Fraction(3, 2), 3)),
    )
    def test_greedy_threshold(self, seed, gamma, zero_fraction, near):
        # Float mode reads an action as greedy when its float Q* is within
        # 1e-6 * max(1, max |r| / (1 - gamma)) of V*. A near tie: with (q, a)
        # too costly to be optimal, V* does not depend on its reward, so a
        # reward that puts Q*(q, a) at V*(q) - eps keeps V*. eps is `near`
        # times the tolerance with Q*(q, a) = V*(q), which moves max |r| by
        # at most eps, so halving or doubling the tolerance fails.
        rng = random.Random(seed)
        model = random_model(
            rng, n_states=(2, 6), gammas=(gamma,), zero_reward_fraction=zero_fraction
        )
        candidates = [pair for pair in model.pairs() if pair[1] != "N"]
        assume(candidates)
        q, a = rng.choice(candidates)
        top = model.max_reward_magnitude()
        penalty = -2 * top / (1 - gamma) - 1
        v = solve_optimal(model.with_rewards({**model.rewards, (q, a): penalty})).v_star
        tie = v[q] - gamma * sum(p * v[t] for t, p in model.successors(q, a).items())
        rewards = {**model.rewards, (q, a): tie}
        top = max(map(abs, rewards.values()))
        rewards[(q, a)] = tie - near * Fraction(1, 10**6) * max(1, top / (1 - gamma))
        model = model.with_rewards(rewards)

        solution = solve_optimal(model, mode="float")
        assert (a in solution.greedy[q]) == (near <= 1)
        assert list(solution.greedy.items()) == list(
            reference_value_iteration(model)[2].items()
        )

    def test_log_without_observed_choice(self):
        model = random_model(random.Random(5), n_states=(3, 3))
        behavior = Behavior(("q1",))
        outcome = audit(model, behavior, mode="float")
        reason, witness = self._expected(
            model, behavior, reference_value_iteration(model)[0]
        )
        assert outcome.reason is reason is AuditReason.WITNESS_STATE_EQUAL_VALUE
        assert outcome.witness_state == witness == "q1"

    def test_observed_state_with_only_the_nothing_action(self):
        # "u" has no action but N, so the penalised table has no -omega entry
        # and its bound and scale are the model's own.
        model = validate_model(
            states=["s", "u"],
            actions=["a", "b"],
            transitions={("s", "a"): {"u": 1}, ("s", "b"): {"s": 1}},
            rewards={("s", "a"): 3, ("s", "b"): 1},
            discount=Fraction(9, 10),
        )
        behavior = Behavior(("u", "N", "u"))
        assert compute_fix(model, behavior).rewards == model.rewards
        outcome = audit(model, behavior, mode="float")
        reason, witness = self._expected(
            model, behavior, reference_value_iteration(model)[0]
        )
        assert (outcome.reason, outcome.witness_state) == (reason, witness)

    def test_penalised_bound_beyond_float_range_raises(self):
        # max |r| = 2**1020 keeps the model's own bound 2 * r / (1 - gamma)
        # = 2**1022 in float range, but omega = 4 * r + 1 puts the penalised
        # bound 2 * omega / (1 - gamma) beyond it.
        model = validate_model(
            states=["s"],
            actions=["a", "b"],
            transitions={("s", "a"): {"s": 1}, ("s", "b"): {"s": 1}},
            rewards={("s", "a"): Fraction(2**1020), ("s", "b"): Fraction(0)},
            discount=Fraction(1, 2),
        )
        solution = solve_optimal(model, mode="float")
        assert solution.v_star["s"] == pytest.approx(2.0**1021, rel=1e-6)
        behavior = Behavior(("s", "a", "s"))
        with pytest.raises(ConvergenceError, match="floating-point range"):
            audit(model, behavior, mode="float")
        with pytest.raises(ConvergenceError, match="floating-point range"):
            solve_optimal(compute_fix(model, behavior), mode="float")


class TestStepTwoVectorMatchesComputeFix:
    """Float step two iterates the model's float rewards with -float(omega)
    on each pair that ``compute_fix(model, b)`` penalises, with that model's
    exact bound. Its values and scale must be those of ``_float_values`` on
    ``compute_fix(model, b)``, hex for hex: on tie-heavy families, with
    rewards over several denominators, for one-token logs, for logs at a
    state with no action but N (no pair penalised, so the bound is r*), and
    for walks that fit or leave a gap."""

    GAMMAS = TestFloatModeIsBitIdentical.GAMMAS

    @staticmethod
    def _by_definition(model, behavior):
        fixed = compute_fix(model, behavior)
        magnitude = fixed.max_reward_magnitude()
        return solve._float_values(fixed, magnitude, lambda: fixed._float_rewards)

    @settings(max_examples=30, deadline=None)
    @given(
        seeds,
        st.sampled_from(GAMMAS),
        st.sampled_from((0.6, 0.9)),
        st.sampled_from((1, 3, 7)),
    )
    def test_values_match_the_penalised_model(self, seed, gamma, zero_fraction, d):
        rng = random.Random(seed)
        base = random_model(
            rng, n_states=(2, 6), gammas=(gamma,), zero_reward_fraction=zero_fraction
        )
        # "z" has no action but N and no state leads into it.
        model = validate_model(
            states=[*base.states, "z"],
            actions=base.actions,
            transitions=base.transitions,
            rewards={pair: r / d for pair, r in base.rewards.items()},
            discount=gamma,
        )
        exact = solve_optimal(model)
        behaviors = [
            Behavior((rng.choice(model.states),)),
            Behavior(("z", NOTHING, "z", NOTHING, "z")),
            random_consistent_behavior(rng, model, max_length=8),
            mostly_greedy_walk(rng, model, exact, max_length=8),
        ]
        step_two = []
        float_values = auditing._float_values

        def spy(*args):
            step_two.append(float_values(*args))
            return step_two[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(auditing, "_float_values", spy)
            for behavior in behaviors:
                step_two.clear()
                outcome = audit(model, behavior, mode="float")
                if outcome.reason is AuditReason.STEP_ONE_USELESS:
                    assert not step_two
                    continue
                [(values, scale)] = step_two
                expected, expected_scale = self._by_definition(model, behavior)
                assert [v.hex() for v in values] == [v.hex() for v in expected]
                assert scale.hex() == expected_scale.hex()

    def test_unpenalised_log_keeps_the_model_bound(self):
        # The model's bound 2 * 2**1020 / (1 - gamma) = 2**1023 is in float
        # range and omega's is not: only a log that penalises a pair raises.
        model = validate_model(
            states=["s", "u"],
            actions=["a", "b"],
            transitions={("s", "a"): {"u": 1}, ("s", "b"): {"s": 1}},
            rewards={("s", "a"): Fraction(2**1020)},
            discount=Fraction(1, 2),
        )
        behavior = Behavior(("u", NOTHING, "u"))
        outcome = audit(model, behavior, mode="float")
        assert outcome.reason is AuditReason.WITNESS_STATE_EQUAL_VALUE
        values, _ = self._by_definition(model, behavior)
        assert values == list(model._solutions["float"].v_star.values())
        with pytest.raises(ConvergenceError, match="floating-point range"):
            audit(model, Behavior(("s", "a", "u")), mode="float")


class TestDroppedActionsKeepFloatValues:
    """``solve._sweeps`` stops backing up each action that its bound proves
    can never again be its state's maximum. On models where that test fires
    (more states, wider support, exact ties from zero rewards), each kind of
    kernel input must return the reference iteration's values bit for bit,
    and its flag: rewards r / max |r| (in [-1, 1]) to a coarse residual of
    1e-3, float mode, float step two on ``compute_fix(model, b)``, and calls
    cut short by their sweep cap, which float mode reports as
    ConvergenceError. Float mode and step two are capped at 2,048 sweeps,
    which a discount of 999/1000 can reach. The warm start runs its own
    Gauss-Seidel loop, not this kernel; ``test_solve.py`` checks its
    guesses."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The number of actions in the rows of each ``_lookahead`` pass:
        fewer than the index has once a pass of the same call dropped one."""
        seen = []
        lookahead = solve._lookahead

        def spy(rows, rewards, values):
            seen.append(sum(map(len, rows)))
            return lookahead(rows, rewards, values)

        monkeypatch.setattr(solve, "_lookahead", spy)
        return seen

    @pytest.mark.parametrize("zero_fraction", (0.6, 0.9))
    @pytest.mark.parametrize(
        "gamma", (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))
    )
    def test_kernel_calls_match_reference(self, gamma, zero_fraction, seen):
        rng = random.Random(int(1000 * zero_fraction) + gamma.denominator)
        g, fired, capped = float(gamma), 0, 0
        for _ in range(3):
            model = random_model(
                rng,
                n_states=(8, 30),
                max_support=8,
                gammas=(gamma,),
                zero_reward_fraction=zero_fraction,
            )
            if not model.max_reward_magnitude():
                continue  # every value is 0 after one sweep
            behavior = random_consistent_behavior(rng, model, max_length=12)
            fixed = compute_fix(model, behavior)
            numerators, _ = model._reward_numerators
            top, exact_top = max(map(abs, numerators)), model.max_reward_magnitude()
            warm = {pair: float(r / exact_top) for pair, r in model.rewards.items()}
            calls = [(model, [n / top for n in numerators], warm, 1e-3, 200)]
            for m, sweeps in ((model, 2048), (fixed, 2048), (model, 40)):
                rewards = {pair: float(r) for pair, r in m.rewards.items()}
                scale = max(1.0, max(map(abs, rewards.values())) / (1 - g))
                target = FLOAT_RESIDUAL * scale * (1 - g)
                calls.append((m, m._float_rewards, rewards, target, sweeps))
            for m, vector, rewards, target, sweeps in calls:
                seen.clear()
                values, converged = solve._sweeps(m._index, vector, g, target, sweeps)
                expected, flag, _ = reference_sweeps(m, rewards, target, sweeps)
                assert [v.hex() for v in values] == [v.hex() for v in expected]
                assert converged is flag
                fired += any(n < len(m._index.pairs) for n in seen)
                capped += not converged
        assert fired and capped

    @pytest.mark.parametrize(
        "gamma", (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))
    )
    def test_late_winner_is_kept(self, gamma):
        # At "s", "b" pays gamma / (1 - gamma) - 1 at once, and "a" earns
        # gamma / (1 - gamma) by climbing through "p" from V = 0: "a" trails
        # for many sweeps and wins in the end. At sweep 8 it trails by less
        # than the margin, but by more than a tenth of it.
        model = validate_model(
            states=["s", "p", "z"],
            actions=["a", "b", "go"],
            transitions={
                ("s", "a"): {"p": 1},
                ("s", "b"): {"z": 1},
                ("p", "go"): {"p": 1},
            },
            rewards={
                ("s", "a"): 0,
                ("s", "b"): gamma / (1 - gamma) - 1,
                ("p", "go"): 1,
            },
            discount=gamma,
        )
        v_star, _, _ = reference_value_iteration(model)
        assert v_star["s"] > gamma / (1 - gamma) - Fraction(1, 2)
        assert hexed(solve_optimal(model, mode="float").v_star) == hexed(v_star)

    def test_dropping_stays_inside_one_call(self, seen):
        rng = random.Random(7)
        model = random_model(rng, n_states=(20, 20), max_support=8)
        behavior = random_consistent_behavior(rng, model, max_length=12)
        index, rows = model._index, model._index.rows
        solution = solve_optimal(model, mode="float")
        audit(model, behavior, mode="float")
        assert min(seen) < len(model._index.pairs)
        fresh = StructureIndex(
            model.states, model.actions, model.transitions, model.discount
        )
        assert model._index is index and index.rows is rows and rows == fresh.rows
        assert len(solution._greedy_template[0]) == len(model._index.pairs)

