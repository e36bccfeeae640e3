from __future__ import annotations

import random
import re
import time
from fractions import Fraction

import pytest

from purpose_audit import (
    AuditReason,
    Behavior,
    BehaviorError,
    ConvergenceError,
    InconsistentBehavior,
    PolicyRule,
    RuleKind,
    VerdictStatus,
    audit,
    audit_batch,
    check_prohibitive,
    check_restrictive,
    compute_fix,
    compute_omega,
    oracle_opt,
    solve_optimal,
    triage,
    useless_pairs,
    validate_model,
)
from purpose_audit import auditing
from purpose_audit.model import observed_choices, validate_behavior
from purpose_audit.oracle import random_consistent_behavior, random_model

F = Fraction


class TestComputeOmega:
    def test_all_zero_rewards(self, treat):
        zeroed = treat.with_rewards({pair: 0 for pair in treat.transitions})
        params = compute_omega(zeroed)
        assert params.r_star == 0
        assert params.omega == 1

    def test_treat_fixture(self, treat):
        params = compute_omega(treat)
        assert params.r_star == 12
        assert params.omega == 241

    def test_profit_uses_its_own_table(self, profit):
        # r* comes from the reward table actually passed.
        params = compute_omega(profit)
        assert params.r_star == 12
        assert params.omega == 241

    def test_strict_bound(self):
        rng = random.Random(43)
        for _ in range(20):
            model = random_model(rng)
            params = compute_omega(model)
            assert params.omega > 2 * params.r_star / (1 - model.discount)


class TestComputeFix:
    def test_empty_behavior_is_identity(self, treat):
        assert compute_fix(treat, Behavior("1")) == treat

    def test_b1_rewrites(self, treat, logs):
        b1, _ = logs
        fixed = compute_fix(treat, b1)
        omega = compute_omega(treat).omega
        assert fixed.reward("2", "diagnose") == -omega
        assert fixed.reward("2", "send") == treat.reward("2", "send")
        assert fixed.reward("2", "N") == -omega
        assert fixed.reward("6", "send") == -omega
        assert fixed.reward("6", "N") == 0
        # Unobserved states keep their rewards.
        assert fixed.reward("4", "send") == treat.reward("4", "send")
        assert fixed.reward("5", "diagnose") == 12
        # Structure is untouched.
        assert fixed.transitions == treat.transitions
        assert fixed.discount == treat.discount

    def test_idempotent_with_frozen_omega(self, treat, logs):
        b1, _ = logs
        params = compute_omega(treat)
        once = compute_fix(treat, b1, parameters=params)
        twice = compute_fix(once, b1, parameters=params)
        assert once == twice

    def test_inconsistent_behavior_rejected(self, treat):
        clash = Behavior.from_tokens(
            ["1", "take", "2", "send", "3", "diagnose", "6", "N", "6", "N", "6"]
        )
        # consistent: repeated (6, N) agrees with itself
        compute_fix(treat, clash)
        bad = Behavior.from_tokens(["2", "send", "3", "diagnose", "6", "send", "6"])
        constraints = observed_choices(bad)
        assert constraints["6"] == "send"
        truly_bad = Behavior.from_tokens(
            ["2", "diagnose", "6", "send", "6", "N", "6"]
        )
        with pytest.raises(InconsistentBehavior):
            compute_fix(treat, truly_bad)


class TestAudit:
    def test_redundant_referral_is_a_violation(self, treat, logs):
        b1, _ = logs
        outcome = audit(treat, b1)
        assert outcome.empty_intersection
        assert outcome.reason is AuditReason.VALUE_GAP_AT_ALL_STATES
        # The constrained optimum falls short where the log forced send.
        assert outcome.v_star_fixed["2"] == F(54, 5)
        assert outcome.v_star["2"] == 12
        assert outcome.v_star_fixed["1"] == F(11907, 1250)

    def test_necessary_referral_is_not(self, treat, logs):
        _, b2 = logs
        outcome = audit(treat, b2)
        assert not outcome.empty_intersection
        assert outcome.reason is AuditReason.WITNESS_STATE_EQUAL_VALUE
        assert outcome.v_star_fixed == outcome.v_star

    def test_bare_state_log_fits_any_model(self, treat, profit):
        for model in (treat, profit):
            assert not audit(model, Behavior("3")).empty_intersection

    def test_step_one_fires_on_useless_pair(self, treat):
        b = Behavior.from_tokens(["6", "send", "6"])
        outcome = audit(treat, b)
        assert outcome.empty_intersection
        assert outcome.reason is AuditReason.STEP_ONE_USELESS
        assert (outcome.witness_state, outcome.witness_action) == ("6", "send")

    def test_step_one_witness_is_useless(self, treat):
        # Whenever step one fires, the witness pair is genuinely useless.
        b = Behavior.from_tokens(["6", "send", "6"])
        outcome = audit(treat, b)
        assert (outcome.witness_state, outcome.witness_action) in useless_pairs(treat)

    def test_step_one_outranks_inconsistency(self, treat):
        # A clash that also crosses a useless pair: step one fires first.
        clash = Behavior.from_tokens(["2", "diagnose", "6", "send", "6", "N", "6"])
        outcome = audit(treat, clash)
        assert outcome.empty_intersection
        assert outcome.reason is AuditReason.STEP_ONE_USELESS

    def test_inconsistent_log_reported_distinctly(self):
        # Every step individually fine (all Q* positive), but the log forces
        # two different actions at the same state.
        model = validate_model(
            states=["s", "t"],
            actions=["a", "b", "c"],
            transitions={
                ("s", "a"): {"t": 1},
                ("s", "b"): {"t": 1},
                ("t", "c"): {"s": 1},
            },
            rewards={("s", "a"): 1, ("s", "b"): 1, ("t", "c"): 1},
            discount="1/2",
        )
        clash = Behavior.from_tokens(["s", "a", "t", "c", "s", "b", "t"])
        outcome = audit(model, clash)
        assert outcome.empty_intersection
        assert outcome.reason is AuditReason.INCONSISTENT_BEHAVIOR
        assert outcome.witness_state == "s"
        from purpose_audit import oracle_audit

        assert oracle_audit(model, clash) is True

    def test_profit_model_fits_both_logs(self, profit, logs):
        b1, b2 = logs
        assert not audit(profit, b1).empty_intersection
        assert not audit(profit, b2).empty_intersection

    def test_float_mode_is_advisory_but_agrees_here(self, treat, logs):
        b1, b2 = logs
        assert audit(treat, b1, mode="float").empty_intersection
        assert not audit(treat, b2, mode="float").empty_intersection
        assert audit(treat, b1, mode="float").mode == "float"

    def test_float_audit_refuses_discount_that_rounds_to_one(self):
        # The float scale divides by 1 - float(gamma); a given solution must
        # not skip the check that solving in float mode would make.
        model = validate_model(
            states=["s"],
            actions=["go"],
            transitions={("s", "go"): {"s": 1}},
            rewards={("s", "go"): 1},
            discount=1 - F(1, 10**20),
        )
        solution = solve_optimal(model)
        behavior = Behavior.from_tokens(["s", "go", "s"])
        with pytest.raises(ConvergenceError, match="rounds to 1.0"):
            audit(model, behavior, mode="float", solution=solution)

    def test_batch_preserves_order(self, treat, logs):
        b1, b2 = logs
        outcomes = audit_batch(treat, [b1, b2, b1])
        assert [o.empty_intersection for o in outcomes] == [True, False, True]


class TestPolicyChecks:
    def test_only_for_treat(self, physician, logs):
        b1, b2 = logs
        rule = PolicyRule(RuleKind.RESTRICTIVE, ("treat",))
        assert check_restrictive(physician, rule, b1).status is VerdictStatus.VIOLATION
        verdict = check_restrictive(physician, rule, b2)
        assert verdict.status is VerdictStatus.INCONCLUSIVE
        assert not verdict.per_purpose["treat"].empty_intersection

    def test_restrictive_never_compliant(self, physician, logs):
        _, b2 = logs
        rule = PolicyRule(RuleKind.RESTRICTIVE, ("treat", "profit"))
        # One fitting purpose suffices for inconclusive, never compliant.
        verdict = check_restrictive(physician, rule, b2)
        assert verdict.status is VerdictStatus.INCONCLUSIVE

    def test_not_for_profit(self, physician, logs):
        b1, b2 = logs
        rule = PolicyRule(RuleKind.PROHIBITIVE, ("profit",))
        assert check_prohibitive(physician, rule, b1).status is VerdictStatus.INCONCLUSIVE
        assert check_prohibitive(physician, rule, b2).status is VerdictStatus.INCONCLUSIVE

    def test_prohibitive_compliant_when_nothing_fits(self, treat):
        # A purpose whose every real action hurts: any active log is not for it.
        hopeless = treat.with_rewards(
            {
                (q, a): (0 if a == treat.nothing_action else -1)
                for (q, a) in treat.transitions
            }
        )
        rule = PolicyRule(RuleKind.PROHIBITIVE, ("spite",))
        b = Behavior.from_tokens(["1", "take", "2"])
        verdict = check_prohibitive({"spite": hopeless}, rule, b)
        assert verdict.status is VerdictStatus.COMPLIANT
        assert (
            verdict.per_purpose["spite"].reason is AuditReason.STEP_ONE_USELESS
        )

    def test_rule_kind_enforced(self, physician, logs):
        b1, _ = logs
        with pytest.raises(ValueError):
            check_restrictive(physician, PolicyRule(RuleKind.PROHIBITIVE, ("profit",)), b1)
        with pytest.raises(ValueError):
            check_prohibitive(physician, PolicyRule(RuleKind.RESTRICTIVE, ("treat",)), b1)
        with pytest.raises(ValueError):
            PolicyRule(RuleKind.RESTRICTIVE, ())

    def test_shared_structure_compared_by_value(self):
        # Hand-built purposes own distinct but equal transition tables.
        def build(target, reward):
            return validate_model(
                states=["s", "t", "u"],
                actions=["go"],
                transitions={("s", "go"): {target: 1}},
                rewards={("s", "go"): reward},
                discount="1/2",
                fill_missing_rewards=True,
            )

        rule = PolicyRule(RuleKind.RESTRICTIVE, ("p", "q"))
        b = Behavior.from_tokens(["s", "go", "t"])
        p, q = build("t", 1), build("t", 2)
        assert p.transitions is not q.transitions
        verdict = check_restrictive({"p": p, "q": q}, rule, b)
        assert verdict.status is VerdictStatus.INCONCLUSIVE
        with pytest.raises(ValueError, match="share"):
            check_restrictive({"p": p, "q": build("u", 2)}, rule, b)

    def test_unknown_purpose_rejected(self, physician, logs):
        b1, _ = logs
        with pytest.raises(KeyError):
            check_restrictive(physician, PolicyRule(RuleKind.RESTRICTIVE, ("billing",)), b1)

    def test_rule_checks_validate_a_log_once(self, physician, logs, monkeypatch):
        calls = []

        def counting(model, behavior):
            calls.append(behavior)
            return validate_behavior(model, behavior)

        monkeypatch.setattr(auditing, "validate_behavior", counting)
        b1, b2 = logs
        only = PolicyRule(RuleKind.RESTRICTIVE, ("treat", "profit"))
        not_for = PolicyRule(RuleKind.PROHIBITIVE, ("profit", "treat"))
        for b in (b1, b2):
            restrictive = check_restrictive(physician, only, b)
            prohibitive = check_prohibitive(physician, not_for, b)
            for p, outcome in restrictive.per_purpose.items():
                assert outcome == audit(physician[p], b)
                assert prohibitive.per_purpose[p] == outcome
        assert len(calls) == 4 + 4  # one per verdict, one per audit call

    def test_invalid_log_raises_as_audit_does(self, physician):
        rule = PolicyRule(RuleKind.RESTRICTIVE, ("treat", "profit"))
        for tokens in (["1", "take", "9"], ["1", "fly", "2"], ["7"]):
            b = Behavior.from_tokens(tokens)
            with pytest.raises(BehaviorError) as expected:
                audit(physician["treat"], b)
            with pytest.raises(BehaviorError, match=re.escape(str(expected.value))):
                check_restrictive(physician, rule, b)


class TestSafeSet:
    @pytest.mark.parametrize("forward", [True, False])
    def test_long_chain_gap(self, forward):
        # A chain of 2000 states from s0 whose last one is observed with the
        # non-greedy "small". Each state drops out of the safe set only after
        # its successor. Along state order (forward), a whole-model pass in
        # state order drops one state per pass, about n passes. Against it
        # (s0, then s1999 down to s1), s0 is only reached by re-checking the
        # predecessors of each dropped state.
        n = 2000
        states = [f"s{i}" for i in range(n)]
        chain = states if forward else [states[0], *states[:0:-1]]
        end = chain[-1]
        transitions = {(q, "go"): {t: 1} for q, t in zip(chain, chain[1:])}
        transitions[(end, "big")] = {end: 1}
        transitions[(end, "small")] = {end: 1}
        rewards = {pair: 0 for pair in transitions}
        rewards[(end, "big")], rewards[(end, "small")] = 2, 1
        model = validate_model(
            states=states,
            actions=["go", "big", "small"],
            transitions=transitions,
            rewards=rewards,
            discount=F(1, 2),
        )
        solution = solve_optimal(model)
        assert all(solution.greedy[q] == ("go",) for q in chain[:-1])
        behavior = Behavior.from_tokens([end, "small", end])
        started = time.perf_counter()
        outcome = audit(model, behavior, solution=solution)
        elapsed = time.perf_counter() - started
        assert outcome.reason is AuditReason.VALUE_GAP_AT_ALL_STATES
        assert outcome.witness_state == "s0"
        assert outcome.v_star_fixed[chain[0]] < outcome.v_star[chain[0]]
        assert elapsed < 0.5


class TestTriage:
    def test_b2_explained_by_treatment(self, treat, profit, logs):
        _, b2 = logs
        assert triage(profit, [treat], b2) is False

    def test_b1_worth_investigating(self, treat, profit, logs):
        b1, _ = logs
        # Fits profit, fits no allowed purpose.
        assert triage(profit, [treat], b1) is True

    def test_vacuous_allowed_set(self, profit, logs):
        b1, b2 = logs
        assert triage(profit, [], b1) is True
        assert triage(profit, [], b2) is True

    def test_skips_when_prohibited_does_not_fit(self, treat, logs):
        b1, _ = logs
        # The treat model cannot explain b1, so as "prohibited" it is moot.
        assert triage(treat, [], b1) is False

    def test_validates_a_log_once(self, treat, profit, logs, monkeypatch):
        calls = []

        def counting(model, behavior):
            calls.append(behavior)
            return validate_behavior(model, behavior)

        monkeypatch.setattr(auditing, "validate_behavior", counting)
        b1, b2 = logs
        assert triage(profit, [treat, treat], b1) is True
        assert triage(profit, [treat], b2) is False
        assert calls == [b1, b2]

    def test_empty_prohibited_purpose_decides_no_allowed_one(
        self, treat, profit, logs, monkeypatch
    ):
        solved = []

        def counting(model, mode="exact"):
            solved.append(model)
            return solve_optimal(model, mode)

        monkeypatch.setattr(auditing, "solve_optimal", counting)
        b1, _ = logs
        assert triage(treat, [profit], b1) is False
        assert solved == [treat]

    def test_models_must_share_structure(self, profit, logs):
        b1, _ = logs
        other = validate_model(
            states=["1"],
            actions=["take"],
            transitions={("1", "take"): {"1": 1}},
            rewards={("1", "take"): 1},
            discount="1/2",
        )
        with pytest.raises(ValueError, match="share"):
            triage(profit, [other], b1)


class TestFixProperties:
    """Randomized checks of the penalty construction."""

    def _cases(self, count, seed):
        rng = random.Random(seed)
        produced = 0
        while produced < count:
            model = random_model(rng, n_states=(2, 4))
            behavior = random_consistent_behavior(rng, model)
            produced += 1
            yield model, behavior

    def test_fix_never_raises_values(self):
        from purpose_audit import evaluate_strategy
        from purpose_audit.oracle import enumerate_strategies

        for model, behavior in self._cases(10, 47):
            fixed = compute_fix(model, behavior)
            for sigma in enumerate_strategies(model):
                original = evaluate_strategy(model, sigma)
                penalized = evaluate_strategy(fixed, sigma)
                assert all(penalized[q] <= original[q] for q in model.states)

    def test_fix_preserves_consistent_strategies(self):
        from purpose_audit import evaluate_strategy
        from purpose_audit.oracle import enumerate_strategies

        for model, behavior in self._cases(10, 53):
            constraints = observed_choices(behavior)
            fixed = compute_fix(model, behavior)
            for sigma in enumerate_strategies(model):
                if not all(sigma[q] == a for q, a in constraints.items()):
                    continue
                assert evaluate_strategy(fixed, sigma) == evaluate_strategy(model, sigma)

    def test_fixed_optima_are_consistent_strategies(self):
        for model, behavior in self._cases(10, 59):
            constraints = observed_choices(behavior)
            fixed = compute_fix(model, behavior)
            for sigma in oracle_opt(fixed):
                assert all(sigma[q] == a for q, a in constraints.items())

    def test_value_gap_characterizes_emptiness(self):
        # strg(b) disjoint from the optimal set iff the optima differ somewhere.
        for model, behavior in self._cases(15, 61):
            constraints = observed_choices(behavior)
            consistent_optimal = [
                sigma
                for sigma in oracle_opt(model)
                if all(sigma[q] == a for q, a in constraints.items())
            ]
            v_model = solve_optimal(model).v_star
            v_fixed = solve_optimal(compute_fix(model, behavior)).v_star
            gap_somewhere = any(v_model[q] != v_fixed[q] for q in model.states)
            assert (not consistent_optimal) == gap_somewhere


class TestFloatModeDefects:
    @pytest.mark.xfail(
        strict=True,
        reason="float audit compares penalised values iterated to a residual "
        "scaled by omega at a 1e-6 relative tolerance, so a fit reads as a "
        "gap; hardening float mode is ROADMAP item 5",
    )
    def test_fitting_log_is_not_a_gap(self):
        rng = random.Random(2)
        model = random_model(rng, n_states=(4, 6), gammas=(F(9, 10),))
        trap = next(pair for pair in model.pairs() if pair[1] != model.nothing_action)
        model = model.with_rewards({**model.rewards, trap: -120})
        solution = solve_optimal(model)
        choice = {q: solution.greedy[q][0] for q in model.states}
        q = start = rng.choice(model.states)
        steps = []
        for _ in range(6):
            target = rng.choice(sorted(model.successors(q, choice[q])))
            steps.append((choice[q], target))
            q = target
        behavior = Behavior(start, tuple(steps))
        assert not audit(model, behavior, solution=solution).empty_intersection
        assert not audit(model, behavior, mode="float").empty_intersection
