from __future__ import annotations

import random
import re
import time
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from purpose_audit import (
    NOTHING,
    AuditReason,
    Behavior,
    BehaviorError,
    ConvergenceError,
    EnvironmentModel,
    InconsistentBehavior,
    PolicyRule,
    RuleKind,
    VerdictStatus,
    audit,
    check,
    check_prohibitive,
    check_restrictive,
    compute_fix,
    compute_omega,
    solve_optimal,
    triage,
    validate_model,
)
from purpose_audit import auditing, solve
from purpose_audit.model import observed_choices, validate_behavior
from purpose_audit.oracle import reference
from purpose_audit.solve import FLOAT_EQUALITY

from conftest import physician_models
from generators import (
    mostly_greedy_walk,
    q_on,
    random_consistent_behavior,
    random_model,
    random_walk_behavior,
)

F = Fraction


class TestComputeOmega:
    def test_all_zero_rewards(self, treat):
        zeroed = treat.with_rewards({pair: 0 for pair in treat.transitions})
        assert zeroed.max_reward_magnitude() == 0
        assert compute_omega(zeroed) == 1

    def test_treat_fixture(self, treat):
        assert treat.max_reward_magnitude() == 12
        assert compute_omega(treat) == 241

    def test_profit_uses_its_own_table(self, profit):
        # r* comes from the reward table actually passed.
        assert profit.max_reward_magnitude() == 12
        assert compute_omega(profit) == 241

    def test_strict_bound(self):
        rng = random.Random(43)
        for _ in range(20):
            model = random_model(rng)
            r_star = model.max_reward_magnitude()
            assert compute_omega(model) > 2 * r_star / (1 - model.discount)


class TestComputeFix:
    def test_empty_behavior_is_identity(self, treat):
        assert compute_fix(treat, Behavior(("1",))) == treat

    def test_b1_rewrites(self, treat, logs):
        b1, _ = logs
        fixed = compute_fix(treat, b1)
        omega = compute_omega(treat)
        assert fixed.rewards[("2", "diagnose")] == -omega
        assert fixed.rewards[("2", "send")] == treat.rewards[("2", "send")]
        assert fixed.rewards[("2", "N")] == -omega
        assert fixed.rewards[("6", "send")] == -omega
        assert fixed.rewards[("6", "N")] == 0
        # The one model whose nothing-action rewards are not all 0: -omega
        # at every observed state that logged another action.
        assert [q for q in fixed.states if fixed.rewards[(q, "N")] != 0] == ["1", "2", "3"]
        assert fixed.rewards[("1", "N")] == fixed.rewards[("3", "N")] == -omega
        # Unobserved states keep their rewards.
        assert fixed.rewards[("4", "send")] == treat.rewards[("4", "send")]
        assert fixed.rewards[("5", "diagnose")] == 12
        # Structure is untouched.
        assert fixed.transitions == treat.transitions
        assert fixed.discount == treat.discount
        assert fixed._index is treat._index
        assert list(fixed.rewards) == list(treat.pairs())

    def test_inconsistent_behavior_rejected(self, treat):
        clash = Behavior(
            ("1", "take", "2", "send", "3", "diagnose", "6", "N", "6", "N", "6")
        )
        # consistent: repeated (6, N) agrees with itself
        compute_fix(treat, clash)
        bad = Behavior(("2", "send", "3", "diagnose", "6", "send", "6"))
        constraints = observed_choices(bad)
        assert constraints["6"] == "send"
        truly_bad = Behavior(("2", "diagnose", "6", "send", "6", "N", "6"))
        with pytest.raises(InconsistentBehavior):
            compute_fix(treat, truly_bad)


class TestAudit:
    def test_redundant_referral_is_a_violation(self, treat, logs):
        b1, _ = logs
        outcome = audit(treat, b1)
        assert outcome.empty_intersection
        assert outcome.reason is AuditReason.VALUE_GAP_AT_ALL_STATES
        # The constrained optimum falls short where the log forced send.
        v_fixed = solve_optimal(compute_fix(treat, b1)).v_star
        assert v_fixed["2"] == F(54, 5)
        assert solve_optimal(treat).v_star["2"] == 12
        assert v_fixed["1"] == F(11907, 1250)

    def test_necessary_referral_is_not(self, treat, logs):
        _, b2 = logs
        outcome = audit(treat, b2)
        assert not outcome.empty_intersection
        assert outcome.reason is AuditReason.WITNESS_STATE_EQUAL_VALUE
        v_fixed = solve_optimal(compute_fix(treat, b2)).v_star
        assert v_fixed == solve_optimal(treat).v_star

    def test_bare_state_log_fits_any_model(self, treat, profit):
        for model in (treat, profit):
            assert not audit(model, Behavior(("3",))).empty_intersection

    def test_step_one_fires_on_useless_pair(self, treat):
        b = Behavior(("6", "send", "6"))
        outcome = audit(treat, b)
        assert outcome.empty_intersection
        assert outcome.reason is AuditReason.STEP_ONE_USELESS
        assert (outcome.witness_state, outcome.witness_action) == ("6", "send")

    def test_step_one_witness_is_useless(self, treat):
        # Whenever step one fires, the witness pair is useless by definition.
        b = Behavior(("6", "send", "6"))
        outcome = audit(treat, b)
        witness = (outcome.witness_state, outcome.witness_action)
        assert witness in reference(treat).useless

    def test_step_one_outranks_inconsistency(self, treat):
        # A clash that also crosses a useless pair: step one fires first.
        clash = Behavior(("2", "diagnose", "6", "send", "6", "N", "6"))
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
        clash = Behavior(("s", "a", "t", "c", "s", "b", "t"))
        outcome = audit(model, clash)
        assert outcome.empty_intersection
        assert outcome.reason is AuditReason.INCONSISTENT_BEHAVIOR
        assert outcome.witness_state == "s"
        assert reference(model).empty(clash) is True

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
        # Float mode divides by 1 - float(gamma), so solving refuses this
        # discount.
        model = validate_model(
            states=["s"],
            actions=["go"],
            transitions={("s", "go"): {"s": 1}},
            rewards={("s", "go"): 1},
            discount=1 - F(1, 10**20),
        )
        behavior = Behavior(("s", "go", "s"))
        with pytest.raises(ConvergenceError, match="rounds to 1.0"):
            audit(model, behavior, mode="float")


class TestSolutionPerMode:
    """A model keeps one optimal solution per solver mode, filled by its
    first decision in that mode."""

    def test_derived_models_start_unsolved(self, logs):
        treat = physician_models()["treat"]
        b1, _ = logs
        audit(treat, b1)
        audit(treat, b1, mode="float")
        assert set(treat._solutions) == {"exact", "float"}
        assert "_solutions" not in repr(treat)
        derived = (
            treat.with_rewards(treat.rewards),
            compute_fix(treat, b1),
            replace(treat, rewards=dict(treat.rewards)),
        )
        for model in derived:
            assert model._solutions == {}
        assert derived[0] == treat

    @pytest.mark.parametrize("order", [("exact", "float"), ("float", "exact")])
    def test_each_mode_decides_on_its_own_solution(self, logs, order):
        treat = physician_models()["treat"]
        kinds = {"exact": Fraction, "float": float}
        for mode in (*order, order[0]):
            for behavior in logs:
                outcome = audit(treat, behavior, mode=mode)
                assert outcome.mode == mode
                v_star = treat._solutions[mode].v_star
                assert v_star == solve_optimal(treat, mode=mode).v_star
                assert {type(v) for v in v_star.values()} == {kinds[mode]}


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
                (q, a): (0 if a == NOTHING else -1)
                for (q, a) in treat.transitions
            }
        )
        rule = PolicyRule(RuleKind.PROHIBITIVE, ("spite",))
        b = Behavior(("1", "take", "2"))
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
            )

        rule = PolicyRule(RuleKind.RESTRICTIVE, ("p", "q"))
        b = Behavior(("s", "go", "t"))
        p, q = build("t", 1), build("t", 2)
        assert p.transitions is not q.transitions
        verdict = check_restrictive({"p": p, "q": q}, rule, b)
        assert verdict.status is VerdictStatus.INCONCLUSIVE
        with pytest.raises(ValueError, match="share"):
            check_restrictive({"p": p, "q": build("u", 2)}, rule, b)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize(
        "lift", ["check", "check_restrictive", "check_prohibitive", "triage"]
    )
    def test_lift_takes_no_mode(self, physician, logs, monkeypatch, lift, mode):
        # Policy verdicts are exact only: the lift and triage refuse a mode,
        # even mode="exact", and decide every purpose by an exact audit.
        b1, _ = logs
        args = {
            "check": (physician, PolicyRule(RuleKind.RESTRICTIVE, ("treat", "profit")), b1),
            "check_restrictive": (physician, PolicyRule(RuleKind.RESTRICTIVE, ("treat",)), b1),
            "check_prohibitive": (physician, PolicyRule(RuleKind.PROHIBITIVE, ("profit",)), b1),
            "triage": (physician["profit"], [physician["treat"]], b1),
        }[lift]
        function = getattr(auditing, lift)
        with pytest.raises(TypeError):
            function(*args, mode=mode)
        decide, modes = auditing.audit, []

        def recording(model, behavior, **kwargs):
            outcome = decide(model, behavior, **kwargs)
            modes.append(outcome.mode)
            return outcome

        monkeypatch.setattr(auditing, "audit", recording)
        function(*args)
        assert modes and set(modes) == {"exact"}

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
        # Unmarked copies: the session's logs may carry this structure's mark.
        b1, b2 = (Behavior(b.tokens) for b in logs)
        only = PolicyRule(RuleKind.RESTRICTIVE, ("treat", "profit"))
        not_for = PolicyRule(RuleKind.PROHIBITIVE, ("profit", "treat"))
        for b in (b1, b2):
            restrictive = check_restrictive(physician, only, b)
            prohibitive = check_prohibitive(physician, not_for, b)
            for p, outcome in restrictive.per_purpose.items():
                assert outcome == audit(physician[p], b)
                assert prohibitive.per_purpose[p] == outcome
        # One per log: the first decision marks it for the shared structure.
        assert [id(b) for b in calls] == [id(b1), id(b2)]

    def test_parsed_log_is_checked_again_on_another_structure(self, logs):
        # parse_log's validation marks the structure a log passed on; a
        # model with another structure checks the log again and rejects it.
        b1, _ = logs
        states = ("1", "2", "3", "4", "5", "6")
        other = validate_model(
            states=states,
            actions=["take"],
            transitions={(q, "take"): {q: 1} for q in states},
            discount=F(9, 10),
        )
        rule = PolicyRule(RuleKind.RESTRICTIVE, ("other",))
        with pytest.raises(BehaviorError, match="probability 0"):
            audit(other, b1)
        with pytest.raises(BehaviorError, match="probability 0"):
            check_restrictive({"other": other}, rule, b1)
        with pytest.raises(BehaviorError, match="probability 0"):
            triage(other, [], b1)

    def test_invalid_log_raises_as_audit_does(self, physician):
        rule = PolicyRule(RuleKind.RESTRICTIVE, ("treat", "profit"))
        for tokens in (("1", "take", "9"), ("1", "fly", "2"), ("7",)):
            b = Behavior(tokens)
            with pytest.raises(BehaviorError) as expected:
                audit(physician["treat"], b)
            with pytest.raises(BehaviorError, match=re.escape(str(expected.value))):
                check_restrictive(physician, rule, b)


class TestOneDecisionEntry:
    """``check``, its two kind-checking forms and ``triage`` decide each
    purpose they consult by one call of the module's ``audit``, with the
    caller's behavior and no mode, so whatever wraps ``auditing.audit`` sees
    every decision."""

    @pytest.mark.parametrize(
        "lift, arguments, log, consulted",
        [
            ("check", (RuleKind.RESTRICTIVE, ("treat", "profit")), 0, ["treat", "profit"]),
            ("check", (RuleKind.PROHIBITIVE, ("profit", "treat")), 1, ["profit", "treat"]),
            ("check_restrictive", (RuleKind.RESTRICTIVE, ("treat",)), 1, ["treat"]),
            (
                "check_prohibitive",
                (RuleKind.PROHIBITIVE, ("profit", "treat")),
                0,
                ["profit", "treat"],
            ),
            # b1 fits profit and not treat; b2 fits both.
            ("triage", ("profit", ("treat", "treat")), 0, ["profit", "treat", "treat"]),
            ("triage", ("treat", ("profit",)), 0, ["treat"]),
            ("triage", ("treat", ("profit", "treat")), 1, ["treat", "profit"]),
        ],
        ids=[
            "check-only-for",
            "check-not-for",
            "check_restrictive",
            "check_prohibitive",
            "triage-none-allowed-fits",
            "triage-prohibited-does-not-fit",
            "triage-an-allowed-fits",
        ],
    )
    def test_one_audit_per_consulted_purpose(
        self, physician, logs, monkeypatch, lift, arguments, log, consulted
    ):
        names = {id(model): name for name, model in physician.items()}
        behavior, calls = logs[log], []

        def recording(model, b, **kwargs):
            calls.append((names[id(model)], b, kwargs))
            return decide(model, b, **kwargs)

        decide = auditing.audit
        monkeypatch.setattr(auditing, "audit", recording)
        if lift == "triage":
            prohibited, allowed = arguments
            triage(physician[prohibited], [physician[p] for p in allowed], behavior)
        else:
            getattr(auditing, lift)(physician, PolicyRule(*arguments), behavior)
        assert [name for name, _, _ in calls] == consulted
        assert all(b is behavior and kwargs == {} for _, b, kwargs in calls)

    def test_errors_keep_their_order(self, physician, treat):
        # Unknown purpose, then a structure not shared, then the log itself.
        bad = Behavior(("1", "fly", "2"))
        other = validate_model(
            states=["1"], actions=["take"], transitions={}, discount="1/2"
        )
        rule = PolicyRule(RuleKind.RESTRICTIVE, ("treat", "billing"))
        with pytest.raises(KeyError, match="billing"):
            check({**physician, "other": other}, rule, bad)
        rule = PolicyRule(RuleKind.RESTRICTIVE, ("treat", "other"))
        with pytest.raises(ValueError, match="share"):
            check({**physician, "other": other}, rule, bad)
        with pytest.raises(ValueError, match="share"):
            triage(treat, [other], bad)
        with pytest.raises(BehaviorError, match="unknown action 'fly'"):
            check(physician, PolicyRule(RuleKind.RESTRICTIVE, ("treat",)), bad)
        with pytest.raises(BehaviorError, match="unknown action 'fly'"):
            triage(treat, [], bad)


class TestValidationMark:
    """``validate_behavior`` marks a behavior that passes with the model's
    structure index, and only then; ``audit`` checks a behavior again unless
    it carries the mark of the model it decides on."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(model, behavior):
            calls.append(model._index)
            return validate_behavior(model, behavior)

        monkeypatch.setattr(auditing, "validate_behavior", counting)
        return calls

    @staticmethod
    def chain():
        """A model of another structure: states 1 to 6, ``take`` steps q to
        q + 1, and 6 to itself."""
        states = ("1", "2", "3", "4", "5", "6")
        return validate_model(
            states=states,
            actions=["take"],
            transitions={(q, "take"): {t: 1} for q, t in zip(states, (*states[1:], "6"))},
            rewards={("1", "take"): 1},
            discount=F(9, 10),
        )

    def test_checked_once_per_structure(self, physician, treat, profit, logs, counted):
        for b in (Behavior(log.tokens) for log in logs):
            assert b._checked is None
            audit(treat, b)
            audit(profit, b, mode="float")
            audit(treat, b)
            check(physician, PolicyRule(RuleKind.RESTRICTIVE, ("treat", "profit")), b)
            check_prohibitive(physician, PolicyRule(RuleKind.PROHIBITIVE, ("profit",)), b)
            triage(profit, [treat], b)
            assert b._checked is treat._index
        assert counted == [treat._index] * 2

    def test_failed_check_keeps_the_mark(self, treat, counted):
        # 1 --take--> 4 has probability 1/10 in treat and 0 in the chain.
        b = Behavior(("1", "take", "4"))
        chain = self.chain()
        with pytest.raises(BehaviorError, match="probability 0"):
            audit(chain, b)
        assert b._checked is None
        audit(treat, b)
        with pytest.raises(BehaviorError, match="probability 0"):
            validate_behavior(chain, b)
        with pytest.raises(BehaviorError, match="probability 0"):
            triage(chain, [], b)
        assert b._checked is treat._index
        audit(treat, b)
        assert counted == [chain._index, treat._index, chain._index]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_rejected_log_solves_nothing(self, mode):
        # Validation comes before the solve: a rejected log costs no solve,
        # and a model that float mode cannot solve still reports the log.
        model = validate_model(
            states=["s"],
            actions=["go"],
            transitions={("s", "go"): {"s": 1}},
            rewards={("s", "go"): 1},
            discount=1 - F(1, 10**20),
        )
        with pytest.raises(BehaviorError, match="unknown action 'fly'"):
            audit(model, Behavior(("s", "fly", "s")), mode=mode)
        assert model._solutions == {}

    def test_another_structure_checks_again(self, treat, counted):
        # The mark holds one structure, the last one the behavior passed on.
        b = Behavior(("1", "take", "2"))
        chain = self.chain()
        audit(treat, b)
        audit(chain, b)
        assert b._checked is chain._index
        audit(chain, b)
        audit(treat, b)
        assert b._checked is treat._index
        assert counted == [treat._index, chain._index, treat._index]


class TestSafeSet:
    @pytest.mark.parametrize("forward", [True, False])
    def test_long_chain_gap(self, forward):
        # A chain of 2000 states from s0 whose last one is observed with the
        # non-greedy "small". Each state drops out of the safe set only after
        # its successor. Along state order (forward), a whole-model pass in
        # state order drops one state per pass, about n passes. Against it
        # (s0, then s1999 down to s1), s0 is only reached by following the
        # incoming edges of each dropped state.
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
        behavior = Behavior((end, "small", end))
        started = time.perf_counter()
        outcome = audit(model, behavior)
        elapsed = time.perf_counter() - started
        assert outcome.reason is AuditReason.VALUE_GAP_AT_ALL_STATES
        assert outcome.witness_state == "s0"
        assert elapsed < 0.5
        v_fixed = solve_optimal(compute_fix(model, behavior)).v_star
        assert v_fixed[chain[0]] < solution.v_star[chain[0]]


def reference_safe_states(model, greedy, choices):
    """The same greatest fixed point, from a worklist of every state that
    re-checks the predecessors of each dropped state, read off
    ``model.successors`` rather than the engine's structure index."""
    predecessors = [set() for _ in model.states]
    for q, a in model.transitions:
        for t in model.successors(q, a):
            predecessors[model.states.index(t)].add(model.states.index(q))
    safe = [q not in choices or choices[q] in greedy[q] for q in model.states]

    def keeps_safe(i):
        q = model.states[i]
        allowed = (choices[q],) if q in choices else greedy[q]
        return any(
            all(safe[model.states.index(t)] for t in model.successors(q, a))
            for a in model.available_actions(q)
            if a in allowed
        )

    pending = list(range(len(model.states)))
    while pending:
        i = pending.pop()
        if safe[i] and not keeps_safe(i):
            safe[i] = False
            pending.extend(predecessors[i])
    return safe


class TestSafeSetWorklist:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from((0.0, 0.5)))
    def test_matches_all_states_worklist(self, seed, zero_fraction):
        rng = random.Random(seed)
        model = random_model(
            rng, n_states=(2, 9), max_support=3, zero_reward_fraction=zero_fraction
        )
        solution = solve_optimal(model)
        # Log a random action at a random subset of states.
        choices = {
            q: rng.choice(model.available_actions(q))
            for q in model.states
            if rng.random() < 0.4
        }
        safe = auditing._safe_states(model, solution, choices)
        assert safe == reference_safe_states(model, solution.greedy, choices)


class TestDecisionTables:
    """The tables a solution carries for its decisions match their
    definitions on tie-heavy models: mostly zero rewards over three or four
    actions make greedy sets with ties common."""

    @staticmethod
    def tied_model(rng, gamma, max_support):
        return random_model(
            rng,
            n_states=(2, 8),
            n_actions=(3, 4),
            max_support=max_support,
            gammas=(gamma,),
            zero_reward_fraction=rng.choice((0.6, 0.8)),
        )

    @staticmethod
    def q_on_v_star(model, solution, mode):
        """Q per pair, one backup from the solution's V*, and the solver's
        tolerance: Fractions and 0, or the float backups of the solver's
        own lookahead and FLOAT_EQUALITY times max(1, max |r| / (1 - gamma))."""
        if mode == "exact":
            return q_on(model, solution.v_star), 0
        rewards, values = model._float_rewards, list(solution.v_star.values())
        table = solve._lookahead(model._index.rows, rewards, values)
        scale = max(1.0, max(map(abs, rewards)) / (1 - float(model.discount)))
        q = dict(zip(model.pairs(), (b for row in table for b in row)))
        return q, FLOAT_EQUALITY * scale

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from((F(1, 2), F(9, 10))),
        st.sampled_from((1, 3)),
    )
    def test_safe_set_from_template(self, seed, gamma, max_support):
        rng = random.Random(seed)
        model = self.tied_model(rng, gamma, max_support)
        solution = solve_optimal(model)
        for _ in range(20):
            # Any set of observed states, mostly with a greedy action: the
            # template is changed at each, often inside a tied greedy set.
            choices = {
                q: rng.choice(
                    solution.greedy[q]
                    if rng.random() < 0.7
                    else model.available_actions(q)
                )
                for q in model.states
                if rng.random() < 0.5
            }
            safe = auditing._safe_states(model, solution, choices)
            assert safe == reference_safe_states(model, solution.greedy, choices)
        for _ in range(3):
            behavior = mostly_greedy_walk(rng, model, solution, max_length=12)
            safe = auditing._safe_states(model, solution, observed_choices(behavior))
            v_fixed = solve_optimal(compute_fix(model, behavior)).v_star
            assert safe == [v_fixed[q] == solution.v_star[q] for q in model.states]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from((F(1, 2), F(9, 10))),
        st.sampled_from(("exact", "float")),
    )
    def test_greedy_tables(self, seed, gamma, mode):
        # The greedy sets are Q* within the tolerance of V*, in action order,
        # and the template is built with the solution, not on first read.
        model = self.tied_model(random.Random(seed), gamma, 3)
        solution = solve_optimal(model, mode)
        greedy, v_star = solution.greedy, solution.v_star
        q_star, tolerance = self.q_on_v_star(model, solution, mode)
        assert "_greedy_template" in {f.name for f in fields(solution)}
        assert solution._greedy_template == (
            bytes(a in greedy[q] for q, a in model.pairs()),
            tuple(map(len, greedy.values())),
        )
        flags, _ = solution._greedy_template
        number = model._index.number
        for q in model.states:
            actions = model.available_actions(q)
            assert greedy[q] == tuple(a for a in actions if flags[number[(q, a)]])
            gaps = (abs(q_star[(q, a)] - v_star[q]) for a in actions)
            tied = tuple(a for a, gap in zip(actions, gaps) if gap <= tolerance)
            assert greedy[q] == tied

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from((F(1, 2), F(9, 10))),
        st.sampled_from(("exact", "float")),
    )
    def test_step_one_flags(self, seed, gamma, mode):
        model = self.tied_model(random.Random(seed), gamma, 3)
        solution = solve_optimal(model, mode)
        q_star, tolerance = self.q_on_v_star(model, solution, mode)
        assert solution._useless == {
            pair
            for pair in model.pairs()
            if pair[1] != NOTHING and q_star[pair] <= tolerance
        }


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
        # Unmarked copies: the session's logs may carry this structure's mark.
        b1, b2 = (Behavior(b.tokens) for b in logs)
        assert triage(profit, [treat, treat], b1) is True
        assert triage(profit, [treat], b2) is False
        assert [id(b) for b in calls] == [id(b1), id(b2)]

    def test_empty_prohibited_purpose_decides_no_allowed_one(self, logs, monkeypatch):
        # Fresh models: the session fixtures may already hold their solutions.
        fresh = physician_models()
        treat, profit = fresh["treat"], fresh["profit"]
        solved = []

        def counting(model, mode):
            solved.append(model)
            return decide(model, mode)

        decide = auditing._decision_solution
        monkeypatch.setattr(auditing, "_decision_solution", counting)
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
            for sigma in reference(fixed).optimal:
                assert all(sigma[q] == a for q, a in constraints.items())

    def test_value_gap_characterizes_emptiness(self):
        # strg(b) disjoint from the optimal set iff the optima differ somewhere.
        for model, behavior in self._cases(15, 61):
            constraints = observed_choices(behavior)
            consistent_optimal = [
                sigma
                for sigma in reference(model).optimal
                if all(sigma[q] == a for q, a in constraints.items())
            ]
            v_model = solve_optimal(model).v_star
            v_fixed = solve_optimal(compute_fix(model, behavior)).v_star
            gap_somewhere = any(v_model[q] != v_fixed[q] for q in model.states)
            assert (not consistent_optimal) == gap_somewhere


class TestPolicyLiftIsExact:
    """On random three-purpose documents the lift and triage give the verdicts
    that the brute-force reference layer's emptiness bits give."""

    @pytest.mark.parametrize("lift", ["only-for", "not-for", "triage"])
    def test_agrees_with_reference(self, lift):
        rng = random.Random(89)
        seen = set()
        for _ in range(30):
            p = random_model(rng, n_states=(2, 4))
            purposes = {"p": p}
            for name in "qr":
                purposes[name] = p.with_rewards(
                    {pair: rng.randint(-10, 12) for pair in p.transitions if pair[1] != NOTHING}
                )
            b = random_walk_behavior(rng, p)
            empty = {name: reference(m).empty(b) for name, m in purposes.items()}
            if lift == "triage":
                got = triage(p, [purposes["q"], purposes["r"]], b)
                want = not empty["p"] and empty["q"] and empty["r"]
            else:
                kind = RuleKind(lift)
                rule = PolicyRule(kind, ("p", "q") if lift == "only-for" else ("q", "r"))
                got = check(purposes, rule, b).status
                fits = [not empty[name] for name in rule.purposes]
                want = (
                    VerdictStatus.INCONCLUSIVE if any(fits)
                    else auditing._EMPTY_FOR_ALL[kind]
                )
            assert got == want, (lift, b)
            seen.add(want)
        assert len(seen) == 2


class TestFloatStepTwoBuildsNoModel:
    """Float step two iterates a penalised reward vector on the purpose's own
    index: once the purpose is solved, a float audit of logs that reach step
    two calls neither ``compute_fix`` nor the model constructor."""

    def test_no_penalised_model_after_the_first_solve(self, monkeypatch):
        rng = random.Random(17)
        base = random_model(rng, n_states=(6, 6), zero_reward_fraction=0.3)
        audit(base, Behavior((base.states[0],)), mode="float")
        exact = solve_optimal(base)
        walks = [mostly_greedy_walk(rng, base, exact, max_length=8) for _ in range(20)]
        reasons = {b: audit(base, b, mode="float").reason for b in walks}
        logs = [
            b
            for b, reason in reasons.items()
            if reason is not AuditReason.STEP_ONE_USELESS
        ]
        assert {reasons[b] for b in logs} == {
            AuditReason.VALUE_GAP_AT_ALL_STATES,
            AuditReason.WITNESS_STATE_EQUAL_VALUE,
        }

        built, fixes = [], []
        post_init = EnvironmentModel.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        def counting_fix(model, behavior):
            fixes.append(behavior)
            return compute_fix(model, behavior)

        monkeypatch.setattr(EnvironmentModel, "__post_init__", counting_post_init)
        monkeypatch.setattr(auditing, "compute_fix", counting_fix)
        for b in logs:
            audit(base, b, mode="float")
        assert built == [] and fixes == []
        base.with_rewards(base.rewards)  # the counter sees a construction
        assert len(built) == 1


class TestFloatModeDefects:
    @pytest.mark.xfail(
        strict=True,
        reason="float audit compares penalised values iterated to a residual "
        "scaled by omega at a 1e-6 relative tolerance, so a fit reads as a "
        "gap; exact-only verdicts are ROADMAP item 16",
    )
    def test_fitting_log_is_not_a_gap(self):
        rng = random.Random(2)
        model = random_model(rng, n_states=(4, 6), gammas=(F(9, 10),))
        trap = next(pair for pair in model.pairs() if pair[1] != NOTHING)
        model = model.with_rewards({**model.rewards, trap: -120})
        solution = solve_optimal(model)
        choice = {q: solution.greedy[q][0] for q in model.states}
        q = rng.choice(model.states)
        tokens = [q]
        for _ in range(6):
            a = choice[q]
            q = rng.choice(sorted(model.successors(q, a)))
            tokens += (a, q)
        behavior = Behavior(tuple(tokens))
        assert not audit(model, behavior).empty_intersection
        assert not audit(model, behavior, mode="float").empty_intersection
