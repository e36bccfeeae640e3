"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every randomized criterion uses a fixed seed and exact arithmetic.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from time import perf_counter

from purpose_audit import (
    InconsistentBehavior,
    PolicyRule,
    RuleKind,
    VerdictStatus,
    audit,
    check_prohibitive,
    compute_fix,
    compute_omega,
    solve_optimal,
    triage,
)
from purpose_audit.fixtures import PHYSICIAN_MODEL
from purpose_audit.model import observed_choices
from purpose_audit.modelfile import parse_model
from purpose_audit.nonredundancy import opt_star_enumerate
from purpose_audit.oracle import reference

from conftest import (
    physician_behaviors,
    physician_models,
    physician_strategies,
    step_one_useless,
)
from generators import (
    bellman_residual,
    random_consistent_behavior,
    random_model,
    random_walk_behavior,
)

SHIPPED_GAMMA = "9/10"
SHIPPED_GAMMA_LINE = f"\ngamma: {SHIPPED_GAMMA}\n"
GAMMA_SWEEP = ("1/2", "3/4", SHIPPED_GAMMA, "99/100")


@contextmanager
def criterion(number: int, budget_seconds: float, description: str):
    started = perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {description}")
        raise
    elapsed = perf_counter() - started
    assert elapsed < budget_seconds, (
        f"criterion {number} overran its budget: {elapsed:.2f}s >= {budget_seconds}s"
    )
    print(
        f"criterion {number}: PASS ({elapsed:.2f}s < {budget_seconds:.0f}s)  {description}"
    )


def test_criterion_1_physician_audit_verdicts():
    with criterion(1, 1.0, "physician fixture: audit(treat, b1)=true, audit(treat, b2)=false"):
        treat = physician_models()["treat"]
        b1, b2 = physician_behaviors()
        assert audit(treat, b1).empty_intersection is True
        assert audit(treat, b2).empty_intersection is False


def test_criterion_2_profit_deniability():
    with criterion(
        2,
        5.0,
        "profit fixture: sigma1 optimal and non-redundant; not-for:profit on b2 "
        "inconclusive; triage(profit, {treat}, b2) false",
    ):
        models = physician_models()
        treat, profit = models["treat"], models["profit"]
        sigma1, _, _ = physician_strategies(treat)
        b1, b2 = physician_behaviors()

        optimal = reference(profit).optimal
        assert sigma1 in optimal
        assert sigma1 in opt_star_enumerate(profit, optimal)

        rule = PolicyRule(RuleKind.PROHIBITIVE, ("profit",))
        verdict = check_prohibitive(models, rule, b2)
        assert verdict.status is VerdictStatus.INCONCLUSIVE
        assert triage(profit, [treat], b2) is False


def _treat_claims_hold(gamma: str) -> bool:
    document = PHYSICIAN_MODEL.replace(SHIPPED_GAMMA_LINE, f"\ngamma: {gamma}\n")
    treat = parse_model(document)["treat"]
    sigma1, sigma2, sigma3 = physician_strategies(treat)
    ref = reference(treat)
    optimal = ref.optimal
    return (
        sigma1 in optimal
        and sigma2 not in optimal
        and sigma3 in optimal
        and ("6", "send") in ref.useless
        and sigma3 not in opt_star_enumerate(treat, optimal)
    )


def test_criterion_3_strategy_claims_at_shipped_gamma():
    with criterion(
        3,
        5.0,
        "treat fixture strategy claims at the shipped discount (sweep only on failure)",
    ):
        assert SHIPPED_GAMMA_LINE in PHYSICIAN_MODEL
        if _treat_claims_hold(SHIPPED_GAMMA):
            return
        passing = [g for g in GAMMA_SWEEP if _treat_claims_hold(g)]
        assert passing, "strategy claims fail at every swept discount: build failure"
        print(f"criterion 3: shipped gamma failed; freeze gamma = {passing[0]}")


def test_criterion_4_audit_equals_oracle():
    with criterion(
        4, 60.0, "audit == oracle_audit on 510 random (model, behavior) pairs, exact"
    ):
        rng = random.Random(20260)
        disagreements = 0
        pairs = 0
        for _ in range(170):
            model = random_model(rng)
            ref = reference(model)
            for k in range(3):
                force = None
                if ref.useless and rng.random() < 0.25:
                    force = rng.choice(sorted(ref.useless))
                behavior = random_walk_behavior(rng, model, force_pair=force)
                pairs += 1
                engine = audit(model, behavior).empty_intersection
                if engine != ref.empty(behavior):
                    disagreements += 1
        assert pairs >= 500
        assert disagreements == 0


def test_criterion_5_step_one_equals_oracle_useless():
    with criterion(
        5,
        60.0,
        "audit's step one rejects exactly the oracle_useless pairs as one-step "
        "logs on 200 random models, set equality",
    ):
        rng = random.Random(20261)
        for _ in range(200):
            model = random_model(rng)
            assert step_one_useless(model) == reference(model).useless


def test_criterion_6_fix_construction_properties():
    with criterion(
        6,
        120.0,
        "penalty construction: dominance, consistency preservation, optimal "
        "containment and the value test, all strategies enumerated, 100 models",
    ):
        rng = random.Random(20262)
        for index in range(100):
            zero_bias = 0.6 if index % 2 else 0.0
            model = random_model(
                rng, n_states=(2, 4), zero_reward_fraction=zero_bias
            )
            behavior = random_consistent_behavior(rng, model)
            constraints = observed_choices(behavior)
            fixed = compute_fix(model, behavior)

            model_ref, fixed_ref = reference(model), reference(fixed)
            original_tables, fixed_tables = model_ref.tables, fixed_ref.tables

            # Penalizing can only lower values.
            for sigma, table in original_tables.items():
                penalized = fixed_tables[sigma]
                assert all(penalized[q] <= table[q] for q in model.states)

            # Strategies matching the log keep their values exactly.
            consistent = [
                sigma
                for sigma in original_tables
                if all(sigma[q] == a for q, a in constraints.items())
            ]
            for sigma in consistent:
                assert fixed_tables[sigma] == original_tables[sigma]

            # Every optimum of the penalized model matches the log.
            for sigma in fixed_ref.optimal:
                assert all(sigma[q] == a for q, a in constraints.items())

            # Value test: the log fits some optimal strategy iff the optima
            # agree at every state.
            fits = any(sigma in model_ref.optimal for sigma in consistent)
            v_model = solve_optimal(model).v_star
            v_fixed = solve_optimal(fixed).v_star
            agree_everywhere = all(v_model[q] == v_fixed[q] for q in model.states)
            assert fits == agree_everywhere


def test_criterion_7_nonredundant_optimum_nonempty():
    with criterion(
        7, 120.0, "opt* nonempty with no indeterminate verdicts on 100 random models"
    ):
        rng = random.Random(20263)
        for index in range(100):
            zero_bias = 0.7 if index % 2 else 0.0
            model = random_model(
                rng, n_states=(2, 4), max_support=3, zero_reward_fraction=zero_bias
            )
            optimal = reference(model).optimal
            survivors = opt_star_enumerate(model, optimal)
            assert survivors
            assert all(sigma in optimal for sigma in survivors)


def test_criterion_8_solver_cross_validation():
    with criterion(
        8,
        60.0,
        "exact policy iteration vs float value iteration within 1e-6; exact "
        "Bellman residual exactly zero, 200 random models",
    ):
        rng = random.Random(20264)
        for _ in range(200):
            model = random_model(rng)
            exact = solve_optimal(model)
            assert bellman_residual(model, exact.v_star) == 0
            approx = solve_optimal(model, mode="float")
            for q in model.states:
                assert abs(float(exact.v_star[q]) - approx.v_star[q]) <= 1e-6


def test_criterion_9_omega_bound():
    with criterion(
        9, 5.0, "omega strictly exceeds 2*r*/(1-gamma) on every generated model"
    ):
        rng = random.Random(20265)
        for _ in range(200):
            model = random_model(rng)
            r_star = model.max_reward_magnitude()
            assert compute_omega(model) > 2 * r_star / (1 - model.discount)


def _fits(strategies, constraints) -> bool:
    return any(
        all(sigma[q] == a for q, a in constraints.items()) for sigma in strategies
    )


def test_criterion_10_audit_decides_the_definition():
    # The paper's theorem: a log's audit is empty iff no non-redundant optimal
    # strategy picks every logged action. The definition side is
    # opt_star_enumerate, whose order is exact over stationary contingencies
    # and only sampled over occurrence-indexed ones (nonredundancy.precedes).
    # An inconsistent log is empty by definition. Rewards in [-3, 3] with many
    # zeros make ties, so some logs fit only redundant optimal strategies;
    # step one has to reject those, and the criterion asserts they occur.
    with criterion(
        10,
        30.0,
        "audit empty iff no strategy in opt_star_enumerate fits the log, 960 "
        "logs on 120 tie-heavy random models, some fitting only redundant optima",
    ):
        rng = random.Random(20110)
        redundant_only = 0
        for zero_fraction in (0.4, 0.7, 0.9):
            for _ in range(40):
                model = random_model(
                    rng,
                    n_states=(2, 4),
                    reward_range=(-3, 3),
                    zero_reward_fraction=zero_fraction,
                )
                optimal = reference(model).optimal
                opt_star = opt_star_enumerate(model, optimal)
                for i in range(8):
                    walk = random_walk_behavior if i % 2 else random_consistent_behavior
                    behavior = walk(rng, model)
                    try:
                        constraints = observed_choices(behavior)
                    except InconsistentBehavior:
                        empty = True
                    else:
                        empty = not _fits(opt_star, constraints)
                        redundant_only += empty and _fits(optimal, constraints)
                    assert audit(model, behavior).empty_intersection == empty, (
                        model,
                        behavior,
                    )
        assert redundant_only > 0
