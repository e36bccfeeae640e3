from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from purpose_audit import (
    Strategy,
    UndefinedPair,
    bellman_residual,
    evaluate_strategy,
    is_optimal,
    q_value,
    solve_optimal,
    validate_model,
)
from purpose_audit import solve
from purpose_audit.oracle import random_model
from purpose_audit.solve import _warm_start, solve_linear_system

F = Fraction

# Hand-solved strategy values for the by-the-book physician strategy at
# gamma = 9/10: V(2) = V(3) = V(5) = 12 (diagnose then stop), V(4) =
# gamma*0.8*12, V(1) = gamma*(0.9*12 + 0.1*V(4)).
SIGMA1_TREAT_VALUES = {
    "1": F(6561, 625),
    "2": F(12),
    "3": F(12),
    "4": F(216, 25),
    "5": F(12),
    "6": F(0),
}


def one_state_model(rewards_by_action, gamma="1/2"):
    actions = list(rewards_by_action)
    return validate_model(
        states=["s"],
        actions=actions,
        transitions={("s", a): {"s": 1} for a in actions},
        rewards={("s", a): r for a, r in rewards_by_action.items()},
        discount=gamma,
    )


class TestEvaluateStrategy:
    def test_all_nothing_is_zero(self, treat):
        sigma = Strategy.from_mapping({q: "N" for q in treat.states}, treat)
        assert evaluate_strategy(treat, sigma) == {q: 0 for q in treat.states}

    def test_geometric_series(self):
        model = one_state_model({"loop": 1})
        sigma = Strategy.from_mapping({"s": "loop"}, model)
        assert evaluate_strategy(model, sigma) == {"s": F(2)}

    def test_sigma1_on_treat(self, treat, sigmas):
        sigma1, _, _ = sigmas
        assert evaluate_strategy(treat, sigma1) == SIGMA1_TREAT_VALUES

    def test_bellman_identity_holds_exactly(self, treat, sigmas):
        sigma1, _, _ = sigmas
        values = evaluate_strategy(treat, sigma1)
        for q in treat.states:
            assert values[q] == q_value(treat, values, q, sigma1[q])


class TestSolveOptimal:
    def test_treat_values(self, treat):
        solution = solve_optimal(treat)
        assert solution.v_star["6"] == 0
        assert solution.v_star["3"] == 12
        assert solution.v_star == SIGMA1_TREAT_VALUES

    def test_one_state_two_actions(self):
        model = one_state_model({"one": 1, "two": 2})
        solution = solve_optimal(model)
        assert solution.v_star["s"] == 4
        assert solution.greedy["s"] == ("two",)

    def test_profit_values(self, profit):
        solution = solve_optimal(profit)
        assert solution.v_star == {
            "1": F(5373, 500),
            "2": F(12),
            "3": F(10, 3),
            "4": F(57, 5),
            "5": F(10, 3),
            "6": F(0),
        }
        # Direct diagnosis and refer-then-diagnose tie exactly at state 2.
        assert solution.greedy["2"] == ("send", "diagnose")

    def test_exact_residual_is_zero(self, treat, profit):
        for model in (treat, profit):
            solution = solve_optimal(model)
            assert bellman_residual(model, solution.v_star) == 0

    def test_float_mode_close_to_exact(self, treat):
        exact = solve_optimal(treat)
        approx = solve_optimal(treat, mode="float")
        for q in treat.states:
            assert abs(float(exact.v_star[q]) - approx.v_star[q]) < 1e-6

    def test_unknown_mode_rejected(self, treat):
        with pytest.raises(ValueError):
            solve_optimal(treat, mode="psychic")


class TestQValue:
    def test_nothing_action_discounts_in_place(self, treat):
        solution = solve_optimal(treat)
        for q in treat.states:
            assert (
                q_value(treat, solution.v_star, q, "N")
                == treat.discount * solution.v_star[q]
            )

    def test_zero_table_gives_reward(self, treat):
        zero = {q: F(0) for q in treat.states}
        assert q_value(treat, zero, "2", "diagnose") == 12
        assert q_value(treat, zero, "1", "take") == 0

    def test_diagnose_at_three_under_optimal(self, treat):
        solution = solve_optimal(treat)
        assert q_value(treat, solution.v_star, "3", "diagnose") == 12

    def test_undefined_pair(self, treat):
        with pytest.raises(UndefinedPair):
            q_value(treat, solve_optimal(treat).v_star, "1", "diagnose")


class TestIsOptimal:
    def test_reference_strategies(self, treat, sigmas):
        sigma1, sigma2, sigma3 = sigmas
        assert is_optimal(treat, sigma1)
        assert not is_optimal(treat, sigma2)
        assert is_optimal(treat, sigma3)

    def test_sigma1_also_optimal_for_profit(self, profit, sigmas):
        sigma1, _, _ = sigmas
        assert is_optimal(profit, sigma1)

    def test_float_solution_rejected(self, treat, sigmas):
        sigma1, _, _ = sigmas
        with pytest.raises(ValueError, match="exact"):
            is_optimal(treat, sigma1, solution=solve_optimal(treat, "float"))


class TestRandomizedSolverProperties:
    def test_value_bounds(self):
        rng = random.Random(7)
        for _ in range(25):
            model = random_model(rng)
            solution = solve_optimal(model)
            bound = model.max_reward_magnitude() / (1 - model.discount)
            for q in model.states:
                assert -bound <= solution.v_star[q] <= bound

    def test_exact_and_float_agree(self):
        rng = random.Random(11)
        for _ in range(25):
            model = random_model(rng)
            exact = solve_optimal(model)
            approx = solve_optimal(model, mode="float")
            for q in model.states:
                assert abs(float(exact.v_star[q]) - approx.v_star[q]) < 1e-6

    def test_reward_monotonicity(self):
        # Raising one chosen reward never lowers any state's strategy value.
        rng = random.Random(13)
        for _ in range(15):
            model = random_model(rng)
            choice = {q: rng.choice(model.available_actions(q)) for q in model.states}
            sigma = Strategy.from_mapping(choice, model)
            before = evaluate_strategy(model, sigma)
            q = rng.choice(model.states)
            bumped = dict(model.rewards)
            if choice[q] == model.nothing_action:
                continue
            bumped[(q, choice[q])] += 1
            after = evaluate_strategy(model.with_rewards(bumped), sigma)
            assert all(after[s] >= before[s] for s in model.states)

    def test_greedy_strategies_are_optimal(self):
        rng = random.Random(17)
        for _ in range(10):
            model = random_model(rng)
            solution = solve_optimal(model)
            choice = {q: solution.greedy[q][0] for q in model.states}
            assert is_optimal(model, Strategy.from_mapping(choice, model), solution=solution)


# ---------------------------------------------------------------------------
# The block-by-block, warm-started solver against a dense reference written
# here: whole-system Gauss-Jordan elimination and cold-start policy iteration.

SWEEP_GAMMAS = (F(1, 2), F(9, 10), F(99, 100), F(999, 1000))


def dense_values(model, choice):
    """Strategy values from one elimination over the whole system."""
    states = model.states
    n = len(states)
    column = {q: j for j, q in enumerate(states)}
    rows = []
    for i, q in enumerate(states):
        row = [F(int(i == j)) for j in range(n)] + [model.reward(q, choice[q])]
        for target, p in model.successors(q, choice[q]).items():
            row[column[target]] -= model.discount * p
        rows.append(row)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return {q: rows[i][n] for i, q in enumerate(states)}


def dense_optimal(model):
    """(V*, Q*, greedy) by policy iteration from the all-nothing strategy."""
    choice = {q: model.nothing_action for q in model.states}
    while True:
        values = dense_values(model, choice)
        q_star = {pair: q_value(model, values, *pair) for pair in model.pairs()}
        changed = False
        for q in model.states:
            best = max(model.available_actions(q), key=lambda a: q_star[(q, a)])
            if q_star[(q, best)] > q_star[(q, choice[q])]:
                choice[q] = best
                changed = True
        if not changed:
            greedy = {
                q: tuple(
                    a for a in model.available_actions(q) if q_star[(q, a)] == values[q]
                )
                for q in model.states
            }
            return values, q_star, greedy


def sweep_model(seed, gamma, zero_fraction):
    return random_model(
        random.Random(seed),
        n_states=(2, 8),
        n_actions=(2, 3),
        gammas=(gamma,),
        zero_reward_fraction=zero_fraction,
    )


sweep = given(
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from(SWEEP_GAMMAS),
    st.sampled_from((0.3, 0.6)),
)


class TestSolverMatchesDenseReference:
    @settings(max_examples=60, deadline=None)
    @sweep
    def test_solve_optimal(self, seed, gamma, zero_fraction):
        model = sweep_model(seed, gamma, zero_fraction)
        solution = solve_optimal(model)
        v_star, q_star, greedy = dense_optimal(model)
        assert dict(solution.v_star) == v_star
        assert dict(solution.q_star) == q_star
        assert dict(solution.greedy) == greedy
        assert bellman_residual(model, solution.v_star) == 0

    @settings(max_examples=60, deadline=None)
    @sweep
    def test_evaluate_strategy(self, seed, gamma, zero_fraction):
        model = sweep_model(seed, gamma, zero_fraction)
        rng = random.Random(seed + 1)
        choice = {q: rng.choice(model.available_actions(q)) for q in model.states}
        sigma = Strategy.from_mapping(choice, model)
        assert evaluate_strategy(model, sigma) == dense_values(model, choice)


class TestWarmStartedSolver:
    def test_near_tie_below_warm_residual(self):
        # Q*(s, b) beats Q*(s, a) by a relative 1e-6, far below the warm
        # start's 1e-3 residual: b's reward arrives one step late, so the
        # float guess picks a, and exact rounds must repair it.
        gamma = F(9, 10)
        lift = 1 + F(1, 10**6)
        model = validate_model(
            states=["s", "t"],
            actions=["a", "b"],
            transitions={("s", "a"): {"s": 1}, ("s", "b"): {"t": 1}, ("t", "a"): {"t": 1}},
            rewards={("s", "a"): 1, ("s", "b"): 0, ("t", "a"): lift / gamma},
            discount=gamma,
        )
        assert _warm_start(model)["s"] == "a"
        solution = solve_optimal(model)
        assert solution.v_star == {"s": 10 * lift, "t": 10 * lift / gamma}
        assert solution.greedy == {"s": ("b",), "t": ("a",)}
        assert solution.q_star[("s", "a")] == 1 + gamma * 10 * lift
        assert bellman_residual(model, solution.v_star) == 0

    def test_long_chain_needs_no_recursion(self):
        # A depth-first search over this chain is thousands of frames deep.
        n = 5000
        states = [f"q{i}" for i in range(n)]
        transitions = {(q, "go"): {nxt: 1} for q, nxt in zip(states, states[1:])}
        model = validate_model(
            states=states,
            actions=["go"],
            transitions=transitions,
            rewards={pair: 1 for pair in transitions},
            discount="1/2",
        )
        choice = {q: "go" for q in states[:-1]} | {states[-1]: "N"}
        values = evaluate_strategy(model, Strategy.from_mapping(choice, model))
        assert values[states[-1]] == 0
        assert values[states[-2]] == 1
        assert values[states[0]] == 2 - F(1, 2 ** (n - 2))


# ---------------------------------------------------------------------------
# Sparse block elimination against dense Gauss-Jordan written here, its pivot
# order on a block where a bad order fills in the whole matrix, and the two
# functions that count policy-iteration rounds and block solves.


def dense_solve(rows, rhs):
    """Gauss-Jordan elimination with row exchanges on the dense form."""
    n = len(rows)
    a = [[row.get(j, F(0)) for j in range(n)] + [b] for row, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                factor = a[r][c]
                a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    return [a[i][n] for i in range(n)]


entries = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def dominant_systems(draw):
    """Sparse rows, strictly diagonally dominant, with a right-hand side."""
    n = draw(st.integers(min_value=1, max_value=8))
    rows = []
    for i in range(n):
        columns = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        row = {j: draw(entries) for j in sorted(columns - {i})}
        margin = draw(st.fractions(min_value=F(1, 12), max_value=3, max_denominator=12))
        row[i] = draw(st.sampled_from((1, -1))) * (sum(map(abs, row.values())) + margin)
        rows.append(row)
    return rows, [draw(entries) for _ in range(n)]


class TestSparseElimination:
    @settings(max_examples=100, deadline=None)
    @given(dominant_systems())
    @example(([{0: F(3, 2)}], [F(-2)]))
    @example(([{0: F(1), 1: F(-9, 10)}, {0: F(-1, 2), 1: F(1)}], [F(1), F(2)]))
    @example(([{0: F(2), 1: F(0)}, {1: F(-1)}], [F(1), F(1)]))
    def test_matches_dense_gauss_jordan(self, system):
        rows, rhs = system
        expected = dense_solve(rows, rhs)
        assert solve_linear_system([dict(row) for row in rows], list(rhs)) == expected

    def test_star_block_eliminates_leaves_first(self):
        # The hub 0 leads to every leaf and every leaf back to it. Pivoting
        # on the hub first would fill in the whole n x n matrix; a leaf has
        # the least Markowitz count, and eliminating it touches only the
        # hub's row.
        n = 2000
        gamma = F(9, 10)
        rows = [{0: F(1)} | {j: -gamma / (n - 1) for j in range(1, n)}]
        rows += [{j: F(1), 0: -gamma} for j in range(1, n)]
        rhs = [F(j % 7 - 3) for j in range(n)]
        start = time.perf_counter()
        x = solve_linear_system([dict(row) for row in rows], list(rhs))
        elapsed = time.perf_counter() - start
        for row, b in zip(rows, rhs):
            assert sum(entry * x[j] for j, entry in row.items()) == b
        assert elapsed < 2.0

    def test_hooks_count_rounds_and_blocks(self, monkeypatch):
        # s's two actions differ by a relative 1e-6, so the warm start picks
        # "a" and one more round switches to "b". Under either strategy
        # {t, u} and {c, d} are two-state blocks.
        gamma = F(9, 10)
        lift = (1 + F(1, 10**6)) / gamma
        model = validate_model(
            states=["s", "t", "u", "c", "d"],
            actions=["a", "b"],
            transitions={
                ("s", "a"): {"s": 1},
                ("s", "b"): {"t": 1},
                ("t", "a"): {"u": 1},
                ("u", "a"): {"t": 1},
                ("c", "a"): {"d": F(1, 2), "c": F(1, 2)},
                ("d", "a"): {"c": 1},
            },
            rewards={
                ("s", "a"): 1,
                ("s", "b"): 0,
                ("t", "a"): lift,
                ("u", "a"): lift,
                ("c", "a"): 1,
                ("d", "a"): 2,
            },
            discount=gamma,
        )
        evaluated, solves = [], []

        def count_evaluations(model, strategy):
            evaluated.append(strategy.as_dict())
            return evaluate(model, strategy)

        def count_solves(rows, rhs):
            solves.append(len(rows))
            return block_solve(rows, rhs)

        evaluate, block_solve = solve.evaluate_strategy, solve.solve_linear_system
        monkeypatch.setattr(solve, "evaluate_strategy", count_evaluations)
        monkeypatch.setattr(solve, "solve_linear_system", count_solves)
        solution = solve_optimal(model)
        assert [choice["s"] for choice in evaluated] == ["a", "b"]
        assert solves == [2, 2, 2, 2]
        assert all(solution.greedy[q][0] == a for q, a in evaluated[-1].items())
        assert solution.greedy["s"] == ("b",)


class TestSolverAtScale:
    def test_n640_exact_solve(self):
        model = random_model(
            random.Random(5),
            n_states=(640, 640),
            n_actions=(3, 3),
            max_support=3,
            gammas=(F(9, 10),),
        )
        start = time.perf_counter()
        solution = solve_optimal(model)
        elapsed = time.perf_counter() - start
        assert bellman_residual(model, solution.v_star) == 0
        assert elapsed < 2.0
