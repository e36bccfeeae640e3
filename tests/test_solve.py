from __future__ import annotations

import gc
import math
import random
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from purpose_audit import (
    NOTHING,
    AuditReason,
    Behavior,
    ConvergenceError,
    Strategy,
    audit,
    evaluate_strategy,
    solve_optimal,
    validate_model,
)
from purpose_audit import solve
from purpose_audit.solve import _warm_start, solve_linear_system

from conftest import physician_behaviors, physician_models
from generators import (
    bellman_residual,
    lookahead,
    mostly_greedy_walk,
    q_on,
    random_model,
)

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
            assert values[q] == lookahead(treat, values, q, sigma1[q])


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

    def test_float_sweep_cap(self, monkeypatch):
        # At gamma = 9/10 a few sweeps are far from the residual target.
        monkeypatch.setattr(solve, "FLOAT_ITERATION_CAP", 3)
        model = one_state_model({"one": 1, "two": 2}, gamma="9/10")
        with pytest.raises(ConvergenceError, match="within 3 iterations"):
            solve_optimal(model, mode="float")


def is_optimal(model, strategy):
    """Whether the strategy attains the exact optimal value at every state."""
    return evaluate_strategy(model, strategy) == solve_optimal(model).v_star


class TestIsOptimal:
    def test_reference_strategies(self, treat, sigmas):
        sigma1, sigma2, sigma3 = sigmas
        assert is_optimal(treat, sigma1)
        assert not is_optimal(treat, sigma2)
        assert is_optimal(treat, sigma3)

    def test_sigma1_also_optimal_for_profit(self, profit, sigmas):
        sigma1, _, _ = sigmas
        assert is_optimal(profit, sigma1)


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
            if choice[q] == NOTHING:
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
            assert is_optimal(model, Strategy.from_mapping(choice, model))


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
        row = [F(int(i == j)) for j in range(n)] + [model.rewards[(q, choice[q])]]
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
    choice = {q: NOTHING for q in model.states}
    while True:
        values = dense_values(model, choice)
        q_star = q_on(model, values)
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
        assert q_on(model, solution.v_star) == q_star
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


# Primes up to 10**6, so the denominators of one model are pairwise coprime
# and every state's scale, the reward denominator and V*'s denominators are
# products of several of them.
COPRIME_DENOMINATORS = (
    2, 3, 5, 7, 11, 13, 97, 101, 7919, 104729, 999953, 999959, 999961, 999979, 999983,
)


def coprime_model(seed, gamma):
    """A random model whose rewards and probabilities are fractions over
    pairwise coprime denominators, drawn without replacement."""
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    actions = ["a", "b"]
    denominators = iter(rng.sample(COPRIME_DENOMINATORS, len(COPRIME_DENOMINATORS)))

    def fraction(bound):
        # A fresh denominator while they last, then small ones.
        d = next(denominators, rng.randint(2, 9))
        return F(rng.randint(-bound * d, bound * d), d)

    transitions, rewards = {}, {}
    for q in states:
        for a in actions:
            if rng.random() < 0.8:
                support = rng.sample(states, rng.randint(1, len(states)))
                probabilities = [abs(fraction(1)) / len(support) for _ in support[1:]]
                transitions[(q, a)] = dict(
                    zip(support, [1 - sum(probabilities)] + probabilities)
                )
                rewards[(q, a)] = 0 if rng.random() < 0.2 else fraction(12)
    return validate_model(
        states=states,
        actions=actions,
        transitions=transitions,
        rewards=rewards,
        discount=gamma,
    )


class TestRationalInputs:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from((F(1, 3), F(7, 11), F(999, 1000))),
    )
    def test_against_plain_fractions(self, seed, gamma):
        model = coprime_model(seed, gamma)
        solution = solve_optimal(model)
        v_star, q_star, greedy = dense_optimal(model)
        assert dict(solution.v_star) == v_star
        assert q_on(model, solution.v_star) == q_star
        assert dict(solution.greedy) == greedy
        assert bellman_residual(model, solution.v_star) == 0
        assert model.max_reward_magnitude() == max(map(abs, model.rewards.values()))
        # Off the fixed point: V* + 1 at every state backs up to V* + gamma.
        shifted = {q: v + 1 for q, v in solution.v_star.items()}
        assert bellman_residual(model, shifted) == 1 - model.discount


class TestCachedSolution:
    def test_solved_model_is_freed_without_the_cycle_collector(self):
        # Each solution is cached on its model, so a solution that refers
        # back to the model makes a cycle, and a dropped model would stay in
        # memory until the cycle collector ran.
        gc.disable()
        try:
            models = physician_models()
            for model in models.values():
                for behavior in physician_behaviors():
                    audit(model, behavior)
                    audit(model, behavior, mode="float")
                solution = model._solutions["exact"]
                assert solution.v_star["1"] is not None and solution.greedy["1"]
            dropped = [weakref.ref(model) for model in models.values()]
            del models, model
            assert [ref() for ref in dropped] == [None, None]
        finally:
            gc.enable()


class TestWarmStartedSolver:
    def test_near_tie_below_warm_residual(self):
        # Q*(s, b) beats Q*(s, a) by a relative 1e-6, far below the warm
        # start's 3e-4 residual: b's reward arrives one step late, so the
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
        assert model._index.pairs[_warm_start(model)[-1][0]] == ("s", "a")
        solution = solve_optimal(model)
        assert solution.v_star == {"s": 10 * lift, "t": 10 * lift / gamma}
        assert solution.greedy == {"s": ("b",), "t": ("a",)}
        assert lookahead(model, solution.v_star, "s", "a") == 1 + gamma * 10 * lift
        assert bellman_residual(model, solution.v_star) == 0

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.sampled_from((1, 2, 7, 20)),
        gamma=st.sampled_from(
            (F(1, 2), F(9, 10), F(99, 100), F(999, 1000), 1 - F(1, 10**20))
        ),
        zero_fraction=st.sampled_from((0.0, 0.3, 0.6, 1.0)),
    )
    @example(seed=1, n=1, gamma=F(1, 2), zero_fraction=1.0)
    @example(seed=2, n=1, gamma=1 - F(1, 10**20), zero_fraction=0.0)
    @example(seed=3, n=20, gamma=1 - F(1, 10**20), zero_fraction=0.3)
    @example(seed=4, n=20, gamma=F(999, 1000), zero_fraction=1.0)
    def test_guess_is_one_action_per_state(self, seed, n, gamma, zero_fraction):
        # Zero fraction 1.0 makes every reward 0; 1 - 1e-20 rounds to 1.0.
        model = random_model(
            random.Random(seed),
            n_states=(n, n),
            max_support=3,
            gammas=(gamma,),
            zero_reward_fraction=zero_fraction,
        )
        choice = _warm_start(model)[-1]
        assert len(choice) == len(model.states)
        for k, row in zip(choice, model._index.rows):
            assert k in [pair for pair, _ in row]

    def test_guess_is_one_action_per_state_at_extreme_rewards(self):
        for rewards in ({"a": 10**400, "b": -(10**400)}, {"a": F(1, 10**400)}):
            for gamma in (F(1, 10**400), 1 - F(1, 10**400)):
                model = one_state_model(rewards, gamma)
                assert model._index.pairs[_warm_start(model)[-1][0]] == ("s", "a")

    def test_rounds_on_trap_family(self, monkeypatch):
        # The benchmark's family shape: n=120, three actions of support at
        # most 3, and a fifth of the pairs trapped at -120, which outweighs
        # any discounted future. A guess nearer V* leaves fewer states for
        # exact rounds to repair: a Jacobi warm start to a residual of 1e-3
        # takes 27 rounds over these 20 models, and fails the bound.
        rounds = []
        evaluate = solve.evaluate_strategy

        def count_rounds(model, strategy):
            rounds.append(strategy)
            return evaluate(model, strategy)

        monkeypatch.setattr(solve, "evaluate_strategy", count_rounds)
        for seed in range(1, 21):
            rng = random.Random(seed)
            model = random_model(
                rng,
                n_states=(120, 120),
                n_actions=(3, 3),
                max_support=3,
                gammas=(F(9, 10),),
                reward_range=(-25, 12),
            )
            pairs = [pair for pair in model.pairs() if pair[1] != NOTHING]
            traps = rng.sample(pairs, len(pairs) // 5)
            model = model.with_rewards(dict(model.rewards) | {p: -120 for p in traps})
            solution = solve_optimal(model)
            assert bellman_residual(model, solution.v_star) == 0
        assert len(rounds) <= 22

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


def integer_system(rows, rhs):
    """A Fraction system with each equation scaled by the lcm of its
    denominators, so every entry is an integer."""
    scales = [
        math.lcm(b.denominator, *(e.denominator for e in row.values()))
        for row, b in zip(rows, rhs)
    ]
    return (
        [{j: int(e * m) for j, e in row.items()} for row, m in zip(rows, scales)],
        [int(b * m) for b, m in zip(rhs, scales)],
    )


def solve_checked(rows, rhs):
    """solve_linear_system on the integer form of a Fraction system: checks
    its denominator is positive and A numerators = b * denominator on every
    row, and returns x as Fractions."""
    rows, rhs = integer_system(rows, rhs)
    x, denominator = solve_linear_system([dict(row) for row in rows], list(rhs))
    assert denominator > 0
    for row, b in zip(rows, rhs):
        assert sum(e * x[j] for j, e in row.items()) == b * denominator
    return [F(n, denominator) for n in x]


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
        assert solve_checked(rows, rhs) == expected

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
        x = solve_checked(rows, rhs)
        elapsed = time.perf_counter() - start
        for row, b in zip(rows, rhs):
            assert sum(entry * x[j] for j, entry in row.items()) == b
        assert elapsed < 2.0

    def test_hooks_count_rounds_and_blocks(self, monkeypatch):
        # s's two actions differ by a relative 1e-6: "a" pays 10 and moves to
        # z, which has only the nothing action, so its float Q-value is exact
        # after one sweep, while "b"'s reward arrives along the t/u cycle,
        # whose float values are still below their limit when the warm start
        # stops. So the warm start picks "a" and one more round switches to
        # "b". Under either strategy {t, u} and {c, d} are two-state blocks.
        gamma = F(9, 10)
        lift = (1 + F(1, 10**6)) / gamma
        model = validate_model(
            states=["s", "t", "u", "c", "d", "z"],
            actions=["a", "b"],
            transitions={
                ("s", "a"): {"z": 1},
                ("s", "b"): {"t": 1},
                ("t", "a"): {"u": 1},
                ("u", "a"): {"t": 1},
                ("c", "a"): {"d": F(1, 2), "c": F(1, 2)},
                ("d", "a"): {"c": 1},
            },
            rewards={
                ("s", "a"): 10,
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

    def test_round_that_does_not_improve_raises(self, monkeypatch):
        # A wrong evaluation that values whichever of t and u s does not
        # reach would switch s between "a" and "b" for ever; the second
        # round is worth less at one of them, and raises.
        model = validate_model(
            states=["s", "t", "u"],
            actions=["a", "b"],
            transitions={("s", "a"): {"t": 1}, ("s", "b"): {"u": 1}},
            rewards={("s", "a"): 1, ("s", "b"): 1},
            discount=F(1, 2),
        )
        rounds = []

        def swapped(model, strategy):
            rounds.append(strategy["s"])
            if len(rounds) > 200:
                pytest.fail("policy iteration ran past 200 rounds")
            unreached = "u" if strategy["s"] == "a" else "t"
            return {q: F(q == unreached) for q in model.states}

        monkeypatch.setattr(solve, "evaluate_strategy", swapped)
        with pytest.raises(RuntimeError, match="did not improve"):
            solve_optimal(model)
        assert len(rounds) == 2 and rounds[0] != rounds[1]

class TestCertifiedTables:
    def test_zero_pair_into_nothing_only_state_settles_in_phase_two(self, monkeypatch):
        # At "s", "a" earns 1 a step for ever and "b" earns 0 and moves to
        # "t", where only the nothing-action is available: Q*(s, b) = 0, so
        # (s, b) is useless. The warm start's value at "s" is not exact, so
        # the global bound delta > 0 leaves Q(s, b) = 0 open; the residual
        # at "t" is exactly 0, and only the bound along the greedy policy,
        # which stays at "t", shows Q*(s, b) <= 0.
        model = validate_model(
            states=["s", "t"],
            actions=["a", "b"],
            transitions={("s", "a"): {"s": 1}, ("s", "b"): {"t": 1}},
            rewards={("s", "a"): 1},
            discount=F(1, 2),
        )
        values = solve._warm_start(model)[0]  # max |r| = 1, so V is itself
        iterate = {q: F(v) for q, v in zip(model.states, values)}
        assert iterate["t"] == 0 and bellman_residual(model, iterate) > 0
        phase_two = []
        components = solve._components_sinks_first

        def spy(graph):
            phase_two.append(graph)
            return components(graph)

        monkeypatch.setattr(solve, "_components_sinks_first", spy)
        solution = solve._certified(model, values)
        assert len(phase_two) == 1
        assert solution._useless == {("s", "b")}
        assert solution.greedy == {"s": ("a",), "t": (NOTHING,)}
        assert solution.v_star is None
        outcome = audit(model, Behavior(("s", "b", "t")))
        assert outcome.reason is AuditReason.STEP_ONE_USELESS
        assert model._solutions["exact"].v_star is None

    def test_small_model_certifies_after_sweeping_on(self):
        # The warm start's iterate of this 8-state model leaves a comparison
        # open; the decision sweeps on toward its float margin and certifies
        # the new iterate, with no policy iteration.
        model = random_model(
            random.Random(0),
            n_states=(8, 8),
            n_actions=(3, 3),
            max_support=3,
            gammas=(F(9, 10),),
        )
        assert solve._certified(model, solve._warm_start(model)[0]) is None
        decided = solve._decision_solution(model, "exact")
        exact = solve_optimal(model)
        assert decided.v_star is None
        assert decided.greedy == exact.greedy
        assert decided._useless == exact._useless
        assert decided._greedy_template == exact._greedy_template

    def test_a_lead_within_twice_the_bound_is_open(self):
        # Q*(s, a) = 1 beats Q*(s, b) by 2**-10. These values are 2**-6 low
        # at "t" and 2**-6 high at "u", exactly the error their residuals
        # allow, so on them b leads by 15 * 2**-10: more than delta = 2**-7,
        # but not more than 2 delta, which both errors together can reach.
        model = validate_model(
            states=["s", "t", "u"],
            actions=["a", "b", "c"],
            transitions={
                ("s", "a"): {"t": 1},
                ("s", "b"): {"u": 1},
                ("t", "c"): {"t": 1},
                ("u", "c"): {"u": 1},
            },
            rewards={("t", "c"): 1, ("u", "c"): F(1023, 1024)},
            discount=F(1, 2),
        )
        low, high = 2 - 2**-6, 2 - 2**-9 + 2**-6
        assert solve_optimal(model).greedy["s"] == ("a",)
        assert solve._certified(model, [high / 2, low, high]) is None

    def test_error_flows_along_the_greedy_policy(self):
        # The residual at "j" is 0, but the greedy policy leads from "j" to
        # "w", whose value is 2**-4 low. So Q(s, a) = 0 on these values
        # while Q*(s, a) = 2**-6 > 0: the bound at "j" must take in the
        # residual at "w", and then (s, a) stays open.
        model = validate_model(
            states=["s", "j", "w"],
            actions=["a", "b", "go"],
            transitions={
                ("s", "a"): {"j": 1},
                ("s", "b"): {"s": 1},
                ("j", "go"): {"w": 1},
                ("w", "b"): {"w": 1},
            },
            rewards={("s", "a"): F(-31, 64), ("s", "b"): 1, ("w", "b"): 1},
            discount=F(1, 2),
        )
        assert ("s", "a") not in solve_optimal(model)._useless
        assert solve._certified(model, [2.0, 31 / 32, 31 / 16]) is None


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

    def test_n1280_exact_audit_of_step_two_logs(self):
        # An exact solve of this model takes seconds; its audits read tables
        # certified on the warm start's float iterate. The logs follow the
        # float solution's greedy sets, off its useless pairs.
        def scale_model():
            return random_model(
                random.Random(5),
                n_states=(1280, 1280),
                n_actions=(3, 3),
                max_support=3,
                gammas=(F(9, 10),),
            )

        guide, rng, logs = scale_model(), random.Random(0), []
        approx = solve_optimal(guide, mode="float")
        while len(logs) < 8:
            behavior = mostly_greedy_walk(rng, guide, approx, max_length=12)
            if not any(pair in approx._useless for pair in behavior.pairs()):
                logs.append(behavior)
        model = scale_model()
        start = time.perf_counter()
        outcomes = [audit(model, behavior) for behavior in logs]
        elapsed = time.perf_counter() - start
        assert {o.reason for o in outcomes} == {
            AuditReason.VALUE_GAP_AT_ALL_STATES,
            AuditReason.WITNESS_STATE_EQUAL_VALUE,
        }
        assert model._solutions["exact"].v_star is None
        assert elapsed < 0.6
