"""Exact and iterative solvers for strategy values and optimal values.

Exact mode works entirely in rational arithmetic. Strategy evaluation solves
the Bellman system (I - gamma P_sigma) V = r_sigma one strongly connected
component of sigma's successor graph at a time, sinks first. In that order the
system is block-triangular, so each component is a small Gaussian elimination
over Fractions (one division for a single state), with the values already
known downstream folded into its right-hand side. Optimal values come from
policy iteration with exact evaluation, which terminates because there are
finitely many strategies and every round strictly improves some state. It
starts from the greedy policy of a short float value iteration on the rewards
divided by max |r|; that guess only picks where the exact loop begins. The
loop stops when no action improves any state in Fractions, so V*, Q* and the
greedy sets do not depend on the guess. Float mode runs plain value iteration
to a configurable residual and is meant for larger models where exact
arithmetic gets expensive; audit verdicts derived from float values are
advisory.

Every float iteration (the warm start, float mode, and the values-only entry
point that float audits use for penalised reward vectors) runs one sweep
kernel on the model's shared :class:`~purpose_audit.model.StructureIndex`:
a reward vector indexed by pair number, successor lists with weights
float(gamma) * float(p), backups accumulated in successor order and the first
maximum kept, so its values are the same bit for bit whichever caller runs it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import ConvergenceError, UndefinedPair
from .model import (
    Action,
    EnvironmentModel,
    Rational,
    State,
    Strategy,
    StructureIndex,
    validate_strategy,
)

ZERO = Fraction(0)
ONE = Fraction(1)

#: Default relative Bellman-residual target for float mode.
FLOAT_RESIDUAL = 1e-9
#: Default relative tolerance for float-mode equality tests.
FLOAT_EQUALITY = 1e-6
FLOAT_ITERATION_CAP = 1_000_000

# The float value iteration that picks exact policy iteration's first policy:
# relative residual and sweep cap. A coarse guess is enough, since exact
# rounds repair any action it gets wrong.
_WARM_RESIDUAL = 1e-3
_WARM_SWEEPS = 200

ValueTable = Mapping[State, Rational]


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal values, Q-values and the per-state set of maximizing actions."""

    v_star: Mapping[State, Rational]
    q_star: Mapping[tuple[State, Action], Rational]
    greedy: Mapping[State, tuple[Action, ...]]
    mode: str


def solve_linear_system(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Solve A x = b exactly by Gaussian elimination with back substitution.

    The Bellman matrices used here (I - gamma * P restricted to a set of
    states) are strictly diagonally dominant, hence nonsingular.
    """
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular Bellman system")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    x = [ZERO] * n
    for row in range(n - 1, -1, -1):
        acc = a[row][n]
        for c in range(row + 1, n):
            acc -= a[row][c] * x[c]
        x[row] = acc / a[row][row]
    return x


def _components_sinks_first(successors: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of a graph on 0..n-1, by Tarjan's
    algorithm with an explicit stack (no recursion limit). Each component is
    listed after every component it can reach."""
    n = len(successors)
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if order[w] < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == order[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


def evaluate_strategy(
    model: EnvironmentModel, strategy: Strategy
) -> dict[State, Rational]:
    """Exact expected total discounted reward of a strategy, per state.

    Solves V(q) = r(q, s(q)) + gamma * sum t(q, s(q))(q') V(q') block by block
    over the strongly connected components of the strategy's successor graph,
    sinks first.
    """
    validate_strategy(model, strategy)
    states = model.states
    gamma = model.discount
    choice = strategy.as_dict()
    position = {q: i for i, q in enumerate(states)}
    rows = [
        [(position[t], gamma * p) for t, p in model.successors(q, choice[q]).items()]
        for q in states
    ]
    values: list[Fraction] = [ZERO] * len(states)
    for block in _components_sinks_first([[j for j, _ in row] for row in rows]):
        local = {i: k for k, i in enumerate(block)}
        matrix = [[ZERO] * len(block) for _ in block]
        rhs = []
        for k, i in enumerate(block):
            matrix[k][k] = ONE
            acc = model.reward(states[i], choice[states[i]])
            for j, weight in rows[i]:
                if j in local:
                    matrix[k][local[j]] -= weight
                else:
                    acc += weight * values[j]
            rhs.append(acc)
        if len(block) == 1:
            values[block[0]] = rhs[0] / matrix[0][0]
        else:
            for i, value in zip(block, solve_linear_system(matrix, rhs)):
                values[i] = value
    return dict(zip(states, values))


def q_value(model: EnvironmentModel, values: ValueTable, state: State, action: Action):
    """One-step lookahead value r(q,a) + gamma * sum t(q,a)(q') v(q')."""
    if (state, action) not in model.transitions:
        raise UndefinedPair(f"action {action!r} is not defined at state {state!r}")
    gamma = model.discount
    acc = model.reward(state, action)
    for target, probability in model.successors(state, action).items():
        acc += gamma * probability * values[target]
    return acc


def _policy_iteration(model: EnvironmentModel) -> OptimalSolution:
    available = dict(zip(model.states, model._index.available))
    choice = _warm_start(model)
    while True:
        strategy = Strategy.from_mapping(choice, model)
        values = evaluate_strategy(model, strategy)
        q_star = {}
        changed = False
        for q in model.states:
            best_action = choice[q]
            for a in available[q]:
                q_star[(q, a)] = q_value(model, values, q, a)
            for a in available[q]:
                if q_star[(q, a)] > q_star[(q, best_action)]:
                    best_action = a
            if best_action != choice[q]:
                choice[q] = best_action
                changed = True
        if not changed:
            break
    greedy = {
        q: tuple(a for a in available[q] if q_star[(q, a)] == values[q])
        for q in model.states
    }
    return OptimalSolution(v_star=values, q_star=q_star, greedy=greedy, mode="exact")


def _sweeps(
    index: StructureIndex,
    rewards: Sequence[float],
    gamma: float,
    target: float,
    sweeps: int,
) -> tuple[list[float], bool]:
    """Value iteration in floats from V = 0, one Jacobi sweep at a time,
    until gamma * (largest change in a sweep) <= target or ``sweeps`` run out.

    ``rewards`` is indexed by the index's pair numbers. Each backup is
    r + w1*V[j1] + w2*V[j2] + ... in successor order, and a state takes the
    first maximum over its actions, so the values are a function of these
    inputs, bit for bit. Returns the last values (in state order) and whether
    the target was met.
    """
    rows = index.rows
    values = [0.0] * len(rows)
    for _ in range(sweeps):
        updated = []
        gap = 0.0
        for old, row in zip(values, rows):
            best = -math.inf
            for k, successors in row:
                acc = rewards[k]
                for j, weight in successors:
                    acc += weight * values[j]
                if acc > best:
                    best = acc
            updated.append(best)
            change = abs(best - old)
            if change > gap:
                gap = change
        values = updated
        if gamma * gap <= target:
            return values, True
    return values, False


def _lookahead(
    index: StructureIndex, rewards: Sequence[float], values: list[float]
) -> list[list[float]]:
    """The backup of every available action on ``values`` (per state, in
    action order), with the arithmetic of :func:`_sweeps`."""
    table = []
    for row in index.rows:
        backups = []
        for k, successors in row:
            acc = rewards[k]
            for j, weight in successors:
                acc += weight * values[j]
            backups.append(acc)
        table.append(backups)
    return table


def _warm_start(model: EnvironmentModel) -> dict[State, Action]:
    """Greedy policy of a short float value iteration, the first policy of
    exact policy iteration.

    Rewards are divided by max |r| as Fractions before they become floats, so
    every value stays in float range whatever the model's magnitudes; with
    values bounded by 1/(1-gamma), the relative stop test reduces to
    gamma * gap <= residual. A discount that rounds to 0 or 1 only makes the
    guess worse. Never raises.
    """
    index = model._index
    top = model.max_reward_magnitude() or ONE
    rewards = [float(model.rewards[pair] / top) for pair in index.pairs]
    values, _ = _sweeps(
        index, rewards, float(model.discount), _WARM_RESIDUAL, _WARM_SWEEPS
    )
    return {
        q: actions[row.index(max(row))]
        for q, actions, row in zip(
            model.states, index.available, _lookahead(index, rewards, values)
        )
    }


def _float_values(
    model: EnvironmentModel,
    top: Rational,
    rewards: Callable[[], Sequence[float]],
    residual: float = FLOAT_RESIDUAL,
    max_iterations: int = FLOAT_ITERATION_CAP,
) -> tuple[list[float], float]:
    """Float value iteration on a reward vector over ``model``'s structure.

    ``top`` is the exact max |r| of the reward table and ``rewards`` builds
    its float vector, in the index's pair order; it is called only after
    the range checks pass, since a reward beyond the float range has no
    float. Raises ConvergenceError when the discount rounds to 1.0, when
    values may leave the float range, or when ``max_iterations`` sweeps do
    not reach the residual. Returns the values (in state order) and the
    scale that the residual and equality tolerances are relative to.
    """
    gamma = float(model.discount)
    if gamma == 1.0:
        raise ConvergenceError(
            f"discount {model.discount} rounds to 1.0 in floating point; "
            "value iteration cannot converge, use exact mode"
        )
    # Values lie in [-bound, bound], so a sweep's change is at most 2 * bound.
    bound = top / (1 - model.discount)
    if 2 * bound > sys.float_info.max:
        raise ConvergenceError(
            "optimal values may reach max |r| / (1 - gamma), beyond the "
            "floating-point range; use exact mode"
        )
    vector = rewards()
    scale = max(1.0, max(map(abs, vector), default=0.0) / (1 - gamma))
    # Stop when the step gap guarantees sup-distance to the fixed point of at
    # most residual * scale: ||V_k - V*|| <= gamma/(1-gamma) * ||V_k - V_{k-1}||.
    # The returned table's own Bellman residual is at most gamma * gap.
    target = residual * scale * (1 - gamma)
    values, converged = _sweeps(model._index, vector, gamma, target, max_iterations)
    if not converged:
        raise ConvergenceError(
            f"value iteration did not reach residual {residual * scale} "
            f"within {max_iterations} iterations"
        )
    return values, scale


def _value_iteration(
    model: EnvironmentModel, residual: float, max_iterations: int
) -> OptimalSolution:
    index = model._index
    values, scale = _float_values(
        model,
        model.max_reward_magnitude(),
        lambda: model._float_rewards,
        residual,
        max_iterations,
    )
    backups = _lookahead(index, model._float_rewards, values)
    v_star = dict(zip(model.states, values))
    q_star = {
        (q, a): value
        for q, actions, row in zip(model.states, index.available, backups)
        for a, value in zip(actions, row)
    }
    tolerance = FLOAT_EQUALITY * scale
    greedy = {
        q: tuple(a for a in actions if abs(q_star[(q, a)] - v_star[q]) <= tolerance)
        for q, actions in zip(model.states, index.available)
    }
    return OptimalSolution(v_star=v_star, q_star=q_star, greedy=greedy, mode="float")


def solve_optimal(
    model: EnvironmentModel,
    mode: str = "exact",
    *,
    residual: float = FLOAT_RESIDUAL,
    max_iterations: int = FLOAT_ITERATION_CAP,
) -> OptimalSolution:
    """Optimal value of every state, V*(q) = max over strategies of V(sigma, q).

    ``mode`` is "exact" (policy iteration, rational arithmetic) or "float"
    (value iteration to the given relative residual; raises ConvergenceError
    if the iteration cap is hit first).
    """
    if mode == "exact":
        return _policy_iteration(model)
    if mode == "float":
        return _value_iteration(model, residual, max_iterations)
    raise ValueError(f"unknown solver mode {mode!r}")


def bellman_residual(model: EnvironmentModel, values: ValueTable):
    """max over states of |v(q) - max_a [r(q,a) + gamma * sum t v]|.

    Exactly zero (as a Fraction) for exact optimal values.
    """
    worst = None
    for q in model.states:
        best = max(q_value(model, values, q, a) for a in model.available_actions(q))
        gap = abs(values[q] - best)
        worst = gap if worst is None else max(worst, gap)
    return worst


def is_optimal(
    model: EnvironmentModel,
    strategy: Strategy,
    *,
    mode: str = "exact",
    solution: OptimalSolution | None = None,
    tolerance: float = FLOAT_EQUALITY,
) -> bool:
    """Whether the strategy attains the optimal value at every state."""
    solution = solution or solve_optimal(model, mode=mode)
    values = evaluate_strategy(model, strategy)
    if mode == "exact" and solution.mode == "exact":
        return all(values[q] == solution.v_star[q] for q in model.states)
    return all(
        abs(float(values[q]) - float(solution.v_star[q]))
        <= tolerance * max(1.0, abs(float(solution.v_star[q])))
        for q in model.states
    )
