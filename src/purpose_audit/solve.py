"""Exact and iterative solvers for strategy values and optimal values.

Exact mode works entirely in rational arithmetic. Strategy evaluation solves
the Bellman system (I - gamma P_sigma) V = r_sigma one strongly connected
component of sigma's successor graph at a time, sinks first. In that order the
system is block-triangular, so each component is its own sparse elimination
over Fractions (one division for a single state, Markowitz pivoting on the
diagonal for more), with the values already known downstream folded into its
right-hand side. Optimal values come from policy iteration with exact
evaluation, which terminates because there are finitely many strategies and
every round strictly improves some state. It starts from the greedy policy of
a short float value iteration on the rewards divided by max |r|; that guess
only picks where the exact loop begins. The loop stops when no action
improves any state in Fractions, so V*, Q* and the greedy sets do not depend
on the guess. Every exact backup reads the index's exact successor lists and
the model's exact reward vector. Float mode runs plain value iteration to a
configurable residual and is meant for larger models where exact arithmetic
gets expensive; audit verdicts derived from float values are advisory.

Every float iteration (the warm start, float mode, and the values-only entry
point that float audits use for penalised reward vectors) runs one sweep
kernel on the model's shared :class:`~purpose_audit.model.StructureIndex`:
a reward vector indexed by pair number, successor lists with weights
float(gamma) * float(p), backups accumulated in successor order and the first
maximum kept, so its values are the same bit for bit whichever caller runs it.
"""

from __future__ import annotations

import heapq
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
    rows: list[dict[int, Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Solve A x = b exactly; ``rows`` holds A as sparse rows {column: entry}.

    Eliminates on the diagonal, each time at the remaining entry of least
    Markowitz count (r - 1)(c - 1), which keeps fill-in small (Markowitz
    1957), with no row exchange: I - gamma * P on a set of states and each of
    its Schur complements are strictly diagonally dominant, so every diagonal
    pivot is nonzero. ``rows`` and ``rhs`` are overwritten.
    """
    columns: list[set[int]] = [set() for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            columns[j].add(i)

    def count(k: int) -> int:
        return (len(rows[k]) - 1) * (len(columns[k]) - 1)

    heap = [(count(k), k) for k in range(len(rows))]
    heapq.heapify(heap)
    order = []
    while heap:
        markowitz, p = heapq.heappop(heap)
        if not columns[p] or markowitz != count(p):
            continue  # eliminated, or a count that has changed since
        order.append(p)
        pivot_row = rows[p]
        for j in pivot_row:
            columns[j].discard(p)
        for i in columns[p]:
            factor = rows[i].pop(p) / pivot_row[p]
            for j, entry in pivot_row.items():
                if j != p:
                    rows[i][j] = rows[i].get(j, ZERO) - factor * entry
                    columns[j].add(i)
            rhs[i] -= factor * rhs[p]
        touched, columns[p] = columns[p] | pivot_row.keys() - {p}, set()
        for k in touched:
            heapq.heappush(heap, (count(k), k))
    x = [ZERO] * len(rows)
    for p in reversed(order):
        row = rows[p]
        x[p] = (rhs[p] - sum(e * x[j] for j, e in row.items() if j != p)) / row[p]
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
    index, rewards = model._index, model._exact_rewards
    choice = strategy.as_dict()
    chosen = [index.number[(q, choice[q])] for q in model.states]
    values: list[Fraction] = [ZERO] * len(chosen)
    graph = [[j for j, _ in index.exact[k]] for k in chosen]
    for block in _components_sinks_first(graph):
        local = {i: b for b, i in enumerate(block)}
        rows, rhs = [], []
        for b, i in enumerate(block):
            row, acc = {b: ONE}, rewards[chosen[i]]
            for j, weight in index.exact[chosen[i]]:
                if j in local:
                    row[local[j]] = row.get(local[j], ZERO) - weight
                else:
                    acc += weight * values[j]
            rows.append(row)
            rhs.append(acc)
        if len(block) == 1:
            values[block[0]] = rhs[0] / rows[0][0]
        else:
            for i, value in zip(block, solve_linear_system(rows, rhs)):
                values[i] = value
    return dict(zip(model.states, values))


def _backup(model: EnvironmentModel, k: int, value: Callable[[int], Rational]):
    """r + sum of gamma * p * value(j) over the successors j of pair number k,
    from the index's exact successor lists: every exact backup is this one."""
    terms = (weight * value(j) for j, weight in model._index.exact[k])
    return sum(terms, model._exact_rewards[k])


def q_value(model: EnvironmentModel, values: ValueTable, state: State, action: Action):
    """One-step lookahead value r(q,a) + gamma * sum t(q,a)(q') v(q')."""
    k = model._index.number.get((state, action))
    if k is None:
        raise UndefinedPair(f"action {action!r} is not defined at state {state!r}")
    return _backup(model, k, lambda j: values[model.states[j]])


def _policy_iteration(model: EnvironmentModel) -> OptimalSolution:
    index = model._index
    choice = [index.number[pair] for pair in _warm_start(model).items()]
    while True:
        strategy = Strategy(tuple(index.pairs[k] for k in choice))
        values = list(evaluate_strategy(model, strategy).values())
        q_star = [_backup(model, k, values.__getitem__) for k in range(len(index.pairs))]
        changed = False
        for i, row in enumerate(index.rows):
            best = max((k for k, _ in row), key=q_star.__getitem__)
            if q_star[best] > q_star[choice[i]]:
                choice[i], changed = best, True
        if not changed:
            break
    greedy = {
        q: tuple(index.pairs[k][1] for k, _ in row if q_star[k] == value)
        for q, row, value in zip(model.states, index.rows, values)
    }
    v_star, q_star = dict(zip(model.states, values)), dict(zip(index.pairs, q_star))
    return OptimalSolution(v_star=v_star, q_star=q_star, greedy=greedy, mode="exact")


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


def _float_discount(model: EnvironmentModel, top: Rational) -> float:
    """float(gamma); ConvergenceError if floats can't iterate on max |r| ``top``."""
    gamma = float(model.discount)
    if gamma == 1.0:
        raise ConvergenceError(
            f"discount {model.discount} rounds to 1.0 in floating point; "
            "value iteration cannot converge, use exact mode"
        )
    # Values lie in [-bound, bound], so a sweep's change is at most 2 * bound.
    if 2 * top / (1 - model.discount) > sys.float_info.max:
        raise ConvergenceError(
            "optimal values may reach max |r| / (1 - gamma), beyond the "
            "floating-point range; use exact mode"
        )
    return gamma


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
    gamma = _float_discount(model, top)
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
    table = [values[q] for q in model.states]
    return max(
        abs(v - max(_backup(model, k, table.__getitem__) for k, _ in row))
        for v, row in zip(table, model._index.rows)
    )


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
