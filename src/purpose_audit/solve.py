"""Exact and iterative solvers for strategy values and optimal values.

Exact mode works entirely in rational arithmetic, carried as integers.
Strategy evaluation solves the Bellman system (I - gamma P_sigma) V = r_sigma
one strongly connected component of sigma's successor graph at a time, sinks
first. In that order the system is block-triangular, and the values already
known downstream fold into each component's right-hand side. A single state,
most components in practice, is solved in closed form with one division of
integers; a larger component is a sparse fraction-free elimination, with
Markowitz pivoting on the diagonal, of integer rows and right-hand side into
integer numerators over one positive denominator. Optimal values come
from policy iteration with exact evaluation, which terminates because there
are finitely many strategies and every round strictly improves some state.
It starts from the greedy policy of a short float Gauss-Seidel iteration on
the rewards divided by max |r|; that guess only picks where the exact loop
begins. The loop stops when no action improves any state, so V* and the
greedy sets do not depend on the guess.

An audit reads only the signs and argmax sets of Q*, so an exact decision
first tries to certify them on the guess's iterate V, read exactly
(:func:`_certified`). With rho_q = |max_a Q(q, a) - V(q)|, each Q* is within
delta = gamma max rho / (1 - gamma) of Q on V (Puterman 1994, 6.3; Williams
and Baird 1993): a best action that leads by more than 2 delta is the one
greedy action, and |Q| > delta gives a sign. Along that greedy sigma,
V* - V = gamma P_sigma (V* - V) + TV - V, so |V* - V| at q is at most the
largest rho sigma reaches from q over 1 - gamma; that settles other signs.
When the warm start met its residual and left anything open, it sweeps on,
at most as many sweeps again, toward the float margin of every comparison,
and the new iterate is tried once more. Anything still open, an exact tie
above all, falls back to policy iteration.

Every exact backup is one integer dot product of the index's coefficients
L * gamma * p, where L is the state's scale, with values over one common
denominator D; rewards are numerators over the model's common reward
denominator R. Evaluation returns one Fraction per state, so a round
puts those values over D once (:func:`_over_common_denominator`) and compares
the Q-values of a state as the integers Q * R * L * D. A solution keeps V*,
not Q*: Q*(q, a) is one backup from V*. Both solvers build their solution in
:func:`_solution`, which reads the greedy sets and step one's useless pairs
off Q within the solver's tolerance, 0 on those integers. Float mode runs
plain value iteration to the relative residual ``FLOAT_RESIDUAL``, within
``FLOAT_ITERATION_CAP`` sweeps, and is meant for larger models where exact
arithmetic gets expensive; audit verdicts derived from float values are
advisory.

Float mode and float step two, which runs on a penalised reward vector,
share :func:`_float_values` and its Jacobi sweep kernel, :func:`_sweeps`, on
the model's :class:`~purpose_audit.model.StructureIndex`: a reward vector
indexed by pair number, successor lists with weights float(gamma) * float(p),
backups accumulated in successor order and the first maximum kept, so its
values are the same bit for bit whichever caller runs it. Within a call it
stops backing up each action that a rounding-aware bound proves can never
again be its state's maximum, which changes no value.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import ConvergenceError
from .model import (
    NOTHING,
    Action,
    EnvironmentModel,
    Rational,
    State,
    Strategy,
    StructureIndex,
)

ZERO = Fraction(0)

#: Relative Bellman-residual target for float mode.
FLOAT_RESIDUAL = 1e-9
#: Relative tolerance for float-mode equality tests.
FLOAT_EQUALITY = 1e-6
#: Sweeps float mode runs before it gives up with ConvergenceError.
FLOAT_ITERATION_CAP = 1_000_000

# The Gauss-Seidel iteration that picks exact policy iteration's first
# policy: relative residual and sweep cap. A coarse guess is enough, since
# exact rounds repair any action it gets wrong.
_WARM_RESIDUAL = 3e-4
_WARM_SWEEPS = 200


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal values and the per-state set of maximizing actions.

    The greedy sets hold the actions whose Q-value is within the solver's
    tolerance of V*: 0 in exact mode, and in float mode ``FLOAT_EQUALITY``
    times the scale max(1, max |r| / (1 - gamma)). Q*(q, a) is one backup
    from V*; a certified solution (:func:`_certified`) has None for V*.
    ``_useless`` holds the non-nothing pairs whose Q-value is at most that
    tolerance: the pairs that step one of the audit rejects.
    ``_greedy_template`` is a byte per pair number, 1 on each greedy pair,
    and the size of each state's greedy set: where the audit's safe-set
    count starts for a log that observes no state.
    """

    v_star: Mapping[State, Rational] | None
    greedy: Mapping[State, tuple[Action, ...]]
    _useless: frozenset = field(compare=False, repr=False)
    _greedy_template: tuple[bytes, tuple[int, ...]] = field(compare=False, repr=False)


def solve_linear_system(
    rows: list[dict[int, int]], rhs: list[int]
) -> tuple[list[int], int]:
    """Solve A x = b exactly for integer A and b; ``rows`` holds A as sparse
    rows {column: entry}. Returns integer numerators and one denominator
    d > 0 with x = numerators / d, so A numerators = b d.

    Eliminates on the diagonal, each time at the remaining entry of least
    Markowitz count (r - 1)(c - 1), which keeps fill-in small (Markowitz
    1957), with no row exchange: I - gamma * P on a set of states and each of
    its Schur complements are strictly diagonally dominant, so every diagonal
    pivot is nonzero. The elimination is fraction-free: eliminating column p
    from row i replaces it by
    A_pp * row_i - A_ip * row_p divided by the gcd of its entries. Every row
    stays a multiple of its row of the Schur complement, so it is that row's
    primitive integer form, no larger than the minors of Bareiss's
    elimination. ``rows`` and ``rhs`` are overwritten.
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
            row = rows[i]
            entry, pivot = row.pop(p), pivot_row[p]
            g = math.gcd(entry, pivot)
            entry, pivot = entry // g, pivot // g
            if pivot != 1:
                for j in row:
                    row[j] *= pivot
                rhs[i] *= pivot
            for j, e in pivot_row.items():
                if j != p:
                    row[j] = row.get(j, 0) - entry * e
                    columns[j].add(i)
            rhs[i] -= entry * rhs[p]
            content = math.gcd(rhs[i], *row.values())
            if content > 1:
                for j in row:
                    row[j] //= content
                rhs[i] //= content
        touched, columns[p] = columns[p] | pivot_row.keys() - {p}, set()
        for k in touched:
            heapq.heappush(heap, (count(k), k))
    # Back-substitute in reverse pivot order over one common denominator.
    x, denominator = [0] * len(rows), 1
    for p in reversed(order):
        row = rows[p]
        numerator = rhs[p] * denominator - sum(
            e * x[j] for j, e in row.items() if j != p
        )
        pivot = row[p]
        g = math.gcd(numerator, pivot)
        numerator, pivot = numerator // g, pivot // g
        if pivot < 0:
            numerator, pivot = -numerator, -pivot
        if pivot != 1:
            denominator *= pivot
            x = [v * pivot for v in x]
        x[p] = numerator
    return x, denominator


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
    sinks first. Row q is scaled by its state's L, so its entries are
    integers; the right-hand side is scaled by a common denominator M of the
    block's rewards and of the values already known downstream, so it is an
    integer too, and the block's solution is divided by M. A block of one
    state q is solved in closed form, before any of that set-up:
    V(q) = (L r + sum over q' != q of c(q') V(q')) / (L - c(q)), with c the
    coefficients L * gamma * p of q's chosen pair.
    """
    # StrategyError unless total and defined; the pairs come in state order.
    checked = Strategy.from_mapping(strategy.as_dict(), model)
    index = model._index
    scales, coefficients = index.scales, index.coefficients
    rewards, reward_denominator = model._reward_numerators
    chosen = [index.number[pair] for pair in checked.assignments]
    values: list[Fraction] = [ZERO] * len(chosen)
    # Downstream values over the current block's M. A state's entry is set
    # only once it is solved, so the entries of unsolved states, the current
    # block's included, are 0 and drop out of the backup.
    numerators = [0] * len(chosen)
    graph = [[j for j, _ in coefficients[k]] for k in chosen]
    for block in _components_sinks_first(graph):
        if len(block) == 1:
            i = block[0]
            k, diagonal = chosen[i], scales[i]
            known = [
                (c, values[j].as_integer_ratio()) for j, c in coefficients[k] if j != i
            ]
            common = math.lcm(reward_denominator, *(d for _, (_, d) in known))
            numerator = diagonal * rewards[k] * (common // reward_denominator)
            for c, (n, d) in known:
                numerator += c * n * (common // d)
            diagonal -= sum(c for j, c in coefficients[k] if j == i)
            values[i] = Fraction(numerator, diagonal * common)
            continue
        local = {i: b for b, i in enumerate(block)}
        downstream = {
            j for i in block for j, _ in coefficients[chosen[i]] if j not in local
        }
        common = math.lcm(
            reward_denominator, *(values[j].denominator for j in downstream)
        )
        for j in downstream:
            numerators[j] = values[j].numerator * (common // values[j].denominator)
        reward_scale = common // reward_denominator
        rows, rhs = [], []
        for b, i in enumerate(block):
            k = chosen[i]
            row = {b: scales[i]}
            for j, coefficient in coefficients[k]:
                if j in local:
                    row[local[j]] = row.get(local[j], 0) - coefficient
            rows.append(row)
            backup = sum(c * numerators[j] for j, c in coefficients[k])
            rhs.append(scales[i] * rewards[k] * reward_scale + backup)
        solved, denominator = solve_linear_system(rows, rhs)
        for i, numerator in zip(block, solved):
            values[i] = Fraction(numerator, denominator * common)
    return dict(zip(model.states, values))


def _over_common_denominator(values: Sequence[Rational]) -> tuple[list[int], int]:
    """``values`` as integer numerators over their least common denominator."""
    denominator = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denominator // v.denominator) for v in values], denominator


def _q_numerators(
    model: EnvironmentModel, numerators: Sequence[int], denominator: int
) -> tuple[list[int], list[int]]:
    """Per pair number k, at state q: Q(q, a) * R * L * D, an integer, for
    values V = numerators / D, rewards over R and q's scale L; and per state,
    V(q) * R * L * D. The factor R * L * D is the same for every action of a
    state, so these integers compare as the state's Q-values and value do."""
    index = model._index
    coefficients = index.coefficients
    rewards, reward_denominator = model._reward_numerators
    q, attained = [], []
    for row, scale, numerator in zip(index.rows, index.scales, numerators):
        weight = scale * denominator
        for k, _ in row:
            backup = 0
            for j, c in coefficients[k]:
                backup += c * numerators[j]
            q.append(rewards[k] * weight + reward_denominator * backup)
        attained.append(numerator * reward_denominator * scale)
    return q, attained


def _solution(
    model: EnvironmentModel, v_star: Mapping | None, q: Sequence, attained: Sequence,
    tolerance: Rational | float,
) -> OptimalSolution:
    """The solution with V* ``v_star``, its flags read off ``q`` per pair
    number and ``attained`` per state, Q and V on one scale per state: a
    pair is greedy when its q is within ``tolerance`` of its state's
    attained value, and useless when its q is at most ``tolerance``. Exact
    mode passes Q * R * L * D and V * R * L * D with tolerance 0; R, L and D
    are positive, so signs and ties are those of Q* and V*."""
    pairs, rows = model._index.pairs, model._index.rows
    flags, greedy = bytearray(len(q)), {}
    for state, row, best in zip(model.states, rows, attained):
        for k, _ in row:
            flags[k] = abs(q[k] - best) <= tolerance
        greedy[state] = tuple(pairs[k][1] for k, _ in row if flags[k])
    useless = (p for p, v in zip(pairs, q) if v <= tolerance and p[1] != NOTHING)
    return OptimalSolution(
        v_star=v_star,
        greedy=greedy,
        _useless=frozenset(useless),
        _greedy_template=(bytes(flags), tuple(map(len, greedy.values()))),
    )


def _policy_iteration(model: EnvironmentModel, choice: list[int]) -> OptimalSolution:
    index, last = model._index, []
    while True:
        strategy = Strategy(tuple(index.pairs[k] for k in choice))
        values = list(evaluate_strategy(model, strategy).values())
        # A round must improve on the last; a wrong evaluation could cycle for ever.
        if last and (values == last or any(v < w for v, w in zip(values, last))):
            raise RuntimeError("policy iteration made a round that did not improve")
        numerators, denominator = _over_common_denominator(values)
        q, attained = _q_numerators(model, numerators, denominator)
        changed = False
        for i, row in enumerate(index.rows):
            best = max((k for k, _ in row), key=q.__getitem__)
            if q[best] > q[choice[i]]:
                choice[i], changed = best, True
        if not changed:
            break
        last = values
    return _solution(model, dict(zip(model.states, values)), q, attained, 0)


def _sweeps(
    index: StructureIndex,
    rewards: Sequence[float],
    gamma: float,
    target: float,
    sweeps: int,
) -> tuple[list[float], bool]:
    """Value iteration in floats from V = 0, one Jacobi sweep at a time,
    until gamma * (largest change in a sweep) <= target or ``sweeps`` run out.

    ``rewards`` is indexed by the index's pair numbers, and ``gamma`` is the
    float discount of its weights. Each backup is r + w1*V[j1] + w2*V[j2] +
    ... in successor order, and a state takes the first maximum over its
    actions, so the values are a function of these inputs, bit for bit.
    Returns the last values (in state order) and whether the target was met.

    After sweeps 8, 16, 32, ..., a :func:`_lookahead` pass drops from this
    call's copy of the rows each action more than M below its state's best
    backup (MacQueen 1967; Puterman 1994, 6.7.2). With u = 2**-52, n states
    and r = max |reward| + 1, a row's rounded weights sum to at most
    g = gamma (1 + 4u). Unless g + 4(n + 3)u >= 1, when the test is skipped,
    iterates stay within 2r / (1 - g), a backup rounds by at most
    e = 2(n + 3) u r (1 + 2g / (1 - g)), and with d the last sweep's largest
    change every later iterate lies within R = (2gd + 3e) / (1 - g) of this
    one. So backups move by at most gR + 2e, and with M = 2(gR + 2e)(1 + 1e-9)
    a dropped action stays below a kept one on every later sweep: each
    maximum, change and stop sweep is that of the full rows, bit for bit.
    """
    rows = index.rows
    values = [0.0] * len(rows)
    g, c = gamma * (1 + 2**-50), (len(rows) + 3) * 2**-51
    test = 8 if g + 2 * c < 1 else 0
    for sweep in range(1, sweeps + 1):
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
        if sweep == test:
            test *= 2
            e = c * (max(map(abs, rewards), default=0.0) + 1) * (1 + 2 * g / (1 - g))
            margin = 2 * (g * (2 * g * gap + 3 * e) / (1 - g) + 2 * e) * (1 + 1e-9)
            table = _lookahead(rows, rewards, values)
            rows = [
                [p for p, b in zip(row, backups) if not best - b > margin]
                for row, backups, best in zip(rows, table, map(max, table))
            ]
    return values, False


def _lookahead(
    rows: Sequence[Sequence], rewards: Sequence[float], values: list[float]
) -> list[list[float]]:
    """The backup of every action in ``rows`` (per state, in row order) on
    ``values``, with the arithmetic of :func:`_sweeps`."""
    table = []
    for row in rows:
        backups = []
        for k, successors in row:
            acc = rewards[k]
            for j, weight in successors:
                acc += weight * values[j]
            backups.append(acc)
        table.append(backups)
    return table


def _gauss_seidel(rows, rewards, gamma, values: list[float], target, sweeps) -> int:
    """In-place sweeps (Puterman 1994, 6.3.3) until gamma * (largest change)
    <= target, which bounds |TV - V|: the number run, or 0 at ``sweeps``."""
    for sweep in range(1, sweeps + 1):
        gap = 0.0
        for i, row in enumerate(rows):
            best = -math.inf
            for k, successors in row:
                acc = rewards[k]
                for j, weight in successors:
                    acc += weight * values[j]
                if acc > best:
                    best = acc
            change = abs(best - values[i])
            if change > gap:
                gap = change
            values[i] = best
        if gamma * gap <= target:
            return sweep
    return 0


def _warm_start(model: EnvironmentModel) -> tuple:
    """Gauss-Seidel to ``_WARM_RESIDUAL`` on the rewards over max |r|, which
    keeps values in float range; never raises. The values, those rewards,
    their lookahead table, the sweeps run (0 at the cap) and its first-best
    policy, the guess."""
    rows, gamma = model._index.rows, float(model.discount)
    numerators, _ = model._reward_numerators
    top = max(map(abs, numerators)) or 1
    rewards, values = [n / top for n in numerators], [0.0] * len(rows)
    ran = _gauss_seidel(rows, rewards, gamma, values, _WARM_RESIDUAL, _WARM_SWEEPS)
    table = _lookahead(rows, rewards, values)
    guess = [row[backups.index(max(backups))][0] for row, backups in zip(rows, table)]
    return values, rewards, table, ran, guess


def _float_margin(index: StructureIndex, table) -> float:
    """Least of half of each state's lead of its best backup over the next
    and of each non-nothing |backup| > 0."""
    pairs, margin = index.pairs, math.inf
    for row, backups in zip(index.rows, table):
        if len(backups) > 1:
            second, first = sorted(backups)[-2:]
            margin = min(margin, (first - second) / 2)
        for (k, _), backup in zip(row, backups):
            if backup and abs(backup) < margin and pairs[k][1] != NOTHING:
                margin = abs(backup)
    return margin


def _certified(model: EnvironmentModel, values: Sequence) -> OptimalSolution | None:
    """The decision tables certified on float values of the rewards over
    max |r|, or None; per state, eps >= rho * R * D is an integer."""
    index, (gn, gd) = model._index, model.discount.as_integer_ratio()
    rows, scales, pairs = index.rows, index.scales, index.pairs
    numerators, reward_denominator = model._reward_numerators
    top, ratios = max(map(abs, numerators)) or 1, [v.as_integer_ratio() for v in values]
    common = max(d for _, d in ratios)  # each d is a power of two
    scaled = [n * top * (common // d) for n, d in ratios]
    q, attained = _q_numerators(model, scaled, common * reward_denominator)
    best = [max(q[k] for k, _ in row) for row in rows]
    errors = [-(-abs(b - v) // scale) for b, v, scale in zip(best, attained, scales)]
    # Comparisons are scaled by u = gd * (1 - gamma): delta * u <= gn max(eps) L.
    u, worst, sigma, doubtful = gd - gn, gn * max(errors), [], []
    for i, (row, b) in enumerate(zip(rows, best)):
        delta = worst * scales[i]
        sigma += [k for k, _ in row if (b - q[k]) * u <= 2 * delta]
        doubtful += [(i, k) for k, _ in row if -delta < q[k] * u <= delta]
    if len(sigma) > len(rows):
        return None
    doubtful = [(i, k) for i, k in doubtful if pairs[k][1] != NOTHING]
    if doubtful:
        coefficients, reach = index.coefficients, [-1] * len(rows)
        graph = [[j for j, _ in coefficients[k]] for k in sigma]
        for block in _components_sinks_first(graph):
            error = max(max(errors[i], *(reach[j] for j in graph[i])) for i in block)
            for i in block:
                reach[i] = error
        for i, k in doubtful:
            slack = gn * scales[i] * max(reach[j] for j, _ in coefficients[k])
            if -slack < q[k] * u <= slack:
                return None
    return _solution(model, None, q, best, 0)


def _decision_solution(model: EnvironmentModel, mode: str) -> OptimalSolution:
    """The audit's solution: in exact mode, the tables certified on the warm
    start's iterate when its float residual is below its margin, or on that
    iterate after up to as many sweeps again toward the margin, else policy
    iteration's."""
    if mode != "exact":
        return solve_optimal(model, mode)
    index, gamma = model._index, float(model.discount)
    values, rewards, table, more, guess = _warm_start(model)
    while gamma < 1:
        floor = gamma * max(abs(max(b) - v) for b, v in zip(table, values)) / (1 - gamma)
        margin = _float_margin(index, table)
        if margin > floor:
            solution = _certified(model, values)
            if solution is not None:
                return solution
        if not (more and margin):
            break
        _gauss_seidel(index.rows, rewards, gamma, values, (1 - gamma) * margin / 2, more)
        table, more = _lookahead(index.rows, rewards, values), 0
    return _policy_iteration(model, guess)


def _float_values(
    model: EnvironmentModel, magnitude: Rational, rewards: Callable[[], Sequence[float]]
) -> tuple[list[float], float]:
    """Float value iteration over ``model``'s index on the vector ``rewards()``.

    Raises ConvergenceError when the discount rounds to 1.0, when values may
    leave the float range (checked on ``magnitude``, the vector's exact max
    |r|, before ``rewards()`` is called, since a reward beyond the float
    range has no float), or when ``FLOAT_ITERATION_CAP`` sweeps do not reach
    ``FLOAT_RESIDUAL``. Returns the values (in state order) and the scale
    that the residual and equality tolerances are relative to.
    """
    gamma = float(model.discount)
    if gamma == 1.0:
        raise ConvergenceError(
            f"discount {model.discount} rounds to 1.0 in floating point; "
            "value iteration cannot converge, use exact mode"
        )
    # Values lie in [-bound, bound], so a sweep's change is at most 2 * bound.
    if 2 * magnitude / (1 - model.discount) > sys.float_info.max:
        raise ConvergenceError(
            "optimal values may reach max |r| / (1 - gamma), beyond the "
            "floating-point range; use exact mode"
        )
    rewards = rewards()
    scale = max(1.0, max(map(abs, rewards), default=0.0) / (1 - gamma))
    # Stop when the step gap guarantees sup-distance to the fixed point of at
    # most residual * scale: ||V_k - V*|| <= gamma/(1-gamma) * ||V_k - V_{k-1}||.
    # The returned table's own Bellman residual is at most gamma * gap.
    target = FLOAT_RESIDUAL * scale * (1 - gamma)
    values, converged = _sweeps(
        model._index, rewards, gamma, target, FLOAT_ITERATION_CAP
    )
    if not converged:
        raise ConvergenceError(
            f"value iteration did not reach residual {FLOAT_RESIDUAL * scale} "
            f"within {FLOAT_ITERATION_CAP} iterations"
        )
    return values, scale


def _value_iteration(model: EnvironmentModel) -> OptimalSolution:
    index, top = model._index, model.max_reward_magnitude()
    values, scale = _float_values(model, top, lambda: model._float_rewards)
    backups = _lookahead(index.rows, model._float_rewards, values)
    q = [value for row in backups for value in row]  # pairs are numbered by row
    v_star = dict(zip(model.states, values))
    return _solution(model, v_star, q, values, FLOAT_EQUALITY * scale)


def solve_optimal(model: EnvironmentModel, mode: str = "exact") -> OptimalSolution:
    """Optimal value of every state, V*(q) = max over strategies of V(sigma, q).

    ``mode`` is "exact" (policy iteration, rational arithmetic) or "float"
    (value iteration to the relative residual ``FLOAT_RESIDUAL``; raises
    ConvergenceError if ``FLOAT_ITERATION_CAP`` sweeps are not enough).
    """
    if mode == "exact":
        return _policy_iteration(model, _warm_start(model)[-1])
    if mode == "float":
        return _value_iteration(model)
    raise ValueError(f"unknown solver mode {mode!r}")
