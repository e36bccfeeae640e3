"""The audit decision and its policy-level interpretations.

Given a purpose's model and a logged behavior, the audit decides whether any
agent planning for that purpose could have produced the log. It runs in two
steps. Step one scans the log for inherently redundant moves: a non-nothing
step through a pair whose one-step optimal value is not positive can never be
part of a non-redundant plan.

Step two asks whether some optimal strategy agrees with the logged choices.
The paper answers it with a penalised model (:func:`compute_fix`): deviating
from the logged action at an observed state costs a penalty no plan can
absorb, and the log fits iff the penalised optimum equals the original one at
every state, so a gap at any state proves emptiness.

Exact mode reads the same answer off the one solution already computed. A
stationary strategy is optimal iff it picks an argmax-Q* action at every
state, so the log fits iff every logged action lies in the greedy set of its
state: O(|b|) lookups. Otherwise the penalised optimum equals V* at exactly
the states of the *safe set*: the greatest set of states, none observed with
a non-greedy action, from each of which some allowed action (the logged one
at an observed state, any greedy one elsewhere) keeps every successor in the
set, found by a worklist that re-checks only the predecessors of a dropped
state. The gap witness is the first state outside it, which is the first state
where the penalised optimum falls short. The penalised values stay available
as evidence, computed only when ``AuditOutcome.v_star_fixed`` is read.

Float mode still solves the penalised model and compares values with
tolerances, but never builds it: it copies the purpose's float reward vector,
writes float(-omega) on the unlogged pairs of the observed states, and runs
the values-only float iteration on the model's shared structure index. The
values are bit-identical to solving ``compute_fix(model, b)`` in float mode.

One rule check, :func:`check`, lifts the boolean to a policy verdict. It
decides the log for every purpose the rule names; when the log fits none of
them, a restrictive (only-for) rule is violated and a prohibitive (not-for)
rule is obeyed, and otherwise the verdict is inconclusive. The purposes of
one check, or of one :func:`triage` call, share a structure, so the log is
validated once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InconsistentBehavior
from .model import (
    Action,
    Behavior,
    EnvironmentModel,
    Rational,
    State,
    observed_choices,
    validate_behavior,
)
from .solve import (
    FLOAT_EQUALITY,
    OptimalSolution,
    _float_discount,
    _float_values,
    solve_optimal,
)

ONE = Fraction(1)
TWO = Fraction(2)


@dataclass(frozen=True)
class FixParameters:
    """Penalty sizing: omega = 2*r*/(1-gamma) + 1 exceeds any achievable
    swing in total discounted reward, since values live in
    [-r*/(1-gamma), r*/(1-gamma)]."""

    r_star: Rational
    omega: Rational


def compute_omega(model: EnvironmentModel) -> FixParameters:
    """Exact penalty parameters for a model's reward table."""
    r_star = model.max_reward_magnitude()
    omega = TWO * r_star / (ONE - model.discount) + ONE
    return FixParameters(r_star=r_star, omega=omega)


def compute_fix(
    model: EnvironmentModel,
    behavior: Behavior,
    *,
    parameters: FixParameters | None = None,
) -> EnvironmentModel:
    """Rewrite rewards so optimization must respect the logged choices.

    At every observed state, each action other than the logged one (the
    nothing-action included) gets reward -omega; observed pairs and unobserved
    states keep their rewards. An empty behavior leaves the model unchanged.
    ``parameters`` lets callers freeze omega across repeated applications.
    """
    constraints = observed_choices(behavior)
    if not constraints:
        return model
    omega = (parameters or compute_omega(model)).omega
    rewards = {
        (q, a): (-omega if q in constraints and a != constraints[q] else r)
        for (q, a), r in model.rewards.items()
    }
    return model.with_rewards(rewards)


class AuditReason(Enum):
    """Which branch decided the audit. The wire labels are fixed."""

    STEP_ONE_USELESS = "StepOneUseless"
    VALUE_GAP_AT_ALL_STATES = "ValueGapAtAllStates"
    WITNESS_STATE_EQUAL_VALUE = "WitnessStateEqualValue"
    INCONSISTENT_BEHAVIOR = "InconsistentBehavior"


@dataclass(frozen=True)
class AuditOutcome:
    """Result of one audit: the emptiness bit plus its evidence.

    ``empty_intersection`` True means no agent planning (non-redundantly) for
    the purpose could have produced the behavior. Reasons:

    - STEP_ONE_USELESS: the log goes through a useless pair (witness pair set);
      empty.
    - VALUE_GAP_AT_ALL_STATES: the penalty-constrained optimum falls short of
      the original at some state (witness state set); empty.
    - WITNESS_STATE_EQUAL_VALUE: the optima agree at every state, so some
      optimal strategy matches the log; not empty.
    - INCONSISTENT_BEHAVIOR: the log itself forces two actions at one state,
      so no stationary strategy fits; empty.

    ``penalised`` produces the penalised model's optimal values; it is None
    when step one or an inconsistency decided the audit.
    """

    empty_intersection: bool
    reason: AuditReason
    witness_state: State | None = None
    witness_action: Action | None = None
    v_star: Mapping[State, Rational] | None = None
    mode: str = "exact"
    penalised: Callable[[], Mapping[State, Rational]] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def v_star_fixed(self) -> Mapping[State, Rational] | None:
        """Optimal values of the penalised model, solved on first read in
        exact mode."""
        return None if self.penalised is None else self.penalised()


def _leq_zero(value, mode: str, scale: float) -> bool:
    if mode == "exact":
        return value <= 0
    return float(value) <= FLOAT_EQUALITY * scale


def _floats_equal(left, right) -> bool:
    tolerance = FLOAT_EQUALITY * max(1.0, abs(float(left)), abs(float(right)))
    return abs(float(left) - float(right)) <= tolerance


def audit(
    model: EnvironmentModel,
    behavior: Behavior,
    *,
    mode: str = "exact",
    solution: OptimalSolution | None = None,
) -> AuditOutcome:
    """Decide whether the behavior could come from planning for this purpose.

    ``solution`` may carry a precomputed optimal solution for ``model`` (it
    must match the mode); batch callers auditing many behaviors against one
    model should pass it. Float mode is advisory: its comparisons use
    tolerances where exact mode uses equality of rationals.
    """
    validate_behavior(model, behavior)
    return _decide(model, behavior, mode, solution)


def _decide(
    model: EnvironmentModel,
    behavior: Behavior,
    mode: str,
    solution: OptimalSolution | None,
) -> AuditOutcome:
    """The audit of a behavior already validated against ``model``; the
    model is solved here when ``solution`` is None."""
    solution = solution or solve_optimal(model, mode=mode)
    scale = 1.0
    if mode != "exact":
        top = model.max_reward_magnitude()
        scale = max(1.0, float(top) / (1.0 - _float_discount(model, top)))

    for q, a in behavior.pairs():
        if a == model.nothing_action:
            continue
        if _leq_zero(solution.q_star[(q, a)], mode, scale):
            return AuditOutcome(
                empty_intersection=True,
                reason=AuditReason.STEP_ONE_USELESS,
                witness_state=q,
                witness_action=a,
                v_star=solution.v_star,
                mode=mode,
            )

    try:
        choices = observed_choices(behavior)
    except InconsistentBehavior as exc:
        return AuditOutcome(
            empty_intersection=True,
            reason=AuditReason.INCONSISTENT_BEHAVIOR,
            witness_state=exc.state,
            witness_action=exc.second,
            v_star=solution.v_star,
            mode=mode,
        )

    if mode != "exact":
        return _penalised_comparison(model, behavior, choices, solution, mode)

    def penalised():
        return solve_optimal(compute_fix(model, behavior), mode=mode).v_star

    greedy = solution.greedy
    if all(a in greedy[q] for q, a in choices.items()):
        return AuditOutcome(
            empty_intersection=False,
            reason=AuditReason.WITNESS_STATE_EQUAL_VALUE,
            witness_state=behavior.start,
            v_star=solution.v_star,
            mode=mode,
            penalised=penalised,
        )
    safe = _safe_states(model, greedy, choices)
    return AuditOutcome(
        empty_intersection=True,
        reason=AuditReason.VALUE_GAP_AT_ALL_STATES,
        witness_state=model.states[safe.index(False)],
        v_star=solution.v_star,
        mode=mode,
        penalised=penalised,
    )


def _safe_states(
    model: EnvironmentModel,
    greedy: Mapping[State, tuple[Action, ...]],
    choices: Mapping[State, Action],
) -> list[bool]:
    """Per state position, whether the penalised optimum equals V* there.

    The greatest fixed point: start from every state not observed with a
    non-greedy action, then drop a state while none of its allowed actions
    keeps every successor in the set. The logged action is the only allowed
    one at an observed state; any greedy action is allowed elsewhere. A
    worklist re-checks only the predecessors of a dropped state, so the work
    is linear in the model's size.
    """
    index = model._index
    states = model.states
    safe = [q not in choices or choices[q] in greedy[q] for q in states]

    def keeps_safe(i: int) -> bool:
        q = states[i]
        allowed = (choices[q],) if q in choices else greedy[q]
        return any(
            all(safe[j] for j, _ in successors)
            for a, (_, successors) in zip(index.available[i], index.rows[i])
            if a in allowed
        )

    pending = list(range(len(states)))
    while pending:
        i = pending.pop()
        if safe[i] and not keeps_safe(i):
            safe[i] = False
            pending.extend(index.predecessors[i])
    return safe


def _penalised_comparison(
    model: EnvironmentModel,
    behavior: Behavior,
    choices: Mapping[State, Action],
    solution: OptimalSolution,
    mode: str,
) -> AuditOutcome:
    """Step two by the paper's construction, for float mode: solve the
    penalised model and compare optimal values state by state.

    The penalised model is not built: its float reward vector is the
    model's, with float(-omega) written on the unlogged pairs of the observed
    states, and the values-only float iteration runs on the shared index. The
    values, the range checks and the stop test are those of solving
    ``compute_fix(model, behavior)`` in float mode, bit for bit.
    """
    if mode != "float":
        raise ValueError(f"unknown solver mode {mode!r}")
    index = model._index
    penalised_pairs = []
    for q, logged in choices.items():
        i = index.position[q]
        for a, (k, _) in zip(index.available[i], index.rows[i]):
            if a != logged:
                penalised_pairs.append(k)
    omega = compute_omega(model).omega
    # The penalised table's max |r|: omega exceeds every |r| once it is used.
    top = omega if penalised_pairs else model.max_reward_magnitude()

    def rewards() -> list[float]:
        vector = list(model._float_rewards)
        penalty = float(-omega)
        for k in penalised_pairs:
            vector[k] = penalty
        return vector

    values, _ = _float_values(model, top, rewards)
    fixed_v_star = dict(zip(model.states, values))
    for q in model.states:
        if not _floats_equal(solution.v_star[q], fixed_v_star[q]):
            return AuditOutcome(
                empty_intersection=True,
                reason=AuditReason.VALUE_GAP_AT_ALL_STATES,
                witness_state=q,
                v_star=solution.v_star,
                mode=mode,
                penalised=lambda: fixed_v_star,
            )
    return AuditOutcome(
        empty_intersection=False,
        reason=AuditReason.WITNESS_STATE_EQUAL_VALUE,
        witness_state=behavior.start,
        v_star=solution.v_star,
        mode=mode,
        penalised=lambda: fixed_v_star,
    )


class RuleKind(Enum):
    RESTRICTIVE = "only-for"
    PROHIBITIVE = "not-for"


@dataclass(frozen=True)
class PolicyRule:
    """A purpose rule: only-for (restrictive) or not-for (prohibitive)."""

    kind: RuleKind
    purposes: tuple[str, ...]

    def __post_init__(self):
        if not self.purposes:
            raise ValueError("a policy rule needs at least one purpose")


class VerdictStatus(Enum):
    VIOLATION = "VIOLATION"
    COMPLIANT = "COMPLIANT"
    INCONCLUSIVE = "INCONCLUSIVE"
    INVESTIGATE = "INVESTIGATE"


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    per_purpose: Mapping[str, AuditOutcome]


def _require_shared_structure(models: Sequence[EnvironmentModel]) -> None:
    # Purposes parsed from one document share their transitions object, so
    # the identity test settles the common case without a deep comparison.
    first = models[0]
    for other in models[1:]:
        if (
            other.states != first.states
            or other.actions != first.actions
            or (
                other.transitions is not first.transitions
                and other.transitions != first.transitions
            )
            or other.discount != first.discount
        ):
            raise ValueError(
                "purpose models must share states, actions, transitions and discount"
            )


# The verdict when the log fits none of the rule's purposes.
_EMPTY_FOR_ALL = {
    RuleKind.RESTRICTIVE: VerdictStatus.VIOLATION,
    RuleKind.PROHIBITIVE: VerdictStatus.COMPLIANT,
}


def check(
    models: Mapping[str, EnvironmentModel],
    rule: PolicyRule,
    behavior: Behavior,
    *,
    mode: str = "exact",
    solutions: Mapping[str, OptimalSolution] | None = None,
) -> Verdict:
    """Lift the audit of every purpose the rule names to a policy verdict.

    When the behavior fits none of them, an only-for rule is violated and a
    not-for rule is obeyed. Otherwise the verdict is INCONCLUSIVE: a fit to
    an allowed purpose does not rule out an ulterior one, and a fit to a
    prohibited one does not prove it was pursued. The purposes must share
    one structure, so the behavior is validated once. ``solutions`` may map
    purposes to precomputed optimal solutions, as ``audit``'s ``solution``
    does; missing ones are solved here.
    """
    missing = [p for p in rule.purposes if p not in models]
    if missing:
        raise KeyError(f"rule references unknown purposes {missing}")
    _require_shared_structure([models[p] for p in rule.purposes])
    validate_behavior(models[rule.purposes[0]], behavior)
    solutions = solutions or {}
    outcomes = {
        p: _decide(models[p], behavior, mode, solutions.get(p)) for p in rule.purposes
    }
    if all(outcome.empty_intersection for outcome in outcomes.values()):
        return Verdict(_EMPTY_FOR_ALL[rule.kind], outcomes)
    return Verdict(VerdictStatus.INCONCLUSIVE, outcomes)


def check_restrictive(models, rule, behavior, **options) -> Verdict:
    """:func:`check` for an only-for rule: VIOLATION or INCONCLUSIVE."""
    if rule.kind is not RuleKind.RESTRICTIVE:
        raise ValueError("check_restrictive needs an only-for rule")
    return check(models, rule, behavior, **options)


def check_prohibitive(models, rule, behavior, **options) -> Verdict:
    """:func:`check` for a not-for rule: COMPLIANT or INCONCLUSIVE."""
    if rule.kind is not RuleKind.PROHIBITIVE:
        raise ValueError("check_prohibitive needs a not-for rule")
    return check(models, rule, behavior, **options)


def triage(
    prohibited: EnvironmentModel,
    allowed: Iterable[EnvironmentModel],
    behavior: Behavior,
    *,
    mode: str = "exact",
    prohibited_solution: OptimalSolution | None = None,
    allowed_solutions: Sequence[OptimalSolution] | None = None,
) -> bool:
    """Is this log worth investigating for the prohibited purpose?

    True iff the behavior could fit the prohibited purpose and no allowed
    purpose explains it away. With no allowed purposes the check reduces to
    the prohibited-purpose audit alone. The models must share one structure,
    so the behavior is validated once. The optional solutions are
    precomputed optimal solutions, ``allowed_solutions`` one per allowed
    model in order.
    """
    allowed = list(allowed)
    if allowed_solutions is None:
        allowed_solutions = [None] * len(allowed)
    _require_shared_structure([prohibited, *allowed])
    validate_behavior(prohibited, behavior)
    if _decide(prohibited, behavior, mode, prohibited_solution).empty_intersection:
        return False
    return all(
        _decide(candidate, behavior, mode, solution).empty_intersection
        for candidate, solution in zip(allowed, allowed_solutions, strict=True)
    )


def audit_batch(
    model: EnvironmentModel,
    behaviors: Iterable[Behavior],
    *,
    mode: str = "exact",
) -> list[AuditOutcome]:
    """Audit many behaviors against one model, solved once, in input order."""
    solution = solve_optimal(model, mode=mode)
    return [audit(model, b, mode=mode, solution=solution) for b in behaviors]
