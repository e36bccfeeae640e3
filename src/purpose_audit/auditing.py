"""The audit decision and its policy-level interpretations.

Given a purpose's model and a logged behavior, the audit decides whether any
agent planning for that purpose could have produced the log. It runs in two
steps. Step one scans the log for inherently redundant moves: a non-nothing
step through a pair whose one-step optimal value is not positive can never be
part of a non-redundant plan. The solution lists those pairs, so each logged
step costs one set lookup.

Step two asks whether some optimal strategy agrees with the logged choices.
The paper answers it with a penalised model (:func:`compute_fix`): deviating
from the logged action at an observed state costs a penalty no plan can
absorb, and the log fits iff the penalised optimum equals the original one at
every state, so a gap at any state proves emptiness.

Every decision reads its purpose's optimal solution from the model, which
keeps one per solver mode: the first decision that consults a purpose in a
mode solves it there, so a run solves each consulted purpose once per mode
however many logs it decides, and a purpose that no decision consults is
never solved. An exact solution is certified on a float iterate when that
settles every comparison (:mod:`~purpose_audit.solve`), and then has no V*.

Exact mode reads the same answer off that one solution. A stationary strategy
is optimal iff it picks an argmax-Q* action at every state, so the log fits
iff every logged action lies in the greedy set of its state: O(|b|) lookups.
Otherwise the penalised optimum equals V* at exactly the states of the *safe
set*: the greatest set of states, none observed with a non-greedy action,
from each of which some allowed action (the logged one at an observed state,
any greedy one elsewhere) keeps every successor in the set, found by counting
each state's allowed actions not yet cut by a dropped successor. The counts
and allowed pairs start from a copy of the solution's greedy template, changed
at the observed states only, so past the copy a gap check costs O(|b|) plus
the edges into dropped states. The gap witness is the first state outside
it, which is the first state where the penalised optimum falls short.

Float mode runs the float value iteration of :mod:`~purpose_audit.solve` on
``compute_fix(model, b)``'s reward vector and exact bound, with no penalised
model, so its values are that model's bit for bit, and reports as the gap
witness the first state whose value differs from V* beyond the float
equality tolerance.

One rule check, :func:`check`, lifts the boolean to a policy verdict. It
decides the log exactly for every purpose the rule names, each by one
:func:`audit` call; when the log fits none of them, a restrictive (only-for)
rule is violated and a prohibitive (not-for) rule is obeyed, and otherwise
the verdict is inconclusive. Neither it nor :func:`triage` takes a mode.
``validate_behavior`` marks a log it passes with the model's structure
index, so the purposes of one document, which share that index, check a log
once between them, and not at all when ``parse_log`` already checked it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, Sequence

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
from .solve import FLOAT_EQUALITY, OptimalSolution, _decision_solution, _float_values

ONE = Fraction(1)
TWO = Fraction(2)


def compute_omega(model: EnvironmentModel) -> Rational:
    """The penalty omega = 2 * r* / (1 - gamma) + 1, r* = max |r(q, a)|.

    It exceeds any achievable swing in total discounted reward, since values
    live in [-r*/(1-gamma), r*/(1-gamma)].
    """
    return TWO * model.max_reward_magnitude() / (ONE - model.discount) + ONE


def compute_fix(model: EnvironmentModel, behavior: Behavior) -> EnvironmentModel:
    """Rewrite rewards so optimization must respect the logged choices.

    At every observed state, each action other than the logged one (the
    nothing-action included) gets reward -omega, with omega from
    :func:`compute_omega` on ``model``; observed pairs and unobserved states
    keep their rewards, and an empty behavior leaves the model unchanged.
    The public definition that the tests compare float step two with.
    """
    constraints = observed_choices(behavior)
    if not constraints:
        return model
    penalty = -compute_omega(model)
    rewards = model.rewards  # only the listed entries are copied
    rewards = dict(getattr(rewards, "_listed", rewards))
    for q, logged in constraints.items():
        for a in model.available_actions(q):
            if a != logged:
                rewards[(q, a)] = penalty
    # The only model whose nothing-action rewards are not all 0, so it skips
    # the checks of with_rewards.
    return model._with_table(rewards)


class AuditReason(Enum):
    """Which branch decided the audit. The wire labels are fixed."""

    STEP_ONE_USELESS = "StepOneUseless"
    VALUE_GAP_AT_ALL_STATES = "ValueGapAtAllStates"
    WITNESS_STATE_EQUAL_VALUE = "WitnessStateEqualValue"
    INCONSISTENT_BEHAVIOR = "InconsistentBehavior"


@dataclass(frozen=True, slots=True)
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
    """

    empty_intersection: bool
    reason: AuditReason
    witness_state: State | None = None
    witness_action: Action | None = None
    mode: str = "exact"


def _floats_equal(left, right) -> bool:
    tolerance = FLOAT_EQUALITY * max(1.0, abs(float(left)), abs(float(right)))
    return abs(float(left) - float(right)) <= tolerance


def audit(
    model: EnvironmentModel, behavior: Behavior, *, mode: str = "exact"
) -> AuditOutcome:
    """Decide whether the behavior could come from planning for this purpose.

    The behavior is validated first, unless ``validate_behavior`` last passed
    it on this model's structure, as ``parse_log`` does. The model is solved
    in ``mode`` on its first audit and that solution is kept on the model, so
    auditing many behaviors against one model solves it once. Float mode is
    advisory: its comparisons use tolerances where exact mode uses equality
    of rationals.
    """
    if behavior._checked is not model._index:
        validate_behavior(model, behavior)
    solution = model._solutions.get(mode)
    if solution is None:
        solution = model._solutions[mode] = _decision_solution(model, mode)

    outcome = partial(AuditOutcome, mode=mode)
    useless = next(filter(solution._useless.__contains__, behavior.pairs()), None)
    if useless is not None:
        return outcome(True, AuditReason.STEP_ONE_USELESS, *useless)
    try:
        choices = observed_choices(behavior)
    except InconsistentBehavior as exc:
        return outcome(True, AuditReason.INCONSISTENT_BEHAVIOR, exc.state, exc.second)

    if mode == "exact":
        greedy = solution.greedy
        if all(a in greedy[q] for q, a in choices.items()):
            gap = None
        else:
            gap = model.states[_safe_states(model, solution, choices).index(False)]
    else:
        index, omega = model._index, compute_omega(model)
        observed = {k for q in choices for k, _ in index.rows[index.position[q]]}
        penalised = observed - {index.number[pair] for pair in choices.items()}

        def penalised_rewards() -> list[float]:
            vector, penalty = list(model._float_rewards), -float(omega)
            for k in penalised:
                vector[k] = penalty
            return vector

        magnitude = omega if penalised else model.max_reward_magnitude()
        fixed, _ = _float_values(model, magnitude, penalised_rewards)
        gaps = (
            q
            for q, value in zip(model.states, fixed)
            if not _floats_equal(solution.v_star[q], value)
        )
        gap = next(gaps, None)
    if gap is not None:
        return outcome(True, AuditReason.VALUE_GAP_AT_ALL_STATES, gap)
    return outcome(False, AuditReason.WITNESS_STATE_EQUAL_VALUE, behavior.start)


def _safe_states(
    model: EnvironmentModel, solution: OptimalSolution, choices: Mapping[State, Action]
) -> list[bool]:
    """Per state position, whether the penalised optimum equals V* there.

    The greatest fixed point, by counting: a state observed with a
    non-greedy action starts unsafe, and any other starts with a count of
    its allowed actions, the logged one if observed and every greedy one if
    not. The solution's greedy flags and counts are that start for a log
    with no observed state; a copy of them is changed at the observed states
    only. When a state drops, each allowed pair leading into it is cut once
    and the count of that pair's state goes down; a state drops when its
    count reaches 0. Each incoming edge is walked at most once, so past the
    copies the work is linear in the log and the edges into dropped states.
    """
    index, incoming = model._index, model._index.incoming
    flags, counts = solution._greedy_template
    safe = [True] * len(model.states)
    remaining, allowed, dropped = list(counts), bytearray(flags), []
    for q, a in choices.items():
        i, k = index.position[q], index.number[(q, a)]
        for j, _ in index.rows[i]:
            allowed[j] = 0
        if flags[k]:
            allowed[k], remaining[i] = 1, 1
        else:
            safe[i] = False
            dropped.append(i)
    while dropped:
        for i, k in incoming[dropped.pop()]:
            if allowed[k]:
                allowed[k] = 0
                remaining[i] -= 1
                if not remaining[i]:
                    safe[i] = False
                    dropped.append(i)
    return safe


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


@dataclass(frozen=True, slots=True)
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
) -> Verdict:
    """Lift the audit of every purpose the rule names to a policy verdict.

    When the behavior fits none of them, an only-for rule is violated and a
    not-for rule is obeyed. Otherwise the verdict is INCONCLUSIVE: a fit to
    an allowed purpose does not rule out an ulterior one, and a fit to a
    prohibited one does not prove it was pursued. The purposes must share
    one structure; each is decided by an exact :func:`audit`.
    """
    missing = [p for p in rule.purposes if p not in models]
    if missing:
        raise KeyError(f"rule references unknown purposes {missing}")
    _require_shared_structure([models[p] for p in rule.purposes])
    outcomes = {p: audit(models[p], behavior) for p in rule.purposes}
    if all(outcome.empty_intersection for outcome in outcomes.values()):
        return Verdict(_EMPTY_FOR_ALL[rule.kind], outcomes)
    return Verdict(VerdictStatus.INCONCLUSIVE, outcomes)


def check_restrictive(models, rule, behavior) -> Verdict:
    """:func:`check` for an only-for rule: VIOLATION or INCONCLUSIVE."""
    if rule.kind is not RuleKind.RESTRICTIVE:
        raise ValueError("check_restrictive needs an only-for rule")
    return check(models, rule, behavior)


def check_prohibitive(models, rule, behavior) -> Verdict:
    """:func:`check` for a not-for rule: COMPLIANT or INCONCLUSIVE."""
    if rule.kind is not RuleKind.PROHIBITIVE:
        raise ValueError("check_prohibitive needs a not-for rule")
    return check(models, rule, behavior)


def triage(
    prohibited: EnvironmentModel,
    allowed: Iterable[EnvironmentModel],
    behavior: Behavior,
) -> bool:
    """Is this log worth investigating for the prohibited purpose?

    True iff the behavior could fit the prohibited purpose and no allowed
    purpose explains it away, each decided exactly. With no allowed
    purposes the check reduces to the prohibited-purpose audit alone. The
    models must share one structure; each purpose consulted is decided by an
    exact :func:`audit`.
    """
    allowed = list(allowed)
    _require_shared_structure([prohibited, *allowed])
    if audit(prohibited, behavior).empty_intersection:
        return False
    return all(audit(m, behavior).empty_intersection for m in allowed)
