"""Environment models, strategies and logged behaviors.

An environment model is a finite discounted MDP with a distinguished
nothing-action: a zero-reward self-loop available at every state, so that an
agent can always stop acting. Actions other than the nothing-action may be
available at only some states. All probabilities, rewards and the discount
factor are exact rationals.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import (
    BehaviorError,
    DiscountError,
    DistributionError,
    DomainMismatch,
    InconsistentBehavior,
    ModelError,
    NothingActionConflict,
    StrategyError,
)

State = str
Action = str
Rational = Fraction

#: The distinguished do-nothing action.
NOTHING = "N"

ONE = Fraction(1)
ZERO = Fraction(0)


#: Most digits a numeric literal may carry.
MAX_LITERAL_DIGITS = 300
#: Largest decimal exponent magnitude a numeric literal may carry: "1e300".
MAX_LITERAL_EXPONENT = 300

_DIGITS = r"\d+(?:_\d+)*"
_LITERAL = re.compile(
    rf"\s*([-+]?)(?=\.?\d)({_DIGITS})?"
    rf"(?:/({_DIGITS})|(?:\.({_DIGITS})?)?(?:[eE]([-+]?)({_DIGITS}))?)\s*"
)


def as_rational(value) -> Fraction:
    """Convert a number to an exact Fraction.

    Strings follow one grammar on every Python version, in Unicode decimal
    digits as int() reads them, single underscores allowed between two:
    [ws] [+|-] (n/d | n | n.f | .f | n.) [(e|E) [+|-] digits] [ws], with no
    exponent on n/d and no space inside. At most MAX_LITERAL_DIGITS digits,
    underscores aside, precede the exponent, at most MAX_LITERAL_EXPONENT in
    magnitude; each cap is checked before the integer it bounds is built.
    Floats are read through their decimal repr: 0.9 means 9/10, not a double.
    """
    if not isinstance(value, str):
        if isinstance(value, bool):
            raise TypeError(f"cannot interpret {value!r} as a rational number")
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(repr(value))
        raise TypeError(f"cannot interpret {value!r} as a rational number")
    match = _LITERAL.fullmatch(value)
    if match is None:
        raise ValueError(f"bad rational literal {value!r}")
    sign, whole, denominator, point, exponent_sign, exponent = match.groups("")
    digits = whole + denominator + point
    if len(digits) - digits.count("_") > MAX_LITERAL_DIGITS:
        raise ValueError(f"numeric literal has more than {MAX_LITERAL_DIGITS} digits")
    n, d = int(sign + whole + point), int(denominator or 1)
    if not d:
        raise ValueError(f"bad rational literal {value!r}")
    if not (point or exponent):
        return Fraction(n, d)
    width = len(str(MAX_LITERAL_EXPONENT))  # digits before the last must be 0s
    e = exponent.replace("_", "") or "0"
    if any(map(int, e[:-width])) or int(e[-width:]) > MAX_LITERAL_EXPONENT:
        raise ValueError(f"numeric literal has an exponent beyond {MAX_LITERAL_EXPONENT}")
    # Each digit after the point divides by 10; the exponent shifts that.
    shift = int(exponent_sign + e[-width:]) - len(point) + point.count("_")
    return Fraction(n, 10**-shift) if shift < 0 else Fraction(n * 10**shift)


class StructureIndex:
    """Integer-indexed view of one model structure, built on first use.

    Holds a state -> position map, the available actions of each state, per
    defined pair its successors as (position, float(gamma) * float(p)), and
    the incoming edges of each state; each of those floats is one correctly
    rounded division n / d of its rational's integer ratio, read once, with
    no float(Fraction) call. Exact backups use integers: each state has a
    scale L, the least common multiple of the denominators of gamma * p over
    its pairs, and each pair its successors as (position, L * gamma * p).
    Pairs are numbered in state order, then action order, as
    :meth:`EnvironmentModel.pairs` yields them; a reward vector is a sequence
    indexed by that number. Every model made from the same validated
    structure by ``with_rewards`` (each purpose of a document included) holds
    the same index, so these lists are built once per structure.
    """

    def __init__(self, states, actions, transitions, discount):
        self.states = states
        self.actions = actions
        self.transitions = transitions
        self.discount = discount

    @cached_property
    def position(self) -> dict[State, int]:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def action_position(self) -> dict[Action, int]:
        return {a: i for i, a in enumerate(self.actions)}

    @cached_property
    def available(self) -> tuple[tuple[Action, ...], ...]:
        """Available actions per state position, in action order: the
        transitions, in whatever order declared, grouped by state and sorted."""
        available: list[list[Action]] = [[] for _ in self.states]
        for q, a in self.transitions:
            available[self.position[q]].append(a)
        order = self.action_position.__getitem__
        return tuple(tuple(sorted(actions, key=order)) for actions in available)

    @cached_property
    def pairs(self) -> tuple[tuple[State, Action], ...]:
        """Defined pairs in pair-number order."""
        return tuple(
            (q, a) for q, actions in zip(self.states, self.available) for a in actions
        )

    @cached_property
    def nothing(self) -> tuple[tuple[State, Action], ...]:
        """The rows' own (q, NOTHING) keys, one per state once validated."""
        return tuple(pair for pair in self.transitions if pair[1] == NOTHING)

    @cached_property
    def number(self) -> dict[tuple[State, Action], int]:
        """Pair -> pair number."""
        return {pair: k for k, pair in enumerate(self.pairs)}

    @cached_property
    def scales(self) -> tuple[int, ...]:
        """Per state position, L: the lcm of the denominators of gamma * p
        over the state's pairs."""
        gn, gd = self.discount.numerator, self.discount.denominator
        transitions = self.transitions
        return tuple(
            math.lcm(*(
                gd * p.denominator // math.gcd(gn * p.numerator, gd * p.denominator)
                for a in actions
                for p in transitions[(q, a)].values()
            ))
            for q, actions in zip(self.states, self.available)
        )

    @cached_property
    def coefficients(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per pair number, its successors as (position, L * gamma * p), an
        integer, in table order; L is the scale of the pair's state."""
        gn, gd = self.discount.numerator, self.discount.denominator
        position, transitions = self.position, self.transitions
        return tuple(
            tuple(
                (position[t], scale * gn * p.numerator // (gd * p.denominator))
                for t, p in transitions[(q, a)].items()
            )
            for q, actions, scale in zip(self.states, self.available, self.scales)
            for a in actions
        )

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, tuple[tuple[int, float], ...]], ...], ...]:
        """Per state position, one (pair number, successor list) per
        available action, in action order; successors keep the order of the
        transition table."""
        gn, gd = self.discount.as_integer_ratio()
        gamma, position, number = gn / gd, self.position, self.number
        rows = []
        for q, actions in zip(self.states, self.available):
            row = []
            for a in actions:
                successors = []
                for t, p in self.transitions[(q, a)].items():
                    n, d = p.as_integer_ratio()  # n / d is float(p), rounded once
                    successors.append((position[t], gamma * (n / d)))
                row.append((number[(q, a)], tuple(successors)))
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def incoming(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per state position, (state position, pair number) of each pair
        with that state among its successors, in pair order."""
        edges: list[list[tuple[int, int]]] = [[] for _ in self.available]
        for i, row in enumerate(self.rows):
            for k, successors in row:
                for j, _ in successors:
                    edges[j].append((i, k))
        return tuple(map(tuple, edges))


class _Handed(dict):
    """A table the document parser hands over, whose values are all Fractions:
    the transitions, with Fraction probabilities in every row, or a purpose's
    rewards. The caller decides ownership: validate_model keeps its rows and
    with_rewards keeps it, copying any other mapping; the checks are the same."""


class RewardTable(Mapping):
    """A read-only reward table: the listed entries, and 0 on every other pair
    of ``index``, a :class:`StructureIndex`. It iterates in pair order, compares
    and prints as that full dict, and raises KeyError on other keys."""

    def __init__(self, listed: dict, index: StructureIndex):
        self._listed, self._index = listed, index

    def __getitem__(self, pair):
        reward = self._listed.get(pair, ZERO)
        if reward is ZERO and pair not in self._index.transitions:
            raise KeyError(pair)
        return reward

    def __iter__(self):
        return iter(self._index.pairs)

    def __len__(self):
        return len(self._index.pairs)

    def __repr__(self):
        return repr(dict(self.items()))


@dataclass(frozen=True)
class EnvironmentModel:
    """A validated model: states, actions, transitions, rewards, discount.

    ``transitions`` maps each defined (state, action) pair to a distribution
    over successor states, in the order the pairs were declared; ``rewards``,
    a :class:`RewardTable` of the listed entries when made by
    :meth:`with_rewards`, is defined on exactly the same pairs, in pair order.
    Every state has the pair (q, ``NOTHING``), a self-loop with reward 0
    everywhere but in the penalised model of ``auditing.compute_fix``.
    Instances are immutable; construct them through :func:`validate_model`
    and :meth:`with_rewards`. ``_index`` is the structure's
    :class:`StructureIndex`: ``with_rewards`` hands its own on, and every
    other construction, ``dataclasses.replace`` included, builds a fresh
    one. ``_solutions`` holds the model's optimal solution per solver mode,
    filled by the audit's first decision in that mode; every new model
    starts with it empty. Neither takes part in ``==`` or ``repr``.
    """

    states: tuple[State, ...]
    actions: tuple[Action, ...]
    transitions: Mapping[tuple[State, Action], Mapping[State, Rational]]
    rewards: Mapping[tuple[State, Action], Rational]
    discount: Rational
    _index: StructureIndex = field(init=False, compare=False, repr=False)
    _solutions: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        index = StructureIndex(
            self.states, self.actions, self.transitions, self.discount
        )
        object.__setattr__(self, "_index", index)

    def available_actions(self, state: State) -> tuple[Action, ...]:
        """Actions with a transition entry at ``state``, in action order."""
        i = self._index.position.get(state)
        return () if i is None else self._index.available[i]

    def successors(self, state: State, action: Action) -> Mapping[State, Rational]:
        return self.transitions[(state, action)]

    def pairs(self) -> Iterator[tuple[State, Action]]:
        """Defined (state, action) pairs in deterministic state/action order."""
        return iter(self._index.pairs)

    def with_rewards(self, rewards: Mapping) -> EnvironmentModel:
        """This structure with the reward table ``rewards``.

        Each listed reward must sit on a defined pair, and a nothing-action
        reward must be zero; a pair not listed reads 0. The listed entries are
        stored in a :class:`RewardTable` ordered like :meth:`pairs`: a parser's
        ``_Handed`` table, all Fractions, as it is, any other mapping converted
        into a new dict. Only once every entry has converted is an error raised:
        NothingActionConflict for the first state in state order with a nonzero
        nothing-action reward, else DomainMismatch for the first undefined pair.
        """
        table = rewards if type(rewards) is _Handed else {
            pair: as_rational(r) for pair, r in rewards.items()
        }
        if any(map(table.get, self._index.nothing)):
            q = next(q for q in self.states if table.get((q, NOTHING)))
            raise NothingActionConflict(f"nothing-action at {q!r} must have reward 0")
        if not table.keys() <= self.transitions.keys():
            pair = next(pair for pair in table if pair not in self.transitions)
            raise DomainMismatch(f"reward defined for {pair} but no transition is")
        return self._with_table(table)

    def _with_table(self, table: dict) -> EnvironmentModel:
        """This structure with the listed entries ``table`` as its rewards,
        unchecked and not copied, sharing this model's index."""
        rewards = RewardTable(table, self._index)
        model = EnvironmentModel(
            self.states, self.actions, self.transitions, rewards, self.discount
        )
        object.__setattr__(model, "_index", self._index)
        return model

    def max_reward_magnitude(self) -> Rational:
        """Largest |r(q, a)| over the defined pairs."""
        numerators, denominator = self._reward_numerators
        return Fraction(max(map(abs, numerators), default=0), denominator)

    @cached_property
    def _reward_numerators(self) -> tuple[tuple[int, ...], int]:
        """(n per defined pair in pair order, R): each reward is n / R over
        one common denominator R, the reward vector of exact backups."""
        ratios = [self.rewards[pair].as_integer_ratio() for pair in self._index.pairs]
        denominator = math.lcm(*{d for _, d in ratios})
        return tuple(n * (denominator // d) for n, d in ratios), denominator

    @cached_property
    def _float_rewards(self) -> tuple[float, ...]:
        """float(r) per defined pair, in pair order: the reward vector float
        value iteration runs on."""
        numerators, denominator = self._reward_numerators
        return tuple(n / denominator for n in numerators)


def _check_distribution(pair, row, states) -> dict[State, Rational]:
    """The row's nonzero entries, in order, after one walk checks that no
    entry is negative, that the integers n * (L // d) sum to L, L the lcm of
    the denominators, so the row sums to 1 without adding Fractions, and then
    that every target, zero-probability ones included, is in ``states``.
    ``row`` itself is never changed. A row of nonzero Fractions is returned
    as it is, so a caller that must not share the row copies that result;
    any other row's result is already a new dict."""
    cleaned = row
    unknown = None
    total, denominator = 0, 1
    for target, probability in row.items():
        p = probability if type(probability) is Fraction else as_rational(probability)
        n, d = p.as_integer_ratio()
        if not n or p is not probability:  # the result is a copy from here on
            if cleaned is row:
                cleaned = dict(row)
            cleaned[target] = p
        if n < 0:
            raise DistributionError(
                f"negative probability {p} for {pair} -> {target!r}"
            )
        if unknown is None and target not in states:
            unknown = target
        if n:
            if d != denominator:  # L is d itself until an entry is summed
                lcm = math.lcm(denominator, d) if total else d
                total *= lcm // denominator
                n *= lcm // d
                denominator = lcm
            total += n
        else:  # a zero made the copy above, which drops it
            del cleaned[target]
    if total != denominator:
        raise DistributionError(
            f"probabilities for {pair} sum to {Fraction(total, denominator)}, not 1"
        )
    if unknown is not None:
        raise ModelError(f"transition {pair} targets unknown state {unknown!r}")
    return cleaned


def validate_model(
    *,
    states: Iterable[State] | None = None,
    actions: Iterable[Action] | None = None,
    transitions: Mapping | None = None,
    rewards: Mapping | None = None,
    discount=None,
) -> EnvironmentModel:
    """Validate a model description and return an immutable model.

    Every model has the nothing-action ``NOTHING`` as a zero-reward self-loop
    at every state, so every state has an available action: it is completed
    where a state omits it, and a supplied nothing row must already be that
    self-loop. The rewards are then installed by
    :meth:`EnvironmentModel.with_rewards`, so a pair without a listed reward
    gets 0. The model copies the caller's rows and rewards, never aliasing
    them, and does not reorder the rows: the completed nothing rows come last.
    """
    if states is None or actions is None or transitions is None or discount is None:
        raise ModelError("states, actions, transitions and discount are all required")

    known_states = dict.fromkeys(states)
    if not known_states:
        raise ModelError("a model needs at least one state")
    known_actions = dict.fromkeys([*actions, NOTHING])

    gamma = as_rational(discount)
    if not ZERO < gamma < ONE:
        raise DiscountError(f"discount must satisfy 0 < gamma < 1, got {gamma}")

    # Rows keep the caller's pair tuples and order; StructureIndex orders pairs.
    table: dict[tuple[State, Action], dict[State, Rational]] = {}
    handed = type(transitions) is _Handed  # rows to keep; any other is copied
    for pair, row in transitions.items():
        q, a = pair
        if q not in known_states:
            raise ModelError(f"transition references unknown state {q!r}")
        if a not in known_actions:
            raise ModelError(f"transition references unknown action {a!r}")
        if type(pair) is not tuple:
            pair = (q, a)
        checked = _check_distribution(pair, row, known_states)
        table[pair] = dict(row) if checked is row and not handed else checked

    for q in known_states:
        if table.setdefault((q, NOTHING), row := {q: ONE}) != row:
            raise NothingActionConflict(
                f"nothing-action at {q!r} must be a self-loop with probability 1"
            )

    structure = EnvironmentModel(
        tuple(known_states), tuple(known_actions), table, {}, gamma
    )
    return structure.with_rewards(rewards or {})


@dataclass(frozen=True)
class Strategy:
    """A deterministic stationary strategy: one chosen action per state."""

    assignments: tuple[tuple[State, Action], ...]

    @classmethod
    def from_mapping(
        cls, choice: Mapping[State, Action], model: EnvironmentModel
    ) -> Strategy:
        """Build and validate a strategy for ``model`` (totality, definedness)."""
        missing = [q for q in model.states if q not in choice]
        if missing:
            raise StrategyError(f"strategy chooses nothing at states {missing}")
        extra = set(choice) - set(model.states)
        if extra:
            raise StrategyError(f"strategy mentions unknown states {sorted(extra)}")
        for q in model.states:
            if (q, choice[q]) not in model.transitions:
                raise StrategyError(
                    f"action {choice[q]!r} is not available at state {q!r}"
                )
        return cls(tuple((q, choice[q]) for q in model.states))

    def __getitem__(self, state: State) -> Action:
        for q, a in self.assignments:
            if q == state:
                return a
        raise KeyError(state)

    def as_dict(self) -> dict[State, Action]:
        return dict(self.assignments)


@dataclass(frozen=True, slots=True)
class Behavior:
    """A finite logged prefix b = [q0, a1, q1, ..., an, qn] of an execution,
    as that token tuple. ``_checked`` is the structure index that
    ``validate_behavior``, its only writer, last passed it on, or None;
    equality and hashing ignore it."""

    tokens: tuple[str, ...]
    _checked: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, tuple) or len(self.tokens) % 2 == 0:
            raise BehaviorError(
                "a behavior is an odd-length alternation starting and ending with a state"
            )

    @property
    def start(self) -> State:
        return self.tokens[0]

    def pairs(self) -> list[tuple[State, Action]]:
        """The observed (q_i, a_{i+1}) pairs, in order: the tokens two at a time."""
        tokens = iter(self.tokens)
        return list(zip(tokens, tokens))


def observed_choices(behavior: Behavior) -> dict[State, Action]:
    """Per-state action constraints a behavior imposes on stationary strategies.

    A strategy could have produced the behavior iff it agrees with every entry.
    Raises InconsistentBehavior when the same state was observed with two
    different actions: then no stationary strategy fits and the consistent set
    is empty.
    """
    constraints: dict[State, Action] = {}
    tokens = iter(behavior.tokens)
    for state, action in zip(tokens, tokens):
        if state in constraints and constraints[state] != action:
            raise InconsistentBehavior(state, constraints[state], action)
        constraints[state] = action
    return constraints


def validate_behavior(model: EnvironmentModel, behavior: Behavior) -> None:
    """Check a behavior against a model.

    Every token of the tuple must be in the model's vocabulary, every step
    q --a--> t must use a defined pair (q, a), and every transition taken
    must have nonzero probability: a logged behavior comes from a contingency.
    A behavior that passes is marked with the model's structure index, so an
    audit on that structure does not check it again; a failure leaves the
    mark as it was.
    """
    index, transitions = model._index, model.transitions
    tokens = behavior.tokens
    q = tokens[0]
    if q not in index.position:
        raise BehaviorError(f"unknown state {q!r} in behavior")
    for action, target in zip(tokens[1::2], tokens[2::2]):
        if action not in index.action_position:
            raise BehaviorError(f"unknown action {action!r} in behavior")
        if target not in index.position:
            raise BehaviorError(f"unknown state {target!r} in behavior")
        if (row := transitions.get((q, action))) is None:
            raise BehaviorError(f"action {action!r} is not available at state {q!r}")
        if target not in row:  # a validated row holds only nonzero entries
            raise BehaviorError(
                f"transition {q!r} --{action}--> {target!r} has probability 0"
            )
        q = target
    object.__setattr__(behavior, "_checked", index)
