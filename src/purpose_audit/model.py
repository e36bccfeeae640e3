"""Environment models, strategies and logged behaviors.

An environment model is a finite discounted MDP with a distinguished
nothing-action: a zero-reward self-loop available at every state, so that an
agent can always stop acting. Actions other than the nothing-action may be
available at only some states. All probabilities, rewards and the discount
factor are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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

#: Default name of the distinguished do-nothing action.
NOTHING = "N"

ONE = Fraction(1)
ZERO = Fraction(0)


#: Most digits a numeric literal may carry.
MAX_LITERAL_DIGITS = 300
#: Largest decimal exponent magnitude a numeric literal may carry: "1e300".
MAX_LITERAL_EXPONENT = 300
# A literal this short without an exponent cannot exceed the bounds.
_SHORT_LITERAL = 32


def _check_literal_size(text: str) -> None:
    """Reject literals whose exact value would be huge before building it:
    ``Fraction("1e10000000")`` alone takes seconds."""
    mantissa, _, exponent = text.lower().partition("e")
    if sum(ch.isdecimal() for ch in mantissa) > MAX_LITERAL_DIGITS:
        raise ValueError(f"numeric literal has more than {MAX_LITERAL_DIGITS} digits")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if exponent.isdecimal() and (
        len(exponent) > len(str(MAX_LITERAL_EXPONENT))
        or int(exponent) > MAX_LITERAL_EXPONENT
    ):
        raise ValueError(
            f"numeric literal has an exponent beyond {MAX_LITERAL_EXPONENT}"
        )


def as_rational(value) -> Fraction:
    """Convert a number to an exact Fraction.

    Strings may be "a/b" or terminating decimals, with at most
    MAX_LITERAL_DIGITS digits and a decimal exponent of at most
    MAX_LITERAL_EXPONENT in magnitude; floats are read through their decimal
    repr so that 0.9 means 9/10, not the nearest binary double.
    """
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as a rational number")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        if len(value) > _SHORT_LITERAL or "e" in value or "E" in value:
            _check_literal_size(value)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {value!r}") from exc
    raise TypeError(f"cannot interpret {value!r} as a rational number")


class StructureIndex:
    """Integer-indexed view of one model structure, built on first use.

    Holds a state -> position map, the available actions of each state, per
    defined pair its successors as (position, float(gamma) * float(p)) and as
    exact (position, gamma * p), and the predecessors of each state. Pairs
    are numbered in state order, then action order, as
    :meth:`EnvironmentModel.pairs` yields them; a reward vector is a sequence
    indexed by that number. Every model made from the same validated
    structure (each purpose of a document, each ``with_rewards`` result)
    holds the same index, so these lists are built once per structure.
    """

    def __init__(self, states, actions, transitions, discount):
        self.states = states
        self.actions = actions
        self.transitions = transitions
        self.discount = discount

    def built_from(self, model: EnvironmentModel) -> bool:
        """Whether this index describes ``model``'s structure objects."""
        return (
            model.states is self.states
            and model.actions is self.actions
            and model.transitions is self.transitions
            and model.discount is self.discount
        )

    @cached_property
    def position(self) -> dict[State, int]:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def available(self) -> tuple[tuple[Action, ...], ...]:
        """Available actions per state position, in action order."""
        transitions = self.transitions
        return tuple(
            tuple(a for a in self.actions if (q, a) in transitions)
            for q in self.states
        )

    @cached_property
    def pairs(self) -> tuple[tuple[State, Action], ...]:
        """Defined pairs in pair-number order."""
        return tuple(
            (q, a) for q, actions in zip(self.states, self.available) for a in actions
        )

    @cached_property
    def number(self) -> dict[tuple[State, Action], int]:
        """Pair -> pair number."""
        return {pair: k for k, pair in enumerate(self.pairs)}

    @cached_property
    def exact(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Per pair number, its successors as (position, gamma * p), in table order."""
        return tuple(
            tuple((self.position[t], self.discount * p) for t, p in row.items())
            for row in map(self.transitions.__getitem__, self.pairs)
        )

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, tuple[tuple[int, float], ...]], ...], ...]:
        """Per state position, one (pair number, successor list) per
        available action, in action order; successors keep the order of the
        transition table."""
        gamma, position = float(self.discount), self.position
        return tuple(
            tuple(
                (self.number[(q, a)], tuple(
                    (position[t], gamma * float(p))
                    for t, p in self.transitions[(q, a)].items()
                ))
                for a in actions
            )
            for q, actions in zip(self.states, self.available)
        )

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Per state position, the positions with some action leading there."""
        sources: list[set[int]] = [set() for _ in self.available]
        for i, row in enumerate(self.rows):
            for _, successors in row:
                for j, _ in successors:
                    sources[j].add(i)
        return tuple(tuple(sorted(s)) for s in sources)


@dataclass(frozen=True)
class EnvironmentModel:
    """A validated model: states, actions, transitions, rewards, discount.

    ``transitions`` maps each defined (state, action) pair to a distribution
    over successor states; ``rewards`` is defined on exactly the same pairs.
    Instances are immutable; construct them through :func:`validate_model`.
    ``_index`` is the structure's :class:`StructureIndex`, carried over by
    ``with_rewards`` and ``dataclasses.replace`` and rebuilt when the
    structure objects differ; it takes no part in ``==`` or ``repr``.
    """

    states: tuple[State, ...]
    actions: tuple[Action, ...]
    transitions: Mapping[tuple[State, Action], Mapping[State, Rational]]
    rewards: Mapping[tuple[State, Action], Rational]
    discount: Rational
    nothing_action: Action = NOTHING
    _index: StructureIndex | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self._index is None or not self._index.built_from(self):
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

    def reward(self, state: State, action: Action) -> Rational:
        return self.rewards[(state, action)]

    def pairs(self) -> Iterator[tuple[State, Action]]:
        """Defined (state, action) pairs in deterministic state/action order."""
        return iter(self._index.pairs)

    def with_rewards(
        self, rewards: Mapping[tuple[State, Action], Rational]
    ) -> EnvironmentModel:
        """Same transition structure with a different reward table."""
        if set(rewards) != set(self.transitions):
            raise DomainMismatch(
                "replacement rewards must cover exactly the transition domain"
            )
        table = {pair: as_rational(rewards[pair]) for pair in self.transitions}
        return EnvironmentModel(
            states=self.states,
            actions=self.actions,
            transitions=self.transitions,
            rewards=table,
            discount=self.discount,
            nothing_action=self.nothing_action,
            _index=self._index,
        )

    def max_reward_magnitude(self) -> Rational:
        """Largest |r(q, a)| over the defined pairs."""
        return self._max_reward_magnitude

    @cached_property
    def _max_reward_magnitude(self) -> Rational:
        return max((abs(r) for r in self.rewards.values()), default=ZERO)

    @cached_property
    def _exact_rewards(self) -> tuple[Rational, ...]:
        """r per defined pair, in pair order: the reward vector of exact backups."""
        return tuple(map(self.rewards.__getitem__, self._index.pairs))

    @cached_property
    def _float_rewards(self) -> tuple[float, ...]:
        """float(r) per defined pair, in pair order: the reward vector float
        value iteration runs on."""
        return tuple(map(float, self._exact_rewards))


def _check_distribution(pair, distribution) -> dict[State, Rational]:
    cleaned: dict[State, Rational] = {}
    total = ZERO
    for target, probability in distribution.items():
        p = as_rational(probability)
        if p < 0:
            raise DistributionError(
                f"negative probability {p} for {pair} -> {target!r}"
            )
        if p > 0:
            cleaned[target] = p
        total += p
    if total != 1:
        raise DistributionError(f"probabilities for {pair} sum to {total}, not 1")
    return cleaned


def validate_model(
    *,
    states: Iterable[State] | None = None,
    actions: Iterable[Action] | None = None,
    transitions: Mapping | None = None,
    rewards: Mapping | None = None,
    discount=None,
    nothing_action: Action = NOTHING,
    complete_missing_actions: bool = False,
    fill_missing_rewards: bool = False,
    nothing_states: Iterable[State] | None = None,
) -> EnvironmentModel:
    """Validate a model description and return an immutable model.

    The nothing-action is auto-completed (zero-reward self-loop) at any state
    that omits it; a user-supplied nothing row must already be a self-loop,
    and a nothing-action reward must be zero whether its row was supplied or
    completed. ``complete_missing_actions`` additionally adds zero-reward
    self-loops for every other action missing at a state, matching diagrams
    that leave such loops implicit. ``fill_missing_rewards`` defaults omitted
    rewards on defined pairs to zero instead of raising DomainMismatch.

    ``nothing_states`` is a documented extension, off by default: when given,
    the nothing-action is only auto-completed at those states, so stopping is
    not available everywhere; ``complete_missing_actions`` does not add it
    elsewhere either. Every state must still end up with at least one action.
    """
    if states is None or actions is None or transitions is None or discount is None:
        raise ModelError("states, actions, transitions and discount are all required")

    state_list = tuple(dict.fromkeys(states))
    if not state_list:
        raise ModelError("a model needs at least one state")
    action_list = list(dict.fromkeys(actions))
    if nothing_action not in action_list:
        action_list.append(nothing_action)
    action_tuple = tuple(action_list)
    state_set = set(state_list)

    gamma = as_rational(discount)
    if not ZERO < gamma < ONE:
        raise DiscountError(f"discount must satisfy 0 < gamma < 1, got {gamma}")

    transition_table: dict[tuple[State, Action], dict[State, Rational]] = {}
    for (q, a), distribution in transitions.items():
        if q not in state_set:
            raise ModelError(f"transition references unknown state {q!r}")
        if a not in action_tuple:
            raise ModelError(f"transition references unknown action {a!r}")
        cleaned = _check_distribution((q, a), distribution)
        for target in cleaned:
            if target not in state_set:
                raise ModelError(
                    f"transition {(q, a)} targets unknown state {target!r}"
                )
        transition_table[(q, a)] = cleaned

    # The nothing-action is owned by the model: verify supplied rows, then
    # complete the missing ones.
    allowed_nothing = state_set if nothing_states is None else set(nothing_states)
    for q in state_list:
        key = (q, nothing_action)
        if key in transition_table:
            if transition_table[key] != {q: ONE}:
                raise NothingActionConflict(
                    f"nothing-action at {q!r} must be a self-loop with probability 1"
                )
        elif q in allowed_nothing:
            transition_table[key] = {q: ONE}

    reward_table = dict(rewards or {})
    if complete_missing_actions:
        for q in state_list:
            for a in action_tuple:
                if a == nothing_action and q not in allowed_nothing:
                    continue
                if (q, a) not in transition_table:
                    transition_table[(q, a)] = {q: ONE}
                    reward_table.setdefault((q, a), ZERO)

    ordered_transitions: dict[tuple[State, Action], Mapping[State, Rational]] = {}
    for q in state_list:
        if not any((q, a) in transition_table for a in action_tuple):
            raise ModelError(f"state {q!r} has no available actions")
        for a in action_tuple:
            if (q, a) in transition_table:
                ordered_transitions[(q, a)] = transition_table[(q, a)]

    structure = EnvironmentModel(
        states=state_list,
        actions=action_tuple,
        transitions=ordered_transitions,
        rewards={},
        discount=gamma,
        nothing_action=nothing_action,
    )
    return replace(
        structure,
        rewards=_reward_table(
            structure, reward_table, fill_missing=fill_missing_rewards
        ),
    )


def _reward_table(
    structure: EnvironmentModel, rewards: Mapping, *, fill_missing: bool
) -> dict[tuple[State, Action], Rational]:
    """Check a raw reward table against a validated structure.

    Every reward must sit on a defined pair and every nothing-action reward
    must be zero, whether the caller declared that row or the validator
    added it. A missing nothing-action reward is zero; other missing rewards
    are zero when ``fill_missing`` is set, else a DomainMismatch. The result
    is ordered like ``structure.pairs()``; the structure's own ``rewards``
    are not read.
    """
    table = {pair: as_rational(r) for pair, r in rewards.items()}
    transitions = structure.transitions
    for q in structure.states:
        key = (q, structure.nothing_action)
        if table.get(key, ZERO) != 0 and key in transitions:
            raise NothingActionConflict(f"nothing-action at {q!r} must have reward 0")
    for pair in table:
        if pair not in transitions:
            raise DomainMismatch(f"reward defined for {pair} but no transition is")
    ordered: dict[tuple[State, Action], Rational] = {}
    for pair in transitions:
        reward = table.get(pair)
        if reward is None:
            if not fill_missing and pair[1] != structure.nothing_action:
                raise DomainMismatch(f"transition defined for {pair} but no reward is")
            reward = ZERO
        ordered[pair] = reward
    return ordered


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

    def replace(self, state: State, action: Action) -> Strategy:
        """Copy of this strategy with one choice swapped."""
        return Strategy(
            tuple((q, action if q == state else a) for q, a in self.assignments)
        )


def validate_strategy(model: EnvironmentModel, strategy: Strategy) -> None:
    """Raise StrategyError unless ``strategy`` is total and defined for ``model``."""
    Strategy.from_mapping(strategy.as_dict(), model)


@dataclass(frozen=True)
class Behavior:
    """A finite logged prefix [q0, a1, q1, ..., an, qn] of an execution."""

    start: State
    steps: tuple[tuple[Action, State], ...] = ()

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> Behavior:
        items = list(tokens)
        if not items or len(items) % 2 == 0:
            raise BehaviorError(
                "a behavior is an odd-length alternation starting and ending with a state"
            )
        steps = tuple(
            (items[i], items[i + 1]) for i in range(1, len(items) - 1, 2)
        )
        return cls(start=items[0], steps=steps)

    def tokens(self) -> list[str]:
        out = [self.start]
        for action, state in self.steps:
            out.append(action)
            out.append(state)
        return out

    def states(self) -> list[State]:
        return [self.start] + [state for _, state in self.steps]

    def actions(self) -> list[Action]:
        return [action for action, _ in self.steps]

    def pairs(self) -> list[tuple[State, Action]]:
        """The observed (q_i, a_{i+1}) pairs, in order."""
        out = []
        q = self.start
        for action, state in self.steps:
            out.append((q, action))
            q = state
        return out

    def __len__(self) -> int:
        return len(self.steps)


def observed_choices(behavior: Behavior) -> dict[State, Action]:
    """Per-state action constraints a behavior imposes on stationary strategies.

    A strategy could have produced the behavior iff it agrees with every entry.
    Raises InconsistentBehavior when the same state was observed with two
    different actions: then no stationary strategy fits and the consistent set
    is empty.
    """
    constraints: dict[State, Action] = {}
    for state, action in behavior.pairs():
        if state in constraints and constraints[state] != action:
            raise InconsistentBehavior(state, constraints[state], action)
        constraints[state] = action
    return constraints


def validate_behavior(model: EnvironmentModel, behavior: Behavior) -> None:
    """Check a behavior against a model.

    Every token must be in the model's vocabulary, every step must use a
    defined (state, action) pair, and every transition taken must have nonzero
    probability; a logged behavior has to be consistent with some contingency.
    """
    state_set = set(model.states)
    if behavior.start not in state_set:
        raise BehaviorError(f"unknown state {behavior.start!r} in behavior")
    q = behavior.start
    for action, target in behavior.steps:
        if action not in model.actions:
            raise BehaviorError(f"unknown action {action!r} in behavior")
        if target not in state_set:
            raise BehaviorError(f"unknown state {target!r} in behavior")
        if (q, action) not in model.transitions:
            raise BehaviorError(f"action {action!r} is not available at state {q!r}")
        if model.successors(q, action).get(target, ZERO) == 0:
            raise BehaviorError(
                f"transition {q!r} --{action}--> {target!r} has probability 0"
            )
        q = target
