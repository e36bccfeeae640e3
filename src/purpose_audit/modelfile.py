"""Text formats for models and logs.

A model document is line oriented::

    # comment
    gamma: 9/10
    states: 1 2 3 4 5 6
    actions: take send diagnose

    transition: 1 take -> 2 9/10, 4 1/10
    transition: 2 diagnose -> 6 1

    purpose: treat
    reward: 2 diagnose = 12

Probabilities, rewards and gamma are exact rationals in the grammar that
``model.as_rational`` states (README: "Numbers are exact rationals"). Rewards
not listed for a defined transition are zero. The nothing-action rows are
implicit (the validator adds them); a document may still declare them, as
long as they are self-loops. A reward on a nothing-action pair must be zero,
whether its row is declared or implicit. One environment model is produced
per declared purpose, all sharing one validated structure: the states,
actions, gamma and the very same transitions object. The gamma, states and
actions lines each appear once, and no name is listed twice on one line.

The parser holds each fact once: it splits the text into lines 16 KiB at a
time, keeps one string per name, lets a reward line spelled as its transition
line reuse that line's pair tuple, and lets go of the text before validation;
its transition rows and tables of listed rewards become the models' own, with
no zero stored for an unlisted pair. Every number it hands over is a Fraction
within the caps and nothing is given twice: validation converts none of them
again, and checks row sums, targets, nothing rows and the reward domain.

A log document holds one behavior per line: alternating state and action
tokens, starting and ending with a state, as ``Behavior`` itself checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import AlternationError, BehaviorError, ParseError
from .model import (
    Action,
    Behavior,
    EnvironmentModel,
    State,
    _Handed,
    as_rational,
    validate_behavior,
    validate_model,
)

# A reward table stores its listed entries only, but the solvers read one reward
# per shared pair: purposes times pairs may come to at most this many.
MAX_REWARD_ENTRIES = 1_000_000


def _slices(text: str, size: int = 1 << 14) -> Iterator[str]:
    """``text`` in pieces of at least ``size`` characters (16 KiB by default),
    each ending just after a "\\n" or at the end: their ``splitlines()`` make
    ``text.splitlines()``, and a parse holds the lines of one piece at a time."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + size) + 1 or end
        yield text[start:stop]
        start = stop


def _rational(token: str, line_no: int, literals: dict[str, Fraction]) -> Fraction:
    """The value of ``token``, converted once per document: a token that
    fails raises and stays out of ``literals``, so it fails again."""
    value = literals.get(token)
    if value is None:
        try:
            value = literals[token] = as_rational(token)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    return value


# The header lines, each given exactly once, in the order a missing one is reported.
_HEADERS = ("states", "actions", "gamma")


def parse_model(text: str) -> dict[str, EnvironmentModel]:
    """Parse a model document into one validated model per purpose.

    The structure (states, actions, gamma, transitions) is validated once;
    every purpose is that model with its own reward table, so all purposes
    share one ``transitions`` object, and every key, row and name list shares
    one string per name. ``text`` is dropped before the structure is validated.
    """
    literals: dict[str, Fraction] = {}
    headers: dict[str, object] = {}
    # Rows and reward tables are handed to the models, not copied.
    transitions: dict[tuple[State, Action], dict[State, Fraction]] = _Handed()
    # One object per spelling: each name, and each transition's pair tuple,
    # the one key of that pair in every reward table.
    keys: dict = {}
    # Each transition head as written, " q a ", to its pair tuple: a reward
    # line with the same head takes its pair from here, with no split.
    heads: dict[str, tuple[State, Action]] = {}
    purposes: dict[str, dict[tuple[State, Action], Fraction]] = {}
    current: str | None = None
    table: dict[tuple[State, Action], Fraction] | None = None

    line_no = 0
    for piece in _slices(text):
        comments = "#" in piece
        for line_no, line in enumerate(piece.splitlines(), line_no + 1):
            if comments and "#" in line:
                line = line.partition("#")[0]
            directive, colon, rest = line.partition(":")
            if not colon:
                words = line.strip()  # only a line with no ':' can be blank
                if not words:
                    continue
                raise ParseError("expected 'directive: ...'", line_no, line.find(words) + 1)

            # Most lines of a document are rewards, so they are matched first:
            # a directive written exactly "reward" needs no strip.
            if directive == "reward" or (directive := directive.strip()) == "reward":
                if table is None:
                    raise ParseError("reward line before any purpose", line_no)
                head, eq, value = rest.partition("=")
                if not eq:
                    raise ParseError("reward line needs '='", line_no)
                pair = heads.get(head)
                if pair is None:
                    head_tokens = head.split()
                    if len(head_tokens) != 2:
                        raise ParseError(
                            "reward head must be '<state> <action>'", line_no
                        )
                    pair = (head_tokens[0], head_tokens[1])
                    pair = keys.get(pair, pair)
                if pair in table:
                    raise ParseError(
                        f"duplicate reward for {pair} under purpose {current!r}", line_no
                    )
                reward = literals.get(value)  # keyed by the unstripped spelling too
                if reward is None:
                    reward = literals[value] = _rational(value.strip(), line_no, literals)
                table[pair] = reward
            elif directive == "transition":
                head, arrow, targets = rest.partition("->")
                if not arrow:
                    raise ParseError("transition line needs '->'", line_no)
                head_tokens = head.split()
                if len(head_tokens) != 2:
                    raise ParseError(
                        "transition head must be '<state> <action>'", line_no
                    )
                q, a = head_tokens
                q, a = key = (keys.setdefault(q, q), keys.setdefault(a, a))
                if key in transitions:
                    raise ParseError(f"duplicate transition for {q} {a}", line_no)
                distribution: dict[State, Fraction] = {}
                for part in targets.split(","):
                    pair = part.split()
                    if len(pair) != 2:
                        raise ParseError(
                            "each transition target must be '<state> <probability>'",
                            line_no,
                        )
                    target, probability = pair
                    target = keys.setdefault(target, target)
                    if target in distribution:
                        raise ParseError(
                            f"duplicate target {target} in transition", line_no
                        )
                    p = literals.get(probability)
                    if p is None:
                        p = _rational(probability, line_no, literals)
                    distribution[target] = p
                transitions[key] = distribution
                keys[key] = heads[head] = key
            elif directive == "purpose":
                name = rest.strip()
                if not name or len(name.split()) != 1:
                    raise ParseError("purpose line needs exactly one name", line_no)
                if name in purposes:
                    raise ParseError(f"duplicate purpose {name!r}", line_no)
                current, table = name, _Handed()
                purposes[name] = table
            elif directive in _HEADERS:
                if directive in headers:
                    raise ParseError(f"duplicate '{directive}:' line", line_no)
                if directive == "gamma":
                    headers[directive] = _rational(rest.strip(), line_no, literals)
                    continue
                names = [keys.setdefault(name, name) for name in rest.split()]
                if not names:
                    raise ParseError(f"{directive} line lists no {directive}", line_no)
                seen = set()
                for name in names:
                    if name in seen:
                        raise ParseError(f"{directive} line lists {name!r} twice", line_no)
                    seen.add(name)
                headers[directive] = names
            else:
                raise ParseError(f"unknown directive {directive!r}", line_no)

    for directive in _HEADERS:
        if directive not in headers:
            raise ParseError(f"missing '{directive}:' line")
    if not transitions:
        raise ParseError("no transitions declared")
    if not purposes:
        raise ParseError("no purposes declared")

    del keys, heads, text, piece  # read by reward lines only; a caller's text can go
    structure = validate_model(
        states=headers["states"],
        actions=headers["actions"],
        transitions=transitions,
        discount=headers["gamma"],
    )
    entries = len(purposes) * len(structure.transitions)
    if entries > MAX_REWARD_ENTRIES:
        raise ParseError(
            f"{len(purposes)} purposes times {len(structure.transitions)} "
            f"(state, action) pairs make {entries} reward entries, over the cap "
            f"of {MAX_REWARD_ENTRIES}"
        )
    return {name: structure.with_rewards(table) for name, table in purposes.items()}


def parse_log(text: str, model: EnvironmentModel) -> list[Behavior]:
    """Parse a log document and validate each behavior against ``model``.

    Each record becomes a ``Behavior`` of its token tuple. Unknown tokens,
    undefined pairs and zero-probability steps are hard errors: a log outside
    the model's vocabulary cannot be audited. ``validate_behavior`` marks
    each behavior with the structure index it passed on, so the audits of a
    model with that index do not check it again.
    """
    behaviors = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.partition("#")[0].strip()
        if not line:
            continue
        try:
            behavior = Behavior(tuple(line.split()))
        except BehaviorError:  # its one check: an odd-length token tuple
            raise AlternationError(
                "behavior must alternate state, action, ... starting and ending "
                "with a state",
                line_no,
            ) from None
        try:
            validate_behavior(model, behavior)
        except BehaviorError as exc:
            raise ParseError(str(exc), line_no) from exc
        behaviors.append(behavior)
    return behaviors

