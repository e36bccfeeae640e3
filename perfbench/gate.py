"""Output-correctness gate: every check here is untimed.

Exact answers are re-derived from the generated documents with benchmark
code only. The V* printed by ``solve`` is accepted when it satisfies the
Bellman optimality equation with a residual of exactly 0, recomputed here in
Fractions; Bellman optimality has one fixed point, so that proves it is V*.
From V* the expected audit outcome of each log follows from the definitions:
a useless step (Q* <= 0) first, then two actions at one state, then an
observed action outside the greedy set (some optimal strategy agrees with the
log iff every observed action is greedy). Check and triage verdicts are lifted
from those outcomes.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from workloads import ACTIONS, GAMMA, NOTHING, Family

EXACT_PREFIX = "V*("
TIE_WINDOW = Fraction(1, 10_000)
REASONS = (
    "StepOneUseless",
    "ValueGapAtAllStates",
    "WitnessStateEqualValue",
    "InconsistentBehavior",
)


class GateError(Exception):
    """Output too malformed to check further."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Optimum:
    """Verified exact V*, Q* and greedy sets of one purpose."""

    def __init__(self, family: Family, purpose: str, solve_stdout: str):
        self.problems: list[str] = []
        self.v: dict[str, Fraction] = {}
        printed_greedy = {}
        for line in solve_stdout.splitlines():
            head, _, greedy = line.partition("  greedy=")
            name, _, value = head.partition(") = ")
            try:
                if not name.startswith(EXACT_PREFIX):
                    raise ValueError(name)
                self.v[name[len(EXACT_PREFIX):]] = Fraction(value)
            except ValueError:
                raise GateError(f"unparsable solve line {line!r}") from None
            printed_greedy[name[len(EXACT_PREFIX):]] = tuple(greedy.split(","))
        if list(self.v) != family.states:
            raise GateError("solve did not print one value per state, in order")
        self.q = {
            (q, a): family.reward(purpose, q, a)
            + GAMMA * sum(p * self.v[t] for t, p in family.successors(q, a))
            for q in family.states
            for a in family.actions_at(q)
        }
        residual = max(
            abs(self.v[q] - max(self.q[(q, a)] for a in family.actions_at(q)))
            for q in family.states
        )
        if residual != 0:
            self.problems.append(f"Bellman residual of printed V* is {residual}, not 0")
        for q in family.states:
            greedy = tuple(a for a in family.actions_at(q) if self.q[(q, a)] == self.v[q])
            if sorted(greedy) != sorted(printed_greedy[q]):
                self.problems.append(f"greedy set at {q} is {greedy}, printed {printed_greedy[q]}")
        top = max((abs(r) for r in family.rewards[purpose].values()), default=0)
        self.scale = max(Fraction(1), Fraction(top) / (1 - GAMMA))

    def expected_audit(self, tokens: list[str]) -> tuple[bool, str, str | None]:
        """(empty, reason, witness) as the audit definition gives them; the
        witness is None where the definition leaves it to the solver."""
        pairs = [(tokens[i], tokens[i + 1]) for i in range(0, len(tokens) - 1, 2)]
        for q, a in pairs:
            if a != NOTHING and self.q[(q, a)] <= 0:
                return True, "StepOneUseless", f"{q}:{a}"
        seen: dict[str, str] = {}
        for q, a in pairs:
            if seen.setdefault(q, a) != a:
                return True, "InconsistentBehavior", f"{q}:{a}"
        if any(self.q[(q, a)] != self.v[q] for q, a in pairs):
            return True, "ValueGapAtAllStates", None
        return False, "WitnessStateEqualValue", tokens[0]

    def near_tie(self, tokens: list[str]) -> bool:
        """Whether float tolerance may legitimately flip this log's verdict."""
        window = TIE_WINDOW * self.scale
        for i in range(0, len(tokens) - 1, 2):
            q, a = tokens[i], tokens[i + 1]
            gaps = [self.v[q] - self.q[(q, a)]]
            if a != NOTHING:
                gaps.append(self.q[(q, a)])
            if any(gap != 0 and abs(gap) <= window for gap in gaps):
                return True
        return False


def parse_audit_line(line: str) -> tuple[bool, str, str]:
    fields = dict(part.split("=", 1) for part in line.split()[1:] if "=" in part)
    return fields.get("empty") == "true", fields.get("reason", ""), fields.get("witness", "")


def check_audit(optimum: Optimum, family: Family, stdout: str, mode: str) -> list[str]:
    """Exact lines must match the re-derivation. Float mode is advisory by the
    program's contract, so its lines are only checked for form here (and by
    digest at the default seed); ``float_disagreements`` counts the rest."""
    lines = stdout.splitlines()
    if len(lines) != len(family.logs):
        return [f"audit printed {len(lines)} lines for {len(family.logs)} logs"]
    problems = []
    for i, (tokens, line) in enumerate(zip(family.logs, lines), start=1):
        empty, reason, witness = parse_audit_line(line)
        if not line.startswith(f"b{i} ") or reason not in REASONS:
            problems.append(f"line {i} is {line!r}")
        elif (mode == "float") != line.endswith(" (advisory)"):
            problems.append(f"b{i}: advisory label wrong for {mode} mode")
        elif mode == "exact":
            want_empty, want_reason, want_witness = optimum.expected_audit(tokens)
            if (empty, reason) != (want_empty, want_reason):
                problems.append(
                    f"b{i}: got empty={empty} {reason}, want empty={want_empty} {want_reason}"
                )
            elif want_witness is not None and witness != want_witness:
                problems.append(f"b{i}: witness {witness}, want {want_witness}")
    return problems


def float_disagreements(optimum: Optimum, family: Family, stdout: str) -> int:
    """Float verdicts whose emptiness differs from the exact one, not counting
    logs within float tolerance of a tie."""
    return sum(
        1
        for tokens, line in zip(family.logs, stdout.splitlines())
        if not optimum.near_tie(tokens)
        and parse_audit_line(line)[0] != optimum.expected_audit(tokens)[0]
    )


def lifted_verdicts(argv: list[str], family: Family, optima: dict[str, Optimum]) -> list[str]:
    """Expected check/triage words per log, from the per-purpose outcomes."""
    empty = {
        p: [opt.expected_audit(tokens)[0] for tokens in family.logs]
        for p, opt in optima.items()
    }
    words = []
    for i in range(len(family.logs)):
        if argv[0] == "triage":
            prohibited = argv[argv.index("--prohibited") + 1]
            allowed = argv[argv.index("--allowed") + 1].split(",")
            fits = not empty[prohibited][i] and all(empty[p][i] for p in allowed)
            words.append("INVESTIGATE" if fits else "SKIP")
        else:
            kind, _, names = argv[argv.index("--rule") + 1].partition(":")
            all_empty = all(empty[p][i] for p in names.split(","))
            hit = "VIOLATION" if kind == "only-for" else "COMPLIANT"
            words.append(hit if all_empty else "INCONCLUSIVE")
    return words


def check_lift(argv: list[str], family: Family, optima, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    want = lifted_verdicts(argv, family, optima)
    if len(lines) != len(want):
        return [f"{argv[0]} printed {len(lines)} lines for {len(want)} logs"]
    return [
        f"b{i}: {line!r}, want {word}"
        for i, (line, word) in enumerate(zip(lines, want), start=1)
        if line.split()[:2] != [f"b{i}", word]
    ]


def validate_line(family: Family) -> str:
    return (
        f"ok: purposes={','.join(family.rewards)} states={len(family.states)} "
        f"actions={len(ACTIONS) + 1} gamma={GAMMA}\n"
    )


def check_command(argv, family, optima, stdout) -> list[str]:
    """Problems with one command's stdout; ``optima`` maps purpose -> Optimum."""
    command = argv[0]
    if command == "validate":
        want = validate_line(family)
        return [] if stdout == want else [f"validate printed {stdout!r}, want {want!r}"]
    if command == "solve":
        return optima[argv[argv.index("--purpose") + 1]].problems
    if command == "audit":
        purpose = argv[argv.index("--purpose") + 1]
        mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "exact"
        return check_audit(optima[purpose], family, stdout, mode)
    return check_lift(argv, family, optima, stdout)
