"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own code: documents are written as text,
so the inputs depend only on the seed and on this file, never on the program
under test. A workload is one purpose family (a shared transition structure
with one reward table per purpose), one log document, and the CLI commands
run on them.

What the seed draws. Exact solve cost varies by about 20% from one random
family to the next at these sizes, and by about 25% from one log to the next
for a log that needs a solve of its own, far more than the noise of a run.
So in the workloads that solve, the family comes from a fixed per-workload
stream, and so do most of the logs that need a solve (fit and gap logs); the
seed draws the rest of the logs. Where nothing is solved (``ingest``), the
seed draws the whole family.

Logs come in four classes, one per audit reason, with a fixed quota each, so
the amount of solving per command is the same from seed to seed. A candidate
walk's class is predicted from float value iteration here, and walks within
MARGIN of a tie are rejected; the exact outcome comes from the program and is
checked against an exact re-derivation in ``gate.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

NOTHING = "N"
ACTIONS = ("a0", "a1", "a2")
GAMMA = Fraction(9, 10)
MAX_SUPPORT = 3
MAX_DENOMINATOR = 16
ACTION_PRESENCE = 0.85
MAX_LOG_STEPS = 12
REWARD_RANGE = (-25, 12)
# A fixed share of pairs are traps: a reward of -120 outweighs any discounted
# future (at most 12 * gamma / (1 - gamma) = 108), so the pair is useless and
# StepOneUseless logs exist in every family.
TRAP_SHARE = 0.2
TRAP_REWARD = -120
MARGIN = 1e-4
MAX_TRIES = 2000
# Stream the fixed families are drawn from; change it to rerun a comparison
# on other structures (compare both sides on the same value).
FAMILY_SEED = 0
CLASSES = ("equal", "gap", "useless", "inconsistent")


@dataclass(frozen=True)
class Spec:
    """Shape of one workload."""

    name: str
    states: int
    purposes: tuple[str, ...]
    # (purpose, class, from the fixed stream, from the seed) log quotas.
    # Classes as in CLASSES: "equal" fits an optimal strategy, "gap" is
    # consistent but not optimal, "useless" takes a pair with Q* <= 0,
    # "inconsistent" takes two actions at one state.
    quotas: tuple[tuple[str, str, int, int], ...]
    # Whether the seed draws the family too (see the module docstring).
    seeded_family: bool
    # (metric name, argv) per command; "{model}" and "{log}" are filled in.
    commands: tuple[tuple[str, tuple[str, ...]], ...]
    why: str


AUDIT = ("audit", "{model}", "{log}", "--purpose", "p0")
SPECS = {
    "audit-many": Spec(
        name="audit-many",
        states=40,
        purposes=("p0",),
        quotas=(("p0", "equal", 20, 5), ("p0", "gap", 20, 5),
                ("p0", "useless", 0, 25), ("p0", "inconsistent", 0, 25)),
        seeded_family=False,
        commands=(("audit_s", AUDIT), ("audit_float_s", AUDIT + ("--mode", "float"))),
        why="100 logs on one n=40 purpose: each audit solves again, so the "
        "per-behavior decision does almost all the work",
    ),
    "policy-mix": Spec(
        name="policy-mix",
        states=20,
        purposes=("p0", "p1", "p2"),
        quotas=(("p0", "equal", 6, 2), ("p1", "equal", 6, 2), ("p2", "equal", 6, 2),
                ("p0", "gap", 5, 1), ("p2", "gap", 3, 1),
                ("p1", "useless", 0, 3), ("p2", "inconsistent", 0, 3)),
        seeded_family=False,
        commands=(
            ("check_only_s", ("check", "{model}", "{log}", "--rule", "only-for:p0,p1")),
            ("check_not_s", ("check", "{model}", "{log}", "--rule", "not-for:p2")),
            ("triage_s", ("triage", "{model}", "{log}", "--prohibited", "p2",
                          "--allowed", "p0,p1")),
        ),
        why="40 logs, 3 purposes on one n=20 structure: check and triage "
        "re-solve every purpose for every log, isolating the policy lift",
    ),
    "large-model": Spec(
        name="large-model",
        states=120,
        purposes=("p0",),
        quotas=(("p0", "equal", 1, 0), ("p0", "gap", 1, 0),
                ("p0", "useless", 0, 1), ("p0", "inconsistent", 0, 1)),
        seeded_family=False,
        commands=(
            ("solve_s", ("solve", "{model}", "--purpose", "p0")),
            ("audit_s", AUDIT),
            ("audit_float_s", AUDIT + ("--mode", "float")),
        ),
        why="one n=120 purpose and 4 logs: exact Fraction elimination "
        "dominates, with float value iteration on the same input",
    ),
    "ingest": Spec(
        name="ingest",
        states=2000,
        purposes=tuple(f"p{i}" for i in range(8)),
        quotas=(),
        seeded_family=True,
        commands=(("validate_s", ("validate", "{model}")),),
        why="8 purposes, n=2000, about 1.1 MB: only parsing and validation "
        "run, the one workload where modelfile/model do the work",
    ),
}


@dataclass
class Family:
    """A generated purpose family and its logs, kept exactly for the gate."""

    states: list[str]
    # (state, action) -> [(target, probability)], the nothing-action excluded.
    transitions: dict[tuple[str, str], list[tuple[str, Fraction]]]
    # purpose -> (state, action) -> reward.
    rewards: dict[str, dict[tuple[str, str], int]]
    logs: list[list[str]] = field(default_factory=list)
    log_classes: list[tuple[str, str]] = field(default_factory=list)

    def actions_at(self, q: str) -> list[str]:
        return [a for a in ACTIONS if (q, a) in self.transitions] + [NOTHING]

    def reward(self, purpose: str, q: str, a: str) -> int:
        return self.rewards[purpose].get((q, a), 0)

    def successors(self, q: str, a: str) -> list[tuple[str, Fraction]]:
        if a == NOTHING:
            return [(q, Fraction(1))]
        return self.transitions[(q, a)]


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def make_family(rng: random.Random, n: int, purposes) -> Family:
    states = [f"q{i}" for i in range(n)]
    transitions = {}
    for q in states:
        for a in ACTIONS:
            if rng.random() >= ACTION_PRESENCE:
                continue
            support = rng.sample(states, rng.randint(1, min(n, MAX_SUPPORT)))
            denominator = rng.randint(len(support), MAX_DENOMINATOR)
            weights = _composition(rng, denominator, len(support))
            transitions[(q, a)] = [
                (target, Fraction(w, denominator))
                for target, w in zip(support, weights)
            ]
    pairs = list(transitions)
    rewards = {}
    for purpose in purposes:
        traps = set(rng.sample(range(len(pairs)), round(TRAP_SHARE * len(pairs))))
        rewards[purpose] = {
            pair: TRAP_REWARD if i in traps else rng.randint(*REWARD_RANGE)
            for i, pair in enumerate(pairs)
        }
    return Family(states=states, transitions=transitions, rewards=rewards)


def _fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def model_document(family: Family) -> str:
    lines = [
        f"gamma: {_fmt(GAMMA)}",
        "states: " + " ".join(family.states),
        "actions: " + " ".join(ACTIONS),
        "",
    ]
    for (q, a), dist in family.transitions.items():
        targets = ", ".join(f"{t} {_fmt(p)}" for t, p in dist)
        lines.append(f"transition: {q} {a} -> {targets}")
    for purpose, table in family.rewards.items():
        lines.append("")
        lines.append(f"purpose: {purpose}")
        lines.extend(f"reward: {q} {a} = {r}" for (q, a), r in table.items() if r != 0)
    return "\n".join(lines) + "\n"


def log_document(family: Family) -> str:
    return "".join(" ".join(tokens) + "\n" for tokens in family.logs)


def document_paths(directory: Path) -> tuple[Path, Path]:
    return directory / "family.model", directory / "family.log"


def write_documents(family: Family, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    model_path, log_path = document_paths(directory)
    model_path.write_text(model_document(family), encoding="utf-8")
    log_path.write_text(log_document(family), encoding="utf-8")


class FloatValues:
    """Float V* and Q* of one purpose by value iteration, for log steering."""

    def __init__(self, family: Family, purpose: str):
        gamma = float(GAMMA)
        rows = {
            q: [
                (a, float(family.reward(purpose, q, a)),
                 [(t, float(p)) for t, p in family.successors(q, a)])
                for a in family.actions_at(q)
            ]
            for q in family.states
        }
        top = max((abs(r) for r in family.rewards[purpose].values()), default=0)
        self.scale = max(1.0, top / (1 - gamma))

        def backup(values, reward, successors):
            return reward + gamma * sum(p * values[t] for t, p in successors)

        values = dict.fromkeys(family.states, 0.0)
        while True:
            updated = {
                q: max(backup(values, r, succ) for _, r, succ in row)
                for q, row in rows.items()
            }
            gap = max(abs(updated[q] - values[q]) for q in rows)
            values = updated
            if gap <= 1e-13 * self.scale:
                break
        self.v = values
        self.q = {
            (q, a): backup(values, r, succ)
            for q, row in rows.items()
            for a, r, succ in row
        }

    def useless(self, q: str, a: str) -> bool:
        return a != NOTHING and self.q[(q, a)] < -MARGIN * self.scale

    def useful(self, q: str, a: str) -> bool:
        return a == NOTHING or self.q[(q, a)] > MARGIN * self.scale

    def greedy(self, q: str, a: str) -> bool:
        return abs(self.q[(q, a)] - self.v[q]) <= 1e-9 * self.scale

    def clearly_not_greedy(self, q: str, a: str) -> bool:
        return self.q[(q, a)] < self.v[q] - MARGIN * self.scale


def _walk(rng, family, start, choose):
    tokens = [start]
    q = start
    for _ in range(rng.randint(1, MAX_LOG_STEPS)):
        a = choose(q)
        q = rng.choice([t for t, _ in family.successors(q, a)])
        tokens += [a, q]
        if a == NOTHING:
            break
    return tokens


def _classify(values: FloatValues, tokens) -> str | None:
    """Predicted audit class of a log, or None if it sits near a tie."""
    pairs = [(tokens[i], tokens[i + 1]) for i in range(0, len(tokens) - 1, 2)]
    for q, a in pairs:
        if values.useless(q, a):
            return "useless"
        if not values.useful(q, a):
            return None
    seen = {}
    for q, a in pairs:
        if seen.setdefault(q, a) != a:
            return "inconsistent"
    for q, a in pairs:
        if values.clearly_not_greedy(q, a):
            return "gap"
        if not values.greedy(q, a):
            return None
    return "equal"


def _candidate(rng, family: Family, values: FloatValues, kind: str):
    """A walk steered toward one log class: greedy walks for "equal", a
    random useful strategy for "gap", random useful actions at every visit
    for "inconsistent", and a free walk ending in a trap for "useless"."""
    start = rng.choice(family.states)
    if kind == "equal":
        def choose(q):
            greedy = [a for a in family.actions_at(q) if values.greedy(q, a)]
            return NOTHING if NOTHING in greedy else greedy[0]
        return _walk(rng, family, start, choose)
    useful = {
        q: [a for a in family.actions_at(q) if values.useful(q, a)]
        for q in family.states
    }
    if kind == "gap":
        strategy = {q: rng.choice(useful[q]) for q in family.states}
        return _walk(rng, family, start, strategy.get)
    if kind == "inconsistent":
        return _walk(rng, family, start, lambda q: rng.choice(useful[q][:-1] or [NOTHING]))
    tokens = _walk(
        rng, family, start, lambda q: rng.choice(family.actions_at(q)[:-1] or [NOTHING])
    )
    q = tokens[-1]
    traps = [a for a in family.actions_at(q) if values.useless(q, a)]
    if traps:
        a = rng.choice(traps)
        tokens += [a, rng.choice([t for t, _ in family.successors(q, a)])]
    return tokens


def _draw_logs(rng, family: Family, values, quotas, label: str) -> None:
    for purpose, kind, count in quotas:
        found = 0
        for _ in range(MAX_TRIES * count):
            if found == count:
                break
            tokens = _candidate(rng, family, values[purpose], kind)
            if _classify(values[purpose], tokens) == kind:
                family.logs.append(tokens)
                family.log_classes.append((purpose, kind))
                found += 1
        if found < count:
            raise RuntimeError(f"{label}: found only {found} {kind} logs for {purpose}")


def _draw(rng, fixed_rng, states, purposes, quotas, seeded_family, label) -> Family:
    family = make_family(rng if seeded_family else fixed_rng, states, purposes)
    values = {p: FloatValues(family, p) for p in sorted({p for p, *_ in quotas})}
    fixed = [(p, kind, count) for p, kind, count, _ in quotas]
    _draw_logs(fixed_rng, family, values, fixed, f"{label} (fixed stream)")
    seeded = [(p, kind, count) for p, kind, _, count in quotas]
    _draw_logs(rng, family, values, seeded, label)
    # Shuffle so that the log order carries no class pattern.
    order = list(range(len(family.logs)))
    rng.shuffle(order)
    family.logs = [family.logs[i] for i in order]
    family.log_classes = [family.log_classes[i] for i in order]
    return family


def generate(spec: Spec, seed: int) -> Family:
    """The workload's family and logs for ``seed``; deterministic."""
    return _draw(
        random.Random(f"{spec.name}:{seed}"),
        random.Random(f"{spec.name}:family:{FAMILY_SEED}"),
        spec.states, spec.purposes, spec.quotas, spec.seeded_family,
        f"{spec.name} seed {seed}",
    )


def oracle_slice(spec: Spec, seed: int) -> Family:
    """A 4-state family with the workload's purposes and every log class, small
    enough for the brute-force oracle; drawn wholly from the seed."""
    purposes = sorted({p for p, *_ in spec.quotas}) or list(spec.purposes[:1])
    quotas = [(p, kind, 0, 1) for p in purposes for kind in CLASSES]
    # A 4-state family cannot always host every class; move on to the next
    # draw, which keeps the slice a function of the seed.
    for attempt in range(MAX_TRIES):
        rng = random.Random(f"{spec.name}:slice:{seed}:{attempt}")
        try:
            return _draw(rng, rng, 4, spec.purposes, quotas, True, spec.name)
        except RuntimeError:
            continue
    raise RuntimeError(f"no oracle slice for {spec.name} seed {seed}")
