"""Command-line surface for auditors.

Subcommands: validate, solve, audit, check, triage, oracle, examples.
Exit codes: 0 all verdicts printed, 1 usage or input error, 2 internal
invariant failure (the brute-force cross-check disagreed with the engine).
Output is a pure function of the inputs and flags. ``audit``, ``check`` and
``triage`` decide every log before printing, so an error leaves stdout empty;
a purpose is solved on its first decision and at most once per run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .auditing import (
    AuditOutcome,
    PolicyRule,
    RuleKind,
    audit,
    check_prohibitive,
    check_restrictive,
    triage,
)
from .errors import PurposeAuditError
from .fixtures import PHYSICIAN_LOG, PHYSICIAN_MODEL, TRAVEL_LOG, TRAVEL_MODEL
from .model import Behavior, EnvironmentModel
from .modelfile import parse_log, parse_model
from .solve import solve_optimal


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="purpose-audit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, log=True, mode=True):
        p.add_argument("model", help="model document")
        if log:
            p.add_argument("log", help="log document, one behavior per line")
        if mode:
            p.add_argument("--mode", choices=("exact", "float"), default="exact")
        p.add_argument("--json", action="store_true", help="machine-readable records")

    p = sub.add_parser("validate", help="parse and validate a model document")
    p.add_argument("model")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="print optimal values for one purpose")
    add_common(p, log=False)
    p.add_argument("--purpose", required=True)

    p = sub.add_parser("audit", help="emptiness decision per behavior")
    add_common(p)
    p.add_argument("--purpose", required=True)

    p = sub.add_parser("check", help="policy verdict per behavior")
    add_common(p)
    p.add_argument(
        "--rule",
        required=True,
        help="only-for:P1,P2 or not-for:P",
    )

    p = sub.add_parser("triage", help="flag logs worth investigating")
    add_common(p)
    p.add_argument("--prohibited", required=True)
    p.add_argument("--allowed", default="", help="comma-separated purposes")

    p = sub.add_parser("oracle", help="cross-check exact mode by brute force")
    add_common(p, mode=False)
    p.add_argument("--purpose", required=True)

    p = sub.add_parser("examples", help="write the bundled example files")
    p.add_argument("--emit", required=True, metavar="DIR")

    return parser


def _read(path: str) -> str:
    """The text of a UTF-8 input file; a byte that does not decode ends in a
    PurposeAuditError naming the file and the line it is on."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # Lines end as read_text ends them: at \n, \r\n or a lone \r.
        before = exc.object[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise PurposeAuditError(
            f"{path}, line {line}: not UTF-8 ({exc.reason})"
        ) from None


def _pick(models: dict[str, EnvironmentModel], purpose: str) -> EnvironmentModel:
    if purpose not in models:
        raise _UsageError(
            f"unknown purpose {purpose!r}; document declares {', '.join(models)}"
        )
    return models[purpose]


def _parse_rule(text: str) -> PolicyRule:
    kind, _, names = text.partition(":")
    purposes = tuple(name.strip() for name in names.split(",") if name.strip())
    try:
        return PolicyRule(RuleKind(kind.strip()), purposes)
    except ValueError:
        raise _UsageError("rule must be 'only-for:P1,P2' or 'not-for:P'") from None


def _value_str(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _outcome_record(index: int, behavior: Behavior, purpose: str, outcome: AuditOutcome):
    return {
        "behavior": index,
        "tokens": behavior.tokens(),
        "purpose": purpose,
        "empty_intersection": outcome.empty_intersection,
        "reason": outcome.reason.value,
        "witness_state": outcome.witness_state,
        "witness_action": outcome.witness_action,
        "mode": outcome.mode,
    }


def _outcome_line(index: int, outcome: AuditOutcome) -> str:
    witness = outcome.witness_state or ""
    if outcome.witness_action:
        witness += f":{outcome.witness_action}"
    advisory = " (advisory)" if outcome.mode == "float" else ""
    return (
        f"b{index} empty={'true' if outcome.empty_intersection else 'false'} "
        f"reason={outcome.reason.value} witness={witness}{advisory}"
    )


def _cmd_validate(args, out) -> int:
    models = parse_model(_read(args.model))
    first = next(iter(models.values()))
    if args.json:
        record = {
            "purposes": list(models),
            "states": list(first.states),
            "actions": list(first.actions),
            "gamma": str(first.discount),
        }
        print(json.dumps(record), file=out)
    else:
        print(
            f"ok: purposes={','.join(models)} states={len(first.states)} "
            f"actions={len(first.actions)} gamma={first.discount}",
            file=out,
        )
    return 0


def _cmd_solve(args, out) -> int:
    model = _pick(parse_model(_read(args.model)), args.purpose)
    solution = solve_optimal(model, mode=args.mode)
    if args.json:
        record = {
            "purpose": args.purpose,
            "mode": solution.mode,
            "v_star": {q: _value_str(v) for q, v in solution.v_star.items()},
            "greedy": {q: list(actions) for q, actions in solution.greedy.items()},
        }
        print(json.dumps(record), file=out)
    else:
        for q in model.states:
            greedy = ",".join(solution.greedy[q])
            print(
                f"V*({q}) = {_value_str(solution.v_star[q])}  greedy={greedy}",
                file=out,
            )
    return 0


def _cmd_audit(args, out) -> int:
    model = _pick(parse_model(_read(args.model)), args.purpose)
    behaviors = parse_log(_read(args.log), model)
    outcomes = [audit(model, b, mode=args.mode) for b in behaviors]
    for i, (behavior, outcome) in enumerate(zip(behaviors, outcomes), start=1):
        if args.json:
            print(json.dumps(_outcome_record(i, behavior, args.purpose, outcome)), file=out)
        else:
            print(_outcome_line(i, outcome), file=out)
    return 0


def _cmd_check(args, out) -> int:
    rule = _parse_rule(args.rule)
    models = parse_model(_read(args.model))
    for purpose in rule.purposes:
        _pick(models, purpose)
    behaviors = parse_log(_read(args.log), next(iter(models.values())))
    checker = (
        check_restrictive if rule.kind is RuleKind.RESTRICTIVE else check_prohibitive
    )
    verdicts = [checker(models, rule, b, mode=args.mode) for b in behaviors]
    for i, (behavior, verdict) in enumerate(zip(behaviors, verdicts), start=1):
        if args.json:
            record = {
                "behavior": i,
                "tokens": behavior.tokens(),
                "rule": args.rule,
                "status": verdict.status.value,
                "per_purpose": {
                    p: _outcome_record(i, behavior, p, outcome)
                    for p, outcome in verdict.per_purpose.items()
                },
            }
            print(json.dumps(record), file=out)
        else:
            print(f"b{i} {verdict.status.value} rule={args.rule}", file=out)
    return 0


def _cmd_triage(args, out) -> int:
    models = parse_model(_read(args.model))
    prohibited = _pick(models, args.prohibited)
    allowed_names = [name for name in args.allowed.split(",") if name]
    allowed = [_pick(models, name) for name in allowed_names]
    behaviors = parse_log(_read(args.log), prohibited)
    flags = [triage(prohibited, allowed, b, mode=args.mode) for b in behaviors]
    for i, (behavior, investigate) in enumerate(zip(behaviors, flags), start=1):
        if args.json:
            record = {
                "behavior": i,
                "tokens": behavior.tokens(),
                "prohibited": args.prohibited,
                "allowed": allowed_names,
                "investigate": investigate,
            }
            print(json.dumps(record), file=out)
        else:
            print(f"b{i} {'INVESTIGATE' if investigate else 'SKIP'}", file=out)
    return 0


def _cmd_oracle(args, out) -> int:
    # The reference layer loads only here, never on the engine's paths.
    from .oracle import evaluate_all_strategies, oracle_audit

    model = _pick(parse_model(_read(args.model)), args.purpose)
    behaviors = parse_log(_read(args.log), model)
    tables = evaluate_all_strategies(model) if behaviors else None
    disagreements = 0
    for i, behavior in enumerate(behaviors, start=1):
        engine = audit(model, behavior).empty_intersection
        reference = oracle_audit(model, behavior, tables=tables)
        agree = engine == reference
        disagreements += 0 if agree else 1
        if args.json:
            record = {
                "behavior": i,
                "tokens": behavior.tokens(),
                "purpose": args.purpose,
                "engine": engine,
                "oracle": reference,
                "agree": agree,
            }
            print(json.dumps(record), file=out)
        else:
            detail = "" if agree else f" engine={engine} oracle={reference}"
            print(f"b{i} {'AGREE' if agree else 'DISAGREE'}{detail}", file=out)
    return 2 if disagreements else 0


def _cmd_examples(args, out) -> int:
    target = Path(args.emit)
    target.mkdir(parents=True, exist_ok=True)
    files = {
        "physician.model": PHYSICIAN_MODEL,
        "physician.log": PHYSICIAN_LOG,
        "travel.model": TRAVEL_MODEL,
        "travel.log": TRAVEL_LOG,
    }
    for name, content in files.items():
        path = target / name
        path.write_text(content, encoding="utf-8")
        print(str(path), file=out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "audit": _cmd_audit,
    "check": _cmd_check,
    "triage": _cmd_triage,
    "oracle": _cmd_oracle,
    "examples": _cmd_examples,
}


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except (PurposeAuditError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
