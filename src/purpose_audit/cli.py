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
import contextlib
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
from .model import EnvironmentModel
from .modelfile import parse_log, parse_model
from .solve import solve_optimal


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


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


def _print_logs(args, out, behaviors, results, line, fields) -> None:
    """Print each decided log as ``b{i} <line(result)>`` or, with --json, as the
    record ``{**prefix, **fields(result, prefix)}``, prefix {behavior, tokens}."""
    for i, (behavior, result) in enumerate(zip(behaviors, results), start=1):
        if args.json:
            prefix = {"behavior": i, "tokens": behavior.tokens}
            print(json.dumps({**prefix, **fields(result, prefix)}), file=out)
        else:
            print(f"b{i} {line(result)}", file=out)


def _outcome_fields(purpose: str, outcome: AuditOutcome) -> dict:
    return {
        "purpose": purpose,
        "empty_intersection": outcome.empty_intersection,
        "reason": outcome.reason.value,
        "witness_state": outcome.witness_state,
        "witness_action": outcome.witness_action,
        "mode": outcome.mode,
    }


def _outcome_line(outcome: AuditOutcome) -> str:
    witness = outcome.witness_state or ""
    if outcome.witness_action:
        witness += f":{outcome.witness_action}"
    advisory = " (advisory)" if outcome.mode == "float" else ""
    return (
        f"empty={'true' if outcome.empty_intersection else 'false'} "
        f"reason={outcome.reason.value} witness={witness}{advisory}"
    )


def _cmd_validate(args, out) -> int:
    models = parse_model(_read(args.model))
    first = next(iter(models.values()))
    if args.json:
        print(json.dumps({
            "purposes": list(models),
            "states": list(first.states),
            "actions": list(first.actions),
            "gamma": str(first.discount),
        }), file=out)
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
        print(json.dumps({
            "purpose": args.purpose,
            "mode": args.mode,
            "v_star": {q: _value_str(v) for q, v in solution.v_star.items()},
            "greedy": {q: list(actions) for q, actions in solution.greedy.items()},
        }), file=out)
    else:
        for q in model.states:
            value = _value_str(solution.v_star[q])
            greedy = ",".join(solution.greedy[q])
            print(f"V*({q}) = {value}  greedy={greedy}", file=out)
    return 0


def _cmd_audit(args, out) -> int:
    model = _pick(parse_model(_read(args.model)), args.purpose)
    behaviors = parse_log(_read(args.log), model)
    outcomes = [audit(model, b, mode=args.mode) for b in behaviors]
    _print_logs(
        args, out, behaviors, outcomes, _outcome_line,
        lambda outcome, _: _outcome_fields(args.purpose, outcome),
    )
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
    verdicts = [checker(models, rule, b) for b in behaviors]
    _print_logs(
        args, out, behaviors, verdicts,
        lambda verdict: f"{verdict.status.value} rule={args.rule}",
        lambda verdict, prefix: {
            "rule": args.rule,
            "status": verdict.status.value,
            "per_purpose": {
                p: {**prefix, **_outcome_fields(p, outcome)}
                for p, outcome in verdict.per_purpose.items()
            },
        },
    )
    return 0


def _cmd_triage(args, out) -> int:
    allowed_names = [name.strip() for name in args.allowed.split(",") if name.strip()]
    if args.prohibited in allowed_names:
        raise _UsageError(f"--allowed names the prohibited purpose {args.prohibited!r}")
    models = parse_model(_read(args.model))
    prohibited = _pick(models, args.prohibited)
    allowed = [_pick(models, name) for name in allowed_names]
    behaviors = parse_log(_read(args.log), prohibited)
    flags = [triage(prohibited, allowed, b) for b in behaviors]
    _print_logs(
        args, out, behaviors, flags,
        lambda investigate: "INVESTIGATE" if investigate else "SKIP",
        lambda investigate, _: {
            "prohibited": args.prohibited,
            "allowed": allowed_names,
            "investigate": investigate,
        },
    )
    return 0


def _cmd_oracle(args, out) -> int:
    # The reference layer loads only here, never on the engine's paths.
    from .oracle import reference

    model = _pick(parse_model(_read(args.model)), args.purpose)
    behaviors = parse_log(_read(args.log), model)
    ref = reference(model) if behaviors else None
    checks = []
    for b in behaviors:
        engine = audit(model, b).empty_intersection
        oracle = ref.empty(b)
        checks.append({"engine": engine, "oracle": oracle, "agree": engine == oracle})
    _print_logs(
        args, out, behaviors, checks,
        lambda c: "AGREE" if c["agree"] else (
            f"DISAGREE engine={c['engine']} oracle={c['oracle']}"
        ),
        lambda c, _: {"purpose": args.purpose, **c},
    )
    return 0 if all(c["agree"] for c in checks) else 2


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


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="purpose-audit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, log=True, mode=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("model", help="model document")
        if log:
            p.add_argument("log", help="log document, one behavior per line")
        if mode:
            p.add_argument("--mode", choices=("exact", "float"), default="exact")
        p.add_argument("--json", action="store_true", help="machine-readable records")
        return p

    command("validate", _cmd_validate, "parse and validate a model document", log=False)
    p = command(
        "solve", _cmd_solve, "print optimal values for one purpose", log=False, mode=True
    )
    p.add_argument("--purpose", required=True)
    p = command("audit", _cmd_audit, "emptiness decision per behavior", mode=True)
    p.add_argument("--purpose", required=True)
    p = command("check", _cmd_check, "policy verdict per behavior")
    p.add_argument("--rule", required=True, help="only-for:P1,P2 or not-for:P")
    p = command("triage", _cmd_triage, "flag logs worth investigating")
    p.add_argument("--prohibited", required=True)
    p.add_argument("--allowed", default="", help="comma-separated purposes")
    p = command("oracle", _cmd_oracle, "cross-check exact mode by brute force")
    p.add_argument("--purpose", required=True)
    p = sub.add_parser("examples", help="write the bundled example files")
    p.set_defaults(run=_cmd_examples)
    p.add_argument("--emit", required=True, metavar="DIR")
    return parser


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):
            args = _build_parser().parse_args(argv)
        return args.run(args, out)
    except SystemExit:  # only --help exits the parser; its text went to out
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except (PurposeAuditError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
