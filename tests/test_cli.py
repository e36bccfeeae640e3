from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from purpose_audit import (
    ConvergenceError,
    auditing,
    cli,
    parse_model,
    solve_optimal,
)
from purpose_audit import modelfile
from purpose_audit.cli import main
from purpose_audit.fixtures import PHYSICIAN_LOG

# Command line (fixture name, command, options) -> its full stdout on the
# bundled example files.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("examples")
    assert run("examples", "--emit", str(target))[0] == 0
    return target


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestValidate:
    def test_ok(self, example_dir):
        code, out, _ = run("validate", str(example_dir / "physician.model"))
        assert code == 0
        assert "purposes=treat,profit" in out

    def test_parse_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("states: a\n")
        code, out, err = run("validate", str(bad))
        assert code == 1
        assert "error" in err

    def test_missing_file_exit_one(self):
        code, _, err = run("validate", "/nonexistent.model")
        assert code == 1
        assert err


class TestInputFileErrors:
    """An unreadable model, log or output path ends in an error line and exit
    1, with nothing on stdout. A file that is not UTF-8 is named with the
    line of its first bad byte."""

    @pytest.mark.parametrize(
        "case", ["directory model", "non-UTF-8 model", "non-UTF-8 log", "emit onto file"]
    )
    def test_error_exit_one(self, example_dir, tmp_path, case):
        binary = tmp_path / "binary"
        binary.write_bytes(b"states: a\n\xff\n")
        argv = {
            "directory model": ["validate", str(tmp_path)],
            "non-UTF-8 model": ["validate", str(binary)],
            "non-UTF-8 log": [
                "audit", str(example_dir / "physician.model"), str(binary),
                "--purpose", "treat",
            ],
            "emit onto file": ["examples", "--emit", str(binary)],
        }[case]
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        if case.startswith("non-UTF-8"):
            assert f"{binary}, line 2: " in err


class TestGoldenOutput:
    """The whole stdout of validate, solve, audit, check, triage and oracle
    on the physician and travel examples, as text and as --json, is pinned
    byte for byte: solve and audit in exact and float mode, and the other
    commands, which take no --mode, as they are."""

    @pytest.mark.parametrize("command_line", sorted(GOLDEN))
    def test_stdout(self, example_dir, command_line):
        code, out, err = run(*golden_argv(example_dir, command_line))
        assert (code, err) == (0, "")
        assert out == GOLDEN[command_line]


def golden_argv(example_dir, command_line):
    fixture, command, *options = command_line.split()
    kinds = ("model",) if command in ("validate", "solve") else ("model", "log")
    return [command, *(str(example_dir / f"{fixture}.{kind}") for kind in kinds), *options]


def per_purpose(purposes):
    return [["--purpose", p] for p in purposes]


# Option lists that run a log-deciding command once per purpose, or per
# rule, of a document with the given purposes.
VERDICT_OPTIONS = {
    "audit": per_purpose,
    "check": lambda purposes: [
        ["--rule", "only-for:" + ",".join(purposes)],
        *(["--rule", f"not-for:{p}"] for p in purposes),
    ],
    "triage": lambda purposes: [
        ["--prohibited", p, "--allowed", ",".join(q for q in purposes if q != p)]
        for p in purposes
    ],
    "oracle": per_purpose,
}


def float_verdict_commands() -> list[str]:
    """Every subcommand of the parser that decides logs and whose --mode
    accepts float."""
    (subcommands,) = (
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    found = []
    for name, parser in subcommands.choices.items():
        actions = {action.dest: action for action in parser._actions}
        if "log" in actions:
            assert name in VERDICT_OPTIONS
            mode = actions.get("mode")
            if mode is not None and "float" in mode.choices:
                found.append(name)
    return found


class TestFloatVerdictsAreLabelled:
    """Every verdict a command prints in float mode says it is advisory: each
    text line ends in " (advisory)", and each --json record, and each of its
    per_purpose records, carries "mode": "float"."""

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("fixture", ["physician", "travel"])
    @pytest.mark.parametrize("command", float_verdict_commands())
    def test_every_purpose(self, example_dir, command, fixture, as_json):
        model, log = (str(example_dir / f"{fixture}.{kind}") for kind in ("model", "log"))
        purposes = list(parse_model(Path(model).read_text()))
        for options in VERDICT_OPTIONS[command](purposes):
            argv = [command, model, log, *options, "--mode", "float"]
            code, out, err = run(*argv, *(["--json"] if as_json else []))
            assert (code, err) == (0, "")
            assert out, argv
            if not as_json:
                assert all(line.endswith(" (advisory)") for line in out.splitlines()), argv
                continue
            for record in map(json.loads, out.splitlines()):
                nested = record.get("per_purpose", {}).values()
                assert all(r.get("mode") == "float" for r in [record, *nested]), (
                    argv, record,
                )


class TestPolicyVerdictsMatchOracle:
    """check and triage print, for every rule of a bundled example, the
    verdict that the brute-force reference layer's emptiness bits give, as
    ``oracle --json`` reports them per purpose."""

    @pytest.mark.parametrize("fixture", ["physician", "travel"])
    @pytest.mark.parametrize("command", ["check", "triage"])
    def test_every_rule(self, example_dir, command, fixture):
        model, log = (str(example_dir / f"{fixture}.{kind}") for kind in ("model", "log"))
        purposes = list(parse_model(Path(model).read_text()))
        empty = {}
        for p in purposes:
            code, out, _ = run("oracle", model, log, "--purpose", p, "--json")
            assert code == 0
            empty[p] = [json.loads(line)["oracle"] for line in out.splitlines()]
        for options in VERDICT_OPTIONS[command](purposes):
            code, out, err = run(command, model, log, *options, "--json")
            assert (code, err) == (0, "")
            records = [json.loads(line) for line in out.splitlines()]
            assert len(records) == len(empty[purposes[0]])
            for i, record in enumerate(records):
                if command == "triage":
                    want = not empty[record["prohibited"]][i] and all(
                        empty[q][i] for q in record["allowed"]
                    )
                    assert record["investigate"] == want, (options, record)
                    continue
                kind, names = record["rule"].split(":")
                if not all(empty[q][i] for q in names.split(",")):
                    want = "INCONCLUSIVE"
                else:
                    want = "VIOLATION" if kind == "only-for" else "COMPLIANT"
                assert record["status"] == want, (options, record)


class TestDeclarationOrder:
    """The physician document with its transition lines, and each purpose's
    reward lines, declared in another order prints the same bytes on solve
    and audit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_lines(self, example_dir, tmp_path, seed):
        rng = random.Random(seed)
        text = (example_dir / "physician.model").read_text()
        lines = text.splitlines(keepends=True)
        slots, purpose = {}, None
        for i, line in enumerate(lines):
            if line.startswith("purpose:"):
                purpose = line
            kind = line.partition(":")[0]
            if kind in ("transition", "reward"):
                slots.setdefault((kind, purpose), []).append(i)
        for positions in slots.values():
            moved = [lines[i] for i in positions]
            rng.shuffle(moved)
            for i, line in zip(positions, moved):
                lines[i] = line
        permuted = "".join(lines)
        assert permuted != text
        (tmp_path / "physician.model").write_text(permuted)
        (tmp_path / "physician.log").write_text(
            (example_dir / "physician.log").read_text()
        )
        checked = [
            line for line in GOLDEN
            if line.split()[:2] in (["physician", "solve"], ["physician", "audit"])
        ]
        assert len(checked) == 16
        for command_line in checked:
            code, out, err = run(*golden_argv(tmp_path, command_line))
            assert (code, out, err) == (0, GOLDEN[command_line], "")


class TestTextModeBuildsNoRecord:
    """A text line is printed without building the log's --json record, so
    it never serialises one."""

    @pytest.mark.parametrize(
        "command_line",
        sorted(
            line for line in GOLDEN
            if "--json" not in line
            and line.split()[1] in ("audit", "check", "triage", "oracle")
        ),
    )
    def test_stdout(self, example_dir, monkeypatch, command_line):
        def refuse(*args, **kwargs):
            raise AssertionError("a text line built a --json record")

        monkeypatch.setattr(cli.json, "dumps", refuse)
        code, out, err = run(*golden_argv(example_dir, command_line))
        assert (code, out, err) == (0, GOLDEN[command_line], "")


class TestHelp:
    """--help through main() prints to ``out`` and returns 0, like a command;
    nothing reaches the process's own stdout or stderr."""

    @pytest.mark.parametrize(
        "command",
        ["", "validate", "solve", "audit", "check", "triage", "oracle", "examples"],
    )
    def test_help_on_out(self, capsys, command):
        code, out, err = run(*command.split(), "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: purpose-audit {command}".rstrip() + " ")
        assert "show this help message and exit" in out
        assert capsys.readouterr() == ("", "")


class TestModuleEntryPoint:
    """``python -m purpose_audit.cli`` exits with main()'s code and prints
    what main() prints in process."""

    def _run_module(self, *argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.run(
            [sys.executable, "-m", "purpose_audit.cli", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
        )

    def test_audit_matches_main(self, example_dir):
        argv = (
            "audit", str(example_dir / "physician.model"),
            str(example_dir / "physician.log"), "--purpose", "treat",
        )
        result = self._run_module(*argv)
        code, out, _ = run(*argv)
        assert (result.returncode, result.stdout, result.stderr) == (
            0, out.encode(), b""
        )
        assert code == 0

    def test_usage_error_exits_one(self, example_dir):
        result = self._run_module(
            "audit", str(example_dir / "physician.model"),
            str(example_dir / "physician.log"), "--purpose", "nosuch",
        )
        assert result.returncode == 1
        assert result.stderr.startswith(b"usage error:")
        assert result.stdout == b""


class TestRepeatedCalls:
    """main() can be called many times in one process; it builds its parser
    once, and a usage error in one call leaves nothing behind for the next."""

    def test_golden_cases_twice_around_usage_errors(self, example_dir):
        def every_case():
            return {
                line: run(*golden_argv(example_dir, line)) for line in sorted(GOLDEN)
            }

        first = every_case()
        assert first == {line: (0, out, "") for line, out in GOLDEN.items()}
        model, log = (str(example_dir / f"physician.{kind}") for kind in ("model", "log"))
        for argv in (
            ["check", model, log, "--rule", "maybe-for:treat"],
            ["frobnicate", model],
            ["audit", model, log, "--mode", "approximate", "--purpose", "treat"],
            ["audit", model, log],
        ):
            code, out, err = run(*argv)
            assert (code, out) == (1, "")
            assert err.startswith("usage error: ")
        assert every_case() == first
        assert cli._build_parser() is cli._build_parser()


class TestOneSolvePerPurpose:
    """A verdict command solves each purpose its decisions consult once per
    run, however many logs it decides, on the models it parses itself."""

    @pytest.mark.parametrize(
        "command, purposes, mode",
        [
            (("audit", "--purpose", "treat"), 1, "exact"),
            (("audit", "--purpose", "treat"), 1, "float"),
            (("check", "--rule", "only-for:treat,profit"), 2, None),
            (("triage", "--prohibited", "profit", "--allowed", "treat"), 2, None),
        ],
    )
    def test_solves(self, example_dir, monkeypatch, command, purposes, mode):
        solved = []

        def counting(model, mode):
            solved.append((id(model), mode))
            return decide(model, mode)

        decide = auditing._decision_solution
        monkeypatch.setattr(auditing, "_decision_solution", counting)
        name, *options = command
        code, out, _ = run(
            name,
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            *options,
            *(("--mode", mode) if mode else ()),
        )
        assert code == 0
        assert len(out.splitlines()) == 2
        assert len(solved) == len(set(solved)) == purposes
        assert {m for _, m in solved} == {mode or "exact"}


class TestOneValidationPerLog:
    """A verdict command validates each log once, as it parses the log: the
    audits of purposes that share the parsed structure do not check it
    again."""

    @pytest.mark.parametrize(
        "command",
        [
            ("audit", "--purpose", "treat"),
            ("check", "--rule", "only-for:treat,profit"),
            ("check", "--rule", "not-for:profit"),
            ("triage", "--prohibited", "profit", "--allowed", "treat"),
        ],
    )
    def test_validations(self, example_dir, monkeypatch, command):
        calls = []

        def counting(model, behavior):
            calls.append(behavior)
            return validate(model, behavior)

        validate = modelfile.validate_behavior
        monkeypatch.setattr(modelfile, "validate_behavior", counting)
        monkeypatch.setattr(auditing, "validate_behavior", counting)
        name, *options = command
        code, out, _ = run(
            name,
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            *options,
        )
        assert code == 0
        assert len(out.splitlines()) == len(calls) == 2


class TestSolve:
    def test_exact_values(self, example_dir):
        code, out, _ = run(
            "solve", str(example_dir / "physician.model"), "--purpose", "treat"
        )
        assert code == 0
        assert "V*(3) = 12" in out
        assert "V*(1) = 6561/625" in out

    def test_unknown_purpose(self, example_dir):
        code, _, err = run(
            "solve", str(example_dir / "physician.model"), "--purpose", "billing"
        )
        assert code == 1
        assert "unknown purpose" in err


class TestNumbersBeyondFloat:
    """Valid documents whose numbers do not fit a float: exact mode solves
    them, float mode either solves them or exits 1 with a message."""

    DOCUMENT = (
        "gamma: {}\nstates: a b\nactions: go\n"
        "transition: a go -> b 1\ntransition: b go -> a 1\n"
        "purpose: p\nreward: a go = {}\n"
    )
    CASES = {
        # gamma = 1e-591: float(gamma) is 0.0.
        "tiny-gamma": ("0." + "0" * 290 + "1e-300", "1"),
        # float(gamma) is 1.0.
        "gamma-near-one": ("0.99999999999999999999", "1"),
        # 1e320 is beyond the largest float.
        "huge-reward": ("9/10", "99999999999999999999e300"),
    }

    def write(self, tmp_path, case):
        gamma, reward = self.CASES[case]
        path = tmp_path / f"{case}.model"
        path.write_text(self.DOCUMENT.format(gamma, reward))
        return path, Fraction(gamma), Fraction(reward)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exact_mode_solves(self, tmp_path, case):
        path, gamma, reward = self.write(tmp_path, case)
        code, out, err = run("solve", str(path), "--purpose", "p")
        assert (code, err) == (0, "")
        v_a = reward / (1 - gamma**2)
        assert out == f"V*(a) = {v_a}  greedy=go\nV*(b) = {gamma * v_a}  greedy=go\n"

    @pytest.mark.parametrize("case", ["gamma-near-one", "huge-reward"])
    def test_float_mode_refuses(self, tmp_path, case):
        path, _, _ = self.write(tmp_path, case)
        model = parse_model(path.read_text())["p"]
        with pytest.raises(ConvergenceError):
            solve_optimal(model, mode="float")
        code, out, err = run("solve", str(path), "--purpose", "p", "--mode", "float")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "exact mode" in err

    def test_float_mode_rounds_tiny_gamma_to_zero(self, tmp_path):
        path, _, _ = self.write(tmp_path, "tiny-gamma")
        code, out, err = run("solve", str(path), "--purpose", "p", "--mode", "float")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "V*(a) = 1.0  greedy=go"


class TestAudit:
    def test_lines(self, example_dir):
        code, out, _ = run(
            "audit",
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            "--purpose",
            "treat",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("b1 empty=true reason=ValueGapAtAllStates")
        assert lines[1].startswith("b2 empty=false reason=WitnessStateEqualValue")

    def test_json_records(self, example_dir):
        code, out, _ = run(
            "audit",
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            "--purpose",
            "treat",
            "--json",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records[0]["empty_intersection"] is True
        assert records[0]["reason"] == "ValueGapAtAllStates"
        assert records[1]["empty_intersection"] is False
        assert records[1]["purpose"] == "treat"

    def test_deterministic_output(self, example_dir):
        args = (
            "audit",
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            "--purpose",
            "profit",
        )
        assert run(*args) == run(*args)

    @pytest.mark.parametrize(
        "command",
        [("audit", "--purpose", "treat"), ("check", "--rule", "only-for:treat")],
    )
    def test_jobs_is_a_usage_error(self, example_dir, command):
        name, *options = command
        code, out, err = run(
            name,
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            *options,
            "--jobs",
            "4",
        )
        assert code == 1
        assert out == ""
        assert "usage error" in err


class TestCheck:
    def test_only_for_treat(self, example_dir):
        code, out, _ = run(
            "check",
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            "--rule",
            "only-for:treat",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "b1 VIOLATION rule=only-for:treat"
        assert lines[1] == "b2 INCONCLUSIVE rule=only-for:treat"

    def test_not_for_profit(self, example_dir):
        code, out, _ = run(
            "check",
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            "--rule",
            "not-for:profit",
        )
        assert code == 0
        assert all("INCONCLUSIVE" in line for line in out.strip().splitlines())

    def test_bad_rule_syntax(self, example_dir):
        code, _, err = run(
            "check",
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            "--rule",
            "sometimes-for:treat",
        )
        assert code == 1
        assert "rule" in err


class TestTriage:
    def test_flags_unexplained_profit(self, example_dir):
        code, out, _ = run(
            "triage",
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            "--prohibited",
            "profit",
            "--allowed",
            "treat",
        )
        assert code == 0
        assert out.strip().splitlines() == ["b1 INVESTIGATE", "b2 SKIP"]

    def test_allowed_names_are_stripped(self, example_dir):
        # As in a --rule, spaces around a name and empty names are dropped.
        def run_triage(allowed, *options):
            return run(
                "triage",
                str(example_dir / "physician.model"),
                str(example_dir / "physician.log"),
                "--prohibited",
                "profit",
                "--allowed",
                allowed,
                *options,
            )

        assert run_triage(" treat , ") == run_triage("treat") == (
            0, "b1 INVESTIGATE\nb2 SKIP\n", ""
        )
        code, out, err = run_triage(" treat , ", "--json")
        assert (code, err) == (0, "")
        assert [json.loads(line)["allowed"] for line in out.splitlines()] == [
            ["treat"], ["treat"],
        ]

    @pytest.mark.parametrize("allowed", ["profit", "treat, profit", " profit ,"])
    def test_prohibited_among_allowed_is_a_usage_error(self, example_dir, allowed):
        # An allowed purpose that is the prohibited one explains every log
        # that fits it, so such a triage could never flag a log.
        code, out, err = run(
            "triage",
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            "--prohibited",
            "profit",
            "--allowed",
            allowed,
        )
        assert (code, out) == (1, "")
        assert err == "usage error: --allowed names the prohibited purpose 'profit'\n"


class TestOracle:
    def test_agreement_exit_zero(self, example_dir):
        code, out, _ = run(
            "oracle",
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            "--purpose",
            "treat",
        )
        assert code == 0
        assert out.strip().splitlines() == ["b1 AGREE", "b2 AGREE"]

    def test_travel_agreement(self, example_dir):
        for purpose in ("business", "lecture"):
            code, out, _ = run(
                "oracle",
                str(example_dir / "travel.model"),
                str(example_dir / "travel.log"),
                "--purpose",
                purpose,
            )
            assert code == 0
            assert "DISAGREE" not in out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_disagreement_exit_two(self, example_dir, monkeypatch, json_flag):
        from purpose_audit import oracle

        agreeing = oracle.Reference.empty
        monkeypatch.setattr(
            oracle.Reference, "empty", lambda self, b: not agreeing(self, b)
        )
        code, out, err = run(
            *golden_argv(example_dir, "physician oracle --purpose treat"), *json_flag
        )
        assert (code, err) == (2, "")
        records = [
            json.loads(line)
            for line in GOLDEN["physician oracle --purpose treat --json"].splitlines()
        ]
        for record in records:
            record.update(oracle=not record["oracle"], agree=False)
        expected = (
            [json.dumps(record) for record in records]
            if json_flag
            else [
                f"b{r['behavior']} DISAGREE engine={r['engine']} oracle={r['oracle']}"
                for r in records
            ]
        )
        assert out.splitlines() == expected

    def test_over_the_strategy_cap(self, example_dir, monkeypatch):
        from purpose_audit import oracle

        # Each physician purpose has 96 strategies.
        monkeypatch.setattr(oracle, "MAX_STRATEGIES", 5)
        argv = golden_argv(example_dir, "physician oracle --purpose treat")
        code, out, err = run(*argv)
        assert (code, out, err) == (1, "", "error: 96 strategies exceed the cap of 5\n")

    def test_empty_log_evaluates_no_strategy(self, example_dir, tmp_path, monkeypatch):
        from purpose_audit import oracle

        monkeypatch.setattr(oracle, "MAX_STRATEGIES", 5)
        calls = []
        values = oracle.strategy_values
        monkeypatch.setattr(
            oracle, "strategy_values", lambda *args: calls.append(args) or values(*args)
        )
        log = tmp_path / "comments.log"
        log.write_text("# no behavior here\n")
        model = str(example_dir / "physician.model")
        code, out, err = run("oracle", model, str(log), "--purpose", "treat")
        assert (code, out, err, calls) == (0, "", "", [])

    def test_one_reference_per_run(self, example_dir, tmp_path, monkeypatch):
        from purpose_audit import oracle

        calls = []
        build = oracle.reference
        monkeypatch.setattr(
            oracle, "reference", lambda model: calls.append(model) or build(model)
        )
        log = tmp_path / "three.log"
        log.write_text(PHYSICIAN_LOG + "4 send 5 diagnose 6\n")
        model = str(example_dir / "physician.model")
        code, out, _ = run("oracle", model, str(log), "--purpose", "treat")
        assert (code, out) == (0, "b1 AGREE\nb2 AGREE\nb3 AGREE\n")
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize(
        "command",
        [
            ("oracle", "--purpose", "treat"),
            ("check", "--rule", "only-for:treat"),
            ("triage", "--prohibited", "profit", "--allowed", "treat"),
        ],
    )
    def test_mode_is_a_usage_error(self, example_dir, command, mode):
        # The oracle and the policy lift decide exactly only, so they take
        # no --mode, not even --mode exact.
        name, *options = command
        code, out, err = run(
            name,
            str(example_dir / "physician.model"),
            str(example_dir / "physician.log"),
            *options,
            "--mode",
            mode,
        )
        assert code == 1
        assert out == ""
        assert "usage error" in err


class TestExamples:
    def test_emitted_files_are_usable(self, example_dir):
        names = {p.name for p in example_dir.iterdir()}
        assert names == {
            "physician.model", "physician.log", "travel.model", "travel.log",
        }

    def test_emitted_bytes_pinned(self, example_dir):
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in example_dir.iterdir()
        }
        assert digests == {
            "physician.model":
                "7a1d9808c4730407423cbd28e6818fb9418ccc61ae37e100d9c9a5f9902e91cf",
            "physician.log":
                "6e01019921ef86e1d441614088fe238c2851d0219c7fd802ba49ef5498762f93",
            "travel.model":
                "98ebcd6329d3b776eee56789825a1a22c2057d09db6ba41af6b6971b0f3bedfd",
            "travel.log":
                "5bc06cd2fbd4ca3030d1dfb231b1da0d6b8e3854b8e9cc10175ed1e34973edf8",
        }

    def test_usage_error_exit_one(self):
        code, _, err = run("examples")
        assert code == 1
        assert "usage error" in err
