from __future__ import annotations

import io
import json

from fractions import Fraction

import pytest

from purpose_audit import ConvergenceError, parse_model, solve_optimal
from purpose_audit.cli import main


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


class TestExamples:
    def test_emitted_files_are_usable(self, example_dir):
        names = {p.name for p in example_dir.iterdir()}
        assert names == {
            "physician.model", "physician.log", "travel.model", "travel.log",
        }

    def test_usage_error_exit_one(self):
        code, _, err = run("examples")
        assert code == 1
        assert "usage error" in err
