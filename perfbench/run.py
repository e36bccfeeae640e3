"""Benchmark of the purpose-audit CLI on seeded workloads.

    python3 perfbench/run.py --workload audit-many --seed 1 --seconds 15 --trace 0

Run it from the repository root. It generates the workload's documents from
the seed (``setup_docs.py``, in fresh interpreters), then calls the real CLI,
``purpose_audit.cli.main``, in this process: one call at a time, round after
round over the workload's commands, for ``--seconds`` and at least
MIN_ROUNDS rounds. Every output is checked (``gate.py``). The last stdout
line is one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``); the lines before it are a
readable report. See README.md for the metrics and workloads.

Times are wall times scaled to reference speed: a short fixed kernel runs
between calls, and each call's wall time is multiplied by REFERENCE_SECONDS
over the kernel's mean time just before and just after the call. On a shared
machine whose speed drifts by tens of percent within a minute this keeps runs
comparable; the report prints raw wall medians alongside.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# Logs of the default-seed family whose outputs have committed digests.
CHECK_LOGS = 8
# The reference kernel's time on one quiet core of an Intel Xeon at 2.1 GHz.
REFERENCE_SECONDS = 0.005
PROBE_INTERVAL = 0.1
VERDICT_COMMANDS = ("audit", "check", "triage")
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def reference_kernel() -> None:
    """Fraction and dict work, the two kinds the program spends its time on."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(1, i % 97 + 1)
    table = {}
    x = 0.5
    for i in range(4000):
        x = x * 0.9 + 0.1
        table[i & 255] = x


class Clock:
    """Times calls and scales each to reference speed.

    The kernel runs once before and once after every call and every
    PROBE_INTERVAL seconds during it, from a SIGALRM handler. A call's
    reference time is its wall time times REFERENCE_SECONDS over the mean
    kernel time of those probes. Probe time inside the call is taken off its
    wall time, unless the call only waits for a child process
    (``in_process=False``), which the probes then run beside.
    """

    def __init__(self):
        self.last_reference = self._reference()
        self.samples: list[tuple[float, float]] = []
        # Wall time of the last call with its probes, for scaling its spans.
        self.last_elapsed = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    @staticmethod
    def _reference() -> float:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append((start, time.perf_counter()))

    def time(self, fn, in_process=True):
        """(result, wall seconds, reference seconds) of ``fn()``."""
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        inside = [b - a for a, b in self.samples if b <= end]
        self.last_elapsed = end - start
        wall = self.last_elapsed - (sum(inside) if in_process else 0.0)
        durations = [self.last_reference, *inside]
        self.last_reference = self._reference()
        durations.append(self.last_reference)
        return result, wall, wall * REFERENCE_SECONDS / statistics.fmean(durations)


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile above the median with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    best = int(100 * (n - 10) / n) if n > 10 else 0
    if best <= 50:
        return None
    return best, statistics.quantiles(samples, n=100)[best - 1]


def call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def command_lines(spec, directory: Path):
    """[(metric, argv)] of one round, in call order."""
    model_path, log_path = workloads.document_paths(directory)
    return [
        (metric, [a.format(model=model_path, log=log_path) for a in argv])
        for metric, argv in spec.commands
    ]


class Results:
    """Samples, first outputs and failures of CLI calls, keyed by name."""

    def __init__(self):
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.first: dict[str, str] = {}
        self.failed: dict[str, int] = {}
        self.problems: list[str] = []
        self.attempted = 0

    def add(self, key, code, stdout, stderr, wall=0.0, scaled=0.0):
        self.attempted += 1
        self.samples.setdefault(key, []).append((wall, scaled))
        first = self.first.setdefault(key, stdout)
        if code != 0 or stdout != first:
            changed = ", stdout changed between calls" if stdout != first else ""
            self.fail(key, [f"exit {code}{changed} {stderr.strip()}"], calls=1)

    def fail(self, key, problems, calls=None):
        """Count ``calls`` calls of ``key`` as failed (default: all of them)."""
        if calls is None:
            self.failed[key] = len(self.samples.get(key, ())) or 1
        else:
            self.failed[key] = self.failed.get(key, 0) + calls
        self.problems.extend(f"{key}: {p}" for p in problems[:5])

    def run(self, cli, key, argv):
        code, stdout, stderr = call_cli(cli, argv)
        self.add(key, code, stdout, stderr)
        return stdout


def setup(spec, seed: int, clock: Clock, directory: Path, results: Results) -> float:
    """Run the set-up step SETUP_REPEATS times; return its median time."""
    times, documents = [], set()
    argv = [sys.executable, str(HERE / "setup_docs.py"), spec.name, str(seed), str(directory)]
    for _ in range(SETUP_REPEATS):
        proc, _, scaled = clock.time(
            lambda: subprocess.run(argv, capture_output=True, text=True, timeout=170),
            in_process=False,
        )
        results.add("setup", proc.returncode, "", proc.stderr)
        times.append(scaled)
        documents.add(b"".join(p.read_bytes() for p in workloads.document_paths(directory)))
    if len(documents) != 1:
        results.fail("setup", ["set-up wrote different documents for one seed"])
    return statistics.median(times)


def run_round(cli, calls, clock, results, recorder=None, scales=None) -> float:
    total = 0.0
    for metric, argv in calls:
        root = len(recorder.spans) if recorder else None
        (code, stdout, stderr), wall, scaled = clock.time(lambda: call_cli(cli, argv))
        results.add(metric, code, stdout, stderr, wall, scaled)
        if recorder is not None:
            # Probes fall evenly in time, so they inflate every span of the
            # call alike; one factor removes them and scales to reference.
            scales[root] = scaled / clock.last_elapsed
            recorder.spans[root].attrs["stdout_bytes"] = len(stdout.encode("utf-8"))
        total += scaled
    return total


def optima_for(label, family, model_path, results, cli, known=None):
    """Verified exact optimum of every purpose the logs are audited against.

    ``known`` maps a purpose to ``solve`` output the workload already printed.
    """
    optima = {}
    for purpose in sorted({p for p, _ in family.log_classes}):
        if known and purpose in known:
            # Problems here are reported with the workload's own solve command.
            optima[purpose] = gate.Optimum(family, purpose, known[purpose])
            continue
        key = f"{label} solve {purpose}"
        stdout = results.run(cli, key, ["solve", str(model_path), "--purpose", purpose])
        optima[purpose] = gate.Optimum(family, purpose, stdout)
        if optima[purpose].problems:
            results.fail(key, optima[purpose].problems)
    return optima


def check_outputs(spec, family, directory, results, cli) -> tuple[int, int]:
    """Check the first output of every timed command against the exact
    re-derivation; return (float verdicts differing from exact, float verdicts)."""
    model_path, _ = workloads.document_paths(directory)
    known = {"p0": results.first["solve_s"]} if "solve_s" in results.first else None
    try:
        optima = optima_for("gate", family, model_path, results, cli, known)
    except gate.GateError as exc:
        for metric, _ in spec.commands:
            results.fail(metric, [str(exc)])
        return 0, 0
    differing = verdicts = 0
    for metric, argv in spec.commands:
        stdout = results.first[metric]
        problems = gate.check_command(list(argv), family, optima, stdout)
        if problems:
            results.fail(metric, problems)
        elif argv[0] == "audit" and "float" in argv:
            differing += gate.float_disagreements(optima["p0"], family, stdout)
            verdicts += len(family.logs)
    return differing, verdicts


def check_document(spec) -> workloads.Family:
    """The default-seed family cut to its first CHECK_LOGS logs."""
    family = workloads.generate(spec, DEFAULT_SEED)
    family.logs = family.logs[:CHECK_LOGS]
    family.log_classes = family.log_classes[:CHECK_LOGS]
    return family


def check_digests(spec, results, cli, committed) -> dict[str, str]:
    """Run every command on the check document and compare the exact stdout
    bytes with the committed digests (``committed`` None: just return them)."""
    directory = WORK / f"check-{spec.name}"
    workloads.write_documents(check_document(spec), directory)
    digests = {}
    for metric, argv in command_lines(spec, directory):
        digests[metric] = gate.digest(results.run(cli, f"digest {metric}", argv))
        if committed is not None and committed.get(metric) != digests[metric]:
            results.fail(f"digest {metric}", ["stdout differs from the committed digest"])
    return digests


def check_oracle_slice(spec, seed, results, cli) -> None:
    """A 4-state family from the same generator, audited by the engine and by
    the brute-force oracle (the ``oracle`` command); the audit must also match
    the exact re-derivation."""
    family = workloads.oracle_slice(spec, seed)
    directory = WORK / f"slice-{spec.name}"
    workloads.write_documents(family, directory)
    model_path, log_path = workloads.document_paths(directory)
    try:
        optima = optima_for("slice", family, model_path, results, cli)
    except gate.GateError as exc:
        results.fail("oracle slice", [str(exc)])
        return
    for purpose, optimum in optima.items():
        tail = [str(model_path), str(log_path), "--purpose", purpose]
        stdout = results.run(cli, f"slice audit {purpose}", ["audit", *tail])
        problems = gate.check_audit(optimum, family, stdout, "exact")
        stdout = results.run(cli, f"slice oracle {purpose}", ["oracle", *tail])
        problems += [line for line in stdout.splitlines() if line.split()[1:] != ["AGREE"]]
        if problems:
            results.fail(f"slice {purpose}", problems)


def load_digests(name: str):
    path = HERE / "digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(name)


def source_digest() -> str:
    files = sorted((ROOT / "src" / "purpose_audit").glob("*.py"))
    return hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()[:16]


def check_counts_repeat(spec, seed, rounds, results) -> None:
    """Counts must repeat exactly between traced rounds and between runs of
    the same program at the same seed."""
    counts = [{m: r[m] for m in tracing.DETERMINISTIC} for r in rounds]
    if any(c != counts[0] for c in counts[1:]):
        results.fail("counts", ["per-layer counts differ between traced rounds"])
    path = WORK / "counts" / f"{spec.name}-{seed}-{source_digest()}.json"
    if path.exists():
        if json.loads(path.read_text(encoding="utf-8")) != counts[0]:
            results.fail("counts", [f"per-layer counts differ from an earlier run ({path})"])
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts[0], sort_keys=True), encoding="utf-8")


def report_commands(spec, results, setup_s, peak_rss_mb) -> float:
    """Print the per-command table; return round_s."""
    print(f"  {'command':<16}{'per call p50':>14}{'raw wall p50':>14}{'tail':>17}{'n':>5}")
    medians = {}
    for metric, _ in spec.commands:
        samples = results.samples[metric]
        scaled = [s for _, s in samples]
        medians[metric] = statistics.median(scaled)
        tail = tail_percentile(scaled)
        print(
            f"  {metric:<16}{medians[metric]:>12.4f} s"
            f"{statistics.median(w for w, _ in samples):>12.4f} s"
            f"{f'p{tail[0]} {tail[1]:.4f} s' if tail else '-':>17}{len(samples):>5}"
        )
    verdict = [m for m, argv in spec.commands if argv[0] in VERDICT_COMMANDS]
    if verdict:
        lines = sum(results.first[m].count("\n") for m in verdict)
        print(f"  verdicts_per_s  {lines / sum(medians[m] for m in verdict):.2f} 1/s")
    round_s = sum(medians.values())
    print(f"  round_s {round_s:.4f} s   setup_s {setup_s:.4f} s   peak_rss_mb {peak_rss_mb:.1f} MB")
    return round_s


def report_layers(spec, seed, recorder, traced_rounds, scales, totals, results) -> dict:
    per_round, decisions = [], []
    for first, last in traced_rounds:
        metrics, latencies = tracing.round_metrics(recorder.spans, first, last, scales)
        per_round.append(metrics)
        decisions.extend(latencies)
    check_counts_repeat(spec, seed, per_round, results)
    if recorder.missing:
        results.fail("trace", [f"no function {m} to trace" for m in recorder.missing])
    layer = tracing.summarize(per_round, decisions)
    traced, plain = statistics.median(totals[1]), statistics.median(totals[0])
    layer["trace.overhead_ratio"] = traced / plain
    covered = sum(v for m, v in layer.items() if tracing.LAYER_METRICS[m][0] == "s")
    print(
        f"  traced: {len(traced_rounds)} rounds, {len(decisions)} audit calls; layer self "
        f"times sum to {covered:.4f} s, traced round {traced:.4f} s, untraced {plain:.4f} s"
    )
    for metric, value in layer.items():
        print(f"  {metric:<44}{value:>14.6g} {tracing.LAYER_METRICS[metric][0]}")
    WORK.mkdir(exist_ok=True)
    recorder.dump(WORK / f"spans-{spec.name}-{seed}.jsonl")
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "purpose_audit" / "cli.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    committed = load_digests(args.workload)
    if committed is None:
        print(f"error: no committed digests for {args.workload}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from purpose_audit import cli

    spec = workloads.SPECS[args.workload]
    directory = WORK / f"docs-{spec.name}"
    clock = Clock()
    results, traced = Results(), Results()
    setup_s = setup(spec, args.seed, clock, directory, results)

    calls = command_lines(spec, directory)
    recorder = tracing.Recorder() if args.trace else None
    totals, traced_rounds, scales = ([], []), [], {}
    deadline = time.perf_counter() + args.seconds
    while len(totals[0]) < MIN_ROUNDS or time.perf_counter() < deadline:
        totals[0].append(run_round(cli, calls, clock, results))
        if recorder is not None:
            first = len(recorder.spans)
            recorder.install()
            try:
                totals[1].append(run_round(cli, calls, clock, traced, recorder, scales))
            finally:
                recorder.uninstall()
            traced_rounds.append((first, len(recorder.spans)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    family = workloads.generate(spec, args.seed)
    differing, float_verdicts = check_outputs(spec, family, directory, results, cli)
    for metric, stdout in traced.first.items():
        if stdout != results.first[metric]:
            results.fail(metric, ["stdout differs under tracing"])
    check_digests(spec, results, cli, committed)
    check_oracle_slice(spec, args.seed, results, cli)

    print(f"workload {spec.name} seed {args.seed}: {spec.why}")
    round_s = report_commands(spec, results, setup_s, peak_rss_mb)
    if float_verdicts:
        print(f"  advisory float verdicts whose emptiness differs from exact: "
              f"{differing} of {float_verdicts}")
    if recorder is not None:
        layer = report_layers(spec, args.seed, recorder, traced_rounds, scales, totals, results)
        metrics = {m: {"value": layer[m], "unit": u} for m, (u, _) in tracing.LAYER_METRICS.items()}
    else:
        values = {"setup_s": setup_s, "round_s": round_s, "peak_rss_mb": peak_rss_mb}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    attempted = results.attempted + traced.attempted
    failed = sum(results.failed.values()) + sum(traced.failed.values())
    print(f"  error_rate {failed / attempted:.4f} ({failed} of {attempted} commands failed)")
    for problem in (results.problems + traced.problems)[:20]:
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
