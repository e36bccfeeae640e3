"""Write the benchmark's committed reference files.

    python3 perfbench/record.py

``digests.json`` holds the SHA-256 of every command's stdout on each
workload's check document (the default-seed family with its first
CHECK_LOGS logs); ``run.py`` compares against it on every run.
``shapes.json`` records each workload's shape at the default seed. Both are
written only after the outputs pass the correctness gate. Rerun this only
when a change to the generator or the commands is meant to change them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from purpose_audit import cli  # noqa: E402


def record(spec):
    results = run.Results()
    digests = run.check_digests(spec, results, cli, committed=None)
    family = workloads.generate(spec, run.DEFAULT_SEED)
    directory = run.WORK / f"record-{spec.name}"
    workloads.write_documents(family, directory)
    for metric, argv in run.command_lines(spec, directory):
        results.run(cli, metric, argv)
    run.check_outputs(spec, family, directory, results, cli)
    run.check_oracle_slice(spec, run.DEFAULT_SEED, results, cli)
    if results.failed:
        raise SystemExit(f"{spec.name}: gate failed: {results.problems[:5]}")
    model_path, log_path = workloads.document_paths(directory)
    reasons = dict.fromkeys(gate.REASONS, 0)
    for purpose in spec.purposes if family.logs else ():
        argv = ["audit", str(model_path), str(log_path), "--purpose", purpose]
        for line in results.run(cli, f"audit {purpose}", argv).splitlines():
            reasons[gate.parse_audit_line(line)[1]] += 1
    shape = {
        "seed": run.DEFAULT_SEED,
        "family": "drawn from the seed" if spec.seeded_family
        else f"fixed stream, FAMILY_SEED={workloads.FAMILY_SEED}",
        "logs_from_fixed_stream": sum(q[2] for q in spec.quotas),
        "logs_from_seed": sum(q[3] for q in spec.quotas),
        "states": spec.states,
        "pairs": len(family.transitions) + len(family.states),
        "purposes": len(spec.purposes),
        "logs": len(family.logs),
        "log_steps": sum((len(tokens) - 1) // 2 for tokens in family.logs),
        "document_bytes": model_path.stat().st_size + log_path.stat().st_size,
        "audit_reasons_over_all_purposes": reasons,
        "commands": [" ".join(argv) for _, argv in spec.commands],
        "why": spec.why,
    }
    return digests, shape


if __name__ == "__main__":
    all_digests, shapes = {}, {}
    for name, spec in workloads.SPECS.items():
        all_digests[name], shapes[name] = record(spec)
        print(name, json.dumps(shapes[name]["audit_reasons_over_all_purposes"]), flush=True)
    (HERE / "digests.json").write_text(json.dumps(all_digests, indent=1) + "\n", encoding="utf-8")
    (HERE / "shapes.json").write_text(json.dumps(shapes, indent=1) + "\n", encoding="utf-8")
