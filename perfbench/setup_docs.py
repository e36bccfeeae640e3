"""The benchmark's set-up step, run in a fresh interpreter by ``run.py``.

It imports the program, generates one workload's documents for a seed and
writes them, which is what ``setup_s`` times:

    python3 perfbench/setup_docs.py WORKLOAD SEED OUT_DIR
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import purpose_audit.cli  # noqa: E402,F401  (importing the program is set-up work)
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    spec = workloads.SPECS[name]
    workloads.write_documents(workloads.generate(spec, seed), out)
