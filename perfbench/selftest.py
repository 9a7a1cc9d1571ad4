"""Self-test of the benchmark: two traced runs with the same seed must
report identical exact-repeat counts (RHS evaluations, seq_mul calls,
system_frame calls per request, critical_couplings calls per point,
spsolve and eigs calls, solved dimensions and nonzeros).

    python3 perfbench/selftest.py [--seed N]

Runs every workload twice for ``SECONDS`` each and exits 0 when every
workload repeats exactly, 1 otherwise.  The runs are made one after
another, each in its own process.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "transient", "oracle")
#: length of each traced run; one traced pass is enough to compare counts
SECONDS = 1


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
        check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported incorrect output")
    return json.loads(lines[-2])["report"]["exact_counts"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        same = first == second
        ok &= same
        print(f"{'PASS' if same else 'FAIL'} {workload} seed={args.seed} "
              f"counts={json.dumps(first, sort_keys=True)}")
        if not same:
            print(f"     second run: {json.dumps(second, sort_keys=True)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
