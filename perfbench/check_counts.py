"""Check that two traced runs at one seed give identical counts.

Usage, from the root of a checkout:

    python3 perfbench/check_counts.py --workload grid --seed 1

Runs ``perfbench/run.py --trace 1`` twice and compares every per-layer
metric whose unit is ``count``, plus ``miop.Builder.P.hit_ratio`` (a ratio of
two counts).  Exits 1 and names the metrics that differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_metrics(workload: str, seed: int) -> dict:
    # a traced run times one untraced and one traced repetition, whatever --seconds says
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    a, b = (traced_metrics(args.workload, args.seed) for _ in range(2))
    names = [n for n, m in a.items() if m["unit"] == "count" or n == "miop.Builder.P.hit_ratio"]
    diff = [f"{n}: {a[n]['value']} vs {b[n]['value']}" for n in names
            if a[n]["value"] != b[n]["value"]]
    for line in diff:
        print(f"COUNT DIFFERS {line}")
    print(f"{args.workload} seed {args.seed}: {len(names) - len(diff)}/{len(names)} counts identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
