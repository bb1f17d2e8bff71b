"""Run-to-run spread of the end-to-end metrics, as used to set the bounds.

Usage: python3 bench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--label L]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Each
run's result line is appended to ``bench/results/spread-<label>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--label", default="spread")
    args = parser.parse_args()
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    log = os.path.join(HERE, "results", f"spread-{args.label}.jsonl")
    values: dict = {}
    failed = attempted = 0
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(result, workload=args.workload, seed=seed)) + "\n")
        attempted += result["attempted"]
        failed += result["failed"]
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
        for key, m in result["metrics"].items():
            values.setdefault(key, []).append(m["value"])
    print(f"{args.workload}: {len(args.seeds)} runs, {attempted} operations, {failed} failed")
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"  {key:14s} median {med:12.6g}  IQR/median {(q3 - q1) / med:7.2%}  "
              f"min {min(vals):.6g}  max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
