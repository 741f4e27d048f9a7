"""Seed-to-seed spread of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py --workload track --seeds 1-10

Runs the benchmark once per seed, untraced and one after the other, for
BENCHMARK.json's ``run_seconds``, and prints each metric's median and its
interquartile range (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = p.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    first, last = (int(s) for s in args.seeds.split("-"))
    values: dict = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} operations failed",
                  file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    for m in spec["end_to_end"]:
        vs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"{args.workload} {m['name']}: median {med:.4g} {m['unit']}, "
              f"IQR/median {(q3 - q1) / med:.4f} (bound {m['bound']}, "
              f"{len(vs)} runs)")


if __name__ == "__main__":
    main()
