"""Spread of each checked estimator over seeds, to set the check tolerances.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/calibrate.py [--seeds 20]

Runs every workload at full size for seeds 1..N through ``cli.main`` in one
process (no timing) and prints, per estimator, each seed's value and the
mean, standard deviation, minimum and maximum. The accepted ranges in
checks.py are the mean plus or minus five standard deviations of this
spread, widened to round numbers; README.md records the measured values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics

import ndsense.cli as cli

import checks
import workloads as wl

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "calibrate")


def _estimators(workload: str, cfg: dict, out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    if workload == "track":
        locked = checks.read_csv(os.path.join(out_dir, "diagnostics.csv"))["locked"]
        return {"D_ratio": summary["D_nm2_per_s"][0] / cfg["medium"]["D_nm2_per_s"],
                "longest_unlocked_run": checks.longest_unlocked_run(locked)}
    if workload == "rheo":
        return {"alpha_non_directed": summary["class_alpha"]["non-directed"]["mean"],
                "directed_recall": checks.directed_recall(cfg, out_dir)}
    z = checks.shift_z(cfg, out_dir)
    return {"z_within_3_sigma": float((abs(z) <= 3.0).mean()),
            "z_sd": float(z.std()),
            "kappa_khz_per_C": summary["kappa_khz_per_C"][0],
            "kappa_rel_err": checks.kappa_rel_err(cfg, out_dir)}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--workload", choices=sorted(wl.CONFIGS), action="append")
    args = p.parse_args()
    for workload in args.workload or sorted(wl.CONFIGS):
        values: dict = {}
        for seed in range(1, args.seeds + 1):
            out_dir = os.path.join(OUT, workload)
            os.makedirs(out_dir, exist_ok=True)
            cfg = wl.config(workload, seed)
            cfg_path = os.path.join(out_dir, "config.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            for argv in wl.commands(workload, cfg_path, out_dir):
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"{workload} seed {seed}: {argv[0]} failed")
            for name, v in _estimators(workload, cfg, out_dir).items():
                values.setdefault(name, []).append(v)
        for name, vs in values.items():
            print(f"{workload} {name}: mean {statistics.mean(vs):.4g} "
                  f"sd {statistics.stdev(vs):.3g} min {min(vs):.4g} max {max(vs):.4g} "
                  f"over {len(vs)} seeds: {' '.join(f'{v:.4g}' for v in vs)}", flush=True)


if __name__ == "__main__":
    main()
