"""ndsense benchmark: one workload, closed loop, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload track --seed 1 --seconds 42 --trace 0

Each repetition starts a fresh interpreter (worker.py) that imports
``ndsense.cli`` from ``src/`` and runs the workload's ``ndsense simulate``
and ``ndsense analyze`` commands one after the other; the next repetition
starts only after the previous one has ended (one client, one process).
Repetitions run until the next one would end after ``--seconds``; every
repetition uses the same seed, so all of them must write byte-identical
outputs. The last line of standard output is one JSON object with the
medians over repetitions:

- ``--trace 0``: the end-to-end metrics (END_TO_END below);
- ``--trace 1``: the per-layer metrics (PER_LAYER below). Repetitions then
  alternate between untraced and traced, and ``trace.overhead_s`` is the
  difference of their median first-call ``total_s``.

Per-repetition values, check details, output sha256 digests and the spans
of the last traced repetition go to ``perfbench/out/<run>/results.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT = os.path.join(HERE, "out")
RUN_DEADLINE_S = 150.0  # every repetition must end this long after the run starts

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "media.synth_s": "s",
    "trajectory.write_s": "s",
    "trajectory.read_s": "s",
    "trajectory.rows": "count",
    "tracker.track_s": "s",
    "tracker.orbits": "count",
    "tracker.us_per_orbit": "us",
    "tracker.locked_frac": "ratio",
    "odmr.shift_series_s": "s",
    "odmr.fits": "count",
    "odmr.ms_per_fit": "ms",
    "odmr.converged_frac": "ratio",
    "odmr.post_s": "s",
    "odmr.kappa_rel_err": "ratio",
    "rheology.msd_s": "s",
    "rheology.msd_calls": "count",
    "rheology.msd_lags": "count",
    "rheology.floored_frac": "ratio",
    "rheology.spectra_s": "s",
    "segmentation.segment_s": "s",
    "segmentation.windows": "count",
    "segmentation.class_exponents_s": "s",
    "segmentation.directed_recall": "ratio",
    "chip.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "fail_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    # one process, no threads: keep numerical libraries single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(workload: str, config_path: str, out_dir: str, traced: bool,
            deadline: float) -> dict:
    """One repetition in a fresh interpreter; ``setup_s`` is spawn to ``ready``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            config_path, out_dir, "1" if traced else "0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            env=_worker_env())
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: repetition did not end in time") from None
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload}: worker failed (exit code {proc.returncode})")
    rep = json.loads(rest.strip().splitlines()[-1])
    rep.update(traced=traced, setup_s=setup_s, wall_s=time.perf_counter() - t0)
    return rep


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    """Repeat the workload for ``seconds``; return the run record."""
    if not os.path.isfile(os.path.join(SRC, "ndsense", "cli.py")):
        raise BenchError("src/ndsense not found: run from the repository root")
    compileall.compile_dir(SRC, quiet=1)  # what an install leaves behind

    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg = wl.config(workload, seed, scale)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    out_dir = os.path.join(run_dir, "outputs")

    start = time.perf_counter()
    reps: list = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, config_path, out_dir, traced,
                            start + RUN_DEADLINE_S))
        elapsed = time.perf_counter() - start
        longest = max(r["wall_s"] for r in reps)
        if len(reps) >= (2 if trace else 1) and elapsed + longest > seconds:
            break

    ops = [op for r in reps for op in r["ops"]]
    # same seed, same inputs: every repetition must write the same bytes
    ops += [("deterministic", r["digests"] == reps[0]["digests"], "digests differ")
            for r in reps[1:]]
    failed = [op for op in ops if not op[1]]
    plain = [r for r in reps if not r["traced"]]
    totals = [r["simulate_s"] + r["analyze_s"] for r in plain]
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "simulate_s": statistics.median(r["simulate_s"] for r in plain),
        "analyze_s": statistics.median(r["analyze_s"] for r in plain),
        "total_s": statistics.median(totals),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "config": cfg, "repetitions": len(reps), "end_to_end": e2e,
        "attempted": len(ops), "failed": len(failed),
        "failures": [f"{name}: {detail}" for name, _, detail in failed],
        "digests": reps[0]["digests"],
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
    }
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        layers = {m: statistics.median(r["layers"][m] for r in traced_reps)
                  for m in traced_reps[0]["layers"]}
        # single calls on both sides: traced reps do not repeat commands
        layers["trace.overhead_s"] = (
            statistics.median(r["first_total_s"] for r in traced_reps)
            - statistics.median(r["first_total_s"] for r in plain))
        layers["fail_frac"] = len(failed) / len(ops)
        record["per_layer"] = layers
        record["spans"] = traced_reps[-1]["spans"]
    with open(os.path.join(run_dir, "results.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def result_line(record: dict) -> dict:
    """The benchmark's final JSON object for one run record."""
    if record["trace"]:
        values, units = record["per_layer"], PER_LAYER
    else:
        values, units = record["end_to_end"], END_TO_END
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.CONFIGS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the workload's size (self-test only)")
    args = p.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.scale)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(f"{args.workload} seed {args.seed}: {record['repetitions']} repetitions, "
          f"{record['attempted']} operations, {record['failed']} failed")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
