"""One repetition of a workload, in a fresh interpreter.

Started by run.py as ``worker.py WORKLOAD CONFIG OUT_DIR TRACE`` with
``src`` on PYTHONPATH. It imports ``ndsense.cli`` and builds the parser,
then prints ``ready`` so that the parent can time set-up from process
start. It then runs the workload's ``ndsense`` commands in-process through
``cli.main``, one after the other, checks the outputs and prints one JSON
line with its timings, checks, output digests and, with TRACE=1, the
per-layer metrics.

Untraced, each command is called again until its calls add up to
MIN_BATCH_S, and its time is the mean per call. The inputs are the same on
every call, so every call does the same work and writes the same bytes;
a first call in a fresh interpreter measured no slower than later ones.
Traced, each command runs once: the per-layer metrics are those of one
experiment.
"""

from __future__ import annotations

import sys

import ndsense.cli as cli

cli.build_parser()
print("ready", flush=True)

import contextlib  # noqa: E402  (set-up ends at "ready"; nothing else is timed in it)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

# A shared machine's speed can swing by tens of percent within seconds; a
# command shorter than this is timed over several calls so that one sample
# spans more than one such swing.
MIN_BATCH_S = 2.0


def _digests(out_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _run_command(argv: list, tracer) -> tuple:
    """Run one ``ndsense`` command; return (seconds, ok, detail)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.span(f"cli.{argv[0]}", cli.main, argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    return time.perf_counter() - t0, code == 0, "" if code == 0 else f"exit code {code}"


def main(workload: str, config_path: str, out_dir: str, traced: bool) -> dict:
    with open(config_path) as fh:
        cfg = json.load(fh)
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()

    ops = []
    calls: dict = {}
    for argv in wl.commands(workload, config_path, out_dir):
        times = calls[argv[0]] = []
        ok = True
        while ok and (not times or (tracer is None and sum(times) < MIN_BATCH_S)):
            secs, ok, detail = _run_command(argv, tracer)
            times.append(secs)
            ops.append((argv[0], ok, detail))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    for command in ("simulate", "analyze"):
        ops += checks.check_files(workload, cfg, out_dir, command)
    ops += checks.check_results(workload, cfg, out_dir)

    result = {
        "calls": calls,
        "simulate_s": sum(calls["simulate"]) / len(calls["simulate"]),
        "analyze_s": sum(calls["analyze"]) / len(calls["analyze"]),
        "first_total_s": calls["simulate"][0] + calls["analyze"][0],
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "digests": _digests(out_dir),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.bytes_written"] = sum(
            os.path.getsize(os.path.join(out_dir, n)) for n in result["digests"])
        layers["segmentation.directed_recall"] = (
            _or_zero(checks.directed_recall, cfg, out_dir) if workload == "rheo" else 0.0)
        layers["odmr.kappa_rel_err"] = (
            _or_zero(checks.kappa_rel_err, cfg, out_dir) if workload == "thermo" else 0.0)
        result["layers"] = layers
        result["spans"] = tracer.spans
        # layer self times plus cli.self_s must account for the commands' wall time
        charged = sum(layers[m] for m in spans.TIME_METRICS)
        wall = result["first_total_s"]
        ops.append(("trace:accounted", abs(wall - charged) <= 0.01 * wall,
                    f"spans charge {charged:.4f} s of {wall:.4f} s"))
    return result


def _or_zero(fn, *args) -> float:
    # A missing output already fails its check; the metric then reads 0.
    try:
        return float(fn(*args))
    except (OSError, ValueError, KeyError, IndexError):
        return 0.0


if __name__ == "__main__":
    name, cfg_path, out, trace_flag = sys.argv[1:5]
    print(json.dumps(main(name, cfg_path, out, trace_flag == "1")), flush=True)
