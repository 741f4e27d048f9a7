"""Tiny-size self-test of the benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs every workload at a small fraction of its size, untraced and traced,
and asserts that the result line names every metric of BENCHMARK.json with
its unit and that all checks pass. It then truncates an output CSV of the
last run and asserts that the file checks count the damage as a failure.
Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

SCALE = "0.15"  # the rheo PSD window needs a 28.8 s trajectory


def _result(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", SCALE],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_metrics_print_with_units(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = _result(workload, trace)
            assert res["correct"] and res["failed"] == 0, (workload, trace, res)
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload, trace, got, want)
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics with units")


def test_truncated_csv_counts_as_failure() -> None:
    run_dir = os.path.join(run.OUT, "thermo-seed3-trace1")
    out_dir = os.path.join(run_dir, "outputs")
    with open(os.path.join(run_dir, "config.json")) as fh:
        cfg = json.load(fh)
    before = checks.check_files("thermo", cfg, out_dir, "simulate")
    assert all(ok for _, ok, _ in before), before
    for cut in ("half", "line"):
        path = os.path.join(out_dir, "shifts.csv")
        with open(path) as fh:
            text = fh.read()
        # cut mid-row, then cleanly after a row: both must be caught
        short = text[:len(text) // 2] if cut == "half" else \
            "".join(text.splitlines(keepends=True)[:-3])
        with open(path, "w") as fh:
            fh.write(short)
        ops = checks.check_files("thermo", cfg, out_dir, "simulate")
        ops += checks.check_results("thermo", cfg, out_dir)
        failed = [op for op in ops if not op[1]]
        assert any(name == "simulate:shifts.csv" for name, _, _ in failed), ops
        print(f"ok  truncated shifts.csv ({cut}): fail_frac {len(failed)}/{len(ops)}")
        with open(path, "w") as fh:
            fh.write(text)


def main() -> None:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    test_metrics_print_with_units(spec)
    test_truncated_csv_counts_as_failure()
    print("self-test passed")


if __name__ == "__main__":
    main()
