"""The benchmark's span tracer (perfbench/spans.py) against the package.

The tracer wraps package attributes by name and reads result fields in its
counters, so a rename in the package breaks traced benchmark runs; this runs
a tiny simulate and analyze under it.
"""

import importlib.util
import json
import math
import pathlib
import sys

from ndsense import cli

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_spans_the_layers_and_restores_them(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = [(owner, attr, owner.__dict__[attr])
               for owner, attr, _ in spans._FUNCTIONS + spans._CLASSMETHODS]
    sim_cfg = tmp_path / "simulate.json"
    sim_cfg.write_text(json.dumps({
        "schema_version": 1, "seed": 3,
        "medium": {"kind": "brownian", "D_nm2_per_s": 1e4},
        "simulate": {"duration_s": 2.0},
        "tracker": {"enabled": True},
        "odmr": {"enabled": True, "bin_s": 0.4},
        "schedule": {"kind": "staircase", "start_C": 24.0, "step_C": 4.0, "dwell_s": 1.0,
                     "n_levels": 2}}))
    an_cfg = tmp_path / "analyze.json"
    an_cfg.write_text(json.dumps({"schema_version": 1,
                                  "analysis": {"segment": {"window_steps": 20}}}))
    out = tmp_path / "out"
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--config", str(sim_cfg), "--out-dir", str(out)]) == 0
        assert cli.main(["analyze", "--config", str(an_cfg), "--traj", str(out / "estimate.csv"),
                         "--out-dir", str(out)]) == 0
        names = {span[0] for span in tracer.spans}
        assert {"tracker.track", "odmr.simulate_shift_series", "rheology.msd",
                "segmentation.segment"} <= names
        metrics = tracer.layer_metrics()
        for key in ("tracker.orbits", "odmr.fits", "rheology.msd_calls", "segmentation.windows"):
            assert metrics[key] > 0, key
        assert all(math.isfinite(v) for v in metrics.values())
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in wrapped)
