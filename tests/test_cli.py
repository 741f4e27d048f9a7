"""End-to-end command-line tests: configs, outputs, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ndsense
from ndsense import chip, cli
from ndsense._table import read_table
from ndsense.rheology import MsdCurve
from ndsense.trajectory import Trajectory


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def brownian_cfg(seed=41, duration=2.0, D=1e4, **extra):
    cfg = {"schema_version": 1, "seed": seed,
           "medium": {"kind": "brownian", "D_nm2_per_s": D},
           "simulate": {"duration_s": duration}}
    cfg.update(extra)
    return cfg


@pytest.fixture(scope="module")
def odmr_run(tmp_path_factory):
    """One staircase simulation with tracking disabled, ODMR enabled."""
    root = tmp_path_factory.mktemp("odmr_run")
    cfg = brownian_cfg(
        seed=47, duration=180.0,
        schedule={"kind": "staircase", "start_C": 0.0, "step_C": 4.0,
                  "dwell_s": 60.0, "n_levels": 3},
        odmr={"enabled": True, "lam0": 10.0,
              "kappa_khz_per_C": -60.0, "bin_s": 0.4})
    path = write_config(root / "cfg.json", cfg)
    out = root / "out"
    assert cli.main(["simulate", "--config", path,
                     "--out-dir", str(out)]) == 0
    return out


# ------------------------------------------------------------------ simulate

def test_simulate_minimal_writes_truth(tmp_path):
    path = write_config(tmp_path / "cfg.json", brownian_cfg())
    rc = cli.main(["simulate", "--config", path, "--out-dir", str(tmp_path)])
    assert rc == 0
    traj = Trajectory.from_csv(tmp_path / "truth.csv")
    assert traj.points.shape[0] == round(2.0 / 9.6e-3) + 1
    assert not (tmp_path / "estimate.csv").exists()


def test_simulate_with_tracker(tmp_path):
    cfg = brownian_cfg(duration=1.0,
                       tracker={"enabled": True, "brightness_cps": 2e6})
    path = write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["simulate", "--config", path,
                     "--out-dir", str(tmp_path)]) == 0
    est = Trajectory.from_csv(tmp_path / "estimate.csv")
    assert est.points.shape[0] > 50
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert diag[0].startswith("t_s,")


def test_simulate_directed_segment(tmp_path):
    cfg = brownian_cfg(seed=43, duration=4.8, D=1e2)
    cfg["simulate"]["directed"] = [
        {"start_step": 380, "n_steps": 120,
         "velocity_nm_per_s": [900.0, 0.0]}]
    path = write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["simulate", "--config", path,
                     "--out-dir", str(tmp_path)]) == 0
    traj = Trajectory.from_csv(tmp_path / "truth.csv")
    drift = traj.points[500, 0] - traj.points[380, 0]
    assert drift == pytest.approx(900.0 * 0.0096 * 120, abs=100.0)


def test_simulate_odmr_outputs(odmr_run):
    for name in ("truth.csv", "setpoints.csv", "timeline.csv",
                 "shifts.csv", "temperature.csv"):
        assert (odmr_run / name).exists(), name
    lines = (odmr_run / "shifts.csv").read_text().splitlines()
    assert lines[0] == "t_s,delta_f_hz,sigma_hz"
    assert len(lines) == 1 + int(180.0 / 0.4)


def test_simulate_schedule_shorter_than_timeline(tmp_path):
    # the timeline covers min(2 s, duration), not the last 1 s setpoint
    cfg = brownian_cfg(duration=0.3, schedule={"kind": "constant", "T_C": 25.0})
    path = write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["simulate", "--config", path, "--out-dir", str(tmp_path)]) == 0
    _, (t, _, _) = read_table(tmp_path / "timeline.csv", ("t_s", "channel", "state"),
                              text=("channel",))
    assert 0.2 <= t.max() <= 0.3


def test_simulate_failure_writes_nothing(tmp_path, capsys):
    # ODMR needs one whole 0.4 s bin; the run fails before any file is written
    cfg = brownian_cfg(duration=0.3, odmr={"enabled": True})
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out-dir", str(out)]) == 2
    assert "shorter than one bin" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("directed, message", [
    ([{"start_step": 200, "n_steps": 20, "velocity_nm_per_s": [900.0, 0.0]}],
     "simulate.directed[0]: segment [200, 220) outside trajectory"),
    ([{"start_step": 10, "n_steps": 50, "velocity_nm_per_s": [900.0, 0.0]},
      {"start_step": 40, "n_steps": 20, "velocity_nm_per_s": [0.0, 900.0]}],
     "simulate.directed[1]: directed segments overlap"),
    ([{"start_step": 10, "n_steps": 0, "velocity_nm_per_s": [900.0, 0.0]}],
     "simulate.directed[0]: duration must be >= 1 step"),
    ([{"start_step": 10, "n_steps": 5, "velocity_nm_per_s": [900.0]}],
     "simulate.directed[0]: velocity must be a finite 2- or 3-vector"),
    ([{"start_step": 10, "n_steps": 5, "velocity_nm_per_s": [float("inf"), 0.0]}],
     "simulate.directed[0]: velocity must be a finite 2- or 3-vector"),
    ([{"start_step": 10, "n_steps": 5, "velocity_nm_per_s": 900.0}],
     "simulate.directed[0]: "),
], ids=["outside", "overlap", "no-steps", "1-vector", "infinite", "scalar"])
def test_bad_directed_run_exits_1_before_writing(tmp_path, capsys, directed, message):
    cfg = brownian_cfg()  # 208 steps
    cfg["simulate"]["directed"] = directed
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out-dir", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


NOT_WHOLE = (st.floats().filter(lambda v: not (v >= 0 and v % 1 == 0)) | st.booleans()
             | st.text(max_size=3) | st.integers(max_value=-1))


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(["seed", "--seed", "start_step", "n_steps"]), data=st.data())
def test_seed_and_step_counts_must_be_whole_numbers(tmp_path_factory, key, data):
    """A fraction, bool, string or negative number is a config error naming
    its key, never truncated into a run."""
    value = data.draw(st.integers(max_value=-1) if key == "--seed" else NOT_WHOLE)
    cfg, argv, named = brownian_cfg(), [], key
    if key == "--seed":
        argv = [f"--seed={value}"]
    elif key == "seed":
        cfg["seed"] = value
    else:
        run = {"start_step": 10, "n_steps": 5, "velocity_nm_per_s": [900.0, 0.0]}
        run[key] = value
        cfg["simulate"]["directed"] = [run]
        named = f"simulate.directed[0].{key}"
    root = tmp_path_factory.mktemp("whole")
    path = write_config(root / "cfg.json", cfg)
    err = io.StringIO()
    with redirect_stderr(err):
        assert cli.main(["simulate", "--config", path, "--out-dir", str(root / "out"), *argv]) == 1
    assert f"config error: {named} must be a non-negative whole number" in err.getvalue()
    assert not (root / "out").exists()


@pytest.mark.parametrize("schedule, duration, built", [
    ({"kind": "constant", "T_C": 25.0}, 60.0,
     lambda: chip.TemperatureSchedule(steps=((0.0, 25.0),))),
    ({"kind": "alternating", "base_C": 20.0, "delta_C": 5.0,
      "half_period_s": 30.0, "n_cycles": 3, "tau_s": 4.0}, 200.0,
     lambda: chip.alternating_schedule(base_C=20.0, delta_C=5.0, half_period_s=30.0,
                                       n_cycles=3, tau_s=4.0)),
    # keys left out take the chip module's defaults
    ({"kind": "alternating", "base_C": 20.0}, 4000.0,
     lambda: chip.alternating_schedule(base_C=20.0)),
    ({"kind": "staircase", "start_C": 24.0}, 4000.0,
     lambda: chip.staircase_schedule(start_C=24.0)),
], ids=["constant", "alternating", "alternating-defaults", "staircase-defaults"])
def test_simulate_schedule_kinds(tmp_path, schedule, duration, built):
    cfg = brownian_cfg(duration=duration, schedule=schedule)
    cfg["simulate"]["dt_s"] = 10.0
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out-dir", str(out)]) == 0
    times, temps = chip.setpoint_series(built(), dt=1.0, duration=duration)
    chip.setpoints_to_csv(times, temps, tmp_path / "want.csv")
    assert (out / "setpoints.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_simulate_viscoelastic_medium(tmp_path, capsys):
    medium = {"kind": "viscoelastic", "alpha": 0.6, "K_alpha": 2e3}
    path = write_config(tmp_path / "cfg.json", brownian_cfg(medium=medium))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out-dir", str(out)]) == 0
    traj = Trajectory.from_csv(out / "truth.csv")
    assert traj.meta["kind"] == "viscoelastic"
    assert (float(traj.meta["alpha"]), float(traj.meta["K_alpha"])) == (0.6, 2e3)
    assert traj.points.shape[0] == round(2.0 / 9.6e-3) + 1
    # both model parameters are required
    del medium["K_alpha"]
    path = write_config(tmp_path / "cfg.json", brownian_cfg(medium=medium))
    assert cli.main(["simulate", "--config", path, "--out-dir", str(tmp_path / "bad")]) == 1
    assert "missing required key 'K_alpha' in medium" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_simulate_seed_flag_overrides_config(tmp_path):
    path = write_config(tmp_path / "cfg.json", brownian_cfg(seed=3))
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["simulate", "--config", path, "--out-dir", str(a)]) == 0
    assert cli.main(["simulate", "--config", path, "--seed", "5",
                     "--out-dir", str(b)]) == 0
    path5 = write_config(tmp_path / "cfg5.json", brownian_cfg(seed=5))
    assert cli.main(["simulate", "--config", path5, "--out-dir", str(c)]) == 0
    truth = [(d / "truth.csv").read_bytes() for d in (a, b, c)]
    assert truth[1] == truth[2]
    assert truth[0] != truth[1]


def test_simulate_reruns_byte_identical(tmp_path, odmr_run):
    cfg = brownian_cfg(
        seed=47, duration=180.0,
        schedule={"kind": "staircase", "start_C": 0.0, "step_C": 4.0,
                  "dwell_s": 60.0, "n_levels": 3},
        odmr={"enabled": True, "lam0": 10.0,
              "kappa_khz_per_C": -60.0, "bin_s": 0.4})
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "again"
    assert cli.main(["simulate", "--config", path,
                     "--out-dir", str(out)]) == 0
    for name in ("truth.csv", "shifts.csv", "temperature.csv"):
        assert (out / name).read_bytes() == (odmr_run / name).read_bytes()


# ----------------------------------------------------------- config failures

UNKNOWN_KEYS = [
    ("tracker", "brightnes_cps", 1e6),  # a misspelt key
    # keys the schema does not have: every run takes the values they would set
    *[("tracker", key, 1.0) for key in ("T_orbit_s", "R_xy_nm", "w_xy_nm", "R_z_nm",
                                        "w_z_nm", "G", "gain")],
    ("odmr", "kappa_sigma_khz_per_C", 0.4),
    ("odmr", "duration_s", 2.0),
    ("analysis", "axes", "xy"),
    ("analysis.diffusion", "fit_range_s", [0.01, 0.1]),
    ("analysis.diffusion", "through_origin", True),
    ("analysis.diffusion", "single_tau_s", 0.1),
    ("analysis.segment", "confidence", 0.95),
    ("analysis.segment", "min_length_nm", 500.0),
]


@pytest.mark.parametrize("section, key, value", UNKNOWN_KEYS,
                         ids=[f"{section}.{key}" for section, key, _ in UNKNOWN_KEYS])
def test_unknown_key_rejected_before_writing(tmp_path, capsys, section, key, value):
    cfg = brownian_cfg(tracker={"enabled": True}, odmr={"enabled": True},
                       analysis={"segment": {}})
    table = cfg
    for name in section.split("."):
        table = table.setdefault(name, {})
    table[key] = value
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", path, "--out-dir", str(out)])
    assert rc == 1
    # analysis has no diffusion section, so the section is the unknown key
    where, named = ("analysis", "diffusion") if "diffusion" in section else (section, key)
    assert f"config error: unknown key(s) in config.{where}: {named}" \
        in capsys.readouterr().err
    # validation failed after the truth run was prepared but before any
    # file went to disk: a bad config must not leave partial outputs
    assert not out.exists()


@pytest.mark.parametrize("mangle", [
    lambda c: c.update(schema_version=99),
    lambda c: c.pop("seed"),
    lambda c: c.pop("medium"),
    lambda c: c.update(extra_section={}),
    lambda c: c["medium"].pop("D_nm2_per_s"),
    lambda c: c.update(analysis={"bogus": 1}),
])
def test_bad_configs_exit_1(tmp_path, mangle):
    cfg = brownian_cfg()
    mangle(cfg)
    path = write_config(tmp_path / "cfg.json", cfg)
    cmd = "analyze" if "analysis" in cfg else "simulate"
    argv = [cmd, "--config", path, "--out-dir", str(tmp_path)]
    if cmd == "analyze":
        argv += ["--traj", path]  # never reached; config fails first
    assert cli.main(argv) == 1


@pytest.mark.parametrize("schedule", [
    {"kind": "staircase", "start_C": 24.0, "delta_C": 5.0},  # an alternating key
    {"kind": "alternating", "delta_C": 5.0},  # base_C missing
    {"kind": "staircase", "start_C": "24"},
    {"kind": "constant", "T_C": True},
], ids=["other-kind-key", "missing-key", "string", "bool"])
def test_schedule_keys_strict_per_kind(tmp_path, capsys, schedule):
    path = write_config(tmp_path / "cfg.json", brownian_cfg(schedule=schedule))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out-dir", str(out)]) == 1
    assert "schedule" in capsys.readouterr().err
    assert not (out / "truth.csv").exists()


VISCOUS_RUN = {"kind": "viscous", "eta0_pa_s": 0.301, "mu_pa_s_per_C": 0.0208,
               "T_ref_C": 35.0, "temperature_C": 35.0, "radius_nm": 28.0}


@pytest.mark.parametrize("medium, key", [
    ({"kind": "brownian", "D_nm2_per_s": 1e4, "alpha": 0.5}, "alpha"),
    ({"kind": "brownian", "D_nm2_per_s": 1e4, "radius_nm": 28.0}, "radius_nm"),
    ({**VISCOUS_RUN, "D_nm2_per_s": 1e4}, "D_nm2_per_s"),
], ids=["brownian-alpha", "brownian-radius", "viscous-D"])
def test_medium_keys_strict_per_kind(tmp_path, capsys, medium, key):
    path = write_config(tmp_path / "cfg.json", brownian_cfg(medium=medium))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"unknown key(s) in config.medium ({medium['kind']}): {key}" in err
    assert not out.exists()


def test_invalid_json_exit_1(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert cli.main(["simulate", "--config", str(path)]) == 1


def test_analyze_requires_trajectory(tmp_path):
    path = write_config(tmp_path / "cfg.json",
                        {"schema_version": 1, "seed": 1})
    assert cli.main(["analyze", "--config", path,
                     "--out-dir", str(tmp_path)]) == 1


# ------------------------------------------------------------------- analyze

@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    root = tmp_path_factory.mktemp("analyzed")
    cfg = brownian_cfg(seed=53, duration=30.0,
                       analysis={"segment": {"window_steps": 75}})
    path = write_config(root / "cfg.json", cfg)
    sim = root / "sim"
    assert cli.main(["simulate", "--config", path,
                     "--out-dir", str(sim)]) == 0
    out = root / "out"
    assert cli.main(["analyze", "--config", path,
                     "--traj", str(sim / "truth.csv"),
                     "--out-dir", str(out)]) == 0
    with open(out / "summary.json") as fh:
        return out, json.load(fh)


def test_analyze_outputs(analyzed):
    out, summary = analyzed
    assert (out / "msd.csv").exists()
    assert (out / "labels.csv").exists()
    assert summary["n_trajectories"] == 1
    D, sigma = summary["D_nm2_per_s"]
    assert D == pytest.approx(1e4, rel=0.5)
    assert sigma > 0
    alpha, _ = summary["alpha"]
    assert alpha == pytest.approx(1.0, abs=0.4)


def test_analyze_segmentation_summary(analyzed):
    _, summary = analyzed
    assert summary["critical_gamma"] == pytest.approx(0.2276, abs=5e-3)
    assert sum(summary["segments"].values()) >= 1
    assert "non-directed" in summary["class_alpha"]


def test_analyze_default_lags_stop_at_half_the_trajectory(tmp_path):
    cfg = brownian_cfg(duration=8.0)
    cfg["simulate"]["dt_s"] = 0.1  # 81 points: 50 lags would pass N/2
    path = write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["simulate", "--config", path, "--out-dir", str(tmp_path)]) == 0
    argv = ["analyze", "--traj", str(tmp_path / "truth.csv"), "--out-dir", str(tmp_path)]
    # a RuntimeWarning is an error in this suite, and analyze would exit 2
    assert cli.main(argv + ["--config", path]) == 0
    assert MsdCurve.from_csv(tmp_path / "msd.csv").taus.size == 40
    # lags asked for explicitly are kept, with msd's warning
    cfg["analysis"] = {"max_lag_s": 6.0}
    path = write_config(tmp_path / "cfg.json", cfg)
    with pytest.warns(RuntimeWarning, match="above half"):
        assert cli.main(argv + ["--config", path]) == 0
    assert MsdCurve.from_csv(tmp_path / "msd.csv").taus.size == 60


def test_analyze_radius_fit(tmp_path):
    cfg = {"schema_version": 1, "seed": 59,
           "medium": {"kind": "viscous", "eta0_pa_s": 0.301,
                      "mu_pa_s_per_C": 0.0208, "T_ref_C": 35.0,
                      "temperature_C": 35.0, "radius_nm": 28.0},
           "simulate": {"duration_s": 30.0}}
    paths = []
    for i, temp in enumerate((33.0, 36.0, 39.0)):
        cfg["medium"]["temperature_C"] = temp
        cfg["seed"] = 59 + i
        path = write_config(tmp_path / f"cfg{i}.json", cfg)
        out = tmp_path / f"sim{i}"
        assert cli.main(["simulate", "--config", path,
                         "--out-dir", str(out)]) == 0
        paths.append(str(out / "truth.csv"))
    out = tmp_path / "out"
    argv = ["analyze", "--config", write_config(tmp_path / "an.json", cfg),
            "--out-dir", str(out)]
    for p in paths:
        argv += ["--traj", p]
    assert cli.main(argv) == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    r, sigma = summary["r_hydro_nm"]
    assert 3.0 < r < 300.0
    assert np.isfinite(sigma)


VISCOUS = {"kind": "viscous", "eta0_pa_s": 0.301, "mu_pa_s_per_C": 0.0208, "T_ref_C": 35.0}


@pytest.mark.parametrize("n_traj, temps, medium", [
    (4, [33.0, 36.0, 39.0], VISCOUS),
    (3, [33.0, 36.0], VISCOUS),
    (2, [33.0, 36.0], VISCOUS),
    (3, [33.0, 36.0, "39"], VISCOUS),
    (3, [33.0, 36.0, 39.0], {"kind": "viscous", "eta0_pa_s": 0.301}),
], ids=["temp-short", "traj-short-of-temps", "two-runs", "string-temp", "no-viscosity-model"])
def test_radius_fit_config_errors_exit_1_before_writing(tmp_path, odmr_run, capsys,
                                                        n_traj, temps, medium):
    cfg = write_config(tmp_path / "cfg.json",
                       {"schema_version": 1, "seed": 1, "medium": medium,
                        "analysis": {"radius_fit": {"temps_C": temps}}})
    out = tmp_path / "out"
    argv = ["analyze", "--config", cfg, "--out-dir", str(out)]
    assert cli.main(argv + ["--traj", str(odmr_run / "truth.csv")] * n_traj) == 1
    assert "radius_fit" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_temperature_allan(tmp_path, odmr_run):
    cfg = write_config(tmp_path / "cfg.json",
                       {"schema_version": 1, "seed": 1})
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", cfg,
                     "--traj", str(odmr_run / "truth.csv"),
                     "--temperature", str(odmr_run / "temperature.csv"),
                     "--out-dir", str(out)]) == 0
    lines = (out / "allan.csv").read_text().splitlines()
    assert lines[0] == "tau_s,adev_C"
    assert len(lines) > 5
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["sensitivity_C_per_sqrtHz"] > 0


def test_analyze_kappa_calibration(tmp_path, odmr_run):
    cfg = write_config(tmp_path / "cfg.json",
                       {"schema_version": 1, "seed": 1})
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", cfg,
                     "--traj", str(odmr_run / "truth.csv"),
                     "--shifts", str(odmr_run / "shifts.csv"),
                     "--setpoints", str(odmr_run / "setpoints.csv"),
                     "--out-dir", str(out)]) == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    kappa, sigma = summary["kappa_khz_per_C"]
    # short dwells and ramp smearing leave a bias; the sign and scale
    # still have to come out right
    assert -90.0 < kappa < -25.0
    assert 0.0 < sigma < 10.0


@pytest.mark.parametrize("given, missing", [("--shifts", "--setpoints"),
                                           ("--setpoints", "--shifts")],
                         ids=["shifts-only", "setpoints-only"])
def test_unpaired_kappa_input_exits_1_before_writing(tmp_path, odmr_run, capsys,
                                                       given, missing):
    cfg = write_config(tmp_path / "cfg.json", {"schema_version": 1, "seed": 1})
    out = tmp_path / "out"
    table = odmr_run / f"{given[2:]}.csv"
    assert cli.main(["analyze", "--config", cfg, "--traj", str(odmr_run / "truth.csv"),
                     given, str(table), "--out-dir", str(out)]) == 1
    assert f"needs {missing}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_bad_input_table_exits_1_before_writing(tmp_path, odmr_run, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"schema_version": 1, "seed": 1})
    lines = (odmr_run / "shifts.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]  # drop the sigma field of one row
    shifts = tmp_path / "shifts.csv"
    shifts.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    base = ["analyze", "--config", cfg, "--traj", str(odmr_run / "truth.csv"),
            "--out-dir", str(out)]
    assert cli.main(base + ["--shifts", str(shifts),
                            "--setpoints", str(odmr_run / "setpoints.csv")]) == 1
    assert f"{shifts}: line 4: expected 3 columns" in capsys.readouterr().err
    assert not (out / "msd.csv").exists()
    assert cli.main(base + ["--temperature", str(tmp_path / "missing.csv")]) == 1
    assert not (out / "msd.csv").exists()
    assert cli.main(["allan", "--input", str(shifts), "--out-dir", str(out)]) == 1
    assert "unexpected header" in capsys.readouterr().err


@pytest.mark.parametrize("row, bad, message", [
    (0, "t_s,x_nm,y_nm", "unexpected header"),
    (57, "0.5,1.0,2.0", "expected 4 columns, got 3"),
    (57, "0.5,1.0,x,2.0", "non-numeric field"),
], ids=["header", "columns", "non-numeric"])
def test_analyze_names_the_line_of_a_bad_trajectory(tmp_path, odmr_run, capsys, row, bad, message):
    lines = (odmr_run / "truth.csv").read_text().splitlines()
    k = lines.index("t_s,x_nm,y_nm,z_nm") + row
    lines[k] = bad
    traj = tmp_path / "truth.csv"
    traj.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", {"schema_version": 1, "seed": 1})
    assert cli.main(["analyze", "--config", cfg, "--traj", str(traj), "--out-dir", str(out)]) == 1
    assert f"{traj}: line {k + 1}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_force_without_modulus_exits_1(tmp_path, odmr_run, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       {"schema_version": 1, "seed": 1,
                        "analysis": {"force": {"enabled": True}, "psd": {}}})
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", cfg, "--traj", str(odmr_run / "truth.csv"),
                     "--out-dir", str(out)]) == 1
    assert "analysis.modulus" in capsys.readouterr().err
    assert not out.exists()


def test_segment_window_that_cannot_flag_exits_1(tmp_path, capsys):
    # at 2 dims and 95% a 5-step window's critical gamma is 1.017, above
    # any gamma a window can reach; 6 steps give 0.903
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", write_config(tmp_path / "sim.json", brownian_cfg()),
                     "--out-dir", str(sim)]) == 0
    for steps, rc in ((5, 1), (6, 0)):
        cfg = write_config(tmp_path / f"cfg{steps}.json",
                           brownian_cfg(analysis={"segment": {"window_steps": steps}}))
        out = tmp_path / f"out{steps}"
        assert cli.main(["analyze", "--config", cfg, "--traj", str(sim / "truth.csv"),
                         "--out-dir", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert "window_steps 5 gives critical gamma 1.017" in err
            assert not out.exists()
        else:
            assert (out / "labels.csv").exists()


def test_short_temperature_series_exits_1_before_writing(tmp_path, odmr_run, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       {"schema_version": 1, "seed": 1, "analysis": {"psd": {}}})
    short = tmp_path / "temperature.csv"
    short.write_text("t_s,dT_C,sigma_C\n0.0,0.1,0.01\n0.4,0.2,0.01\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", cfg, "--traj", str(odmr_run / "truth.csv"),
                     "--temperature", str(short), "--out-dir", str(out)]) == 1
    assert f"{short}: 2 rows" in capsys.readouterr().err
    assert cli.main(["allan", "--input", str(short), "--out-dir", str(out)]) == 1
    assert f"{short}: 2 rows" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_rejects_off_grid_timestamps(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"schema_version": 1, "seed": 1})
    traj = tmp_path / "traj.csv"
    Trajectory(dt=0.01, points=np.zeros((200, 3))).to_csv(traj)
    text = traj.read_text().replace("\n0.500000,", "\n0.503000,")
    traj.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", cfg, "--traj", str(traj),
                     "--out-dir", str(out)]) == 1
    assert f"{traj}: t_s is off the t0 + k*dt grid" in capsys.readouterr().err
    assert not (out / "msd.csv").exists()


# ---------------------------------------------------------- small commands

def test_crb_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       {"schema_version": 1, "odmr": {"lam0": 10.0}})
    assert cli.main(["crb", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert "CRB sensitivity" in capsys.readouterr().out
    with open(tmp_path / "crb.json") as fh:
        result = json.load(fh)
    assert result["sensitivity_C_per_sqrtHz"] == pytest.approx(2.10, abs=0.05)
    assert result["shift_sigma_hz_per_scan"] > 0


def test_allan_command(tmp_path, odmr_run):
    assert cli.main(["allan", "--input", str(odmr_run / "temperature.csv"),
                     "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "allan.csv").exists()


def test_allan_command_too_short(tmp_path):
    path = tmp_path / "temperature.csv"
    path.write_text("t_s,dT_C,sigma_C\n0.0,0.1,0.01\n0.4,0.2,0.01\n")
    assert cli.main(["allan", "--input", str(path),
                     "--out-dir", str(tmp_path)]) == 1


def test_gamma_null_command(tmp_path, capsys):
    assert cli.main(["gamma-null", "--out-dir", str(tmp_path)]) == 0
    assert "critical gamma" in capsys.readouterr().out
    with open(tmp_path / "gamma_null.json") as fh:
        result = json.load(fh)
    assert result["critical_gamma"] == pytest.approx(0.2276, abs=5e-3)
    assert (tmp_path / "gamma_null.csv").exists()


def test_module_entry_point_runs_without_warnings(tmp_path):
    # runpy warns when the package has already imported the module it runs
    src = os.path.dirname(os.path.dirname(ndsense.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "ndsense.cli",
                           "gamma-null", "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "gamma_null.json").exists()


def test_runtime_failure_exits_2(tmp_path):
    # M=5 is outside the closed-form null's domain: a runtime error, not
    # a config error
    assert cli.main(["gamma-null", "--m", "5",
                     "--out-dir", str(tmp_path)]) == 2
