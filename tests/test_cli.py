"""End-to-end command-line tests: configs, outputs, exit codes, determinism."""

import csv
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
from ndsense import chip, cli, media, odmr
from ndsense._table import read_table
from ndsense.trajectory import Trajectory

from _oracles import naive_cov_variance
from test_golden import CRITERION_13_CFG


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
    with open(tmp_path / "timeline.csv", newline="") as fh:
        t = [float(row["t_s"]) for row in csv.DictReader(fh)]
    assert 0.2 <= max(t) <= 0.3


def test_simulate_failure_writes_nothing(tmp_path, capsys):
    # ODMR needs one whole 0.4 s bin; the run fails before any file is written
    cfg = brownian_cfg(duration=0.3, odmr={"enabled": True})
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out-dir", str(out)]) == 1
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
     "simulate.directed[0].velocity_nm_per_s must be a list of 2 or 3 finite numbers"),
    ([{"start_step": 10, "n_steps": 5, "velocity_nm_per_s": [float("inf"), 0.0]}],
     "simulate.directed[0].velocity_nm_per_s must be a list of 2 or 3 finite numbers"),
    ([{"start_step": 10, "n_steps": 5, "velocity_nm_per_s": 900.0}],
     "simulate.directed[0].velocity_nm_per_s must be a list of 2 or 3 finite numbers"),
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
    # r_hydro takes each trajectory's temperature_C metadata, never a typed list
    ("analysis", "radius_fit", {"temps_C": [33.0, 36.0, 39.0]}),
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


# the rule each config key's value must keep; full_cfg(key) holds the key
KEY_RULES = {
    "schema_version": "version", "seed": "count", "simulate.directed": "sections",
    "simulate.directed[0].velocity_nm_per_s": "velocity", "medium.kind": "kind",
    "schedule.kind": "kind",
    **dict.fromkeys(["medium", "simulate", "tracker", "odmr", "schedule", "analysis",
                     "analysis.modulus", "analysis.psd", "analysis.force",
                     "analysis.segment"], "section"),
    **dict.fromkeys(["medium.D_nm2_per_s", "medium.eta0_pa_s", "medium.mu_pa_s_per_C",
                     "medium.T_ref_C", "medium.temperature_C", "medium.alpha", "medium.K_alpha",
                     "odmr.kappa_khz_per_C", "schedule.T_C", "schedule.start_C",
                     "schedule.step_C", "schedule.dwell_s", "schedule.base_C",
                     "schedule.delta_C", "schedule.half_period_s", "schedule.tau_s",
                     "analysis.modulus.temperature_C"], "number"),
    **dict.fromkeys(["simulate.duration_s", "simulate.dt_s", "tracker.brightness_cps",
                     "odmr.lam0", "odmr.bin_s", "medium.radius_nm", "analysis.max_lag_s",
                     "analysis.modulus.radius_nm", "analysis.psd.window_s"], "positive"),
    **dict.fromkeys(["simulate.directed[0].start_step", "simulate.directed[0].n_steps",
                     "schedule.n_levels", "schedule.n_cycles",
                     "analysis.segment.window_steps"], "count"),
    **dict.fromkeys(["tracker.enabled", "odmr.enabled", "analysis.force.enabled"], "flag"),
}

MEDIA = [{"kind": "brownian", "D_nm2_per_s": 1e4}, VISCOUS_RUN,
         {"kind": "viscoelastic", "alpha": 0.6, "K_alpha": 2e3}]
SCHEDULES = [{"kind": "staircase", "start_C": 24.0, "step_C": 4.0, "dwell_s": 1.0,
              "n_levels": 2, "tau_s": 0.5},
             {"kind": "alternating", "base_C": 20.0, "delta_C": 5.0, "half_period_s": 1.0,
              "n_cycles": 1},
             {"kind": "constant", "T_C": 25.0}]


def full_cfg(key):
    """A valid config with every section; its medium and schedule are of a kind
    that takes ``key``."""
    name = key.rsplit(".", 1)[-1]
    cfg = brownian_cfg(
        medium=dict(next(m for m in MEDIA if name in m) if key.startswith("medium.") else MEDIA[0]),
        schedule=dict(next(s for s in SCHEDULES if name in s)
                      if key.startswith("schedule.") else SCHEDULES[0]),
        tracker={"enabled": False, "brightness_cps": 2e6},
        odmr={"enabled": False, "lam0": 10.0, "kappa_khz_per_C": -60.0, "bin_s": 0.4},
        analysis={"max_lag_s": 0.5, "modulus": {"temperature_C": 25.0, "radius_nm": 50.0},
                  "psd": {"window_s": 0.5}, "force": {"enabled": True},
                  "segment": {"window_steps": 20}})
    cfg["simulate"].update(dt_s=0.01, directed=[
        {"start_step": 10, "n_steps": 5, "velocity_nm_per_s": [900.0, 0.0]}])
    return cfg


def set_key(cfg, key, value):
    *parents, last = key.replace("[0]", ".0").split(".")
    for name in parents:
        cfg = cfg[int(name)] if name.isdigit() else cfg[name]
    cfg[last] = value


NON_NUMBERS = (st.text(max_size=4) | st.just("1e4") | st.booleans() | st.none()
               | st.lists(st.integers(), max_size=3)
               | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
NUMBERS = st.integers() | st.floats()
BREAKS = {
    "number": NON_NUMBERS | NON_FINITE,
    "version": NON_NUMBERS | NON_FINITE | st.integers().filter(lambda v: v != 1),
    "positive": (st.sampled_from([0, 0.0, -0.0]) | st.integers(max_value=-1)
                 | st.floats(max_value=0.0) | NON_NUMBERS | NON_FINITE),
    "count": (NON_NUMBERS | NON_FINITE | st.integers(max_value=-1)
              | st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v % 1 != 0)),
    "flag": st.sampled_from(["no", "true", 0, 1]) | NUMBERS | NON_NUMBERS.filter(
        lambda v: not isinstance(v, bool)),
    "kind": NUMBERS | st.booleans() | st.none() | st.lists(st.text(max_size=2), max_size=2),
    "section": st.text(max_size=4) | NUMBERS | st.booleans() | st.none()
               | st.lists(st.integers(), max_size=2),
    "sections": (st.text(max_size=4) | NUMBERS | st.booleans() | st.none()
                 | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
                 | st.lists(NUMBERS | st.text(max_size=2), min_size=1, max_size=2)),
    "velocity": (st.just("12") | st.text(max_size=4) | NUMBERS | st.booleans() | st.none()
                 | st.lists(st.floats(-1e3, 1e3), max_size=5).filter(lambda v: len(v) not in (2, 3))
                 | st.lists(NON_FINITE | st.text(max_size=1) | st.booleans(), min_size=2,
                            max_size=3)),
}


def test_key_rule_table_covers_the_schema():
    keys = {f"{where}.{key}".removeprefix("config.").replace("[]", "[0]")
            for where, rules in cli._SCHEMA.items() for key in rules}
    assert keys == set(KEY_RULES)


@pytest.mark.parametrize("key", ["medium.D_nm2_per_s", "medium.radius_nm", "medium.alpha",
                                 "schedule.base_C", "schedule.T_C"])
def test_full_configs_run(tmp_path, key):
    path = write_config(tmp_path / "cfg.json", full_cfg(key))
    assert cli.main(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")]) == 0


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(KEY_RULES)), data=st.data())
def test_a_value_that_breaks_its_rule_exits_1_naming_the_key(tmp_path_factory, key, data):
    """A string, bool, null, NaN, infinity, list or object where its rule
    wants something else (or a number outside a positive or whole-count
    rule) stops the run before any output, never converted into one."""
    value = data.draw(BREAKS[KEY_RULES[key]], label="value")
    cfg = full_cfg(key)
    set_key(cfg, key, value)
    root = tmp_path_factory.mktemp("rule")
    path = write_config(root / "cfg.json", cfg)
    err = io.StringIO()
    with redirect_stderr(err):
        assert cli.main(["simulate", "--config", path, "--out-dir", str(root / "out")]) == 1
    assert f"config error: {key}" in err.getvalue()
    assert not (root / "out").exists()


def test_whole_number_duration_runs_as_its_float(tmp_path):
    truth = []
    for duration in (2, 2.0):
        path = write_config(tmp_path / "cfg.json", brownian_cfg(duration=duration))
        out = tmp_path / repr(duration)
        assert cli.main(["simulate", "--config", path, "--out-dir", str(out)]) == 0
        truth.append((out / "truth.csv").read_bytes())
    assert truth[0] == truth[1]


@pytest.mark.parametrize("cmd, cfg, message", [
    ("simulate", brownian_cfg(D="1e4", duration=True),
     'medium.D_nm2_per_s must be a finite number, not "1e4"'),
    ("simulate", brownian_cfg(simulate={"duration_s": 2.0, "directed": [
        {"start_step": 10, "n_steps": 5, "velocity_nm_per_s": "12"}]}),
     'simulate.directed[0].velocity_nm_per_s must be a list of 2 or 3 finite numbers, not "12"'),
    ("simulate", brownian_cfg(tracker={"enabled": "no"}),
     'tracker.enabled must be true or false, not "no"'),
    ("crb", brownian_cfg(odmr={"lam0": -10}), "odmr.lam0 must be a positive finite number"),
    ("analyze", brownian_cfg(analysis={"max_lag_s": -5}),
     "analysis.max_lag_s must be a positive finite number, not -5"),
    ("analyze", brownian_cfg(analysis={"max_lag_s": "1"}),
     'analysis.max_lag_s must be a positive finite number, not "1"'),
    ("analyze", brownian_cfg(analysis={"modulus": {"temperature_C": "25", "radius_nm": 50}}),
     'analysis.modulus.temperature_C must be a finite number, not "25"'),
    ("analyze", brownian_cfg(analysis={"psd": {"window_s": "2"}, "force": {"enabled": "no"}}),
     'analysis.psd.window_s must be a positive finite number, not "2"'),
    ("analyze", brownian_cfg(analysis={"modulus": {"temperature_C": 25, "radius_nm": 50},
                                       "force": {"enabled": "no"}}),
     'analysis.force.enabled must be true or false, not "no"'),
    ("analyze", brownian_cfg(analysis={"segment": {"window_steps": 75.5}}),
     "analysis.segment.window_steps must be a non-negative whole number, not 75.5"),
    # values a library model rejects, named by the key that sets them
    ("simulate", brownian_cfg(D=-1.0), "medium.D_nm2_per_s: D must be finite and non-negative"),
    ("simulate", brownian_cfg(medium={"kind": "viscoelastic", "alpha": 2.5, "K_alpha": 2e3}),
     "medium: alpha must lie in (0, 2]"),
    ("simulate", brownian_cfg(medium={"kind": "viscoelastic", "alpha": 0, "K_alpha": 2e3}),
     "medium: alpha must lie in (0, 2]"),
    ("simulate", brownian_cfg(medium={**VISCOUS_RUN, "temperature_C": 10.0}),
     "medium.temperature_C: viscosity model invalid at T=10.0 degC"),
    ("simulate", brownian_cfg(odmr={"enabled": True, "kappa_khz_per_C": 0}),
     "odmr.kappa_khz_per_C: kappa must be nonzero"),
    ("crb", brownian_cfg(odmr={"kappa_khz_per_C": 0}),
     "odmr.kappa_khz_per_C: kappa must be nonzero"),
    ("simulate", brownian_cfg(duration=0.004),
     "simulate.duration_s 0.004 is under half a dt_s step"),
    ("analyze", brownian_cfg(analysis={"segment": {"window_steps": 1}}),
     "analysis.segment.window_steps: need at least 2 steps per window"),
], ids=["string-D", "string-velocity", "string-flag", "crb-negative-lam0", "negative-lag",
        "string-lag", "string-modulus-T", "string-psd-window", "string-force-flag",
        "fractional-window", "negative-D", "alpha-above-2", "alpha-0", "viscosity-below-0",
        "kappa-0", "crb-kappa-0", "no-step", "one-step-window"])
def test_bad_value_exits_1_naming_its_key_before_writing(tmp_path, capsys, monkeypatch,
                                                         cmd, cfg, message):
    def draw(*args, **kwargs):
        raise AssertionError("a draw ran before the config was checked")

    if "kappa" in message:  # the other models reject their values inside the first draw
        monkeypatch.setattr(media, "simulate_brownian", draw)
        monkeypatch.setattr(odmr, "simulate_shift_series", draw)
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    argv = [cmd, "--config", path, "--out-dir", str(out)]
    if cmd == "analyze":
        argv += ["--traj", str(tmp_path / "never-read.csv")]
    assert cli.main(argv) == 1
    assert f"config error: {message}" in capsys.readouterr().err
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
    columns = ("tau_s", "msd_nm2", "var_nm4", "k")
    # a RuntimeWarning is an error in this suite, and analyze would exit 2
    assert cli.main(argv + ["--config", path]) == 0
    assert read_table(tmp_path / "msd.csv", columns)[1][0].size == 40
    # lags asked for explicitly are kept, with msd's warning
    cfg["analysis"] = {"max_lag_s": 6.0}
    path = write_config(tmp_path / "cfg.json", cfg)
    with pytest.warns(RuntimeWarning, match="above half"):
        assert cli.main(argv + ["--config", path]) == 0
    assert read_table(tmp_path / "msd.csv", columns)[1][0].size == 60
    # 2.3 s / 0.1 s divides to 22.999999999999996 and still asks for 23 lags
    cfg["analysis"] = {"max_lag_s": 2.3}
    path = write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(argv + ["--config", path]) == 0
    taus = read_table(tmp_path / "msd.csv", columns)[1][0]
    assert taus.size == 23 and taus[-1] == pytest.approx(2.3)


def test_analyze_max_lag_far_beyond_the_trajectory(tmp_path):
    # 1e308 s passes the positive-number rule; it must ask for every lag, as
    # ten times the duration does, and not overflow on the way
    cfg = brownian_cfg(duration=2.0)
    path = write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["simulate", "--config", path, "--out-dir", str(tmp_path)]) == 0
    written = {}
    for max_lag_s in (1e308, 10 * 2.0):
        cfg["analysis"] = {"max_lag_s": max_lag_s}
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / f"lag-{max_lag_s:g}"
        with pytest.warns(RuntimeWarning, match="above half"):
            assert cli.main(["analyze", "--config", path, "--traj", str(tmp_path / "truth.csv"),
                             "--out-dir", str(out)]) == 0
        written[max_lag_s] = (out / "msd.csv").read_bytes()
    assert written[1e308] == written[20.0]


def test_analyze_lags_past_the_closed_form_run(tmp_path):
    # 400 lags of a 1,001-point walk: the MSD variance takes lags 1..295 in
    # closed form and lags 296..400 on one FFT pair each, all below N/2
    cfg = brownian_cfg(duration=10.0, analysis={"max_lag_s": 4.0})
    cfg["simulate"]["dt_s"] = 0.01
    path = write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["simulate", "--config", path, "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", path, "--traj", str(tmp_path / "truth.csv"),
                     "--out-dir", str(out)]) == 0
    var = read_table(out / "msd.csv", ("tau_s", "msd_nm2", "var_nm4", "k"))[1][2]
    assert var.size == 400
    xy = Trajectory.from_csv(tmp_path / "truth.csv").points[:, :2].T
    assert xy.shape[1] == 1001
    for lag in (295, 296, 400):
        want = sum(naive_cov_variance(x[lag:] - x[:-lag], lag) for x in xy)
        assert var[lag - 1] == pytest.approx(want, rel=1e-6)


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


@pytest.mark.parametrize("tag, want", [("abc", '"abc"'), ("nan", "NaN"), ("inf", "Infinity")])
def test_analyze_radius_fit_rejects_a_temperature_tag_that_is_no_number(tmp_path, capsys, tag,
                                                                          want):
    paths = []
    for i, temp in enumerate(("33.0", tag, "39.0")):
        traj = media.simulate_brownian(1e4, 400, 0.01, seed=61 + i)
        traj.meta["temperature_C"] = temp
        paths.append(str(tmp_path / f"truth{i}.csv"))
        traj.to_csv(paths[-1])
    out = tmp_path / "out"
    argv = ["analyze", "--config", write_config(tmp_path / "an.json", brownian_cfg(
        medium=VISCOUS_RUN)), "--out-dir", str(out)]
    for p in paths:
        argv += ["--traj", p]
    assert cli.main(argv) == 1
    assert f"config error: {paths[1]}: #temperature_C must be a finite number, not {want}" \
        in capsys.readouterr().err
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


@pytest.fixture(scope="module")
def criterion13_run(tmp_path_factory):
    """Criterion 13's run: 5 s dwells, far shorter than the setpoint's settling
    time, so most bins sit on a ramp. The tracker and segmentation, which
    kappa does not read, are left out; the shifts are the same without them."""
    root = tmp_path_factory.mktemp("criterion13_run")
    cfg = {k: v for k, v in CRITERION_13_CFG.items() if k not in ("tracker", "analysis")}
    path = write_config(root / "cfg.json", cfg)
    out = root / "out"
    assert cli.main(["simulate", "--config", path, "--out-dir", str(out)]) == 0
    return out


def test_analyze_kappa_calibration(tmp_path, odmr_run, criterion13_run):
    cfg = write_config(tmp_path / "cfg.json",
                       {"schema_version": 1, "seed": 1})
    # the criterion-13 run states sigma 29.2: few bins, most on a ramp
    for run, max_sigma in ((odmr_run, 10.0), (criterion13_run, 60.0)):
        out = tmp_path / run.parent.name
        assert cli.main(["analyze", "--config", cfg,
                         "--traj", str(run / "truth.csv"),
                         "--shifts", str(run / "shifts.csv"),
                         "--setpoints", str(run / "setpoints.csv"),
                         "--out-dir", str(out)]) == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        kappa, sigma = summary["kappa_khz_per_C"]
        # every bin, ramps included, against the setpoint at its start: no
        # bias beyond the stated sigma
        assert 0.0 < sigma < max_sigma, (run, sigma)
        assert abs(kappa + 60.0) <= 3.0 * sigma, (run, kappa, sigma)


def test_kappa_from_fewer_than_three_temperatures_exits_1_before_writing(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", brownian_cfg(
        duration=4.0, schedule={"kind": "constant", "T_C": 25.0},
        odmr={"enabled": True, "lam0": 10.0, "kappa_khz_per_C": -60.0, "bin_s": 0.4}))
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(run)]) == 0
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", cfg, "--traj", str(run / "truth.csv"),
                     "--shifts", str(run / "shifts.csv"),
                     "--setpoints", str(run / "setpoints.csv"),
                     "--out-dir", str(out)]) == 1
    assert ("config error: --shifts/--setpoints: need at least 3 distinct temperature"
            in capsys.readouterr().err)
    assert not out.exists()


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


@pytest.mark.parametrize("analysis, message", [
    ({"psd": {"window_s": 100.0}},
     "analysis.psd.window_s: window longer than the trajectory"),
    ({"modulus": {"temperature_C": -300.0, "radius_nm": 50.0}},
     "analysis.modulus.temperature_C: temperature and radius must be positive"),
    ({"segment": {"window_steps": 5000}},
     "analysis.segment.window_steps: trajectory shorter than one window"),
], ids=["psd-window", "modulus-temperature", "segment-window"])
def test_value_the_data_rejects_exits_1_before_writing(tmp_path, capsys, analysis, message):
    # each value is valid on its own and fails only against the 2 s trajectory,
    # after msd.csv could have been written
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", write_config(tmp_path / "sim.json", brownian_cfg()),
                     "--out-dir", str(sim)]) == 0
    cfg = write_config(tmp_path / "cfg.json", brownian_cfg(analysis=analysis))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", cfg, "--traj", str(sim / "truth.csv"),
                     "--out-dir", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_odmr_bin_shorter_than_one_scan_exits_1_before_any_draw(tmp_path, capsys, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a draw ran before the config was checked")

    monkeypatch.setattr(media, "simulate_brownian", draw)
    monkeypatch.setattr(odmr, "simulate_shift_series", draw)
    cfg = write_config(tmp_path / "cfg.json", brownian_cfg(
        odmr={"enabled": True, "lam0": 10.0, "kappa_khz_per_C": -60.0, "bin_s": 1e-9}))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 1
    assert "config error: odmr.bin_s: bin shorter than one scan" in capsys.readouterr().err
    assert not out.exists()


def test_odmr_duration_shorter_than_one_bin_exits_1_before_any_draw(tmp_path, capsys,
                                                                     monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a draw ran before the config was checked")

    monkeypatch.setattr(media, "simulate_brownian", draw)
    monkeypatch.setattr(odmr, "simulate_shift_series", draw)
    cfg = write_config(tmp_path / "cfg.json", brownian_cfg(
        duration=0.3, odmr={"enabled": True, "bin_s": 0.4}))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: simulate.duration_s: duration shorter than one bin" in err
    assert not out.exists()


@pytest.mark.parametrize("lam0", [1e-6, 1e-4])
def test_odmr_sweep_too_dim_to_fit_exits_2_before_writing(tmp_path, capsys, lam0):
    # 150 bins of 160 sweeps: at 1e-6 counts per sample the brightest points
    # hold no photon, at 1e-4 a few, too few for the calibration fit
    cfg = write_config(tmp_path / "cfg.json", brownian_cfg(
        duration=60.0, odmr={"enabled": True, "lam0": lam0, "kappa_khz_per_C": -60.0,
                             "bin_s": 0.4}))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: calibration fit of the reference lineshape")
    assert not out.exists()


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


def test_allan_sensitivity_from_the_positive_deviations(tmp_path, capsys):
    # an alternating +-1 series has zero Allan deviation at even cluster sizes
    # and a positive one at odd sizes: allan and analyze both report the
    # sensitivity of the positive points
    n = 60
    path = tmp_path / "temperature.csv"
    odmr.TemperatureSeries(0.4 * np.arange(n), (-1.0) ** np.arange(n),
                           np.full(n, 0.01)).to_csv(path)
    taus, adev = odmr.allan_deviation((-1.0) ** np.arange(n), 0.4)
    assert (adev == 0).any() and (adev > 0).any()
    sens = odmr.allan_sensitivity(taus, adev)
    assert cli.main(["allan", "--input", str(path), "--out-dir", str(tmp_path)]) == 0
    assert f"Allan sensitivity: {sens:.3f} C/sqrt(Hz)" in capsys.readouterr().out
    cfg = write_config(tmp_path / "cfg.json", brownian_cfg())
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert cli.main(["analyze", "--traj", str(tmp_path / "truth.csv"), "--temperature",
                     str(path), "--out-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "summary.json") as fh:
        assert json.load(fh)["sensitivity_C_per_sqrtHz"] == pytest.approx(sens)


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
