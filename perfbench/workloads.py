"""Workload definitions: ndsense configs and CLI command lines made from a seed.

Standard library only, so that the parent process (run.py) can build the
inputs without importing numpy. The benchmark seed is passed to ndsense as
its master seed; every other input of a workload is fixed here or drawn
from ``random.Random(seed)``.
"""

from __future__ import annotations

import math
import random

DT_S = 9.6e-3  # sample period of the tracked trajectories (one orbit)

# track: photon-level feedback loop on a Brownian emitter.
TRACK_ORBITS = 4_000
TRACK_D = 1e4  # nm^2/s
TRACK_BRIGHTNESS = 2e6  # counts/s

# rheo: MSD variance loop and segmentation on one long trajectory.
RHEO_POINTS = 30_000
RHEO_D = 1e3  # nm^2/s
RHEO_RUN_STEPS = 300
RHEO_RUN_SPEED = 900.0  # nm/s
# Runs sit inside the trajectory, not at its end: the end position hides
# the snap-back after each run that the recall metric is there to show.
RHEO_RUN_FRACTIONS = (0.2, 0.4, 0.6, 0.8)
RHEO_MAX_LAG_S = 1.92  # 200 lags

# thermo: ODMR shift fitting over a 4-level staircase.
THERMO_DURATION_S = 1800.0  # 4500 shift bins of 0.4 s
THERMO_LEVELS = 4
THERMO_START_C = 24.0
THERMO_STEP_C = 4.0
THERMO_KAPPA = -60.0  # kHz/C
THERMO_BIN_S = 0.4
THERMO_TRUTH_DT_S = 1.0  # short, coarse truth trajectory


def _track(seed: int, scale: float) -> dict:
    return {
        "schema_version": 1,
        "seed": seed,
        "medium": {"kind": "brownian", "D_nm2_per_s": TRACK_D},
        "simulate": {"duration_s": round(scale * TRACK_ORBITS) * DT_S,
                     "dt_s": DT_S},
        "tracker": {"enabled": True, "brightness_cps": TRACK_BRIGHTNESS},
    }


def _rheo_runs(seed: int, n_points: int) -> list:
    """Directed runs as (start_step, n_steps, (vx, vy)); directions vary by seed."""
    rnd = random.Random(seed)
    n_steps = min(RHEO_RUN_STEPS, n_points // 10)
    runs = []
    for frac in RHEO_RUN_FRACTIONS:
        angle = rnd.uniform(0.0, 2.0 * math.pi)
        runs.append((int(frac * n_points), n_steps,
                     (RHEO_RUN_SPEED * math.cos(angle),
                      RHEO_RUN_SPEED * math.sin(angle))))
    return runs


def _rheo(seed: int, scale: float) -> dict:
    n_points = round(scale * RHEO_POINTS)
    return {
        "schema_version": 1,
        "seed": seed,
        "medium": {"kind": "brownian", "D_nm2_per_s": RHEO_D},
        "simulate": {
            "duration_s": n_points * DT_S, "dt_s": DT_S,
            "directed": [{"start_step": s, "n_steps": n,
                          "velocity_nm_per_s": list(v)}
                         for s, n, v in _rheo_runs(seed, n_points)],
        },
        "analysis": {
            "max_lag_s": RHEO_MAX_LAG_S,
            "modulus": {"temperature_C": 25.0, "radius_nm": 50.0},
            "psd": {"window_s": 28.8},
            "force": {"enabled": True},
            "segment": {"window_steps": 75},
        },
    }


def _thermo(seed: int, scale: float) -> dict:
    duration = scale * THERMO_DURATION_S
    return {
        "schema_version": 1,
        "seed": seed,
        "medium": {"kind": "brownian", "D_nm2_per_s": RHEO_D},
        "simulate": {"duration_s": duration, "dt_s": THERMO_TRUTH_DT_S},
        "schedule": {"kind": "staircase", "start_C": THERMO_START_C,
                     "step_C": THERMO_STEP_C, "dwell_s": duration / THERMO_LEVELS,
                     "n_levels": THERMO_LEVELS},
        "odmr": {"enabled": True, "lam0": 10.0, "kappa_khz_per_C": THERMO_KAPPA,
                 "bin_s": THERMO_BIN_S},
    }


CONFIGS = {"track": _track, "rheo": _rheo, "thermo": _thermo}

# Files each command declares it writes, per workload.
OUTPUTS = {
    "track": {"simulate": ["truth.csv", "estimate.csv", "diagnostics.csv"],
              "analyze": ["msd.csv", "summary.json"]},
    "rheo": {"simulate": ["truth.csv"],
             "analyze": ["msd.csv", "summary.json", "modulus.csv", "psd.csv",
                         "force.csv", "labels.csv"]},
    "thermo": {"simulate": ["truth.csv", "setpoints.csv", "timeline.csv",
                            "shifts.csv", "temperature.csv"],
               "analyze": ["msd.csv", "summary.json", "allan.csv"]},
}


def config(workload: str, seed: int, scale: float = 1.0) -> dict:
    """The workload's ndsense config; ``scale`` < 1 shrinks it for the self-test."""
    return CONFIGS[workload](seed, scale)


def commands(workload: str, config_path: str, out_dir: str) -> list:
    """The workload's ``ndsense`` argument lists, in the order they run."""
    common = ["--config", config_path, "--out-dir", out_dir]
    analyze = ["analyze", *common]
    if workload == "track":
        analyze += ["--traj", f"{out_dir}/estimate.csv"]
    else:
        analyze += ["--traj", f"{out_dir}/truth.csv"]
    if workload == "thermo":
        analyze += ["--temperature", f"{out_dir}/temperature.csv",
                    "--shifts", f"{out_dir}/shifts.csv",
                    "--setpoints", f"{out_dir}/setpoints.csv"]
    return [["simulate", *common], analyze]
