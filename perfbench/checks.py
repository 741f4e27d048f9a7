"""Output checks of one workload run, and the quality numbers read from outputs.

Every check is one operation of the run: ``check_files`` and
``check_results`` return lists of ``(name, ok, detail)``, and a failed check
is counted, never raised. The
files are parsed here, not with ndsense's own readers, so that a reader bug
cannot hide a writer bug. Tolerances come from ``calibrate.py`` (spread of
each estimator over 20 seeds); README.md records the measured spreads.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import workloads as wl

# Accepted ranges: mean +- 5 sd of each estimator over seeds 1..20 at full
# size (calibrate.py), widened to round numbers. README.md has the values.
TRACK_D_RATIO = (0.55, 1.45)      # D from estimate.csv / configured D: 1.008 +- 0.086
RHEO_ALPHA = (0.98, 1.02)         # non-directed class exponent: 0.9995 +- 0.0024
THERMO_Z_WITHIN_3 = 0.99          # share of bins within 3 sigma: 0.9975 +- 0.0007
# |kappa - set| / |set|: 0.10 +- 0.13. Wide because analyze snaps shifts to
# ramp transients as well as plateaus; odmr.kappa_rel_err reports it.
THERMO_KAPPA_REL = 0.75

LOCK_LOST_RUN = 5  # consecutive unlocked updates that declare lock loss
TEXT_COLUMNS = {"class", "alpha", "channel"}


def read_csv(path: str) -> dict:
    """Strict CSV parse: header, equal-width rows, numeric fields, final newline.

    Returns column name -> float array (text columns -> list of str).
    Raises ValueError on any defect.
    """
    with open(path) as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError("file does not end with a newline")
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise ValueError("no data rows")
    header = lines[0].split(",")
    cols: list = [[] for _ in header]
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"row {lineno}: {len(parts)} fields, header has {len(header)}")
        for col, part in zip(cols, parts):
            col.append(part)
    out: dict = {}
    for name, col in zip(header, cols):
        if name in TEXT_COLUMNS:
            out[name] = col
        else:
            out[name] = np.array([float(v) for v in col])
    return out


def _n_steps(cfg: dict) -> int:
    sim = cfg["simulate"]
    return int(round(sim["duration_s"] / sim["dt_s"]))


def expected_rows(workload: str, cfg: dict) -> dict:
    """Row counts the CLI must write for this config, per file name."""
    n_steps = _n_steps(cfg)
    dt = cfg["simulate"]["dt_s"]
    rows = {"truth.csv": n_steps + 1}
    if workload == "track":
        n_orbits = int(dt * n_steps / wl.DT_S)
        rows.update({"estimate.csv": n_orbits, "diagnostics.csv": n_orbits})
        traj_dt, traj_n = wl.DT_S, n_orbits
    else:
        traj_dt, traj_n = dt, n_steps + 1
    max_lag_s = cfg.get("analysis", {}).get("max_lag_s", 50 * traj_dt)
    rows["msd.csv"] = min(max(int(max_lag_s / traj_dt), 2), traj_n - 1)
    if workload == "thermo":
        duration = cfg["simulate"]["duration_s"]
        n_bins = int(duration / cfg["odmr"]["bin_s"])
        rows.update({"shifts.csv": n_bins, "temperature.csv": n_bins,
                     "setpoints.csv": len(np.arange(0.0, duration + 0.5, 1.0))})
    return rows


def _check_file(path: str, n_rows) -> tuple:
    name = os.path.basename(path)
    try:
        if name.endswith(".json"):
            with open(path) as fh:
                obj = json.load(fh)
            if not isinstance(obj, dict) or "n_points" not in obj:
                return False, "summary without n_points"
            return True, ""
        cols = read_csv(path)
    except (OSError, ValueError) as exc:
        return False, str(exc)
    got = len(next(iter(cols.values())))
    if n_rows is not None and got != n_rows:
        return False, f"{got} rows, expected {n_rows}"
    return True, ""


def check_files(workload: str, cfg: dict, out_dir: str, command: str) -> list:
    """One check per file the command declares: it exists, parses, is complete."""
    rows = expected_rows(workload, cfg)
    return [(f"{command}:{name}", *_check_file(os.path.join(out_dir, name), rows.get(name)))
            for name in wl.OUTPUTS[workload][command]]


def _summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def _guarded(name: str, fn, cfg: dict, out_dir: str) -> tuple:
    """Run one workload check; a missing or malformed input fails it."""
    try:
        ok, detail = fn(cfg, out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return name, False, f"{type(exc).__name__}: {exc}"
    return name, bool(ok), detail


def _in(value: float, lo: float, hi: float) -> tuple:
    return lo <= value <= hi, f"{value:.4g} (accepted {lo:g}..{hi:g})"


def _track_d(cfg, out_dir):
    d_fit = _summary(out_dir)["D_nm2_per_s"][0]
    return _in(d_fit / cfg["medium"]["D_nm2_per_s"], *TRACK_D_RATIO)


def longest_unlocked_run(locked) -> int:
    longest = run = 0
    for v in locked:
        run = 0 if v else run + 1
        longest = max(longest, run)
    return longest


def _track_lock(cfg, out_dir):
    run = longest_unlocked_run(read_csv(os.path.join(out_dir, "diagnostics.csv"))["locked"])
    return run < LOCK_LOST_RUN, f"longest unlocked run {run}"


def read_labels(out_dir: str) -> list:
    cols = read_csv(os.path.join(out_dir, "labels.csv"))
    return list(zip(cols["start_idx"].astype(int), cols["end_idx"].astype(int), cols["class"]))


def _rheo_partition(cfg, out_dir):
    labels = read_labels(out_dir)
    last = _n_steps(cfg)
    ok = (labels[0][0] == 0 and labels[-1][1] == last
          and all(s < e for s, e, _ in labels)
          and all(a[1] == b[0] for a, b in zip(labels, labels[1:])))
    return ok, f"{len(labels)} labels over [0, {last}]"


def _rheo_alpha(cfg, out_dir):
    alpha = _summary(out_dir)["class_alpha"]["non-directed"]["mean"]
    return _in(alpha, *RHEO_ALPHA)


def staircase_shift_hz(cfg: dict, t) -> np.ndarray:
    """True shift of the staircase schedule, from its closed form.

    First-order approach to each level with the chip's default ramp
    constant (99% settled in 120 s), starting settled at the first level.
    """
    sch = cfg["schedule"]
    tau = 120.0 / math.log(100.0)
    t = np.asarray(t, dtype=float)
    temp = np.full(t.shape, float(sch["start_C"]))
    for k in range(1, sch["n_levels"]):
        t0 = k * sch["dwell_s"]
        after = t >= t0
        temp[after] += sch["step_C"] * (1.0 - np.exp(-(t[after] - t0) / tau))
    return cfg["odmr"]["kappa_khz_per_C"] * 1e3 * (temp - sch["start_C"])


def shift_z(cfg: dict, out_dir: str) -> np.ndarray:
    """Fitted-minus-true shift of each bin in units of its reported sigma.

    The fit's interpolation table is built from the run's own scans, so its
    zero is the run-mean spectrum; the mean offset is removed before scaling.
    """
    cols = read_csv(os.path.join(out_dir, "shifts.csv"))
    resid = cols["delta_f_hz"] - staircase_shift_hz(cfg, cols["t_s"])
    return (resid - np.median(resid)) / cols["sigma_hz"]


def _thermo_shifts(cfg, out_dir):
    within = float(np.mean(np.abs(shift_z(cfg, out_dir)) <= 3.0))
    return within >= THERMO_Z_WITHIN_3, \
        f"{within:.4f} of bins within 3 sigma (accepted >= {THERMO_Z_WITHIN_3})"


def kappa_rel_err(cfg: dict, out_dir: str) -> float:
    kappa = _summary(out_dir)["kappa_khz_per_C"][0]
    kappa_set = cfg["odmr"]["kappa_khz_per_C"]
    return abs(kappa - kappa_set) / abs(kappa_set)


def _thermo_kappa(cfg, out_dir):
    return _in(kappa_rel_err(cfg, out_dir), 0.0, THERMO_KAPPA_REL)


_WORKLOAD_CHECKS = {
    "track": [("track:D", _track_d), ("track:lock", _track_lock)],
    "rheo": [("rheo:partition", _rheo_partition), ("rheo:alpha", _rheo_alpha)],
    "thermo": [("thermo:shifts", _thermo_shifts), ("thermo:kappa", _thermo_kappa)],
}


def check_results(workload: str, cfg: dict, out_dir: str) -> list:
    """The workload's science checks on the analyze outputs."""
    return [_guarded(name, fn, cfg, out_dir) for name, fn in _WORKLOAD_CHECKS[workload]]


def directed_recall(cfg: dict, out_dir: str) -> float:
    """Share of injected directed runs that a "directed" label covers at least half of."""
    runs = cfg["simulate"]["directed"]
    directed = [(s, e) for s, e, cls in read_labels(out_dir) if cls == "directed"]
    found = 0
    for run in runs:
        s0, s1 = run["start_step"], run["start_step"] + run["n_steps"]
        cover = sum(max(0, min(s1, e) - max(s0, s)) for s, e in directed)
        found += cover >= 0.5 * (s1 - s0)
    return found / len(runs)
