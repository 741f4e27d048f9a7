"""Command-line surface: reproducible simulation and analysis runs.

Commands read a JSON config with a versioned schema; unknown keys are
rejected so typos cannot silently change a run. All randomness flows
from one master seed through named substreams, and outputs use fixed
number formats so identical inputs give byte-identical files.

Exit codes: 1 for config/validation problems, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import partial

import numpy as np

from . import chip, media, odmr, rheology, segmentation, tracker
from ._table import read_table, write_table
from .constants import celsius_to_kelvin
from .seeding import substream
from .trajectory import Trajectory

SCHEMA_VERSION = 1
_SHIFT_COLUMNS = ("t_s", "delta_f_hz", "sigma_hz")
# tracker config keys and the TrackerConfig fields they set
_TRACKER_FIELDS = {"T_orbit_s": "T_orbit", "R_xy_nm": "R_xy", "w_xy_nm": "w_xy",
                   "R_z_nm": "R_z", "w_z_nm": "w_z", "G": "G", "gain": "gain"}
# viscous-medium config keys and the ViscousMediumModel fields they set
_VISCOUS_FIELDS = {"eta0_pa_s": "eta0", "mu_pa_s_per_C": "mu", "T_ref_C": "T_ref"}

# Allowed keys of each config section, by path; a path ending in "[]" is a
# list of sections. Parents come first, so they are known to be objects
# before their children are looked up.
_SCHEMA = {
    "config": {"schema_version", "seed", "medium", "simulate", "tracker",
               "odmr", "schedule", "analysis"},
    "config.medium": {"kind", "D_nm2_per_s", *_VISCOUS_FIELDS, "temperature_C",
                      "radius_nm", "alpha", "K_alpha"},
    "config.simulate": {"duration_s", "dt_s", "directed"},
    "config.simulate.directed[]": {"start_step", "n_steps", "velocity_nm_per_s"},
    "config.tracker": {"enabled", "brightness_cps", *_TRACKER_FIELDS},
    "config.odmr": {"enabled", "lam0", "kappa_khz_per_C",
                    "kappa_sigma_khz_per_C", "bin_s", "duration_s"},
    "config.schedule": {"kind", "T_C", "start_C", "step_C", "dwell_s",
                        "n_levels", "base_C", "delta_C", "half_period_s",
                        "n_cycles", "tau_s"},
    "config.analysis": {"axes", "max_lag_s", "diffusion", "modulus", "psd",
                        "force", "segment", "radius_fit"},
    "config.analysis.diffusion": {"fit_range_s", "through_origin", "single_tau_s"},
    "config.analysis.modulus": {"temperature_C", "radius_nm"},
    "config.analysis.psd": {"window_s"},
    "config.analysis.force": {"enabled"},
    "config.analysis.segment": {"window_steps", "confidence", "min_length_nm"},
    "config.analysis.radius_fit": {"temps_C"},
}


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


def _check_keys(d, allowed, path: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {path}: {', '.join(sorted(unknown))}")


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"missing required key '{key}' in {path}")
    return d[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_config(path: str | None) -> dict:
    if path is None:
        return {"schema_version": SCHEMA_VERSION}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    for where, allowed in _SCHEMA.items():
        section = cfg
        for key in where.removesuffix("[]").split(".")[1:]:
            section = section.get(key, {})
        for item in (section or ()) if where.endswith("[]") else [section]:
            _check_keys(item, allowed, where)
    version = _need(cfg, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} "
                          f"(expected {SCHEMA_VERSION})")
    return cfg


def _master_seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return int(args.seed)
    if "seed" in cfg:
        return int(cfg["seed"])
    raise ConfigError("no seed: provide --seed or a 'seed' config key")


def _out_dir(args) -> str:
    out = args.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- simulate

def _constant_schedule(T_C, **kwargs):
    return chip.TemperatureSchedule(steps=((0.0, T_C),), **kwargs)


def _build_schedule(cfg: dict):
    """Schedule from its config section; keys left out take the builder's defaults."""
    kind = _need(cfg, "kind", "schedule")
    # looked up at call time, so a patched chip builder is the one called
    builder = {"constant": _constant_schedule, "staircase": chip.staircase_schedule,
               "alternating": chip.alternating_schedule}.get(kind)
    if builder is None:
        raise ConfigError(f"unknown schedule kind: {kind}")
    params = {key: value for key, value in cfg.items() if key != "kind"}
    for key, value in params.items():
        if not _is_number(value):
            raise ConfigError(f"schedule key '{key}' must be a number, not {value!r}")
    try:
        return builder(**params)
    except (TypeError, ValueError) as exc:  # a key of another kind, a missing or bad value
        raise ConfigError(f"{kind} schedule: {exc}") from exc


def _simulate_truth(cfg: dict, seed: int) -> Trajectory:
    med = _need(cfg, "medium", "config")
    sim = _need(cfg, "simulate", "config")
    duration = float(_need(sim, "duration_s", "simulate"))
    dt = float(sim.get("dt_s", tracker.TrackerConfig.T_orbit))
    if duration <= 0 or dt <= 0:
        raise ConfigError("simulate.duration_s and dt_s must be positive")
    n_steps = int(round(duration / dt))
    rng = substream(seed, "medium")
    kind = _need(med, "kind", "medium")
    meta = {"kind": kind}

    if kind == "brownian":
        d_val = float(_need(med, "D_nm2_per_s", "medium"))
        traj = media.simulate_brownian(d_val, n_steps, dt, rng)
        meta["D_nm2_per_s"] = d_val
    elif kind == "viscous":
        temp = float(_need(med, "temperature_C", "medium"))
        radius = float(_need(med, "radius_nm", "medium"))
        eta = media.viscosity_at(_viscous_model(med), temp)
        d_val = media.stokes_einstein_D(celsius_to_kelvin(temp), radius, eta)
        traj = media.simulate_brownian(d_val, n_steps, dt, rng)
        meta.update(D_nm2_per_s=d_val, temperature_C=temp, radius_nm=radius)
    elif kind == "viscoelastic":
        model = media.ViscoelasticModel(alpha=float(_need(med, "alpha", "medium")),
                                        K_alpha=float(_need(med, "K_alpha", "medium")))
        traj = media.simulate_viscoelastic(model, n_steps, dt, rng)
        meta.update(alpha=model.alpha, K_alpha=model.K_alpha)
    else:
        raise ConfigError(f"unknown medium kind: {kind}")

    traj.meta.update(meta)

    specs = [media.DirectedSegmentSpec(
        start=int(_need(d, "start_step", "directed")),
        duration=int(_need(d, "n_steps", "directed")),
        velocity=tuple(_need(d, "velocity_nm_per_s", "directed")))
        for d in sim.get("directed") or []]
    return media.inject_directed(traj, specs) if specs else traj


def _viscous_model(med: dict) -> media.ViscousMediumModel:
    return media.ViscousMediumModel(**{field: float(_need(med, key, "medium"))
                                       for key, field in _VISCOUS_FIELDS.items()})


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = _master_seed(cfg, args)

    truth = _simulate_truth(cfg, seed)
    duration_s = float(cfg["simulate"]["duration_s"])

    tr_cfg = cfg.get("tracker", {})
    # keys left out take the TrackerConfig defaults
    tcfg = tracker.TrackerConfig(**{field: tr_cfg[key] for key, field
                                    in _TRACKER_FIELDS.items() if key in tr_cfg})
    od_cfg = cfg.get("odmr", {})
    schedule = _build_schedule(cfg["schedule"]) if "schedule" in cfg else None

    # every output is computed before the first is written, so a failed
    # run leaves no files behind; each value writes one file
    outputs = {"truth.csv": truth.to_csv}

    if tr_cfg.get("enabled", False):
        brightness = float(tr_cfg.get("brightness_cps", 2e6))
        est, diag = tracker.track(truth, tcfg, brightness,
                                  substream(seed, "tracker-photons"))
        outputs.update({"estimate.csv": est.to_csv, "diagnostics.csv": diag.to_csv})

    if schedule is not None:
        times, temps = chip.setpoint_series(schedule, dt=1.0, duration=duration_s)
        events = chip.schedule_timeline(chip.DutyCycleSchedule(),
                                        duration=min(2.0, duration_s))
        outputs["setpoints.csv"] = partial(chip.setpoints_to_csv, times, temps)
        outputs["timeline.csv"] = partial(chip.timeline_to_csv, events)

    if od_cfg.get("enabled", False):
        kappa = float(od_cfg.get("kappa_khz_per_C",
                                 odmr.DEFAULT_KAPPA_KHZ_PER_C))
        kappa_sigma = float(od_cfg.get("kappa_sigma_khz_per_C", 0.4))
        lam0 = float(od_cfg.get("lam0", odmr.DEFAULT_PHOTON_BUDGET))
        duration = float(od_cfg.get("duration_s", duration_s))
        bin_s = float(od_cfg.get("bin_s", odmr.DEFAULT_BIN_S))
        if schedule is not None:
            base = schedule.steps[0][1]
            bin_times, bin_temps = chip.setpoint_series(schedule, dt=bin_s,
                                                        duration=duration)

            def shift_of_t(t):
                return kappa * 1e3 * (np.interp(t, bin_times, bin_temps) - base)
        else:
            shift_of_t = None  # no schedule: zero true shift
        series = odmr.simulate_shift_series(
            odmr.default_lineshape(), lam0, duration, substream(seed, "odmr-photons"),
            delta_f_of_t=shift_of_t, bin_s=bin_s)
        outputs["shifts.csv"] = partial(write_table, columns=[
            (name, col, "%.6f") for name, col in zip(
                _SHIFT_COLUMNS, (series.times, series.delta_f, series.sigma))])
        cal = odmr.KappaCalibration(kappa_khz_per_C=kappa,
                                    sigma_khz_per_C=kappa_sigma)
        outputs["temperature.csv"] = odmr.shift_series_to_temperature(series, cal).to_csv

    out = _out_dir(args)
    for name, write in outputs.items():
        write(os.path.join(out, name))
    print("wrote " + ", ".join(outputs))
    return 0


# ----------------------------------------------------------------- analyze

def _read_input(reader, path, *args):
    """Read one input table; an unreadable or malformed file is a config error."""
    try:
        return reader(path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot read input: {exc}") from exc
    except ValueError as exc:
        msg = str(exc)
        raise ConfigError(msg if msg.startswith(path) else f"{path}: {msg}") from exc


def _fit_D(traj: Trajectory, an: dict, axes: str):
    dcfg = an.get("diffusion", {})
    max_lag_s = an.get("max_lag_s", 50 * traj.dt)
    max_lag = max(int(max_lag_s / traj.dt), 2)
    lags = np.arange(1, min(max_lag, traj.points.shape[0] - 1) + 1)
    curve = rheology.msd(traj, axes=axes, lags=lags)
    fit_range = dcfg.get("fit_range_s")
    fit = rheology.fit_diffusion(
        curve,
        fit_range=tuple(fit_range) if fit_range else None,
        through_origin=dcfg.get("through_origin", False),
        single_tau=dcfg.get("single_tau_s"))
    return curve, fit


def _read_temperature(path):
    """Read a temperature series; Allan analysis needs at least 3 rows."""
    series = _read_input(odmr.TemperatureSeries.from_csv, path)
    if series.times.size < 3:
        raise ConfigError(f"{path}: {series.times.size} rows, Allan analysis needs 3")
    return series


def _allan(series, out: str):
    """Allan deviation of a temperature series, also written to allan.csv."""
    dt_s = float(np.median(np.diff(series.times)))
    taus, adev = odmr.allan_deviation(series.dT_C, dt_s)
    write_table(os.path.join(out, "allan.csv"),
                [("tau_s", taus, "%.6f"), ("adev_C", adev, "%.6e")])
    return taus, adev


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    an = cfg.get("analysis", {})
    axes = an.get("axes", "xy")
    force_on = an.get("force", {}).get("enabled", False)
    if force_on and "modulus" not in an:
        raise ConfigError("analysis.force needs analysis.modulus for the force split")
    if not args.traj:
        raise ConfigError("analyze needs at least one --traj file")
    med = cfg.get("medium", {})
    viscous = _VISCOUS_FIELDS.keys() <= med.keys()
    if "radius_fit" in an:
        temps = an["radius_fit"].get("temps_C")
        if (not isinstance(temps, list) or len(temps) != len(args.traj) or len(temps) < 3
                or not viscous or not all(_is_number(t) for t in temps)):
            raise ConfigError("analysis.radius_fit needs one temps_C number per --traj file "
                              f"(at least 3) and medium {', '.join(_VISCOUS_FIELDS)}")
    # every input is read before the first output is written
    trajs = [_read_input(Trajectory.from_csv, p) for p in args.traj]
    temperature = _read_temperature(args.temperature) if args.temperature else None
    kappa_inputs = None
    if args.shifts and args.setpoints:
        kappa_inputs = (_read_input(read_table, args.shifts, _SHIFT_COLUMNS)[1],
                        _read_input(read_table, args.setpoints, chip.SETPOINT_COLUMNS)[1])
    out = _out_dir(args)

    summary: dict = {"n_trajectories": len(trajs)}
    traj = trajs[0]
    summary["n_points"] = int(traj.points.shape[0])
    summary["duration_s"] = round(traj.duration, 9)

    curve, dfit = _fit_D(traj, an, axes)
    curve.to_csv(os.path.join(out, "msd.csv"))
    summary["D_nm2_per_s"] = [dfit.D, dfit.sigma]
    if dfit.below_floor:
        summary["D_below_noise_floor"] = True
    try:
        afit = rheology.anomalous_exponent(curve)
        summary["alpha"] = [afit.alpha, afit.sigma]
    except ValueError:
        pass

    if "modulus" in an:
        mcfg = an["modulus"]
        t_k = celsius_to_kelvin(float(_need(mcfg, "temperature_C", "analysis.modulus")))
        r_nm = float(_need(mcfg, "radius_nm", "analysis.modulus"))
        mod = rheology.complex_modulus(curve, t_k, r_nm)
        mod.to_csv(os.path.join(out, "modulus.csv"))
    if "psd" in an or force_on:
        window = an.get("psd", {}).get("window_s", rheology.DEFAULT_PSD_WINDOW_S)
        spec = rheology.psd(traj, axes=axes, window_s=window)
        spec.to_csv(os.path.join(out, "psd.csv"))
        summary["psd_at_40hz_nm2_per_hz"] = spec.value_at(40.0) \
            if spec.freqs.max() >= 40.0 else None
        if force_on:
            force = rheology.external_force_spectrum(spec, mod, r_nm, t_k)
            force.to_csv(os.path.join(out, "force.csv"))
            summary["force_clipped_points"] = int(force.clipped.sum())

    if "segment" in an:
        scfg = an["segment"]
        null = segmentation.gamma_null(
            N=scfg.get("window_steps", segmentation.DEFAULT_WINDOW_STEPS),
            M=len(axes),
            confidence=scfg.get("confidence", segmentation.DEFAULT_CONFIDENCE))
        labels = segmentation.segment(
            traj, null, axes=axes,
            min_length_nm=scfg.get("min_length_nm",
                                   segmentation.DEFAULT_MIN_LENGTH_NM))
        classes = segmentation.class_exponents(traj, labels, axes=axes)
        segmentation.labels_to_csv(labels,
                                   os.path.join(out, "labels.csv"))
        summary["segments"] = dict(Counter(lab.cls for lab in labels))
        summary["critical_gamma"] = null.critical_gamma
        summary["class_alpha"] = {
            name: {"mean": st.mean, "sd": st.sd, "n": st.n_segments,
                   "degenerate": st.degenerate}
            for name, st in classes.classes.items()}

    temps = an["radius_fit"]["temps_C"] if "radius_fit" in an else \
        [t.meta.get("temperature_C") for t in trajs]
    if len(trajs) >= 3 and viscous and None not in temps:
        # the first trajectory's fit is the one summarised above
        fits = [dfit] + [_fit_D(t, an, axes)[1] for t in trajs[1:]]
        pairs = [(float(temp), fit.D) for temp, fit in zip(temps, fits)]
        sig = [fit.sigma for fit in fits]
        if not all(np.isfinite(s) and s > 0 for s in sig):
            sig = None
        rfit = rheology.fit_hydrodynamic_radius(pairs, _viscous_model(med), sigma_D=sig)
        summary["r_hydro_nm"] = [rfit.r_nm, rfit.sigma_nm]

    if temperature is not None:
        taus, adev = _allan(temperature, out)
        if (adev > 0).any():
            summary["sensitivity_C_per_sqrtHz"] = odmr.allan_sensitivity(taus, adev)

    if kappa_inputs is not None:
        (shift_t, delta_f, sigma), (sp_t, sp_T) = kappa_inputs
        levels = np.interp(shift_t, sp_t, sp_T)
        # snap to the nearest commanded level so scatter during ramps
        # does not smear the staircase groups
        targets = np.unique(np.round(sp_T, 1))
        snapped = targets[np.argmin(np.abs(levels[:, None] - targets[None, :]),
                                    axis=1)]
        cal = odmr.calibrate_kappa(snapped, delta_f, sigma_hz=sigma)
        summary["kappa_khz_per_C"] = [cal.kappa_khz_per_C, cal.sigma_khz_per_C]

    _write_json(summary, os.path.join(out, "summary.json"))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ------------------------------------------------------- small subcommands

def cmd_crb(args) -> int:
    od = load_config(args.config).get("odmr", {})
    lam0 = float(od.get("lam0", odmr.DEFAULT_PHOTON_BUDGET))
    kappa = float(od.get("kappa_khz_per_C", odmr.DEFAULT_KAPPA_KHZ_PER_C))
    shape = odmr.default_lineshape()
    sens = odmr.crb_temperature_sensitivity(shape, lam0, kappa)
    per_scan = odmr.shift_bound_per_scan(shape, lam0)
    result = {"sensitivity_C_per_sqrtHz": sens,
              "shift_sigma_hz_per_scan": per_scan,
              "lam0": lam0, "kappa_khz_per_C": kappa}
    _write_json(result, os.path.join(_out_dir(args), "crb.json"))
    print(f"CRB sensitivity: {sens:.3f} C/sqrt(Hz) "
          f"(shift bound {per_scan / 1e3:.1f} kHz/scan)")
    return 0


def cmd_allan(args) -> int:
    series = _read_temperature(args.input)
    taus, adev = _allan(series, _out_dir(args))
    if (adev > 0).all():
        sens = odmr.allan_sensitivity(taus, adev)
        print(f"Allan sensitivity: {sens:.3f} C/sqrt(Hz)")
    else:
        print("Allan deviation contains zeros (constant input?)")
    return 0


def cmd_gamma_null(args) -> int:
    null = segmentation.gamma_null(N=args.n, M=args.m,
                                   confidence=args.confidence)
    out = _out_dir(args)
    write_table(os.path.join(out, "gamma_null.csv"),
                [("gamma", null.gammas, "%.6f"), ("pdf", null.pdf, "%.6e")])
    _write_json({"N": null.N, "M": null.M, "confidence": null.confidence,
                 "critical_gamma": null.critical_gamma},
                os.path.join(out, "gamma_null.json"))
    print(f"critical gamma = {null.critical_gamma:.4f} "
          f"(N={null.N}, M={null.M}, {100 * null.confidence:.0f}%)")
    return 0


# -------------------------------------------------------------------- main

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--out-dir", help="output directory (default: cwd)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndsense",
        description="Dual-mode nanodiamond sensing simulator and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate truth/tracking/ODMR runs")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="MSD, moduli, spectra, segmentation")
    _add_common(p)
    p.add_argument("--traj", action="append",
                   help="trajectory CSV (repeatable)")
    p.add_argument("--temperature", help="temperature CSV for Allan analysis")
    p.add_argument("--shifts", help="fitted shift CSV for kappa calibration")
    p.add_argument("--setpoints", help="setpoint CSV for kappa calibration")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("crb", help="thermometry sensitivity bound")
    _add_common(p)
    p.set_defaults(func=cmd_crb)

    p = sub.add_parser("allan", help="Allan deviation of a temperature CSV")
    _add_common(p)
    p.add_argument("--input", required=True, help="temperature CSV")
    p.set_defaults(func=cmd_allan)

    p = sub.add_parser("gamma-null", help="directionality-ratio null")
    _add_common(p)
    p.add_argument("--n", type=int, default=segmentation.DEFAULT_WINDOW_STEPS,
                   help="steps per window")
    p.add_argument("--m", type=int, default=segmentation.DEFAULT_DIMS, help="dimensions")
    p.add_argument("--confidence", type=float, default=segmentation.DEFAULT_CONFIDENCE)
    p.set_defaults(func=cmd_gamma_null)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
