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
from collections import ChainMap, Counter
from functools import partial

import numpy as np

from . import chip, media, odmr, rheology, segmentation, tracker
from ._numeric import whole_units
from ._table import read_table, write_table
from .constants import celsius_to_kelvin
from .seeding import substream
from .trajectory import Trajectory

SCHEMA_VERSION = 1
_SHIFT_COLUMNS = ("t_s", "delta_f_hz", "sigma_hz")
# viscous-medium config keys and the ViscousMediumModel fields they set
_VISCOUS_FIELDS = {"eta0_pa_s": "eta0", "mu_pa_s_per_C": "mu", "T_ref_C": "T_ref"}


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


def _rule(what: str, accepts, convert=lambda value: value):
    """A value rule: ``convert(value)``, or a config error naming the key."""
    def check(value, key: str):
        if not accepts(value):
            raise ConfigError(f"{key} must be {what}, not {json.dumps(value)}")
        return convert(value)
    return check


def _finite(v) -> bool:  # a JSON number, not a bool, NaN, infinity or int beyond float range
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


_number = _rule("a finite number", _finite, float)
_positive = _rule("a positive finite number", lambda v: _finite(v) and v > 0, float)
_count = _rule("a non-negative whole number", lambda v: _finite(v) and v >= 0 and v % 1 == 0, int)
_flag = _rule("true or false", lambda v: isinstance(v, bool))
_kind = _rule("a string", lambda v: isinstance(v, str))
_velocity = _rule("a list of 2 or 3 finite numbers",
                  lambda v: isinstance(v, list) and len(v) in (2, 3) and all(map(_finite, v)),
                  lambda v: tuple(map(float, v)))
_version = _rule(str(SCHEMA_VERSION), lambda v: _finite(v) and v == SCHEMA_VERSION, int)
_object = _rule("a JSON object", lambda v: isinstance(v, dict))
_list = _rule("a list", lambda v: isinstance(v, list))


def _section(value, path: str, rules=None) -> dict:
    """The JSON object at config ``path``, each value converted by its rule in
    ``rules``, by default the path's ``_SCHEMA`` entry."""
    where = f"config.{path}".rstrip(".")
    rules = _SCHEMA[where] if rules is None else rules
    unknown = set(_object(value, path or "config")) - set(rules)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    return {key: rules[key](item, f"{path}.{key}".lstrip(".")) for key, item in value.items()}


def _sections(value, path: str) -> list:
    rules = _SCHEMA[f"config.{path}[]"]
    return [_section(item, f"{path}[{i}]", rules) for i, item in enumerate(_list(value, path))]


# medium keys each kind takes besides "kind", with their rules
_MEDIUM_KEYS = {"brownian": {"D_nm2_per_s": _number},
                "viscous": {**dict.fromkeys([*_VISCOUS_FIELDS, "temperature_C"], _number),
                            "radius_nm": _positive},
                "viscoelastic": {"alpha": _number, "K_alpha": _number}}

# The one rule of each config key, by section path ("[]": each entry of a list)
_SCHEMA = {
    "config": {"schema_version": _version, "seed": _count, **dict.fromkeys(
        ("medium", "simulate", "tracker", "odmr", "schedule", "analysis"), _section)},
    "config.medium": {"kind": _kind, **ChainMap(*_MEDIUM_KEYS.values())},
    "config.simulate": {"duration_s": _positive, "dt_s": _positive, "directed": _sections},
    "config.simulate.directed[]": {"start_step": _count, "n_steps": _count,
                                   "velocity_nm_per_s": _velocity},
    "config.tracker": {"enabled": _flag, "brightness_cps": _positive},
    "config.odmr": {"enabled": _flag, "lam0": _positive, "kappa_khz_per_C": _number,
                    "bin_s": _positive},
    "config.schedule": {"kind": _kind, "n_levels": _count, "n_cycles": _count, **dict.fromkeys(
        ("T_C", "start_C", "step_C", "dwell_s", "base_C", "delta_C", "half_period_s", "tau_s"),
        _number)},
    "config.analysis": {"max_lag_s": _positive, **dict.fromkeys(
        ("modulus", "psd", "force", "segment"), _section)},
    "config.analysis.modulus": {"temperature_C": _number, "radius_nm": _positive},
    "config.analysis.psd": {"window_s": _positive},
    "config.analysis.force": {"enabled": _flag},
    "config.analysis.segment": {"window_steps": _count},
}


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"missing required key '{key}' in {path}")
    return d[key]


def _model(where: str, build, *args, **kwargs):
    """Call ``build``; a value or key it rejects is a config error naming ``where``."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str | None) -> dict:
    """The config at ``path``, each value converted by its ``_SCHEMA`` rule."""
    if path is None:
        return {"schema_version": SCHEMA_VERSION}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _section(cfg, "")
    kind = cfg.get("medium", {}).get("kind")
    if kind in _MEDIUM_KEYS:  # a known kind takes only its own keys
        _section(cfg["medium"], f"medium ({kind})", {"kind": _kind, **_MEDIUM_KEYS[kind]})
    _need(cfg, "schema_version", "config")
    return cfg


def _master_seed(cfg: dict, args) -> int:
    seed = cfg.get("seed") if args.seed is None else _count(args.seed, "--seed")
    if seed is None:
        raise ConfigError("no seed: provide --seed or a 'seed' config key")
    return seed


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
    return _model(f"{kind} schedule", builder,
                  **{key: value for key, value in cfg.items() if key != "kind"})


def _simulate_truth(cfg: dict, seed: int) -> Trajectory:
    med = _need(cfg, "medium", "config")
    sim = _need(cfg, "simulate", "config")
    duration = _need(sim, "duration_s", "simulate")
    dt = sim.get("dt_s", tracker.TrackerConfig.T_orbit)
    n_steps = round(duration / dt)
    if n_steps < 1:
        raise ConfigError(f"simulate.duration_s {duration:g} is under half a dt_s step")
    specs = _directed_specs(sim, n_steps)
    rng = substream(seed, "medium")
    kind = _need(med, "kind", "medium")
    meta = {"kind": kind}

    if kind == "brownian":
        d_val = _need(med, "D_nm2_per_s", "medium")
        traj = _model("medium.D_nm2_per_s", media.simulate_brownian, d_val, n_steps, dt, rng)
        meta["D_nm2_per_s"] = d_val
    elif kind == "viscous":
        temp = _need(med, "temperature_C", "medium")
        radius = _need(med, "radius_nm", "medium")
        eta = _model("medium.temperature_C", media.viscosity_at, _viscous_model(med), temp)
        d_val = _model("medium.temperature_C", media.stokes_einstein_D,
                       celsius_to_kelvin(temp), radius, eta)
        traj = media.simulate_brownian(d_val, n_steps, dt, rng)
        meta.update(D_nm2_per_s=d_val, temperature_C=temp, radius_nm=radius)
    elif kind == "viscoelastic":
        model = _model("medium", media.ViscoelasticModel, alpha=_need(med, "alpha", "medium"),
                       K_alpha=_need(med, "K_alpha", "medium"))
        traj = media.simulate_viscoelastic(model, n_steps, dt, rng)
        meta.update(alpha=model.alpha, K_alpha=model.K_alpha)
    else:
        raise ConfigError(f"unknown medium kind: {kind}")

    traj.meta.update(meta)
    return media.inject_directed(traj, specs) if specs else traj


def _directed_specs(sim: dict, n_steps: int) -> list:
    """The runs of `simulate.directed`; a bad entry is a config error naming it."""
    specs = []
    for i, d in enumerate(sim.get("directed", [])):
        where = f"simulate.directed[{i}]"
        specs.append(_model(where, media.DirectedSegmentSpec, _need(d, "start_step", where),
                            _need(d, "n_steps", where), _need(d, "velocity_nm_per_s", where)))
    bad = media.first_bad_segment(specs, n_steps)
    if bad:
        raise ConfigError(f"simulate.directed[{bad[0]}]: {bad[1]}")
    return specs


def _viscous_model(med: dict) -> media.ViscousMediumModel:
    return media.ViscousMediumModel(**{field: _need(med, key, "medium")
                                       for key, field in _VISCOUS_FIELDS.items()})


def cmd_simulate(args) -> tuple[dict, str]:
    cfg = load_config(args.config)
    seed = _master_seed(cfg, args)
    tr_cfg = cfg.get("tracker", {})
    od_cfg = cfg.get("odmr", {})
    # the schedule, the calibration and the ODMR bins are built before the first
    # draw, so a value their models reject stops the run before any simulation
    schedule = _build_schedule(cfg["schedule"]) if "schedule" in cfg else None
    cal = _model("odmr.kappa_khz_per_C", odmr.KappaCalibration,
                 od_cfg.get("kappa_khz_per_C", odmr.DEFAULT_KAPPA_KHZ_PER_C),
                 odmr.DEFAULT_KAPPA_SIGMA_KHZ_PER_C) if od_cfg.get("enabled", False) else None
    bin_s = od_cfg.get("bin_s", odmr.DEFAULT_BIN_S)
    if cal is not None:
        _model("odmr.bin_s", odmr.scans_per_bin, bin_s, odmr.default_grid().size)
        _model("simulate.duration_s", odmr.bin_count,
               _need(_need(cfg, "simulate", "config"), "duration_s", "simulate"), bin_s)

    truth = _simulate_truth(cfg, seed)
    duration_s = cfg["simulate"]["duration_s"]

    outputs = {"truth.csv": truth.to_csv}

    if tr_cfg.get("enabled", False):
        est, diag = tracker.track(truth, tracker.TrackerConfig(),
                                  tr_cfg.get("brightness_cps", 2e6),
                                  substream(seed, "tracker-photons"))
        outputs.update({"estimate.csv": est.to_csv, "diagnostics.csv": diag.to_csv})

    if schedule is not None:
        times, temps = chip.setpoint_series(schedule, dt=1.0, duration=duration_s)
        events = chip.schedule_timeline(chip.DutyCycleSchedule(),
                                        duration=min(2.0, duration_s))
        outputs["setpoints.csv"] = partial(chip.setpoints_to_csv, times, temps)
        outputs["timeline.csv"] = partial(chip.timeline_to_csv, events)

    if cal is not None:
        if schedule is not None:
            base = schedule.steps[0][1]
            bin_times, bin_temps = chip.setpoint_series(schedule, dt=bin_s,
                                                        duration=duration_s)

            def shift_of_t(t):
                return cal.kappa_khz_per_C * 1e3 * (np.interp(t, bin_times, bin_temps) - base)
        else:
            shift_of_t = None  # no schedule: zero true shift
        series = odmr.simulate_shift_series(
            odmr.default_lineshape(), od_cfg.get("lam0", odmr.DEFAULT_PHOTON_BUDGET), duration_s,
            substream(seed, "odmr-photons"), delta_f_of_t=shift_of_t, bin_s=bin_s)
        outputs["shifts.csv"] = partial(write_table, columns=[
            (name, col, "%.6f") for name, col in zip(
                _SHIFT_COLUMNS, (series.times, series.delta_f, series.sigma))])
        outputs["temperature.csv"] = odmr.shift_series_to_temperature(series, cal).to_csv

    return outputs, "wrote " + ", ".join(outputs)


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


def _tag_number(path: str, key: str, value: str) -> float:
    """An input's ``#key=value`` tag, which must pass the ``_number`` rule."""
    try:
        value = float(value)
    except ValueError:
        pass
    return _number(value, f"{path}: #{key}")


def _fit_D(traj: Trajectory, an: dict):
    n = traj.points.shape[0]
    # capped at the trajectory length, so that a huge max_lag_s divides to no inf
    max_lag_s = min(an.get("max_lag_s", 50 * traj.dt), n * traj.dt)
    max_lag = max(whole_units(max_lag_s, traj.dt), 2)
    # the default 50 lags stop at half the trajectory, above which `msd` warns
    top = n - 1 if "max_lag_s" in an else max(n // 2, 2)
    lags = np.arange(1, min(max_lag, top, n - 1) + 1)
    curve = rheology.msd(traj, lags=lags)
    return curve, rheology.fit_diffusion(curve, through_origin=False)


def _read_temperature(path):
    """Read a temperature series; Allan analysis needs at least 3 rows."""
    series = _read_input(odmr.TemperatureSeries.from_csv, path)
    if series.times.size < 3:
        raise ConfigError(f"{path}: {series.times.size} rows, Allan analysis needs 3")
    return series


def _allan(series):
    """Allan deviation of a temperature series, and the writer of its allan.csv."""
    dt_s = float(np.median(np.diff(series.times)))
    taus, adev = odmr.allan_deviation(series.dT_C, dt_s)
    return taus, adev, partial(write_table,
                               columns=[("tau_s", taus, "%.6f"), ("adev_C", adev, "%.6e")])


def cmd_analyze(args) -> tuple[dict, str]:
    cfg = load_config(args.config)
    an = cfg.get("analysis", {})
    force_on = an.get("force", {}).get("enabled", False)
    if force_on and "modulus" not in an:
        raise ConfigError("analysis.force needs analysis.modulus for the force split")
    if not args.traj:
        raise ConfigError("analyze needs at least one --traj file")
    if bool(args.shifts) != bool(args.setpoints):
        given, missing = ("--shifts", "--setpoints") if args.shifts else ("--setpoints", "--shifts")
        raise ConfigError(f"kappa calibration needs {missing} with {given}")
    null = None
    if "segment" in an:
        steps = an["segment"].get("window_steps", segmentation.DEFAULT_WINDOW_STEPS)
        null = _model("analysis.segment.window_steps", segmentation.gamma_null, N=steps)
        if not 0.0 < null.critical_gamma < 1.0:
            # gamma lies in [0, 1], so such a threshold flags no window or every one
            raise ConfigError(f"analysis.segment.window_steps {steps} gives critical gamma "
                              f"{null.critical_gamma:.4g}, outside (0, 1); use more steps")
    # every input is read before the first output is written
    trajs = [_read_input(Trajectory.from_csv, p) for p in args.traj]
    temperature = _read_temperature(args.temperature) if args.temperature else None
    kappa_inputs = None
    if args.shifts and args.setpoints:
        kappa_inputs = (_read_input(read_table, args.shifts, _SHIFT_COLUMNS)[1],
                        _read_input(read_table, args.setpoints, chip.SETPOINT_COLUMNS)[1])

    summary: dict = {"n_trajectories": len(trajs)}
    traj = trajs[0]
    summary["n_points"] = int(traj.points.shape[0])
    summary["duration_s"] = round(traj.duration, 9)

    curve, dfit = _fit_D(traj, an)
    outputs = {"msd.csv": curve.to_csv}
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
        t_k = celsius_to_kelvin(_need(mcfg, "temperature_C", "analysis.modulus"))
        r_nm = _need(mcfg, "radius_nm", "analysis.modulus")
        mod = _model("analysis.modulus.temperature_C", rheology.complex_modulus,
                     curve, t_k, r_nm)
        outputs["modulus.csv"] = mod.to_csv
    if "psd" in an or force_on:
        window = an.get("psd", {}).get("window_s", rheology.DEFAULT_PSD_WINDOW_S)
        spec = _model("analysis.psd.window_s", rheology.psd, traj, window_s=window)
        outputs["psd.csv"] = spec.to_csv
        summary["psd_at_40hz_nm2_per_hz"] = spec.value_at(40.0) \
            if spec.freqs.max() >= 40.0 else None
        if force_on:
            force = rheology.external_force_spectrum(spec, mod, r_nm, t_k)
            outputs["force.csv"] = force.to_csv
            summary["force_clipped_points"] = int(force.clipped.sum())

    if null is not None:
        labels = _model("analysis.segment.window_steps", segmentation.segment, traj, null)
        classes = segmentation.class_exponents(traj, labels)
        outputs["labels.csv"] = partial(segmentation.labels_to_csv, labels)
        summary["segments"] = dict(Counter(lab.cls for lab in labels))
        summary["critical_gamma"] = null.critical_gamma
        summary["class_alpha"] = {
            name: {"mean": st.mean, "sd": st.sd, "n": st.n_segments,
                   "degenerate": st.degenerate}
            for name, st in classes.classes.items()}

    med = cfg.get("medium", {})
    temps = [t.meta.get("temperature_C") for t in trajs]
    if len(trajs) >= 3 and _VISCOUS_FIELDS.keys() <= med.keys() and None not in temps:
        temps = [_tag_number(path, "temperature_C", temp) for path, temp in zip(args.traj, temps)]
        # the first trajectory's fit is the one summarised above
        fits = [dfit] + [_fit_D(t, an)[1] for t in trajs[1:]]
        pairs = [(temp, fit.D) for temp, fit in zip(temps, fits)]
        sig = [fit.sigma for fit in fits]
        if not all(np.isfinite(s) and s > 0 for s in sig):
            sig = None
        rfit = rheology.fit_hydrodynamic_radius(pairs, _viscous_model(med), sigma_D=sig)
        summary["r_hydro_nm"] = [rfit.r_nm, rfit.sigma_nm]

    if temperature is not None:
        taus, adev, outputs["allan.csv"] = _allan(temperature)
        if (adev > 0).any():
            summary["sensitivity_C_per_sqrtHz"] = odmr.allan_sensitivity(taus, adev)

    if kappa_inputs is not None:
        (shift_t, delta_f, sigma), (sp_t, sp_T) = kappa_inputs
        cal = _model("--shifts/--setpoints", odmr.calibrate_kappa,
                     np.interp(shift_t, sp_t, sp_T), delta_f, sigma)
        summary["kappa_khz_per_C"] = [cal.kappa_khz_per_C, cal.sigma_khz_per_C]

    outputs["summary.json"] = partial(_write_json, summary)
    return outputs, json.dumps(summary, indent=2, sort_keys=True)


# ------------------------------------------------------- small subcommands

def cmd_crb(args) -> tuple[dict, str]:
    od = load_config(args.config).get("odmr", {})
    lam0 = od.get("lam0", odmr.DEFAULT_PHOTON_BUDGET)
    kappa = od.get("kappa_khz_per_C", odmr.DEFAULT_KAPPA_KHZ_PER_C)
    shape = odmr.default_lineshape()
    sens = _model("odmr.kappa_khz_per_C", odmr.crb_temperature_sensitivity, shape, lam0, kappa)
    per_scan = odmr.shift_bound_per_scan(shape, lam0)
    result = {"sensitivity_C_per_sqrtHz": sens,
              "shift_sigma_hz_per_scan": per_scan,
              "lam0": lam0, "kappa_khz_per_C": kappa}
    return {"crb.json": partial(_write_json, result)}, (
        f"CRB sensitivity: {sens:.3f} C/sqrt(Hz) (shift bound {per_scan / 1e3:.1f} kHz/scan)")


def cmd_allan(args) -> tuple[dict, str]:
    taus, adev, write = _allan(_read_temperature(args.input))
    if (adev > 0).any():
        message = f"Allan sensitivity: {odmr.allan_sensitivity(taus, adev):.3f} C/sqrt(Hz)"
    else:
        message = "Allan deviation contains zeros (constant input?)"
    return {"allan.csv": write}, message


def cmd_gamma_null(args) -> tuple[dict, str]:
    null = segmentation.gamma_null(N=args.n, M=args.m,
                                   confidence=args.confidence)
    table = [("gamma", null.gammas, "%.6f"), ("pdf", null.pdf, "%.6e")]
    result = {"N": null.N, "M": null.M, "confidence": null.confidence,
              "critical_gamma": null.critical_gamma}
    return {"gamma_null.csv": partial(write_table, columns=table),
            "gamma_null.json": partial(_write_json, result)}, (
        f"critical gamma = {null.critical_gamma:.4f} "
        f"(N={null.N}, M={null.M}, {100 * null.confidence:.0f}%)")


# -------------------------------------------------------------------- main

def _add_command(sub, name: str, func, summary: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--out-dir", help="output directory (default: cwd)")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndsense",
        description="Dual-mode nanodiamond sensing simulator and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "simulate", cmd_simulate, "generate truth/tracking/ODMR runs")
    p = _add_command(sub, "analyze", cmd_analyze, "MSD, moduli, spectra, segmentation")
    p.add_argument("--traj", action="append",
                   help="trajectory CSV (repeatable)")
    p.add_argument("--temperature", help="temperature CSV for Allan analysis")
    p.add_argument("--shifts", help="fitted shift CSV for kappa calibration")
    p.add_argument("--setpoints", help="setpoint CSV for kappa calibration")
    _add_command(sub, "crb", cmd_crb, "thermometry sensitivity bound")
    p = _add_command(sub, "allan", cmd_allan, "Allan deviation of a temperature CSV")
    p.add_argument("--input", required=True, help="temperature CSV")
    p = _add_command(sub, "gamma-null", cmd_gamma_null, "directionality-ratio null")
    p.add_argument("--n", type=int, default=segmentation.DEFAULT_WINDOW_STEPS,
                   help="steps per window")
    p.add_argument("--m", type=int, default=segmentation.DEFAULT_DIMS, help="dimensions")
    p.add_argument("--confidence", type=float, default=segmentation.DEFAULT_CONFIDENCE)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a command computes every output before main writes the first, so a
        # failed run leaves no files behind; each output's value writes one file
        outputs, message = args.func(args)
        out = args.out_dir or "."
        os.makedirs(out, exist_ok=True)
        for name, write in outputs.items():
            write(os.path.join(out, name))
        print(message)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
