"""Acceptance gate: thirteen end-to-end criteria with pinned tolerances.

Every test finishes by printing one PASS/FAIL verdict line, so the whole
gate can be read off a captured log in thirteen lines.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import curve_fit
from scipy.stats import chi2

from ndsense import chip, cli, media, odmr, rheology, segmentation, tracker
from ndsense.seeding import substream
from _oracles import ensemble_msd_variance, laplace_modulus


def _verdict(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num:02d} [{name}]: {status} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _flat_curve(taus, vals):
    n = taus.size
    return rheology.MsdCurve(taus=taus, msd=vals, var=np.zeros(n), dims="xy",
                             n_samples=np.full(n, 1000), dt=taus[0],
                             meta={"noise_floor_nm2": 0.0})


# 1 ------------------------------------------------------------------------

def test_criterion_01_shot_noise_slope():
    start = time.monotonic()
    cfg = tracker.TrackerConfig()
    rows = tracker.static_benchmark([1e4, 1e5, 1e6, 1e7], cfg,
                                    substream(101, "bench"), n_updates=1500)
    slope = np.polyfit(np.log10([r.brightness for r in rows]),
                       np.log10([r.apparent_D_xy for r in rows]), 1)[0]
    elapsed = time.monotonic() - start
    ok = abs(slope + 1.0) <= 0.15 and elapsed < 120.0
    _verdict(1, "shot-noise slope", ok,
             f"slope {slope:.3f} vs -1 +- 0.15, {elapsed:.0f}s")


# 2 ------------------------------------------------------------------------

def test_criterion_02_dynamic_recovery():
    start = time.monotonic()
    cfg = tracker.TrackerConfig()
    ratios = {}
    for D in (1e2, 1e3, 1e4, 5e4):
        # the slowest particle needs the smallest localization error, so
        # it gets the brightest emitter; the rest use the standard budget
        brightness = 1e7 if D == 1e2 else 2e6
        truth = media.simulate_brownian(D, 50000, 9.6e-3,
                                        seed=substream(103, "medium", int(D)))
        est, diag = tracker.track(truth, cfg, brightness,
                                  substream(103, "tracker-photons", int(D)))
        assert not diag.lock_lost
        curve = rheology.msd(est, axes="xy", lags=np.arange(2, 51))
        ratios[D] = rheology.fit_diffusion(curve).D / D

    truth = media.simulate_brownian(5e5, 400, 9.6e-3,
                                    seed=substream(103, "medium", 500000))
    _, diag = tracker.track(truth, cfg, 2e6,
                            substream(103, "tracker-photons", 500000))
    elapsed = time.monotonic() - start
    ok = all(abs(r - 1.0) <= 0.10 for r in ratios.values()) \
        and diag.lock_lost and elapsed < 300.0
    detail = " ".join(f"D={d:g}:{r:.3f}" for d, r in ratios.items())
    _verdict(2, "dynamic D recovery", ok,
             f"{detail} lock_lost@5e5={diag.lock_lost} {elapsed:.0f}s")


# 3 ------------------------------------------------------------------------

def test_criterion_03_static_resolution_anchor():
    cfg = tracker.TrackerConfig()
    row = tracker.static_benchmark([1.785e6], cfg, substream(102, "anchor"),
                                   n_updates=1500)[0]
    ok = abs(row.rms_error_nm - 3.7) <= 0.30 * 3.7
    _verdict(3, "static resolution anchor", ok,
             f"rms {row.rms_error_nm:.2f} nm vs 3.7 +- 30%")


# 4 ------------------------------------------------------------------------

def test_criterion_04_thermometry_sensitivity():
    start = time.monotonic()
    shape = odmr.default_lineshape()
    sens_crb = odmr.crb_temperature_sensitivity(shape, 10.0, -60.0)

    cal = odmr.KappaCalibration(kappa_khz_per_C=-60.0, sigma_khz_per_C=0.4)
    series = odmr.simulate_shift_series(shape, 10.0, 300.0,
                                        substream(108, "odmr-photons"))
    temp = odmr.shift_series_to_temperature(series, cal)
    taus, adev = odmr.allan_deviation(temp.dT_C, 0.4)
    # long averaging times have too few differences to estimate stably;
    # the white-noise sensitivity lives at short tau
    sens_allan = odmr.allan_sensitivity(taus, adev, fit_range=(0.4, 10.0))

    # Monte-Carlo estimator spread against the per-bin bound
    bound = odmr.shift_bound_per_scan(shape, 10.0) / np.sqrt(160)
    freqs = odmr.default_grid()
    table = odmr.build_interpolation(
        freqs, odmr.synthesize_scan(shape, 10.0, 0.0, substream(108, "ref"),
                                    n_scans=100000), 100000)
    counts = np.array([odmr.synthesize_scan(shape, 10.0, 0.0, substream(108, "mc", k),
                                            n_scans=160) for k in range(300)])
    delta_f, _, _, converged = odmr.fit_shifts(counts, freqs, table)
    errs = delta_f[converged]
    mc_var = np.var(errs, ddof=1)
    # sampling floor: a chi2 spread this size can sit below the bound by
    # at most 3 sigma even for an exactly efficient estimator
    floor = 1.0 - 3.0 * np.sqrt(2.0 / (len(errs) - 1))
    elapsed = time.monotonic() - start

    ok = (abs(sens_crb - 2.1) <= 0.25 * 2.1
          and abs(sens_allan - 2.3) <= 0.25 * 2.3
          and mc_var >= floor * bound ** 2
          and elapsed < 600.0)
    _verdict(4, "thermometry sensitivity", ok,
             f"CRB {sens_crb:.3f} Allan {sens_allan:.3f} C/sqrtHz, "
             f"MC var/bound^2 {mc_var / bound**2:.2f} (floor {floor:.2f}), "
             f"{elapsed:.0f}s")


# 5 ------------------------------------------------------------------------

def test_criterion_05_kappa_calibration():
    shape = odmr.default_lineshape()
    table = odmr.build_interpolation(
        odmr.default_grid(), odmr.synthesize_scan(shape, 10.0, 0.0, substream(7, "ref"),
                                                  n_scans=240000), 240000)
    sched = chip.staircase_schedule(start_C=0.0, step_C=4.0, dwell_s=300.0,
                                    n_levels=9)
    times, temps = chip.setpoint_series(sched, dt=0.4, duration=2700.0)
    base = sched.steps[0][1]

    def shift_of_t(t):
        return -60.0 * 1e3 * (np.interp(t, times, temps) - base)

    series = odmr.simulate_shift_series(shape, 10.0, 2700.0,
                                        substream(7, "odmr-photons"),
                                        delta_f_of_t=shift_of_t,
                                        fit_shape=table)
    level = np.minimum((series.times // 300.0).astype(int), 8)
    settled = (series.times - level * 300.0) >= 120.0
    cal = odmr.calibrate_kappa(4.0 * level[settled],
                               series.delta_f[settled])
    ok = (abs(cal.kappa_khz_per_C + 60.0) <= 2.0 * cal.sigma_khz_per_C
          and 0.1 <= cal.sigma_khz_per_C <= 1.2)
    _verdict(5, "kappa calibration", ok,
             f"kappa {cal.kappa_khz_per_C:.2f} +- {cal.sigma_khz_per_C:.2f} "
             f"kHz/C vs -60 (2 sigma)")


# 6 ------------------------------------------------------------------------

def test_criterion_06_two_parameter_advantage():
    shape = odmr.default_lineshape()
    freqs = odmr.default_grid()
    table = odmr.build_interpolation(
        freqs, odmr.synthesize_scan(shape, 10.0, 0.0, substream(104, "ref"),
                                    n_scans=100000), 100000)
    f0 = float(freqs.mean())
    scale = 1e6
    x = (freqs - f0) / scale

    def dl_model(xx, a, m1, m2, c1, c2, g1, g2):
        return a * (1.0 - c1 * g1 * g1 / ((xx - m1) ** 2 + g1 * g1)
                    - c2 * g2 * g2 / ((xx - m2) ** 2 + g2 * g2))

    p0 = (1600.0,
          (shape.centers[0] - f0) / scale, (shape.centers[1] - f0) / scale,
          shape.contrasts[0], shape.contrasts[1],
          shape.hwhms[0] / scale, shape.hwhms[1] / scale)
    true_mid = np.mean(shape.centers)
    counts = np.array([odmr.synthesize_scan(shape, 10.0, 0.0, substream(104, "mc", k),
                                            n_scans=160) for k in range(80)])
    delta_f, _, _, converged = odmr.fit_shifts(counts, freqs, table)
    d2 = delta_f[converged]
    d7 = []
    for scan in counts:
        try:
            popt, _ = curve_fit(dl_model, x, scan, p0=p0, maxfev=20000)
            d7.append(f0 + 0.5 * (popt[1] + popt[2]) * scale - true_mid)
        except RuntimeError:
            pass
    ratio = np.std(d2, ddof=1) / np.std(d7, ddof=1)
    ok = len(d2) >= 60 and len(d7) >= 60 and ratio < 0.8
    _verdict(6, "two-parameter advantage", ok,
             f"spread ratio {ratio:.3f} < 0.8 "
             f"({np.std(d2, ddof=1)/1e6:.2f} vs {np.std(d7, ddof=1)/1e6:.2f} MHz)")


# 7 ------------------------------------------------------------------------

def test_criterion_07_rheology_oracles():
    # (a) ensemble MSD slope vs 4D, per-trajectory scatter as the SE
    D = 2e3
    lags = np.arange(1, 51)
    slopes = []
    for k in range(200):
        t = media.simulate_brownian(D, 2000, 9.6e-3,
                                    seed=substream(110, "medium", k))
        curve = rheology.msd(t, lags=lags, variance="none",
                             noise_floor_nm2=0.0)
        slopes.append(4.0 * rheology.fit_diffusion(
            curve, through_origin=True).D)
    slopes = np.array(slopes)
    se = slopes.std(ddof=1) / np.sqrt(slopes.size)
    dev_a = (slopes.mean() - 4.0 * D) / se
    ok_a = abs(dev_a) <= 3.0

    # (b) single-trajectory variance estimate vs true across-trajectory
    # variance, out to tau = N/20
    lags_b = np.array([1, 2, 5, 10, 20])
    trajs = [media.simulate_brownian(1e3, 400, 9.6e-3,
                                     seed=substream(111, "medium", k))
             for k in range(800)]
    _, _, var_emp = ensemble_msd_variance(trajs, lags=lags_b)
    pred = np.mean([rheology.msd(t, lags=lags_b, noise_floor_nm2=0.0).var
                    for t in trajs], axis=0)
    ratios_b = pred / var_emp
    ok_b = bool(np.all((ratios_b >= 0.8) & (ratios_b <= 1.2)))

    # (c) local power-law modulus vs the numerical transform oracle
    taus = np.logspace(-2, 1, 40)
    worst_c = 0.0
    for alpha in (0.4, 1.0, 1.6):
        curve = _flat_curve(taus, 4000.0 * taus ** alpha)
        mod = rheology.complex_modulus(curve, 308.15, 28.0)
        oracle = laplace_modulus(curve.taus, curve.msd, 308.15, 28.0)
        in_tau_order = mod.G_abs[::-1]
        mid = slice(10, 30)
        worst_c = max(worst_c, float(np.max(np.abs(
            in_tau_order[mid] / oracle[mid] - 1.0))))
    ok_c = worst_c <= 0.15

    # (d) a purely viscous curve has no storage modulus
    visc = rheology.complex_modulus(_flat_curve(taus, 4.0 * 2e4 * taus),
                                    308.15, 28.0)
    ratio_d = float(np.max(visc.G_prime[5:-5] / visc.G_dprime[5:-5]))
    ok_d = ratio_d < 0.05

    ok = ok_a and ok_b and ok_c and ok_d
    _verdict(7, "rheology oracles", ok,
             f"slope dev {dev_a:+.2f} se, var ratios "
             f"{np.round(ratios_b, 2).tolist()}, transform err {worst_c:.3f}, "
             f"G'/G'' {ratio_d:.2e}")


# 8 ------------------------------------------------------------------------

def test_criterion_08_radius_recovery():
    rng = substream(112, "radius")
    model = media.ViscousMediumModel(eta0=0.301, mu=-0.0208, T_ref=35.0)
    pairs, sig = [], []
    for T in np.arange(30.0, 45.0, 2.0):
        d_true = media.stokes_einstein_D(T + 273.15, 28.0,
                                         media.viscosity_at(model, T))
        noise = 0.02 * d_true
        pairs.append((float(T), d_true + noise * rng.standard_normal()))
        sig.append(noise)
    fit = rheology.fit_hydrodynamic_radius(pairs, model, sigma_D=sig)
    ok = abs(fit.r_nm - 28.0) <= 1.0
    _verdict(8, "hydrodynamic radius", ok,
             f"r {fit.r_nm:.2f} +- {fit.sigma_nm:.2f} nm vs 28 +- 1")


# 9 ------------------------------------------------------------------------

def test_criterion_09_directionality_null():
    null = segmentation.gamma_null(75, 2, 0.95)
    ok_c = abs(null.critical_gamma - 0.228) <= 0.005

    rng = substream(113, "null-mc")
    n_total = 100000
    gammas = np.empty(n_total)
    done = 0
    while done < n_total:
        m = min(20000, n_total - done)
        steps = rng.standard_normal((m, 75, 2))
        disp = np.linalg.norm(steps.sum(axis=1), axis=1)
        path = np.linalg.norm(steps, axis=2).sum(axis=1)
        gammas[done:done + m] = disp / path
        done += m
    fpr = float(np.mean(gammas > null.critical_gamma))
    ok_f = 0.04 <= fpr <= 0.06

    hist, edges = np.histogram(gammas, bins=60, range=(0.0, 0.45),
                               density=True)
    mids = 0.5 * (edges[:-1] + edges[1:])
    sup = float(np.max(np.abs(hist - null.pdf_at(mids))))
    ok_s = sup < 0.05 * null.pdf.max()

    ok = ok_c and ok_f and ok_s
    _verdict(9, "directionality null", ok,
             f"gamma_c {null.critical_gamma:.4f}, FPR {100 * fpr:.2f}%, "
             f"sup-norm {sup / null.pdf.max():.3f} of peak")


# 10 -----------------------------------------------------------------------

def test_criterion_10_class_separation():
    null = segmentation.gamma_null(75, 2, 0.95)
    free_means, run_means = [], []
    for k in range(6):
        base = media.simulate_brownian(1e3, 1500, 9.6e-3,
                                       seed=substream(105, "medium", k))
        # runs sit at the trajectory end so the reversion step after an
        # injected segment never lands inside an analysis window
        spec = media.DirectedSegmentSpec(start=1200, duration=300,
                                         velocity=(900.0 / np.sqrt(2),
                                                   900.0 / np.sqrt(2)))
        traj = media.inject_directed(base, [spec])
        classes = segmentation.class_exponents(
            traj, segmentation.segment(traj, null))
        if "non-directed" in classes.classes:
            free_means.append(classes.classes["non-directed"].mean)
        if "directed" in classes.classes:
            run_means.append(classes.classes["directed"].mean)

    fbm = media.simulate_viscoelastic(
        media.ViscoelasticModel(alpha=0.3, K_alpha=2e3), 20000, 9.6e-3,
        seed=substream(105, "fbm"))
    afit = rheology.anomalous_exponent(
        rheology.msd(fbm, axes="xy", lags=np.arange(1, 101)))

    free = float(np.mean(free_means))
    run = float(np.mean(run_means))
    ok = (len(run_means) == 6 and 0.9 <= free <= 1.1 and run > 1.5
          and abs(afit.alpha - 0.3) <= 0.1)
    _verdict(10, "class separation", ok,
             f"non-directed {free:.2f}, directed {run:.2f}, "
             f"fBm alpha {afit.alpha:.2f}")


# 11 -----------------------------------------------------------------------

def test_criterion_11_force_extraction():
    dt, n_steps = 4.8e-3, 300000
    r_nm, temp_c = 28.0, 35.0
    t_k = temp_c + 273.15
    D = media.stokes_einstein_D(t_k, r_nm,
                                media.viscosity_at(media.GLYCEROL_MODEL,
                                                   temp_c))
    lags = np.unique(np.round(np.logspace(0, np.log10(2000), 40)).astype(int))

    quiet = media.simulate_brownian(D, n_steps, dt,
                                    seed=substream(106, "medium", 0))
    curve = rheology.msd(quiet, axes="xy", lags=lags, variance="none")
    mod = rheology.complex_modulus(curve, t_k, r_nm)
    band_of = lambda f: (f.omegas >= 2 * np.pi * 2.0) & \
        (f.omegas <= 2 * np.pi * 15.0)

    spec_q = rheology.psd(quiet, axes="xy", window_s=28.8)
    force_q = rheology.external_force_spectrum(spec_q, mod, r_nm, t_k)
    band = band_of(force_q)
    equil = float(np.mean(np.abs(force_q.external_raw[band])
                          / force_q.thermal[band]))

    # a white force drive is indistinguishable from extra diffusion, so
    # synthesize the driven run at 1.8 D and expect external = 0.8 thermal
    driven = media.simulate_brownian(1.8 * D, n_steps, dt,
                                     seed=substream(106, "medium", 1))
    spec_d = rheology.psd(driven, axes="xy", window_s=28.8)
    force_d = rheology.external_force_spectrum(spec_d, mod, r_nm, t_k)
    band = band_of(force_d)
    drive_ratio = float(force_d.external[band].mean()
                        / (0.8 * force_d.thermal[band]).mean())

    ok = equil < 0.1 and abs(drive_ratio - 1.0) <= 0.25
    _verdict(11, "force extraction", ok,
             f"equilibrium |ext|/thermal {equil:.3f}, "
             f"drive recovery {drive_ratio:.3f}")


# 12 -----------------------------------------------------------------------

def test_criterion_12_chip_support():
    cal = chip.RtdCalibration(R0=1032.0, T0=25.0)
    temps = np.linspace(-5.0, 75.0, 33)
    rt = np.max(np.abs(chip.rtd_temperature(chip.rtd_resistance(temps, cal),
                                            cal) - temps))
    ok_rt = rt < 1e-9

    def overlaps(events):
        state = {"mw": 0, "heater": 0}
        for e in sorted(events, key=lambda e: (e.t, e.state)):
            state[e.channel] = e.state
            if state["mw"] and state["heater"]:
                return True
        return False

    schedules = (chip.DutyCycleSchedule(),
                 chip.DutyCycleSchedule(period=0.1, mw_on=0.05,
                                        heater_on=0.02, buffer=0.002,
                                        switch_edge=0.0001),
                 chip.DutyCycleSchedule(heater_on=0.0))
    ok_ov = not any(overlaps(chip.schedule_timeline(d, 3.0))
                    for d in schedules)

    first = [(e.t, e.channel, e.state)
             for e in chip.schedule_timeline(chip.DutyCycleSchedule(), 0.2)]
    ok_def = first[:4] == [(0.0, "mw", 1), (0.16, "mw", 0),
                           (0.165, "heater", 1), (0.195, "heater", 0)]

    ok = ok_rt and ok_ov and ok_def
    _verdict(12, "chip support", ok,
             f"roundtrip {rt:.1e} C, overlap-free {ok_ov}, "
             f"default timings {ok_def}")


# 13 -----------------------------------------------------------------------

def test_criterion_13_reproducibility(tmp_path):
    cfg = {"schema_version": 1, "seed": 131,
           "medium": {"kind": "brownian", "D_nm2_per_s": 1e4},
           "simulate": {"duration_s": 20.0},
           "tracker": {"enabled": True, "brightness_cps": 2e6},
           "schedule": {"kind": "staircase", "start_C": 0.0, "step_C": 4.0,
                        "dwell_s": 5.0, "n_levels": 3},
           "odmr": {"enabled": True, "lam0": 10.0,
                    "kappa_khz_per_C": -60.0, "bin_s": 0.4},
           "analysis": {"segment": {"window_steps": 75}}}
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)

    names = ("truth.csv", "estimate.csv", "diagnostics.csv",
             "setpoints.csv", "timeline.csv", "shifts.csv",
             "temperature.csv")
    for out in ("a", "b"):
        assert cli.main(["simulate", "--config", str(path),
                         "--out-dir", str(tmp_path / out)]) == 0
        assert cli.main(["analyze", "--config", str(path),
                         "--traj", str(tmp_path / out / "truth.csv"),
                         "--out-dir", str(tmp_path / out)]) == 0
    mismatch = [n for n in names + ("msd.csv", "labels.csv", "summary.json")
                if (tmp_path / "a" / n).read_bytes()
                != (tmp_path / "b" / n).read_bytes()]
    ok = not mismatch
    _verdict(13, "reproducibility", ok,
             "all outputs byte-identical" if ok
             else f"mismatch in {mismatch}")
