"""Independent reference implementations used only by the tests.

These deliberately avoid the package's code paths: brute-force loops,
numerical transforms, and explicit matrix algebra stand in for the
closed-form or vectorized routines under test. Slow is fine here.
"""

from __future__ import annotations

import numpy as np

KB = 1.380649e-23  # J/K


# ---------------------------------------------------------------- rheology

def naive_msd(x: np.ndarray, lag: int) -> float:
    """Time-averaged single-axis MSD by direct loop."""
    n = len(x)
    acc = 0.0
    for i in range(n - lag):
        acc += (x[i + lag] - x[i]) ** 2
    return acc / (n - lag)


def naive_printed_variance(xi: np.ndarray, lag: int) -> float:
    """Literal double-sum form of the MSD variance for one axis.

    xi are the lagged displacements; the outer sum runs over offsets
    1..lag, the inner over all overlapping displacement pairs.
    """
    k = len(xi)
    total = 0.0
    for i in range(1, min(lag, k - 1) + 1):
        inner = 0.0
        for a in range(k - i):
            inner += (xi[a + i] * xi[a]) ** 2
        total += inner / (k - i)
    return 4.0 / k * total


def naive_cov_variance(xi: np.ndarray, lag: int) -> float:
    """Covariance-structure MSD variance for one axis, by direct loop."""
    k = len(xi)
    c0 = np.mean(xi * xi)
    v = 2.0 / k * c0 * c0
    for d in range(1, min(lag, k)):
        cd = np.mean(xi[d:] * xi[:-d])
        v += 4.0 / k * cd * cd
    return v


def laplace_msd(taus: np.ndarray, msd: np.ndarray, s: float) -> float:
    """One-sided Laplace transform of a tabulated MSD at argument s.

    The table is extended beyond both ends with its terminal log-log
    slopes so that power-law tails integrate correctly, then the
    transform is taken by trapezoid quadrature on a dense log grid.
    """
    lt = np.log(taus)
    lm = np.log(msd)
    slope_lo = (lm[1] - lm[0]) / (lt[1] - lt[0])
    slope_hi = (lm[-1] - lm[-2]) / (lt[-1] - lt[-2])
    grid = np.logspace(np.log10(taus[0]) - 3.0, np.log10(taus[-1]) + 3.0, 6000)
    lg = np.log(grid)
    vals = np.interp(lg, lt, lm)
    lo = lg < lt[0]
    hi = lg > lt[-1]
    vals[lo] = lm[0] + slope_lo * (lg[lo] - lt[0])
    vals[hi] = lm[-1] + slope_hi * (lg[hi] - lt[-1])
    m = np.exp(vals)
    return float(np.trapezoid(m * np.exp(-s * grid), grid))


def laplace_modulus(taus: np.ndarray, msd_nm2: np.ndarray, T_K: float,
                    r_nm: float) -> np.ndarray:
    """|G| at s = 1/tau from the numerical transform of the 2D MSD.

    Same generalized Stokes-Einstein prefactor as the local power-law
    shortcut, but with the transform done by quadrature instead of the
    Gamma-function approximation. Exact for pure power laws.
    """
    msd_m2 = np.asarray(msd_nm2) * 1e-18
    r_m = r_nm * 1e-9
    out = np.empty(len(taus))
    for j, tau in enumerate(taus):
        s = 1.0 / tau
        gt = laplace_msd(np.asarray(taus), msd_m2, s)
        out[j] = KB * T_K / (np.pi * r_m * s * gt)
    return out


# -------------------------------------------------------------------- ODMR

def lorentzian_pair(f, center, split, hwhm1, hwhm2, c1, c2):
    """Two-dip normalized fluorescence profile, written out longhand."""
    f = np.asarray(f, dtype=float)
    f1 = center - split / 2.0
    f2 = center + split / 2.0
    return (1.0
            - c1 / (1.0 + ((f - f1) / hwhm1) ** 2)
            - c2 / (1.0 + ((f - f2) / hwhm2) ** 2))


def fisher_sigma(freqs: np.ndarray, model, dmodel, lam0: float) -> np.ndarray:
    """Per-parameter CRB sigmas for a Poisson scan via explicit 2x2 algebra.

    model(f) gives the normalized profile, dmodel(f) its shift
    derivative. Parameters are (lam0, shift); returns their sigmas.
    """
    mu = lam0 * model(freqs)
    d_lam = model(freqs)
    d_shift = lam0 * dmodel(freqs)
    j11 = np.sum(d_lam * d_lam / mu)
    j12 = np.sum(d_lam * d_shift / mu)
    j22 = np.sum(d_shift * d_shift / mu)
    det = j11 * j22 - j12 * j12
    return np.sqrt(np.array([j22 / det, j11 / det]))


def naive_allan(values: np.ndarray, sample_s: float, m: int) -> float:
    """Overlapping Allan deviation at averaging factor m, by direct loops."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    diffs = []
    for i in range(n - 2 * m + 1):
        a = np.mean(x[i:i + m])
        b = np.mean(x[i + m:i + 2 * m])
        diffs.append(b - a)
    diffs = np.asarray(diffs)
    return float(np.sqrt(0.5 * np.mean(diffs ** 2)))


# ------------------------------------------------------------ segmentation

def mc_directionality_null(N: int, n_windows: int, rng: np.random.Generator):
    """Monte Carlo draw of the directionality ratio under pure diffusion."""
    out = np.empty(n_windows)
    for i in range(n_windows):
        steps = rng.standard_normal((N, 2))
        path = np.linalg.norm(steps, axis=1).sum()
        net = np.linalg.norm(steps.sum(axis=0))
        out[i] = net / path
    return out


# ----------------------------------------------------------------- tracker

def reference_track(truth, cfg, brightness: float, modulation=None,
                    initial_offset=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Noise-free closed tracking loop, one orbit at a time.

    Expected counts of every clock tick of an orbit come from
    `tracker.expected_rate`, times the tick's `modulation`, and are added
    into their angular bin of an `OrbitFrame`; `fit_orbit` and `correction`
    then move the center. A frame without photons holds the center.
    Returns the (n_orbits, 3) orbit centers after each update.
    """
    from ndsense.chip import CLOCK_S
    from ndsense.tracker import (OrbitFrame, TrackingLossError, correction,
                                 expected_rate, fit_orbit)

    S = cfg.samples_per_orbit
    tick = np.arange(S)
    bin_of_tick = tick * cfg.n_bins // S
    theta = 2.0 * np.pi * (tick + 0.5) / S
    beam = np.column_stack([cfg.R_xy * np.cos(theta), cfg.R_xy * np.sin(theta),
                            np.zeros(S)])
    peak = brightness / cfg.lock_attenuation  # counts/s at the PSF peak
    i_top, i_bottom = peak * (1.0 - cfg.G), peak * (1.0 + cfg.G)
    center = truth.points[0] + np.asarray(initial_offset, dtype=float)
    n_orbits = int(truth.duration / cfg.T_orbit)
    out = np.empty((n_orbits, 3))
    for k in range(n_orbits):
        t = truth.t0 + k * cfg.T_orbit + (tick + 0.5) * CLOCK_S
        emitter = np.column_stack([np.interp(t, truth.times, truth.points[:, a])
                                   for a in range(3)])
        scale = CLOCK_S * (np.ones(S) if modulation is None else modulation(t))
        counts = [np.bincount(bin_of_tick, minlength=cfg.n_bins, weights=scale
                              * expected_rate(emitter - center, beam, plane, cfg,
                                              i_top, i_bottom))
                  for plane in ("top", "bottom")]
        try:
            center = center + cfg.gain * correction(
                fit_orbit(OrbitFrame(*counts), cfg), cfg)
        except TrackingLossError:
            pass
        out[k] = center
    return out
