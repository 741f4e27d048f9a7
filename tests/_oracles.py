"""Independent reference implementations used only by the tests.

These deliberately avoid the package's code paths: brute-force loops,
numerical transforms, and explicit matrix algebra stand in for the
closed-form or vectorized routines under test. Slow is fine here.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy.fft import next_fast_len

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


# the per-axis FFT kernel of the "cov" variance, kept as the bit-for-bit
# reference of `rheology._msd_var`'s per-lag transform pairs, which stack
# the axes: the same operations in the same order, one axis and one lag at
# a time

def _ref_autocorr(y: np.ndarray, nfft: int) -> np.ndarray:
    spec = np.fft.rfft(y, nfft)
    power = spec.real ** 2
    power += spec.imag ** 2
    return np.fft.irfft(power, nfft)


def _ref_dot(a: np.ndarray, b: np.ndarray) -> float:
    return sum((float(a[i:i + 8192] @ b[i:i + 8192]) for i in range(0, a.size, 8192)), 0.0)


def _ref_var_cov(sums: np.ndarray, k: int) -> float:
    c = sums / (k - np.arange(sums.size))
    return 2.0 / k * c[0] * c[0] + 4.0 / k * _ref_dot(c[1:], c[1:])


def reference_axis_var(x: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """"cov" variance of one axis at each of the sorted, distinct `lags`."""
    n = x.size
    out = np.empty(lags.size)
    n_half = int(np.searchsorted(lags, n // 2, side="right"))
    if n_half:
        hi = int(lags[n_half - 1])
        nfft = next_fast_len(n + 2 * hi - 3, real=True)
        r = _ref_autocorr(np.diff(x), nfft)[:2 * hi - 1]
        r = np.concatenate((r[:0:-1], r))  # R(|o|) for o in [2 - 2 hi, 2 hi - 2]
    for i, m in enumerate(lags[:n_half].tolist()):
        nf = next_fast_len(3 * m - 2, real=True)
        z = np.zeros((6, nf))
        z[0, :2 * m - 1] = m - np.abs(np.arange(1 - m, m))
        z[1, :3 * m - 2] = r[2 * hi - 1 - m:2 * hi + 2 * m - 3]
        for row, y in ((2, x), (4, x[::-1])):
            e = z[row + 1, :2 * m - 2]
            e[:] = y[1:2 * m - 1]
            e[:m - 1] -= y[0]
            e[m - 1:] -= y[:m - 1]
            z[row, :m - 1] = e[:m - 1]
        f = np.fft.rfft(z)
        p = f[0].conj() * f[1]
        p -= f[2].conj() * f[3]
        p -= f[4].conj() * f[5]
        out[i] = _ref_var_cov(np.fft.irfft(p, nf)[:m], n - m)
    nfft = next_fast_len(n - 1, real=True)  # K + lag - 1 = n - 1
    for i, m in enumerate(lags[n_half:].tolist(), start=n_half):
        out[i] = _ref_var_cov(_ref_autocorr(x[m:] - x[:-m], nfft)[:n - m], n - m)
    return out


def ensemble_msd_variance(trajs, lags, axes: str = "xy"):
    """Across-trajectory mean and variance of the time-averaged MSD.

    Each MSD is taken by direct slicing, summed over ``axes``. Returns
    (taus, mean_msd, var_msd).
    """
    cols = ["xyz".index(a) for a in axes]
    stack = np.array([[sum(((x[m:] - x[:-m]) ** 2).mean() for x in t.points[:, cols].T)
                       for m in lags] for t in trajs])
    return np.asarray(lags) * trajs[0].dt, stack.mean(axis=0), stack.var(axis=0, ddof=1)


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


def _closed_form_lam0(counts, levels):
    denom = float(np.dot(levels, levels))
    return float(np.dot(counts, levels)) / denom


class ShiftFit(NamedTuple):
    """One scan's fit, in the order of `odmr.fit_shifts`' arrays."""

    delta_f: float
    lam0: float
    sigma: float
    converged: bool


def reference_fit_shift(counts, freqs, shape, max_shift: float | None = None) -> ShiftFit:
    """Two-parameter least squares fit of lam0 * L(f - delta_f) to one scan.

    The scalar fit the batched `odmr.fit_shifts` replaces: the amplitude
    is solved in closed form at each candidate shift, and scipy's
    `minimize_scalar(method="bounded")` searches delta_f.
    """
    from scipy.optimize import minimize_scalar

    counts = np.asarray(counts).astype(float)
    span = freqs[-1] - freqs[0]
    if max_shift is None:
        max_shift = 0.5 * span

    def sse(df):
        lv = shape.value(freqs, df)
        a = _closed_form_lam0(counts, lv)
        r = counts - a * lv
        return float(np.dot(r, r))

    res = minimize_scalar(sse, bounds=(-max_shift, max_shift), method="bounded",
                          options={"xatol": 1.0})
    df_hat = float(res.x)
    lv = shape.value(freqs, df_hat)
    lam_tot = _closed_form_lam0(counts, lv)
    converged = bool(res.success) and abs(df_hat) < 0.999 * max_shift and lam_tot > 0

    # Gauss-Newton covariance of (lam0, delta_f) at the optimum
    dldf = shape.derivative(freqs, df_hat)
    j1 = lv
    j2 = -lam_tot * dldf
    jtj = np.array([[np.dot(j1, j1), np.dot(j1, j2)],
                    [np.dot(j2, j1), np.dot(j2, j2)]])
    r = counts - lam_tot * lv
    dof = max(counts.size - 2, 1)
    s2 = float(np.dot(r, r)) / dof
    try:
        cov = s2 * np.linalg.inv(jtj)
        sigma = float(np.sqrt(max(cov[1, 1], 0.0)))
    except np.linalg.LinAlgError:
        sigma = float("inf")
        converged = False
    return ShiftFit(delta_f=df_hat, lam0=lam_tot, sigma=sigma, converged=converged)


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


def reference_gamma(window: np.ndarray) -> float:
    """gamma = |end - start| / total path length of one position window.

    NaN when the path length is zero (undefined ratio).
    """
    w = np.asarray(window, dtype=float)
    path = float(np.linalg.norm(np.diff(w, axis=0), axis=1).sum())
    if path == 0.0:
        return float("nan")
    return float(np.linalg.norm(w[-1] - w[0]) / path)


def mp_nct_pdf(t: float, df: int, nc: float):
    """Non-central t density at `t`, as an mpmath number, from its closed form
    in Kummer's function 1F1 (no integral) at the working precision."""
    t, nc, v = mp.mpf(t), mp.mpf(nc), mp.mpf(df)
    u = v + t * t
    z = nc * nc * t * t / (2 * u)
    scale = (v ** (v / 2) * mp.gamma(v + 1) * mp.exp(-nc * nc / 2)
             / (2 ** v * u ** (v / 2) * mp.gamma(v / 2)))
    return scale * (mp.sqrt(2) * nc * t / u * mp.hyp1f1(v / 2 + 1, 1.5, z) / mp.gamma((v + 1) / 2)
                    + mp.hyp1f1((v + 1) / 2, 0.5, z) / (mp.sqrt(u) * mp.gamma(v / 2 + 1)))


def mp_nct_ppf(p: float, df: int, nc: float, start: float):
    """The t > 0 with P(T > t) = 1 - p for the non-central t
    T = (Z + nc) / (X / sqrt(df)), by Newton's method from `start` on
    mpmath's quadrature of P(Z > t X / sqrt(df) - nc) over X ~ chi(df)."""
    tail = 1 - mp.mpf(p)
    c = mp.mpf(2) ** (1 - mp.mpf(df) / 2) / mp.gamma(mp.mpf(df) / 2)
    t = mp.mpf(start)
    for _ in range(8):
        q = t / mp.sqrt(df)
        sf = mp.quad(lambda s: c * s ** (df - 1) * mp.exp(-s * s / 2) * mp.ncdf(nc - q * s),
                     [0, nc / q, (nc + 12) / q, mp.inf])
        step = (sf - tail) / mp_nct_pdf(t, df, nc)
        t += step
        if abs(step) < mp.mpf(10) ** (4 - mp.mp.dps) * t:
            return t
    raise RuntimeError("Newton's method did not converge")


# ----------------------------------------------------------------- tracker

def reference_fit_orbit(counts_top, counts_bottom):
    """Fit one orbit's summed bins to I'*(1 + delta*cos(theta - phi)).

    The first discrete Fourier coefficient over uniform bins is the least
    squares solution of the 3-parameter sinusoid model. Returns
    (I', delta, phi, r_axial) with r_axial = (bottom - top)/total, or None
    for an orbit without photons.
    """
    top = np.asarray(counts_top, dtype=float)
    bottom = np.asarray(counts_bottom, dtype=float)
    total = top + bottom
    n_bins = total.size
    s = total.sum()
    if s <= 0:
        return None
    theta = 2.0 * np.pi * (np.arange(n_bins) + 0.5) / n_bins
    a = 2.0 * (total * np.cos(theta)).sum() / n_bins
    b = 2.0 * (total * np.sin(theta)).sum() / n_bins
    i_prime = s / n_bins
    return (float(i_prime), float(np.hypot(a, b) / i_prime), float(np.arctan2(b, a)),
            float((bottom.sum() - top.sum()) / s))


def reference_track(truth, cfg, brightness: float, modulation=None,
                    initial_offset=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Noise-free closed tracking loop, one orbit at a time.

    Every clock tick of an orbit adds its expected counts, Gaussian in the
    beam-to-emitter distance with the collection plane at beam z +- R_z and
    times the tick's `modulation`, into its angular bin. The orbit is then
    fitted by `reference_fit_orbit`, and the center moves by gain times
    (delta*eps_xy*cos(phi), delta*eps_xy*sin(phi), eps_z*(r - G)/(r*G - 1)).
    An orbit without photons holds the center.
    Returns the (n_orbits, 3) orbit centers after each update.
    """
    from ndsense.chip import CLOCK_S

    S = cfg.samples_per_orbit
    tick = np.arange(S)
    bin_of_tick = tick * cfg.n_bins // S
    theta = 2.0 * np.pi * (tick + 0.5) / S
    beam = np.column_stack([cfg.R_xy * np.cos(theta), cfg.R_xy * np.sin(theta)])
    peak = brightness / cfg.lock_attenuation  # counts/s at the PSF peak
    planes = [(peak * (1.0 - cfg.G), cfg.R_z), (peak * (1.0 + cfg.G), -cfg.R_z)]
    eps_xy = cfg.w_xy ** 2 / (4.0 * cfg.R_xy)
    eps_z = cfg.w_z ** 2 / (4.0 * cfg.R_z)
    center = truth.points[0] + np.asarray(initial_offset, dtype=float)
    n_orbits = int(truth.duration / cfg.T_orbit)
    out = np.empty((n_orbits, 3))
    for k in range(n_orbits):
        t = truth.t0 + k * cfg.T_orbit + (tick + 0.5) * CLOCK_S
        emitter = np.column_stack([np.interp(t, truth.times, truth.points[:, a])
                                   for a in range(3)]) - center
        scale = CLOCK_S * (np.ones(S) if modulation is None else modulation(t))
        r2_xy = ((beam - emitter[:, :2]) ** 2).sum(axis=1)
        counts = [np.bincount(bin_of_tick, minlength=cfg.n_bins, weights=scale * amp
                              * np.exp(-2.0 * r2_xy / cfg.w_xy ** 2)
                              * np.exp(-2.0 * (z - emitter[:, 2]) ** 2 / cfg.w_z ** 2))
                  for amp, z in planes]
        fit = reference_fit_orbit(*counts)
        if fit is not None:
            _, delta, phi, r = fit
            center = center + cfg.gain * np.array([
                delta * eps_xy * np.cos(phi), delta * eps_xy * np.sin(phi),
                (r - cfg.G) / (r * cfg.G - 1.0) * eps_z])
        out[k] = center
    return out


# ------------------------------------------------------------------ tables

def reference_write_table(path, columns, meta=()) -> None:
    """The table writer with one printf per row."""
    names, values, formats = zip(*columns)
    row = ",".join(formats) + "\n"
    with open(path, "w", newline="") as fh:
        for key, val in meta:
            if isinstance(val, (float, np.floating)):
                val = repr(float(val))
            fh.write(f"#{key}={val}\n")
        fh.write(",".join(names) + "\n")
        fh.writelines(row % r for r in zip(*(np.asarray(v).tolist() for v in values)))
