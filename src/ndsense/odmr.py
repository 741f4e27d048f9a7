"""ODMR thermometry: the double-Lorentzian lineshape and its calibration fit,
scan synthesis, shift fitting, sensitivity bounds, Allan analysis, and
temperature calibration.

A lineshape L(f) is the photoluminescence level normalized to 1 off
resonance; two spin-resonance dips pull it below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._numeric import dot, weighted_line, whole_units
from ._table import read_table, write_table
from .chip import DutyCycleSchedule
from .seeding import as_generator

__all__ = [
    "Lineshape",
    "DEFAULT_CENTER_HZ",
    "DEFAULT_SPLITTING_HZ",
    "DEFAULT_HWHM_HZ",
    "DEFAULT_CONTRASTS",
    "DEFAULT_SPAN_HZ",
    "DEFAULT_N_POINTS",
    "default_grid",
    "default_lineshape",
    "synthesize_scan",
    "fit_lineshape",
    "fit_shifts",
    "DEFAULT_BIN_S",
    "DEFAULT_KAPPA_KHZ_PER_C",
    "DEFAULT_KAPPA_SIGMA_KHZ_PER_C",
    "KappaCalibration",
    "TemperatureSeries",
    "shift_to_temperature",
    "calibrate_kappa",
    "shift_series_to_temperature",
    "ShiftSeries",
    "DEFAULT_PHOTON_BUDGET",
    "bin_count",
    "crb_temperature_sensitivity",
    "scans_per_bin",
    "shift_bound_per_scan",
    "simulate_shift_series",
    "allan_deviation",
    "allan_sensitivity",
]


# -------------------------------------------------------------- lineshapes

DEFAULT_CENTER_HZ = 2.87e9
DEFAULT_SPLITTING_HZ = 6.0e6
DEFAULT_HWHM_HZ = 6.0e6
DEFAULT_CONTRASTS = (0.1506, 0.1205)
DEFAULT_SPAN_HZ = 80.0e6
DEFAULT_N_POINTS = 200


@dataclass(frozen=True, eq=False)
class Lineshape:
    """Normalized PL level versus microwave frequency: an asymmetric
    strain-split pair of Lorentzian dips, L(f) = 1 - sum_k c_k g_k^2 /
    ((f - m_k)^2 + g_k^2), with centres m_k, contrasts c_k and half widths
    g_k in Hz.
    """

    centers: tuple
    contrasts: tuple
    hwhms: tuple

    def __post_init__(self):
        if not (len(self.centers) == len(self.contrasts) == len(self.hwhms) == 2):
            raise ValueError("a lineshape needs 2 center/contrast/hwhm each")
        if any(c <= 0 for c in self.contrasts) or sum(self.contrasts) >= 1:
            raise ValueError("contrasts must be positive and sum below 1")
        if any(g <= 0 for g in self.hwhms):
            raise ValueError("linewidths must be positive")

    def value(self, f, delta_f: float = 0.0):
        """L(f - delta_f); accepts scalars or arrays."""
        x = np.asarray(f, dtype=float) - delta_f
        out = np.ones_like(x)
        for c, amp, g in zip(self.centers, self.contrasts, self.hwhms):
            out = out - amp * g * g / ((x - c) ** 2 + g * g)
        return out

    def derivative(self, f, delta_f: float = 0.0):
        """dL/df at f - delta_f; accepts scalars or arrays."""
        x = np.asarray(f, dtype=float) - delta_f
        out = np.zeros_like(x)
        for c, amp, g in zip(self.centers, self.contrasts, self.hwhms):
            d = x - c
            out = out + amp * g * g * 2.0 * d / (d * d + g * g) ** 2
        return out


def default_grid(n_points: int = DEFAULT_N_POINTS) -> np.ndarray:
    """Uniform microwave frequency grid of one scan."""
    return DEFAULT_CENTER_HZ + np.linspace(-0.5 * DEFAULT_SPAN_HZ, 0.5 * DEFAULT_SPAN_HZ,
                                           n_points)


def default_lineshape() -> Lineshape:
    """Asymmetric strain-split double Lorentzian used throughout the tests."""
    half = 0.5 * DEFAULT_SPLITTING_HZ
    return Lineshape(centers=(DEFAULT_CENTER_HZ - half, DEFAULT_CENTER_HZ + half),
                     contrasts=DEFAULT_CONTRASTS, hwhms=(DEFAULT_HWHM_HZ, DEFAULT_HWHM_HZ))


# ---------------------------------------- scan synthesis and the shift fit

def synthesize_scan(shape: Lineshape, lam0: float, delta_f, seed,
                    freqs=None, n_scans: int = 1) -> np.ndarray:
    """Draw Poisson counts_i ~ Poisson(n_scans*lam0*L(f_i - delta_f)).

    Accumulating `n_scans` sweeps at once is exact because sums of
    independent Poisson counts are Poisson. A scalar shift gives one
    (n_points,) scan; a (k, 1) column of shifts gives (k, n_points), whose
    rows are the draws of k one-shift calls on the same generator, since
    the generator fills an array in C order.
    """
    if lam0 <= 0:
        raise ValueError("lam0 must be positive")
    if freqs is None:
        freqs = default_grid()
    freqs = np.asarray(freqs, dtype=float)
    return as_generator(seed).poisson(n_scans * lam0 * shape.value(freqs, delta_f))


_LM_MAX_STEPS = 500
_LM_FTOL = 1e-10


def fit_lineshape(freqs, total_counts, n_scans: int) -> Lineshape:
    """Double-Lorentzian lineshape fitted to the mean of `n_scans` sweeps
    whose counts are summed per frequency point.

    Unweighted Levenberg-Marquardt of A * L(f) with the analytic Jacobian, in
    MHz about DEFAULT_CENTER_HZ, over the centres and the logs of A, the
    contrasts and the widths, so that those stay positive. It starts from the
    default shape, with A the median of the top decile of the mean counts, and
    has converged once an accepted step lowers the sum of squares by at most
    _LM_FTOL of itself. Raises ValueError when it has not converged within
    _LM_MAX_STEPS trial steps or meets a step it cannot solve for.
    """
    if n_scans < 1:
        raise ValueError("n_scans must be >= 1")
    mean = np.asarray(total_counts, dtype=float) / n_scans
    if not np.isfinite(mean).all():
        raise ValueError("mean counts must be finite at every point")
    plateau = np.median(np.sort(mean)[-max(mean.size // 10, 1):])
    x = (np.asarray(freqs, dtype=float) - DEFAULT_CENTER_HZ) / 1e6

    def residual_and_jacobian(p):
        amp, d = np.exp(p[0]), x - p[1:3, None]
        c, g2 = np.exp(p[3:5, None]), np.exp(2.0 * p[5:7, None])
        den = d * d + g2
        cq = c * g2 / den
        level = 1.0 - cq.sum(axis=0)
        jac = np.concatenate([amp * level[None], -2.0 * amp * cq * d / den, -amp * cq,
                              -2.0 * amp * cq * d * d / den])
        return mean - amp * level, jac

    start = default_lineshape()
    damping = 1e-3
    # a step far out of the physical region may overflow; its sum of squares
    # is then not finite, and the step is rejected. A sweep whose brightest
    # points hold no counts starts at A = 0, where the Jacobian is singular.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = np.array([np.log(plateau), *(np.subtract(start.centers, DEFAULT_CENTER_HZ) / 1e6),
                      *np.log(start.contrasts), *np.log(np.divide(start.hwhms, 1e6))])
        r, jac = residual_and_jacobian(p)
        for _ in range(_LM_MAX_STEPS):
            jtj = jac @ jac.T
            try:
                step = np.linalg.solve(jtj + damping * np.diag(np.diag(jtj)), jac @ r)
            except np.linalg.LinAlgError:
                break
            r_try, jac_try = residual_and_jacobian(p + step)
            gain = r @ r - r_try @ r_try
            if gain >= 0:
                p, r, jac = p + step, r_try, jac_try
            damping *= 0.1 if gain >= 0 else 10.0
            if 0 <= gain <= _LM_FTOL * (r @ r):
                return Lineshape(centers=tuple((DEFAULT_CENTER_HZ + 1e6 * p[1:3]).tolist()),
                                 contrasts=tuple(np.exp(p[3:5]).tolist()),
                                 hwhms=tuple((1e6 * np.exp(p[5:7])).tolist()))
    raise ValueError("calibration fit of the reference lineshape did not converge")


# Options of the shift search, scipy's bounded Brent method
# (`minimize_scalar(method="bounded")`): 1 Hz absolute tolerance in the
# shift and at most 500 evaluations.
_XATOL_HZ = 1.0
_MAX_EVALS = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# Rows per chunk of the shift fit's objective and covariance stage, and of
# the draws that feed it: bounds their (rows, n_points) working arrays.
_CHUNK_ROWS = 128


def _minimize_bounded(func, n: int, lo: float, hi: float):
    """Bounded Brent minimization of n independent scalar functions at once.

    Each lane runs scipy's `_minimize_scalar_bounded` step for step, with
    every branch turned into a mask, so its evaluation points and result
    are bit-identical to the scalar search. `func(x, lanes)` returns the
    objectives of `lanes` at `x`. A lane that meets the tolerance leaves
    the loop. Returns the minimizers and scipy's `success` flags (False
    after 500 evaluations or on a NaN).
    """
    x_out = np.empty(n)
    ok_out = np.zeros(n, dtype=bool)
    lanes = np.arange(n)
    a = np.full(n, lo)
    b = np.full(n, hi)
    xf = np.full(n, lo + _GOLDEN * (hi - lo))
    fx = func(xf, lanes)
    nfc, fulc, fnfc, ffulc = xf, xf, fx, fx
    e = rat = np.zeros(n)
    fu = np.full(n, np.inf)
    num = 1

    def finish(sel, success):
        x_out[lanes[sel]] = xf[sel]
        ok_out[lanes[sel]] = success & ~(np.isnan(xf[sel]) | np.isnan(fx[sel])
                                         | np.isnan(fu[sel]))

    # every lane computes the parabolic step p / q, also where q = 0 and the
    # mask picks the golden-section step
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * np.abs(xf) + _XATOL_HZ / 3.0
            tol2 = 2.0 * tol1
            run = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
            if not run.all():
                finish(~run, True)
                lanes, a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, fu, xm, tol1, tol2 = (
                    v[run] for v in (lanes, a, b, xf, fx, nfc, fnfc, fulc, ffulc,
                                     e, rat, fu, xm, tol1, tol2))
            if not lanes.size:
                break

            # parabolic step where the last-but-one step was longer than tol1
            parabolic = np.abs(e) > tol1
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            r = e
            e = np.where(parabolic, rat, e)
            accept = (parabolic & (np.abs(p) < np.abs(0.5 * q * r))
                      & (p > q * (a - xf)) & (p < q * (b - xf)))
            rat_p = (p + 0.0) / q
            x = xf + rat_p
            si = np.sign(xm - xf) + ((xm - xf) == 0)
            rat_p = np.where(((x - a) < tol2) | ((b - x) < tol2), tol1 * si, rat_p)
            rat = np.where(accept, rat_p, rat)
            # golden-section step everywhere else
            e_g = np.where(xf >= xm, a - xf, b - xf)
            e = np.where(accept, e, e_g)
            rat = np.where(accept, rat, _GOLDEN * e_g)

            si = np.sign(rat) + (rat == 0)
            x = xf + si * np.maximum(np.abs(rat), tol1)
            fu = func(x, lanes)
            num += 1

            better = fu <= fx
            right = x >= xf
            left = x < xf
            a = np.where(better, np.where(right, xf, a), np.where(left, x, a))
            b = np.where(better, np.where(right, b, xf), np.where(left, b, x))
            push = better | (fu <= fnfc) | (nfc == xf)
            take = ~push & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
            fulc, ffulc = (np.where(push, nfc, np.where(take, x, fulc)),
                           np.where(push, fnfc, np.where(take, fu, ffulc)))
            nfc, fnfc = (np.where(better, xf, np.where(push, x, nfc)),
                         np.where(better, fx, np.where(push, fu, fnfc)))
            xf, fx = np.where(better, x, xf), np.where(better, fu, fx)

            if num >= _MAX_EVALS:
                finish(np.ones(lanes.size, dtype=bool), False)
                break
    return x_out, ok_out


def _levels_and_lam0(counts, freqs, shape: Lineshape, delta_f):
    """Lineshape levels at each row's shift and the closed-form amplitude."""
    lv = shape.value(freqs, delta_f[:, None])
    return lv, dot(counts, lv) / dot(lv, lv)


def fit_shifts(counts, freqs, shape: Lineshape, max_shift: float | None = None):
    """Two-parameter least squares fits of lam0 * L(f - delta_f), one per row.

    The amplitude is linear, so it is solved in closed form at each
    candidate shift and the search reduces to a bounded 1-D minimization
    over delta_f in [-max_shift, max_shift] (default: half the grid span),
    run for all rows at once. Each row's result is bit-identical to a
    scalar fit by scipy's `minimize_scalar(method="bounded")` with a
    1 Hz tolerance. The objective and the covariance stage take the rows
    `_CHUNK_ROWS` at a time, so beyond a float64 copy of integer `counts`
    the working memory is a few (n_bins,) vectors plus a few
    (`_CHUNK_ROWS`, n_points) arrays, whatever the number of rows.

    Parameters
    ----------
    counts : (n_bins, n_points) array
        Photon counts per bin and frequency point; not modified.
    freqs : (n_points,) array
        Microwave frequency grid, Hz.

    Returns
    -------
    delta_f, lam0, sigma, converged : (n_bins,) arrays
        Fitted shift (Hz), amplitude (counts per sample), shift standard
        deviation from the Gauss-Newton covariance (Hz; inf where the
        normal matrix is singular), and whether the fit converged inside
        the bounds with a positive amplitude.
    """
    counts = np.asarray(counts, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    if counts.ndim != 2 or freqs.ndim != 1 or counts.shape[1] != freqs.size:
        raise ValueError("counts must be (n_bins, n_points) on a 1-D grid of n_points")
    if max_shift is None:
        max_shift = 0.5 * (freqs[-1] - freqs[0])
    if not 0.0 <= max_shift < np.inf:
        raise ValueError("max_shift must be finite and non-negative")
    n = counts.shape[0]

    def sse(delta_f, lanes):
        out = np.empty(lanes.size)
        for k in range(0, lanes.size, _CHUNK_ROWS):
            part = slice(k, k + _CHUNK_ROWS)
            c = counts[lanes[part]]  # a gathered copy, so the residual may overwrite it
            lv, lam0 = _levels_and_lam0(c, freqs, shape, delta_f[part])
            lv *= lam0[:, None]
            c -= lv
            out[part] = dot(c, c)
        return out

    delta_f, ok = _minimize_bounded(sse, n, -max_shift, max_shift)

    # Gauss-Newton covariance of (lam0, delta_f) at the optimum
    lam0 = np.empty(n)
    var = np.empty(n)
    singular = np.zeros(n, dtype=bool)
    for k in range(0, n, _CHUNK_ROWS):
        rows = slice(k, k + _CHUNK_ROWS)
        c = counts[rows]
        lv, a = _levels_and_lam0(c, freqs, shape, delta_f[rows])
        j2 = -a[:, None] * shape.derivative(freqs, delta_f[rows, None])
        jtj = np.empty((a.size, 2, 2))
        jtj[:, 0, 0] = dot(lv, lv)
        jtj[:, 0, 1] = jtj[:, 1, 0] = dot(lv, j2)
        jtj[:, 1, 1] = dot(j2, j2)
        r = c - a[:, None] * lv
        s2 = dot(r, r) / max(freqs.size - 2, 1)
        try:
            inv = np.linalg.inv(jtj)
        except np.linalg.LinAlgError:
            # one singular matrix fails the chunk's stack: invert it row by row
            inv = np.zeros_like(jtj)
            for i in range(a.size):
                try:
                    inv[i] = np.linalg.inv(jtj[i])
                except np.linalg.LinAlgError:
                    singular[k + i] = True
        lam0[rows] = a
        var[rows] = s2 * inv[:, 1, 1]
    sigma = np.where(singular, np.inf, np.sqrt(np.where(var < 0.0, 0.0, var)))
    converged = ok & (np.abs(delta_f) < 0.999 * max_shift) & (lam0 > 0)
    return delta_f, lam0, sigma, converged & ~singular


# ------------------------------------------------- temperature calibration

DEFAULT_KAPPA_KHZ_PER_C = -60.0
DEFAULT_KAPPA_SIGMA_KHZ_PER_C = 0.4  # 1-sigma uncertainty of a calibrated kappa
DEFAULT_BIN_S = 0.4  # s of scans per shift fit and temperature sample


@dataclass(frozen=True)
class KappaCalibration:
    """Linear thermometry calibration: a shift delta_f is a temperature
    change dT = delta_f / kappa."""

    kappa_khz_per_C: float
    sigma_khz_per_C: float

    def __post_init__(self):
        if not (self.kappa_khz_per_C != 0 and math.isfinite(self.kappa_khz_per_C)):
            raise ValueError("kappa must be nonzero and finite")
        if not (self.sigma_khz_per_C > 0 and math.isfinite(self.sigma_khz_per_C)):
            raise ValueError("sigma_kappa must be positive and finite")


def shift_to_temperature(delta_f_hz, cal: KappaCalibration,
                         sigma_delta_f_hz=0.0):
    """Temperature change from a frequency shift, with propagated sigma.

    Returns (dT_C, sigma_C); accepts scalars or arrays.
    """
    k = cal.kappa_khz_per_C * 1e3
    sk = cal.sigma_khz_per_C * 1e3
    df = np.asarray(delta_f_hz, dtype=float)
    sdf = np.asarray(sigma_delta_f_hz, dtype=float)
    dt = df / k
    sigma = np.sqrt((sdf / k) ** 2 + (df * sk / k ** 2) ** 2)
    if df.ndim == 0:
        return float(dt), float(sigma)
    return dt, sigma


@dataclass
class TemperatureSeries:
    """Uniformly binned temperature readout with per-point uncertainties."""

    times: np.ndarray   # s
    dT_C: np.ndarray
    sigma_C: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.dT_C = np.asarray(self.dT_C, dtype=float)
        self.sigma_C = np.asarray(self.sigma_C, dtype=float)
        if not (self.times.shape == self.dT_C.shape == self.sigma_C.shape):
            raise ValueError("times, dT_C and sigma_C must share one shape")

    def to_csv(self, path) -> None:
        write_table(path, [("t_s", self.times, "%.6f"), ("dT_C", self.dT_C, "%.6f"),
                           ("sigma_C", self.sigma_C, "%.6f")])

    @classmethod
    def from_csv(cls, path) -> "TemperatureSeries":
        return cls(*read_table(path, ("t_s", "dT_C", "sigma_C"))[1])


def shift_series_to_temperature(series, cal: KappaCalibration) -> TemperatureSeries:
    """Convert a fitted shift series (times/delta_f/sigma) to temperature."""
    dt, sig = shift_to_temperature(series.delta_f, cal, series.sigma)
    return TemperatureSeries(times=series.times, dT_C=dt, sigma_C=sig,
                             meta={"kappa_khz_per_C": cal.kappa_khz_per_C})


def calibrate_kappa(temps_C, delta_f_hz, sigma_hz) -> KappaCalibration:
    """Slope of frequency shift versus temperature: one line through every
    sample, weighted by 1/sigma_hz^2.

    `temps_C` is each shift's temperature (the CLI interpolates the setpoint
    at the bin start, ramps included). A sample with sigma inf, as
    `fit_shifts` states for a singular fit, carries no weight and is
    dropped. Raises ValueError for arrays that are not matching 1-D, a
    sigma that is NaN, zero or negative, a non-finite temperature or shift
    on a weighted sample, fewer than 3 distinct weighted temperatures, or
    sigmas so far from 1 Hz (below about 1e-154 or above about 1e154) that
    the line comes out non-finite.
    """
    t = np.asarray(temps_C, dtype=float)
    df = np.asarray(delta_f_hz, dtype=float)
    sig = np.asarray(sigma_hz, dtype=float)
    if not t.shape == df.shape == sig.shape or t.ndim != 1:
        raise ValueError("temps_C, delta_f_hz and sigma_hz must be matching 1-D arrays")
    if not (sig > 0.0).all():
        raise ValueError("sigma_hz must be positive (inf for no weight)")
    weighted = sig < np.inf
    t, df, sig = t[weighted], df[weighted], sig[weighted]
    if not (np.isfinite(t).all() and np.isfinite(df).all()):
        raise ValueError("temps_C and delta_f_hz must be finite where sigma_hz is")
    if np.unique(t).size < 3:
        raise ValueError("need at least 3 distinct temperature levels")
    # a sigma whose 1/sigma^2 overflows or underflows gives a non-finite line,
    # which KappaCalibration rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        slope, sigma_slope, _, _ = weighted_line(t, df, 1.0 / sig ** 2)
    return KappaCalibration(kappa_khz_per_C=slope / 1e3,
                            sigma_khz_per_C=sigma_slope / 1e3)


# -------------------------------- sensitivity and the thermometry pipeline

DEFAULT_PHOTON_BUDGET = 10.0  # counts per 10 us sample, both detectors summed


def shift_bound_per_scan(shape: Lineshape, lam0: float, freqs=None) -> float:
    """Shift-only standard deviation bound (Hz) for one scan:
    sigma^2 >= (1/lam0) [sum_i L'^2(f_i)/L(f_i)]^-1.
    """
    if lam0 <= 0:
        raise ValueError("lam0 must be positive")
    if freqs is None:
        freqs = default_grid()
    freqs = np.asarray(freqs, dtype=float)
    lp = shape.derivative(freqs)
    lv = shape.value(freqs)
    info = float(np.sum(lp * lp / lv))
    if info <= 0:
        raise np.linalg.LinAlgError("flat lineshape carries no shift information")
    return float(np.sqrt(1.0 / (lam0 * info)))


def _scans_per_second(n_points: int) -> float:
    """Sweeps of n_points ticks per second that the chip's microwave gate
    completes; raises if not even one sweep fits in the gate."""
    gate = DutyCycleSchedule()
    rate = gate.scans_per_second(n_points)
    if rate == 0:
        raise ValueError(f"a {n_points}-point sweep does not fit in the "
                         f"{gate.mw_on:g} s microwave gate")
    return rate


def crb_temperature_sensitivity(shape: Lineshape, lam0: float,
                                kappa_khz_per_C: float,
                                freqs=None) -> float:
    """Shot-noise-limited thermometry sensitivity, degrees C per sqrt(Hz).

    The per-scan shift bound is averaged over the sweeps of `freqs` that the
    chip's microwave gate completes per wall-clock second (the duty cycle).
    """
    if kappa_khz_per_C == 0:
        raise ValueError("kappa must be nonzero")
    if freqs is None:
        freqs = default_grid()
    sigma_scan = shift_bound_per_scan(shape, lam0, freqs)
    sigma_1s = sigma_scan / np.sqrt(_scans_per_second(len(freqs)))
    return float(sigma_1s / abs(kappa_khz_per_C * 1e3))


@dataclass
class ShiftSeries:
    """Binned shift-fit stream from the synthetic thermometry pipeline."""

    times: np.ndarray     # s, bin start times (wall clock)
    delta_f: np.ndarray   # Hz
    sigma: np.ndarray     # Hz
    lam0: np.ndarray      # fitted amplitude per bin
    n_excluded: int
    meta: dict = field(default_factory=dict)


def scans_per_bin(bin_s: float, n_points: int) -> int:
    """Sweeps of `n_points` ticks the gate completes in `bin_s`; raises if
    not even one does."""
    scans = int(round(bin_s * _scans_per_second(n_points)))
    if scans < 1:
        raise ValueError("bin shorter than one scan")
    return scans


def bin_count(duration_s: float, bin_s: float) -> int:
    """Whole bins of `bin_s` in `duration_s`; raises if there is not one."""
    n_bins = whole_units(duration_s, bin_s)
    if n_bins < 1:
        raise ValueError("duration shorter than one bin")
    return n_bins


def simulate_shift_series(shape: Lineshape, lam0: float, duration_s: float,
                          seed, delta_f_of_t=None, bin_s: float = DEFAULT_BIN_S, freqs=None,
                          fit_shape: Lineshape | None = None) -> ShiftSeries:
    """Synthesize a gated scan stream and fit per-bin frequency shifts.

    Each bin accumulates the sweeps of `freqs` the gate completes in `bin_s`.
    `delta_f_of_t` is called once, on the array of bin start times, and
    returns the array of true shifts in Hz (default: all 0).
    When `fit_shape` is None the reference lineshape is fitted to the sum of
    all bins' counts (`fit_lineshape`), mirroring the self-calibrated
    pipeline; a sweep too dim for that fit raises ValueError.
    """
    if freqs is None:
        freqs = default_grid()
    freqs = np.asarray(freqs, dtype=float)
    rng = as_generator(seed)
    scans = scans_per_bin(bin_s, freqs.size)
    n_bins = bin_count(duration_s, bin_s)

    times = bin_s * np.arange(n_bins)
    truth = np.zeros(n_bins) if delta_f_of_t is None else \
        np.asarray(delta_f_of_t(times), dtype=float)
    if truth.shape != times.shape:
        raise ValueError("delta_f_of_t must return one shift per bin start time")
    # a chunk's draw is the stream of one synthesize_scan call per bin;
    # counts below 2**53 are exact in float64, which fit_shifts then takes
    # without a copy
    counts = np.empty((n_bins, freqs.size))
    for k in range(0, n_bins, _CHUNK_ROWS):
        rows = slice(k, k + _CHUNK_ROWS)
        counts[rows] = synthesize_scan(shape, lam0, truth[rows, None], rng, freqs, scans)
    if fit_shape is None:
        fit_shape = fit_lineshape(freqs, counts.sum(axis=0), n_bins * scans)
    delta_f, lam_fit, sigma, ok = fit_shifts(counts, freqs, fit_shape)
    return ShiftSeries(
        times=times,
        delta_f=delta_f,
        sigma=sigma,
        lam0=lam_fit,
        n_excluded=int((~ok).sum()),
        meta={"scans_per_bin": scans, "truth": truth},
    )


# --------------------------------------------------------- Allan deviation

def allan_deviation(values, sample_s: float, taus=None):
    """Overlapping Allan deviation of a uniformly sampled series.

    Parameters
    ----------
    values : array
        Samples, each an average over one `sample_s` interval.
    sample_s : float
        Sample period, s.
    taus : array, optional
        Averaging times, s; must be integer multiples of `sample_s`.
        Defaults to a log-spaced grid. Values beyond a third of the
        record length are dropped.

    Returns
    -------
    (taus_s, adev) arrays.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise ValueError("need a 1-D series of at least 3 samples")
    if sample_s <= 0:
        raise ValueError("sample period must be positive")
    n = y.size
    m_max = n // 3
    if taus is None:
        ms = np.unique(np.round(np.logspace(0, np.log10(max(m_max, 1)), 40))
                       .astype(int))
    else:
        taus = np.asarray(taus, dtype=float)
        ms = np.round(taus / sample_s).astype(int)
        if (np.abs(taus - ms * sample_s) > 1e-6 * sample_s).any():
            raise ValueError("taus must be integer multiples of the sample period")
    ms = ms[(ms >= 1) & (ms <= m_max)]
    if ms.size == 0:
        raise ValueError("no valid averaging times below a third of the record")

    c = np.concatenate([[0.0], np.cumsum(y)])
    out = np.empty(ms.size)
    for j, m in enumerate(ms):
        # overlapping cluster means via the cumulative sum
        s = c[m:] - c[:-m]
        d = s[m:] - s[:-m]
        out[j] = np.sqrt(0.5 * np.mean((d / m) ** 2))
    return ms * sample_s, out


def allan_sensitivity(taus, adev, fit_range=None) -> float:
    """White-noise sensitivity S from sigma_A(tau) = S/sqrt(tau).

    Geometric mean of adev*sqrt(tau) over the fit range, which is the
    log-domain least squares estimate with the slope fixed at -1/2.
    """
    taus = np.asarray(taus, dtype=float)
    adev = np.asarray(adev, dtype=float)
    mask = adev > 0
    if fit_range is not None:
        lo, hi = fit_range
        mask &= (taus >= lo) & (taus <= hi)
    if mask.sum() < 1:
        raise ValueError("fit range selects no points")
    return float(np.exp(np.mean(np.log(adev[mask] * np.sqrt(taus[mask])))))
