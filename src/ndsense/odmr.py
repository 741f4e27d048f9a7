"""ODMR thermometry: lineshapes, scan synthesis, shift fitting, sensitivity
bounds, Allan analysis, and temperature calibration.

A lineshape L(f) is the photoluminescence level normalized to 1 off
resonance; spin-resonance dips pull it below 1.
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
    "build_interpolation",
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
# highest interpolation-table level: tables are normalized to 1 off
# resonance, and noise may lift a point a little above it
_TABLE_MAX_LEVEL = 1.05


@dataclass(frozen=True, eq=False)
class Lineshape:
    """Normalized PL level versus microwave frequency.

    Two kinds: "double_lorentzian" (asymmetric strain-split pair) and
    "interpolation" (piecewise-linear table extending as L = 1 beyond its
    endpoints).
    """

    kind: str
    centers: tuple = ()
    contrasts: tuple = ()
    hwhms: tuple = ()
    table_f: np.ndarray = field(default=None, repr=False)
    table_L: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "double_lorentzian":
            if not (len(self.centers) == len(self.contrasts) == len(self.hwhms) == 2):
                raise ValueError("double_lorentzian needs 2 center/contrast/hwhm each")
            if any(c <= 0 for c in self.contrasts) or sum(self.contrasts) >= 1:
                raise ValueError("contrasts must be positive and sum below 1")
            if any(g <= 0 for g in self.hwhms):
                raise ValueError("linewidths must be positive")
        elif self.kind == "interpolation":
            f = np.asarray(self.table_f, dtype=float)
            lv = np.asarray(self.table_L, dtype=float)
            if f.ndim != 1 or f.shape != lv.shape or f.size < 2:
                raise ValueError("interpolation table needs matching 1-D arrays")
            # NaN fails every comparison, so it would pass the checks below
            if not (np.isfinite(f).all() and np.isfinite(lv).all()):
                raise ValueError("interpolation table must be finite")
            if (np.diff(f) <= 0).any():
                raise ValueError("table frequencies must be strictly increasing")
            if (lv <= 0).any() or (lv > _TABLE_MAX_LEVEL).any():
                raise ValueError("table levels must lie in (0, 1] up to noise")
            object.__setattr__(self, "table_f", f)
            object.__setattr__(self, "table_L", lv)
        else:
            raise ValueError(f"unknown lineshape kind: {self.kind}")

    @classmethod
    def double(cls, contrasts=DEFAULT_CONTRASTS) -> "Lineshape":
        """The default strain-split pair with the given dip contrasts."""
        c1 = DEFAULT_CENTER_HZ - 0.5 * DEFAULT_SPLITTING_HZ
        c2 = DEFAULT_CENTER_HZ + 0.5 * DEFAULT_SPLITTING_HZ
        return cls(kind="double_lorentzian", centers=(c1, c2),
                   contrasts=tuple(contrasts), hwhms=(DEFAULT_HWHM_HZ, DEFAULT_HWHM_HZ))

    @classmethod
    def from_table(cls, freqs, levels) -> "Lineshape":
        return cls(kind="interpolation", table_f=np.asarray(freqs, dtype=float),
                   table_L=np.asarray(levels, dtype=float))

    def value(self, f, delta_f: float = 0.0):
        """L(f - delta_f); accepts scalars or arrays."""
        x = np.asarray(f, dtype=float) - delta_f
        if self.kind == "interpolation":
            return np.interp(x, self.table_f, self.table_L, left=1.0, right=1.0)
        out = np.ones_like(x)
        for c, amp, g in zip(self.centers, self.contrasts, self.hwhms):
            out = out - amp * g * g / ((x - c) ** 2 + g * g)
        return out

    def derivative(self, f, delta_f: float = 0.0):
        """dL/df at f - delta_f; piecewise-constant segment slopes for tables."""
        x = np.atleast_1d(np.asarray(f, dtype=float)) - delta_f
        if self.kind == "interpolation":
            slopes = np.diff(self.table_L) / np.diff(self.table_f)
            idx = np.searchsorted(self.table_f, x, side="right") - 1
            out = np.zeros_like(x)
            inside = (idx >= 0) & (idx < slopes.size) & (x >= self.table_f[0]) \
                     & (x <= self.table_f[-1])
            out[inside] = slopes[idx[inside]]
        else:
            out = np.zeros_like(x)
            for c, amp, g in zip(self.centers, self.contrasts, self.hwhms):
                d = x - c
                out = out + amp * g * g * 2.0 * d / (d * d + g * g) ** 2
        if np.isscalar(f) or np.asarray(f).ndim == 0:
            return float(out[0])
        return out


def default_grid(n_points: int = DEFAULT_N_POINTS) -> np.ndarray:
    """Uniform microwave frequency grid of one scan."""
    return DEFAULT_CENTER_HZ + np.linspace(-0.5 * DEFAULT_SPAN_HZ, 0.5 * DEFAULT_SPAN_HZ,
                                           n_points)


def default_lineshape() -> Lineshape:
    """Asymmetric strain-split double Lorentzian used throughout the tests."""
    return Lineshape.double()


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


def build_interpolation(freqs, total_counts, n_scans: int) -> Lineshape:
    """Normalized interpolation-table lineshape from the counts of `n_scans`
    sweeps summed per frequency point.

    The off-resonance plateau is taken as the median of the top decile of
    mean levels and divides the table so it tends to 1 off resonance.
    """
    if n_scans < 1:
        raise ValueError("n_scans must be >= 1")
    mean = np.asarray(total_counts) / n_scans
    if not np.isfinite(mean).all() or (mean <= 0).any():
        raise ValueError("mean counts must be finite and positive at every point")
    top = np.sort(mean)[-max(mean.size // 10, 1):]
    plateau = float(np.median(top))
    return Lineshape.from_table(freqs, np.minimum(mean / plateau, _TABLE_MAX_LEVEL))


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
        if self.kappa_khz_per_C == 0:
            raise ValueError("kappa must be nonzero")
        if self.sigma_khz_per_C <= 0:
            raise ValueError("sigma_kappa must be positive")


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


def calibrate_kappa(temps_C, delta_f_hz, sigma_hz=None) -> KappaCalibration:
    """Slope of mean frequency shift versus temperature setpoint.

    `temps_C` labels each shift with its setpoint; shifts are averaged
    per distinct level, then a variance-weighted line is fitted through
    the level means. Needs at least 3 distinct levels.
    """
    t = np.asarray(temps_C, dtype=float)
    df = np.asarray(delta_f_hz, dtype=float)
    if t.shape != df.shape or t.ndim != 1:
        raise ValueError("temps_C and delta_f_hz must be matching 1-D arrays")
    levels = np.unique(t)
    if levels.size < 3:
        raise ValueError("need at least 3 distinct temperature levels")
    means = np.empty(levels.size)
    errs = np.empty(levels.size)
    for i, lv in enumerate(levels):
        sel = t == lv
        vals = df[sel]
        means[i] = vals.mean()
        if vals.size > 1:
            errs[i] = vals.std(ddof=1) / np.sqrt(vals.size)
        elif sigma_hz is not None:
            errs[i] = np.asarray(sigma_hz, dtype=float)[sel][0]
        else:
            raise ValueError("single-sample level without a provided sigma")
    if (errs <= 0).any():
        errs = np.where(errs <= 0, max(errs.max(), 1.0), errs)
    slope, sigma_slope, _, _ = weighted_line(levels, means, 1.0 / errs ** 2)
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
    When `fit_shape` is None the interpolation table is built from the
    accumulated data itself, mirroring the self-calibrated pipeline.
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
        fit_shape = build_interpolation(freqs, counts.sum(axis=0), n_bins * scans)
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
