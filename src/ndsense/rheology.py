"""Passive microrheology from tracked trajectories.

Time-averaged MSD with stochastic error bars, diffusion and anomalous
exponent fits, complex moduli via the local power-law (Mason) shortcut,
Welch position spectra, and external-force spectra from the spring-model
force balance.
"""

from __future__ import annotations

import bisect
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ._numeric import dot, weighted_line
from ._table import write_table
from .constants import BOLTZMANN_J_PER_K, _NM_SCALE, celsius_to_kelvin
from .media import ViscousMediumModel, stokes_einstein_D, viscosity_at
from .trajectory import Trajectory

__all__ = [
    "MsdCurve",
    "ComplexModulus",
    "PsdCurve",
    "ForceSpectrum",
    "DiffusionFit",
    "ExponentFit",
    "RadiusFit",
    "msd",
    "fit_diffusion",
    "anomalous_exponent",
    "complex_modulus",
    "psd",
    "external_force_spectrum",
    "fit_hydrodynamic_radius",
]

NOISE_FLOOR_NM2 = 100.0  # instrument noise floor, 1e-4 um^2
DEFAULT_PSD_WINDOW_S = 28.8  # Welch segment length of `psd`


@dataclass
class MsdCurve:
    """Time-averaged MSD over a lag grid, with per-lag variance estimates."""

    taus: np.ndarray       # s, strictly increasing
    msd: np.ndarray        # nm^2, summed over the tagged axes
    var: np.ndarray        # nm^4, variance estimate of each MSD value
    dims: str              # axes tag, e.g. "xy"
    n_samples: np.ndarray  # K = N - tau per lag
    dt: float              # source sampling interval, s
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.msd = np.asarray(self.msd, dtype=float)
        self.var = np.asarray(self.var, dtype=float)
        self.n_samples = np.asarray(self.n_samples, dtype=int)
        if not (self.taus.shape == self.msd.shape == self.var.shape):
            raise ValueError("taus, msd and var must share one shape")
        if self.taus.size and (np.diff(self.taus) <= 0).any():
            raise ValueError("lag times must be strictly increasing")
        if (self.var < 0).any():
            raise ValueError("variance estimates must be non-negative")

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    def to_csv(self, path) -> None:
        write_table(path, [("tau_s", self.taus, "%.6e"), ("msd_nm2", self.msd, "%.6e"),
                           ("var_nm4", self.var, "%.6e"), ("k", self.n_samples, "%d")],
                    meta=[("schema", 1), ("dims", self.dims), ("dt_s", self.dt)])


@dataclass
class ComplexModulus:
    """Complex shear modulus on a frequency grid, with local exponents."""

    freqs: np.ndarray        # Hz
    G_abs: np.ndarray        # Pa
    G_prime: np.ndarray      # Pa
    G_dprime: np.ndarray     # Pa
    alpha_local: np.ndarray  # local log-log MSD slope at tau = 1/f
    delta: np.ndarray        # loss tangent angle, rad
    flagged: np.ndarray      # True where alpha fell outside [0, 2]

    def to_csv(self, path) -> None:
        write_table(path, [("f_hz", self.freqs, "%.6e"), ("g_abs_pa", self.G_abs, "%.6e"),
                           ("g_prime_pa", self.G_prime, "%.6e"),
                           ("g_dprime_pa", self.G_dprime, "%.6e"),
                           ("alpha", self.alpha_local, "%.6f")])


@dataclass
class PsdCurve:
    """One-sided Welch power spectral density summed over selected axes."""

    freqs: np.ndarray   # Hz
    values: np.ndarray  # nm^2/Hz

    def value_at(self, f: float) -> float:
        """Log-log interpolated density at one frequency."""
        pos = self.freqs > 0
        return float(np.exp(np.interp(np.log(f), np.log(self.freqs[pos]),
                                      np.log(np.maximum(self.values[pos], 1e-300)))))

    def to_csv(self, path) -> None:
        write_table(path, [("f_hz", self.freqs, "%.6e"),
                           ("psd_nm2_per_hz", self.values, "%.6e")])


@dataclass
class ForceSpectrum:
    """Force-balance decomposition of a position PSD into thermal and external."""

    omegas: np.ndarray        # rad/s
    thermal: np.ndarray       # N^2/Hz
    external: np.ndarray      # N^2/Hz, negatives clipped to 0
    external_raw: np.ndarray  # N^2/Hz, before clipping
    clipped: np.ndarray       # True where external_raw < 0

    def to_csv(self, path) -> None:
        write_table(path, [("omega_rad_s", self.omegas, "%.6e"),
                           ("thermal", self.thermal, "%.6e"),
                           ("external", self.external, "%.6e")])


@dataclass(frozen=True)
class DiffusionFit:
    D: float            # nm^2/s
    sigma: float        # nm^2/s
    below_floor: bool   # MSD in fit range sat at the instrument noise floor


@dataclass(frozen=True)
class ExponentFit:
    alpha: float
    sigma: float


@dataclass(frozen=True)
class RadiusFit:
    r_nm: float
    sigma_nm: float


def _default_lags(n: int) -> np.ndarray:
    hi = max(n // 4, 1)
    lags = np.unique(np.round(np.logspace(0, np.log10(hi), 60)).astype(int))
    return lags[lags >= 1]


# every 2^a 3^b 5^c up to 2^40, ascending: the lengths pocketfft transforms fastest
_FAST_LENS = sorted(q << a for q in (3 ** b * 5 ** c for b in range(26) for c in range(18))
                    if q <= 1 << 40 for a in range(((1 << 40) // q).bit_length()))


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, as scipy.fft.next_fast_len(n, real=True)."""
    return _FAST_LENS[bisect.bisect_left(_FAST_LENS, n)]


def _autocorr(y: np.ndarray, nfft: int) -> np.ndarray:
    """Autocorrelation sums of `y` over all offsets, as irfft(|rfft(y)|^2);
    `nfft` at least len(y) + the largest offset wanted keeps them free of
    wrap-around."""
    spec = np.fft.rfft(y, nfft)
    power = spec.real ** 2
    power += spec.imag ** 2
    return np.fft.irfft(power, nfft)


def _prefix_sums(v: np.ndarray, hi: int) -> np.ndarray:
    """Sums of the first 0..hi entries of ``v``."""
    return np.concatenate(([0.0], np.cumsum(v[:hi])))


def _axis_msd(x: np.ndarray, lags: np.ndarray) -> np.ndarray:
    # all-lags FFT MSD (nMOLDYN): (n - m) MSD(m) = S1(m) - 2 S2(m) with
    # S2(m) = sum_t y[t] y[t+m] from one autocorrelation, zero-padded to
    # n + the largest lag so that no requested lag wraps around, and
    # S1(m) = sum_t y[t]^2 + y[t+m]^2 from the total minus head and tail
    # sums. y is x less its mean and least-squares line, which shrinks the
    # energy the FFT round-off scales with; the line's exact share is
    # added back per lag.
    n = x.size
    hi = int(lags[-1])
    t = np.arange(n) - 0.5 * (n - 1)
    y = x - x.mean()
    slope = dot(t, y) / dot(t, t)
    y -= slope * t
    nfft = _next_fast_len(n + hi)
    s2 = _autocorr(y, nfft)[lags]
    sq = y * y
    s1 = 2.0 * sq.sum() - _prefix_sums(sq, hi)[lags] - _prefix_sums(sq[::-1], hi)[lags]
    # sum_t y[t+m] - y[t] is the last m values of y less the first m
    net = _prefix_sums(y[::-1], hi)[lags] - _prefix_sums(y, hi)[lags]
    drift = slope * lags
    return (s1 - 2.0 * s2 + 2.0 * drift * net + drift * drift * (n - lags)) / (n - lags)


def _var_cov(sums: np.ndarray, k: int | np.ndarray) -> np.ndarray:
    # covariance-structure estimator: for Gaussian increments the variance
    # of the time-averaged MSD is 2/K sum over offsets of squared
    # autocovariances of the lagged displacements, which vanish beyond the
    # lag for uncorrelated steps. Each row of `sums` holds one axis's
    # displacement autocorrelation sums at offsets below min(lag, K), from
    # one lag's FFT pair in `_msd_var`, with `k` = K; or, from the closed-form
    # run, each axis holds one row per lag m, zero at offsets m and up, and
    # `k` holds each row's K.
    c = sums / np.subtract.outer(k, np.arange(sums.shape[-1]))
    return 2.0 / k * c[..., 0] * c[..., 0] + 4.0 / k * dot(c[..., 1:], c[..., 1:])


# float64 entries of the closed-form run's tables and sums at most:
# `_run_var` takes as many axes at a time as fit (one at least)
_GROUP_FLOATS = 1 << 18

# the longest run of lags 1..h that `_msd_var` takes in closed form: the
# run's three h x h tables of one axis fit in _GROUP_FLOATS
_RUN_MAX = math.isqrt(_GROUP_FLOATS // 3)  # 295


def _run_length(lags: np.ndarray, n: int) -> int:
    """h where the sorted, distinct `lags` lead with 1, 2, ..., h, 2h <= n and
    h <= _RUN_MAX: the run of lags whose variance `_msd_var` takes in closed
    form; 0 for a run of one lag, which gains nothing."""
    top = min(n // 2, _RUN_MAX, lags.size)
    h = int(np.count_nonzero(lags[:top] == np.arange(1, top + 1)))
    return h if h > 1 else 0


def _run_sums(cols: np.ndarray, r: np.ndarray, h: int) -> np.ndarray:
    # S_m[j] of each axis (column of `cols`) for all j < m <= h, shape
    # (axes, h, h), valid at j < m only, from R at offsets -h to 2h - 2 (the
    # rows of `r`): S_m[j] = F_m[j] - P(j, m-1) + P(m-j, j-1) less the same
    # two terms of the tail (see `_msd_var`). F_1 = R and F_{m+1}[j] =
    # F_m[j] + C1(j+m) - C1(j-m-1), with C1 R's cumulative sum from offset
    # -h, so F is one cumulative sum over m of C1's windows. The head's
    # prefix table P(o, n) = sum_{k=1..n} q_k q_{k+o}, q = x - x[0], holds
    # the products over E's first m - 1 entries; the tail's is the same
    # table of the reversed walk.
    n_ax = cols.shape[1]
    # per axis: F, the tail's table, the head's table; each table's
    # anti-diagonal view below reaches up to h^2 entries back into the
    # array before it, where it reads only entries that are not valid
    t = np.empty((n_ax, 3, h, h))
    c1 = np.zeros((n_ax, 3 * h))
    np.cumsum(r, axis=1, out=c1[:, 1:])  # C1 at offsets -h - 1 to 2h - 2
    w = sliding_window_view(c1, h, axis=1)  # w[:, s, j] = C1(s + j - h - 1)
    t[:, 0, 0] = r[:, h:2 * h]
    np.subtract(w[:, h + 2:], w[:, h - 1:0:-1], out=t[:, 0, 1:])
    np.cumsum(t[:, 0], axis=1, out=t[:, 0])
    for row, y in ((1, cols[::-1]), (2, cols)):
        q = (y[:2 * h - 1] - y[0]).T
        p = t[:, row, :, 1:]
        t[:, row, :, 0] = 0.0
        np.multiply(q[:, None, 1:h], sliding_window_view(q, h - 1, axis=1)[:, 1:h + 1], out=p)
        np.cumsum(p, axis=2, out=p)
    s = t[:, 0].copy()
    for row in (2, 1):
        p = t[:, row]
        s -= p.swapaxes(1, 2)  # P(j, m - 1)
        # P(m - j, j - 1) for j >= 1, at entry (m - 1) h + h - 1 - j (h - 1)
        s[:, :, 1:] += as_strided(p, (n_ax, h, h - 1), (p.strides[0], p.strides[1],
                                                        p.strides[2] - p.strides[1]),
                                  writeable=False)
    return s


def _run_var(cols: np.ndarray, r: np.ndarray, h: int) -> np.ndarray:
    # "cov" variance of lags 1..h, shape (axes, h), from the run's sums,
    # taken for as many axes at a time as hold their tables and sums, 4 h^2
    # floats an axis, in _GROUP_FLOATS (one axis at least); tril zeroes the
    # sums at j >= m once the tables are freed
    n_ax = cols.shape[1]
    k = cols.shape[0] - np.arange(1, h + 1)
    step = max(_GROUP_FLOATS // (4 * h * h), 1)
    return np.concatenate([_var_cov(np.tril(_run_sums(cols[:, a:a + step], r[a:a + step], h)),
                                    k) for a in range(0, n_ax, step)])


def _msd_var(cols: np.ndarray, lags: np.ndarray) -> np.ndarray:
    # "cov" variance of every axis (column of `cols`) at each lag, shape
    # (lags, axes), from the autocorrelation sums S_m[j] = sum_t xi[t] xi[t+j]
    # of the lag-m displacements xi = x[m:] - x[:-m] of each axis x.
    #
    # Up to N/2, where j < m: xi is the steps s = diff(x) summed over a box
    # of m. Padded with the end values of x, the box sums run on to
    # E[e] = x[min(e+1, N-1)] - x[max(e-m+1, 0)] for e < N + m - 2, and
    # xi = E[m-1:N-1]. E's autocorrelation is the triangle-weighted sum
    # F[j] = sum_{|d|<m} (m - |d|) R(|j + d|) of the steps' autocorrelation
    # R, one FFT pair for all axes and lags, and S_m is F less the products
    # over E's first m - 1 entries (head) and its last m - 1 (tail: the head
    # of the reversed trajectory).
    #
    # A leading run of lags 1..h (see `_run_length`) takes F, head and tail
    # in closed form for all its lags at once (see `_run_var`), in O(h^2)
    # per axis and with no further transform. Every later lag m takes one
    # FFT pair shared by its axes. Up to N/2 the three are correlations of
    # vectors shorter than 3m, summed in rows of length nf(m), the next fast
    # length from 3m - 2: the triangle weights, the same on every axis, and
    # per axis R's window, the head and the tail. pocketfft transforms each
    # row of a stacked array exactly as a lone row, so the sums are those of
    # one axis at a time, bit for bit. A length-N pair for these lags took
    # 2x (default lags) to 6x (lags 1..1000) as long on a 30,001-point walk.
    #
    # Above N/2 the end products grow as large as F and the difference
    # loses precision (about 1e-8 relative near lag N - 1), so those lags
    # correlate xi directly, one length-N FFT pair per lag for all axes.
    n, n_ax = cols.shape
    out = np.empty((lags.size, n_ax))
    n_half = int(np.searchsorted(lags, n // 2, side="right"))
    h = _run_length(lags, n)  # 0 where no lag is up to N/2
    if n_half:
        hi = int(lags[n_half - 1])
        r = _autocorr(np.diff(cols, axis=0).T, _next_fast_len(n + 2 * hi - 3))[:, :2 * hi - 1]
        r = np.concatenate((r[:, :0:-1], r), axis=1)  # R(|o|) for o in [2 - 2 hi, 2 hi - 2]
        if h:
            out[:h] = _run_var(cols, r[:, 2 * hi - 2 - h:2 * hi + 2 * h - 3], h).T
    nfft = _next_fast_len(n - 1)  # K + lag - 1 = n - 1
    for i, m in enumerate(lags[h:].tolist(), start=h):
        if i < n_half:
            # row 0: the triangle weights; rows 1-5 of an axis: R at offsets
            # 1 - m to 2m - 2, then the short and full head and tail
            nf = _next_fast_len(3 * m - 2)
            z = np.zeros((1 + 5 * n_ax, nf))
            z[0, :2 * m - 1] = m - np.abs(np.arange(1 - m, m))
            za = z[1:].reshape(n_ax, 5, nf)
            za[:, 0, :3 * m - 2] = r[:, 2 * hi - 1 - m:2 * hi + 2 * m - 3]
            for row, y in ((1, cols.T), (3, cols[::-1].T)):
                e = za[:, row + 1, :2 * m - 2]
                np.subtract(y[:, 1:m], y[:, :1], out=e[:, :m - 1])
                np.subtract(y[:, m:2 * m - 1], y[:, :m - 1], out=e[:, m - 1:])
                za[:, row, :m - 1] = e[:, :m - 1]
            f = np.fft.rfft(z)
            fa = f[1:].reshape(n_ax, 5, -1)
            p = f[:1].conj() * fa[:, 0]
            p -= fa[:, 1].conj() * fa[:, 2]
            p -= fa[:, 3].conj() * fa[:, 4]
            sums = np.fft.irfft(p, nf)[:, :m]
        else:
            sums = _autocorr((cols[m:] - cols[:-m]).T, nfft)[:, :n - m]
        out[i] = _var_cov(sums, n - m)
    return out


def msd(traj: Trajectory, axes: str = "xy", lags=None, variance: str = "cov",
        noise_floor_nm2: float = NOISE_FLOOR_NM2) -> MsdCurve:
    """Time-averaged MSD over integer lags, summed across `axes`.

    Every lag comes from one zero-padded FFT autocorrelation per axis
    (the all-lags algorithm of nMOLDYN, Kneller et al., Comput. Phys.
    Commun. 91, 191, 1995), so the MSD costs O(N log N) however many lags
    are asked for. The "cov" variance of lags up to N/2 shares one
    autocorrelation of the steps per axis. Lags that lead as 1, 2, ..., h,
    with h at most 295 and N/2, take it in closed form from that
    autocorrelation and a prefix-sum table per end (measured against the
    per-offset loop: at most 6.4e-14 relative over 450 walks with up to 3
    axes and offsets of 1e6). Every other lag adds one FFT pair shared by
    all axes: up to N/2, rows of the next fast length from 3m - 2 (at most
    1.4e-13 relative over 3,000 walks of up to 2,000 points); above N/2, a
    direct length-N correlation of the lag's displacements (see
    `_msd_var`). Each axis has the same bits alone as with others. The MSD's
    FFT trades the exact per-lag mean for round-off of about eps times the
    energy of the axis about its least-squares line, per pair. On Brownian
    walks the relative error grows as about eps*N at lags up to N/4
    (measured: at most 4e-13 over 3,000 walks of up to 2,000 points), and it
    is largest where few pairs remain, at lags near N (2e-8 at lag N - 1 of
    a 2,000-point walk), so a lag above N/2 raises a RuntimeWarning.

    Parameters
    ----------
    traj : Trajectory
    axes : str
        Subset of "xyz"; per-axis MSDs and variances add because the
        axes are uncorrelated.
    lags : 1-D sequence of whole numbers, optional
        Lags in samples, each below N. Defaults to a log-spaced grid up to
        N/4; lags above N/2 warn (see above).
    variance : {"cov", "none"}
        "cov" estimates each lag's variance from the covariance structure
        of its displacements (see `_var_cov`); "none" leaves it at 0.
    noise_floor_nm2 : float
        Instrument floor: where the statistical error or the MSD itself
        falls below this value, the reported error saturates at it. Pass
        0 to disable.

    Returns
    -------
    MsdCurve
    """
    cols = traj.axis(axes)
    n = cols.shape[0]
    lag_arr = _default_lags(n) if lags is None else lags
    if np.ndim(lag_arr) != 1:
        raise ValueError(f"lags must be a 1-D sequence, got shape {np.shape(lags)}")
    if not (isinstance(lag_arr, np.ndarray) and lag_arr.dtype.kind in "iu"):
        values = lag_arr.tolist() if isinstance(lag_arr, np.ndarray) else lag_arr
        for v in values:
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or v % 1 != 0:
                raise ValueError(f"lag {v!r} is not a whole number")
        # kept as Python numbers until the range is checked: the int
        # conversion overflows beyond int64
        lag_arr = np.array(values, dtype=object)
    if lag_arr.size == 0:
        raise ValueError("no lags requested")
    if lag_arr.min() < 1:
        raise ValueError("lags must be >= 1 sample")
    if lag_arr.max() >= n:
        raise ValueError(f"lag {int(lag_arr.max())} >= trajectory length {n}")
    lag_arr = np.unique(lag_arr.astype(int))
    if 2 * lag_arr[-1] > n:
        warnings.warn(f"lag {lag_arr[-1]} is above half the trajectory length {n}; "
                      "the MSD there rests on few pairs and loses relative accuracy",
                      RuntimeWarning, stacklevel=2)
    if variance not in ("cov", "none"):
        raise ValueError("variance must be 'cov' or 'none'")

    m_out = np.zeros(lag_arr.size)
    v_out = np.zeros(lag_arr.size)
    var = _msd_var(cols, lag_arr) if variance == "cov" else None
    for a in range(cols.shape[1]):
        m_out += _axis_msd(cols[:, a], lag_arr)
        if var is not None:
            v_out += var[:, a]
    k_out = n - lag_arr

    if noise_floor_nm2 > 0:
        err = np.sqrt(v_out)
        sat = (err < noise_floor_nm2) | (m_out < noise_floor_nm2)
        v_out = np.where(sat, noise_floor_nm2 ** 2, v_out)
    else:
        sat = np.zeros(lag_arr.size, dtype=bool)

    return MsdCurve(taus=lag_arr * traj.dt, msd=m_out, var=v_out, dims=axes,
                    n_samples=k_out, dt=traj.dt,
                    meta={"noise_floor_nm2": noise_floor_nm2,
                          "floored": sat, "variance": variance})


def _fit_mask(curve: MsdCurve, fit_range):
    if fit_range is None:
        return np.ones(curve.taus.size, dtype=bool)
    lo, hi = fit_range
    return (curve.taus >= lo) & (curve.taus <= hi)


def fit_diffusion(curve: MsdCurve, fit_range=None, through_origin: bool = True) -> DiffusionFit:
    """Diffusion coefficient from MSD = 2 * n_dims * D * tau.

    A variance-weighted linear fit over `fit_range` (s), through the
    origin by default; with ``through_origin=False`` a free intercept
    absorbs static localization noise and motion blur.
    """
    two_d = 2.0 * curve.n_dims
    floor = float(np.asarray(curve.meta.get("noise_floor_nm2", NOISE_FLOOR_NM2)))

    mask = _fit_mask(curve, fit_range)
    taus = curve.taus[mask]
    vals = curve.msd[mask]
    var = curve.var[mask]
    if taus.size < (1 if through_origin else 2):
        raise ValueError("fit range selects too few points")
    if (vals <= 0).any():
        raise ValueError("non-positive MSD in fit range")
    w = np.where(var > 0, 1.0 / np.where(var > 0, var, 1.0), 1.0)

    if through_origin:
        denom = float(np.sum(w * taus * taus))
        slope = float(np.sum(w * taus * vals)) / denom
        sig_slope = 1.0 / np.sqrt(denom) if (var > 0).all() else float("nan")
    else:
        sw = np.sum(w)
        st = np.sum(w * taus)
        stt = np.sum(w * taus * taus)
        sv = np.sum(w * vals)
        stv = np.sum(w * taus * vals)
        det = sw * stt - st * st
        slope = float((sw * stv - st * sv) / det)
        sig_slope = float(np.sqrt(sw / det)) if (var > 0).all() else float("nan")
    below = bool(np.median(vals) < floor)
    return DiffusionFit(slope / two_d, sig_slope / two_d, below_floor=below)


def anomalous_exponent(curve: MsdCurve, fit_range=None) -> ExponentFit:
    """Log-log weighted regression slope of MSD versus lag."""
    mask = _fit_mask(curve, fit_range)
    taus = curve.taus[mask]
    vals = curve.msd[mask]
    var = curve.var[mask]
    if taus.size < 4:
        raise ValueError("need at least 4 points for an exponent fit")
    if (vals <= 0).any():
        raise ValueError("non-positive MSD in fit range")
    x = np.log(taus)
    y = np.log(vals)
    # delta method: var(log m) = var(m)/m^2
    w = np.where(var > 0, vals ** 2 / np.where(var > 0, var, 1.0), 1.0)
    slope, sig, xc, yc = weighted_line(x, y, w)
    if not (var > 0).all():
        resid = yc - slope * xc
        dof = max(taus.size - 2, 1)
        sig = float(np.sqrt(np.sum(resid ** 2) / dof / np.sum(xc ** 2)))
    return ExponentFit(alpha=slope, sigma=sig)


def _gamma(v: float) -> float:
    """math.gamma, with scipy.special.gamma's values where it raises."""
    try:
        return math.gamma(v)
    except OverflowError:
        return math.copysign(math.inf, v)
    except ValueError:  # a pole (0 or a negative integer) or -inf
        return math.copysign(math.inf, v) if v == 0 else math.nan


def complex_modulus(curve: MsdCurve, T_K: float, r_nm: float) -> ComplexModulus:
    """Local power-law estimate of G*(f) at f = 1/tau on the MSD grid.

    |G*| = kB T / (pi r MSD(1/f) Gamma(1 + alpha)) with the loss tangent
    angle delta = (pi/2) alpha; the MSD must be the 2D (xy) curve for the
    prefactor to hold.
    """
    if curve.n_dims != 2:
        raise ValueError("modulus conversion expects a 2D (two-axis) MSD curve")
    if (curve.msd <= 0).any():
        raise ValueError("MSD must be positive for the modulus conversion")
    if T_K <= 0 or r_nm <= 0:
        raise ValueError("temperature and radius must be positive")
    log_tau = np.log(curve.taus)
    log_m = np.log(curve.msd)
    alpha = np.gradient(log_m, log_tau)
    flagged = (alpha < 0.0) | (alpha > 2.0)
    kbt = BOLTZMANN_J_PER_K * T_K
    gamma = np.array([_gamma(1.0 + a) for a in alpha.tolist()])
    g_abs = kbt * _NM_SCALE / (np.pi * r_nm * curve.msd * gamma)
    delta = 0.5 * np.pi * alpha
    g_p = g_abs * np.cos(delta)
    g_pp = g_abs * np.sin(delta)
    order = np.argsort(1.0 / curve.taus)
    freqs = (1.0 / curve.taus)[order]
    return ComplexModulus(freqs=freqs, G_abs=g_abs[order], G_prime=g_p[order],
                          G_dprime=g_pp[order], alpha_local=alpha[order],
                          delta=delta[order], flagged=flagged[order])


def _welch(x: np.ndarray, fs: float, nperseg: int):
    """One-sided Welch density of `x`: periodic Hann window, half overlap,
    mean removed per segment, mean over segments.

    Follows scipy's `welch(x, fs, nperseg=nperseg, detrend="constant")`
    operation for operation (window sum, segment count, doubling, the
    per-frequency mean), so the two agree bit for bit.
    """
    # periodic Hann: the symmetric window on nperseg + 1 points, last one dropped
    win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)))[:-1]
    win = win * (1 / np.sqrt(sum(win ** 2) / (1 / fs)))
    hop = nperseg - nperseg // 2
    segs = sliding_window_view(x, nperseg)[::hop][:(x.size - nperseg // 2) // hop]
    spec = np.fft.rfft((segs - segs.mean(axis=1, keepdims=True)) * win, axis=1)
    power = spec.real ** 2 + spec.imag ** 2
    power[:, 1:-1 if nperseg % 2 == 0 else None] *= 2
    return np.fft.rfftfreq(nperseg, 1 / fs), np.ascontiguousarray(power.T).mean(axis=1)


def psd(traj: Trajectory, axes: str = "xy",
        window_s: float = DEFAULT_PSD_WINDOW_S) -> PsdCurve:
    """Welch one-sided PSD, averaged over `window_s` segments, summed over axes."""
    cols = traj.axis(axes)
    n = cols.shape[0]
    nperseg = int(round(window_s / traj.dt))
    if nperseg < 4:
        raise ValueError("window too short for the sampling interval")
    if window_s > traj.duration:
        raise ValueError("window longer than the trajectory")
    if n < nperseg + nperseg // 2:
        raise ValueError("trajectory shorter than two overlapping windows")
    total = None
    for a in range(cols.shape[1]):
        freqs, pxx = _welch(cols[:, a], 1.0 / traj.dt, nperseg)
        total = pxx if total is None else total + pxx
    return PsdCurve(freqs=freqs, values=total)


def _thermal_force_density(f, alpha, K_dprime, T_K):
    # fluctuation-dissipation closure of the spring-model force balance for
    # a local power law MSD ~ tau^alpha observed in two dimensions; the
    # alpha-dependent prefactor makes a plain Brownian trajectory close the
    # balance exactly at every frequency
    kbt = BOLTZMANN_J_PER_K * T_K
    return 12.0 * (2.0 * np.pi) ** (-alpha) * kbt * K_dprime / (2.0 * np.pi * f)


def external_force_spectrum(psd_curve: PsdCurve, modulus: ComplexModulus,
                            r_nm: float, T_K: float) -> ForceSpectrum:
    """Split |K|^2 PSD into thermal and external force spectral densities.

    The spring constant K(w) = 6 pi r G*(w) is interpolated from the
    modulus grid onto the PSD grid (log-frequency); frequencies outside
    the overlap are dropped.
    """
    f_psd = psd_curve.freqs
    f_mod = modulus.freqs
    lo, hi = float(f_mod.min()), float(f_mod.max())
    mask = (f_psd > 0) & (f_psd >= lo) & (f_psd <= hi)
    if not mask.any():
        raise ValueError("PSD and modulus frequency grids do not overlap")
    f = f_psd[mask]
    s_m2 = psd_curve.values[mask] * 1e-18  # nm^2/Hz -> m^2/Hz

    logf = np.log(f)
    logf_mod = np.log(f_mod)
    g_p = np.interp(logf, logf_mod, modulus.G_prime)
    g_pp = np.interp(logf, logf_mod, modulus.G_dprime)
    alpha = np.interp(logf, logf_mod, modulus.alpha_local)

    r_m = r_nm * 1e-9
    k_p = 6.0 * np.pi * r_m * g_p
    k_pp = 6.0 * np.pi * r_m * g_pp
    k_abs = np.hypot(k_p, k_pp)

    thermal = _thermal_force_density(f, alpha, k_pp, T_K)
    raw = k_abs ** 2 * s_m2 - thermal
    clipped = raw < 0
    return ForceSpectrum(omegas=2.0 * np.pi * f, thermal=thermal,
                         external=np.where(clipped, 0.0, raw),
                         external_raw=raw, clipped=clipped)


def fit_hydrodynamic_radius(pairs, medium: ViscousMediumModel,
                            sigma_D=None) -> RadiusFit:
    """Hydrodynamic radius from D(T) = kB T / (6 pi r eta(T)).

    `pairs` is a sequence of (T_celsius, D_nm2_per_s). The model is linear
    in 1/r, so the weighted least squares solution is the
    variance-weighted average of pointwise inversions.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be (n, 2): temperature C, D nm^2/s")
    if arr.shape[0] < 3:
        raise ValueError("need at least 3 temperature points")
    d = arr[:, 1]
    # D * r: the Stokes-Einstein D of a 1 nm sphere
    c = np.array([stokes_einstein_D(celsius_to_kelvin(t), 1.0, viscosity_at(medium, t))
                  for t in arr[:, 0]])
    if sigma_D is None:
        w = np.ones_like(d)
    else:
        s = np.asarray(sigma_D, dtype=float)
        if s.shape != d.shape or (s <= 0).any():
            raise ValueError("sigma_D must be positive and match pairs")
        w = 1.0 / s ** 2
    # beta = 1/r: D = c * beta
    scc = float(np.sum(w * c * c))
    beta = float(np.sum(w * c * d)) / scc
    if beta <= 0:
        raise ValueError("fit produced a non-physical radius")
    if sigma_D is None:
        resid = d - c * beta
        dof = max(d.size - 1, 1)
        var_beta = float(np.sum(resid ** 2) / dof) / scc
    else:
        var_beta = 1.0 / scc
    r = 1.0 / beta
    return RadiusFit(r_nm=r, sigma_nm=float(np.sqrt(var_beta)) / beta ** 2)
