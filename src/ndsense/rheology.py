"""Passive microrheology from tracked trajectories.

Time-averaged MSD with stochastic error bars, diffusion and anomalous
exponent fits, complex moduli via the local power-law (Mason) shortcut,
Welch position spectra, and external-force spectra from the spring-model
force balance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft
from scipy import signal as _signal
from scipy.special import gamma as _gamma_fn

from ._table import read_table, write_table
from .constants import BOLTZMANN_J_PER_K, _NM_SCALE, celsius_to_kelvin
from .media import ViscousMediumModel, viscosity_at
from .trajectory import Trajectory, axes_to_indices

__all__ = [
    "MsdCurve",
    "ComplexModulus",
    "PsdCurve",
    "ForceSpectrum",
    "DiffusionFit",
    "ExponentFit",
    "RadiusFit",
    "msd",
    "ensemble_msd_variance",
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

    @classmethod
    def from_csv(cls, path) -> "MsdCurve":
        meta, (taus, msd, var, k) = read_table(path, ("tau_s", "msd_nm2", "var_nm4", "k"))
        return cls(taus=taus, msd=msd, var=var, dims=meta.get("dims", "xy"),
                   n_samples=k, dt=float(meta.get("dt_s", taus[0])), meta=meta)


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
    meta: dict = field(default_factory=dict)

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
    axes: str
    window_s: float
    meta: dict = field(default_factory=dict)

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
    K_abs: np.ndarray         # N/m, |6 pi r G*|
    clipped: np.ndarray       # True where external_raw < 0
    meta: dict = field(default_factory=dict)

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


def _autocorr(y: np.ndarray, nfft: int) -> np.ndarray:
    """Autocorrelation sums of `y` over all offsets, as irfft(|rfft(y)|^2);
    `nfft` at least len(y) + the largest offset wanted keeps them free of
    wrap-around."""
    spec = _fft.rfft(y, nfft)
    power = spec.real ** 2
    power += spec.imag ** 2
    return _fft.irfft(power, nfft)


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
    slope = float(t @ y) / float(t @ t)
    y -= slope * t
    nfft = _fft.next_fast_len(n + hi, real=True)
    s2 = _autocorr(y, nfft)[lags]
    sq = y * y
    s1 = 2.0 * sq.sum() - _prefix_sums(sq, hi)[lags] - _prefix_sums(sq[::-1], hi)[lags]
    # sum_t y[t+m] - y[t] is the last m values of y less the first m
    net = _prefix_sums(y[::-1], hi)[lags] - _prefix_sums(y, hi)[lags]
    drift = slope * lags
    return (s1 - 2.0 * s2 + 2.0 * drift * net + drift * drift * (n - lags)) / (n - lags)


def _var_cov(xi: np.ndarray, lag: int, nfft: int) -> float:
    # covariance-structure estimator: for Gaussian increments the variance
    # of the time-averaged MSD is 2/K sum over offsets of squared
    # autocovariances of the lagged displacements, which vanish beyond the
    # lag for uncorrelated steps. The autocovariances for offsets below
    # the lag come from one FFT autocorrelation.
    k = xi.size
    d = min(lag, k)
    c = _autocorr(xi, nfft)[:d] / (k - np.arange(d))
    return 2.0 / k * c[0] * c[0] + 4.0 / k * float(c[1:] @ c[1:])


def msd(traj: Trajectory, axes: str = "xy", lags=None, variance: str = "cov",
        noise_floor_nm2: float = NOISE_FLOOR_NM2) -> MsdCurve:
    """Time-averaged MSD over integer lags, summed across `axes`.

    Every lag comes from one zero-padded FFT autocorrelation per axis
    (the all-lags algorithm of nMOLDYN, Kneller et al., Comput. Phys.
    Commun. 91, 191, 1995), so the MSD costs O(N log N) however many lags
    are asked for; each "cov" variance adds one length-N FFT pair per lag.
    The FFT trades the exact per-lag mean for round-off of about eps times
    the energy of the axis about its least-squares line, per pair. On
    Brownian walks the relative error grows as about eps*N at lags up to
    N/4 (measured: at most 4e-13 over 3,000 walks of up to 2,000 points),
    and it is largest where few pairs remain, at lags near N (2e-8 at lag
    N - 1 of a 2,000-point walk), so a lag above N/2 raises a
    RuntimeWarning.

    Parameters
    ----------
    traj : Trajectory
    axes : str
        Subset of "xyz"; per-axis MSDs and variances add because the
        axes are uncorrelated.
    lags : array of int, optional
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
    if lags is None:
        lag_arr = _default_lags(n)
    else:
        lag_arr = np.unique(np.asarray(lags, dtype=int))
    if lag_arr.size == 0:
        raise ValueError("no lags requested")
    if lag_arr[0] < 1:
        raise ValueError("lags must be >= 1 sample")
    if lag_arr[-1] >= n:
        raise ValueError(f"lag {lag_arr[-1]} >= trajectory length {n}")
    if 2 * lag_arr[-1] > n:
        warnings.warn(f"lag {lag_arr[-1]} is above half the trajectory length {n}; "
                      "the MSD there rests on few pairs and loses relative accuracy",
                      RuntimeWarning, stacklevel=2)
    if variance not in ("cov", "none"):
        raise ValueError("variance must be 'cov' or 'none'")

    m_out = np.zeros(lag_arr.size)
    v_out = np.zeros(lag_arr.size)
    # one FFT length serves every lag: K + lag - 1 = n - 1
    nfft = _fft.next_fast_len(n - 1, real=True)
    for a in range(cols.shape[1]):
        x = cols[:, a]
        m_out += _axis_msd(x, lag_arr)
        if variance == "none":
            continue
        for j, lag in enumerate(lag_arr.tolist()):
            v_out[j] += _var_cov(x[lag:] - x[:-lag], lag, nfft)
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


def ensemble_msd_variance(trajs, axes: str = "xy", lags=None):
    """Empirical across-trajectory variance of the time-averaged MSD.

    The brute-force fallback for the per-trajectory variance estimator.
    Returns (taus, mean_msd, var_msd).
    """
    curves = [msd(t, axes=axes, lags=lags, variance="none", noise_floor_nm2=0.0)
              for t in trajs]
    taus = curves[0].taus
    for c in curves[1:]:
        if not np.array_equal(c.taus, taus):
            raise ValueError("trajectories produced differing lag grids")
    stack = np.stack([c.msd for c in curves])
    return taus, stack.mean(axis=0), stack.var(axis=0, ddof=1)


def _fit_mask(curve: MsdCurve, fit_range):
    if fit_range is None:
        return np.ones(curve.taus.size, dtype=bool)
    lo, hi = fit_range
    return (curve.taus >= lo) & (curve.taus <= hi)


def fit_diffusion(curve: MsdCurve, fit_range=None, through_origin: bool = True,
                  single_tau: float | None = None) -> DiffusionFit:
    """Diffusion coefficient from MSD = 2 * n_dims * D * tau.

    `single_tau` selects the one-lag estimator D = MSD(tau)/(2 n tau) at
    the nearest grid point. Otherwise a variance-weighted linear fit over
    `fit_range` (s), through the origin by default; with
    ``through_origin=False`` a free intercept absorbs static localization
    noise and motion blur.
    """
    two_d = 2.0 * curve.n_dims
    floor = float(np.asarray(curve.meta.get("noise_floor_nm2", NOISE_FLOOR_NM2)))

    if single_tau is not None:
        j = int(np.argmin(np.abs(curve.taus - single_tau)))
        tau = curve.taus[j]
        d_hat = curve.msd[j] / (two_d * tau)
        sig = np.sqrt(curve.var[j]) / (two_d * tau)
        return DiffusionFit(float(d_hat), float(sig),
                            below_floor=bool(curve.msd[j] < floor))

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
    sw = np.sum(w)
    xm = np.sum(w * x) / sw
    ym = np.sum(w * y) / sw
    sxx = np.sum(w * (x - xm) ** 2)
    slope = float(np.sum(w * (x - xm) * (y - ym)) / sxx)
    if (var > 0).all():
        sig = float(1.0 / np.sqrt(sxx))
    else:
        resid = y - ym - slope * (x - xm)
        dof = max(taus.size - 2, 1)
        sig = float(np.sqrt(np.sum(resid ** 2) / dof / np.sum((x - xm) ** 2)))
    return ExponentFit(alpha=slope, sigma=sig)


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
    g_abs = kbt * _NM_SCALE / (np.pi * r_nm * curve.msd * _gamma_fn(1.0 + alpha))
    delta = 0.5 * np.pi * alpha
    g_p = g_abs * np.cos(delta)
    g_pp = g_abs * np.sin(delta)
    order = np.argsort(1.0 / curve.taus)
    freqs = (1.0 / curve.taus)[order]
    return ComplexModulus(freqs=freqs, G_abs=g_abs[order], G_prime=g_p[order],
                          G_dprime=g_pp[order], alpha_local=alpha[order],
                          delta=delta[order], flagged=flagged[order],
                          meta={"T_K": T_K, "r_nm": r_nm})


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
        freqs, pxx = _signal.welch(cols[:, a], fs=1.0 / traj.dt,
                                   nperseg=nperseg, detrend="constant")
        total = pxx if total is None else total + pxx
    return PsdCurve(freqs=freqs, values=total, axes=axes, window_s=window_s,
                    meta={"dt": traj.dt, "nperseg": nperseg})


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
                         external_raw=raw, K_abs=k_abs, clipped=clipped,
                         meta={"r_nm": r_nm, "T_K": T_K,
                               "n_clipped": int(clipped.sum())})


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
    t_c = arr[:, 0]
    d = arr[:, 1]
    t_k = celsius_to_kelvin(t_c)
    eta = np.array([viscosity_at(medium, t) for t in t_c])
    c = BOLTZMANN_J_PER_K * t_k * _NM_SCALE / (6.0 * np.pi * eta)  # = D * r
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
