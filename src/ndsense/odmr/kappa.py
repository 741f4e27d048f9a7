"""Thermometry calibration: frequency-shift-to-temperature conversion,
staircase slope fits, and the hierarchical between-group shift posterior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._table import read_table, write_table
from ..seeding import as_generator

__all__ = [
    "DEFAULT_BIN_S",
    "DEFAULT_KAPPA_KHZ_PER_C",
    "KappaCalibration",
    "TemperatureSeries",
    "PosteriorResult",
    "shift_to_temperature",
    "calibrate_kappa",
    "shift_series_to_temperature",
    "kappa_shift_posterior",
]

DEFAULT_KAPPA_KHZ_PER_C = -60.0
DEFAULT_BIN_S = 0.4  # s of scans per shift fit and temperature sample


@dataclass(frozen=True)
class KappaCalibration:
    """Linear thermometry calibration: shift = kappa * (T - T_ref) + f0."""

    kappa_khz_per_C: float
    sigma_khz_per_C: float
    f0_hz: float = 0.0
    T_ref_C: float = 0.0

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
    w = 1.0 / errs ** 2
    sw = w.sum()
    tm = np.sum(w * levels) / sw
    ym = np.sum(w * means) / sw
    sxx = np.sum(w * (levels - tm) ** 2)
    slope = float(np.sum(w * (levels - tm) * (means - ym)) / sxx)
    sigma_slope = float(1.0 / np.sqrt(sxx))
    return KappaCalibration(kappa_khz_per_C=slope / 1e3,
                            sigma_khz_per_C=sigma_slope / 1e3,
                            f0_hz=float(ym), T_ref_C=float(tm))


@dataclass(frozen=True)
class PosteriorResult:
    mean: float
    sd: float
    samples: np.ndarray = field(repr=False)

    def credible_interval(self, level: float = 0.95):
        lo = 0.5 * (1.0 - level)
        return tuple(np.quantile(self.samples, [lo, 1.0 - lo]))


def _group_gibbs(obs, rng, n_draws: int, burn: int) -> np.ndarray:
    """Posterior draws of a group's population mean under a
    hierarchical-normal model with flat priors on the mean and scale."""
    arr = np.asarray(obs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("each group needs >= 2 (value, sigma) rows")
    k_obs = arr[:, 0]
    s_obs = arr[:, 1]
    if (s_obs < 0).any():
        raise ValueError("measurement sigmas must be non-negative")
    if np.ptp(k_obs) == 0:
        raise ValueError("degenerate group: zero between-measurement spread")
    n = k_obs.size
    mu = float(k_obs.mean())
    tau2 = float(k_obs.var(ddof=1))
    out = np.empty(n_draws)
    s2 = s_obs ** 2
    pos = s2 > 0  # zero-sigma entries stay pinned to their observation
    for it in range(burn + n_draws):
        kap = k_obs.copy()
        if pos.any():
            prec = 1.0 / s2[pos] + 1.0 / tau2
            mean = (k_obs[pos] / s2[pos] + mu / tau2) / prec
            kap[pos] = mean + rng.standard_normal(pos.sum()) / np.sqrt(prec)
        mu = float(kap.mean() + rng.standard_normal() * np.sqrt(tau2 / n))
        scatter = float(np.sum((kap - mu) ** 2))
        tau2 = scatter / (2.0 * rng.gamma(0.5 * (n - 1), 1.0))
        tau2 = max(tau2, 1e-12)
        if it >= burn:
            out[it - burn] = mu
    return out


def kappa_shift_posterior(group_live, group_dry, n_draws: int = 20000,
                          burn: int = 1000, seed=0) -> PosteriorResult:
    """Posterior of the difference in population-mean kappa between groups.

    Each group is a sequence of (kappa, sigma) measurements modeled as
    draws from a normal population with unknown mean and between-member
    variance; the groups are independent, so the difference posterior is
    the elementwise difference of their Gibbs chains.
    """
    rng = as_generator(seed)
    live = _group_gibbs(group_live, rng, n_draws, burn)
    dry = _group_gibbs(group_dry, rng, n_draws, burn)
    diff = live - dry
    return PosteriorResult(mean=float(diff.mean()), sd=float(diff.std(ddof=1)),
                           samples=diff)
