"""Thermometry calibration: frequency-shift-to-temperature conversion and
staircase slope fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._table import read_table, write_table

__all__ = [
    "DEFAULT_BIN_S",
    "DEFAULT_KAPPA_KHZ_PER_C",
    "DEFAULT_KAPPA_SIGMA_KHZ_PER_C",
    "KappaCalibration",
    "TemperatureSeries",
    "shift_to_temperature",
    "calibrate_kappa",
    "shift_series_to_temperature",
]

DEFAULT_KAPPA_KHZ_PER_C = -60.0
DEFAULT_KAPPA_SIGMA_KHZ_PER_C = 0.4  # 1-sigma uncertainty of a calibrated kappa
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
