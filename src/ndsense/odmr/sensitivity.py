"""Photon-budget sensitivity analysis: Fisher information bounds and the
synthetic thermometry pipeline (scan stream -> shift fits -> temperature).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from ..chip import DutyCycleSchedule
from ..seeding import as_generator
from .kappa import DEFAULT_BIN_S
from .lineshape import Lineshape, default_grid
from .scan import OdmrScan, build_interpolation, fit_shifts

__all__ = [
    "CrbResult",
    "ShiftSeries",
    "DEFAULT_PHOTON_BUDGET",
    "crb",
    "crb_temperature_sensitivity",
    "scans_per_bin",
    "shift_bound_per_scan",
    "simulate_shift_series",
]

DEFAULT_PHOTON_BUDGET = 10.0  # counts per 10 us sample, both detectors summed

# Bins drawn and fitted per block in simulate_shift_series: bounds the
# per-point working arrays of the draws and the batched fit.
_BLOCK_BINS = 256


@dataclass(frozen=True)
class CrbResult:
    params: tuple
    matrix: np.ndarray  # covariance lower bound for one scan

    def sigma(self, name: str) -> float:
        i = self.params.index(name)
        return float(np.sqrt(self.matrix[i, i]))


def _param_slot(name: str, n_dips: int) -> tuple:
    """(Lineshape field, index) of a shape parameter such as 'center2' or
    'hwhm'; a name without an index means the first dip."""
    m = re.fullmatch(r"(center|contrast|hwhm)([1-9][0-9]*)?", name)
    if m is None or int(m[2] or 1) > n_dips:
        raise ValueError(f"unknown parameter: {name}")
    return m[1] + "s", int(m[2] or 1) - 1


def crb(shape: Lineshape, lam0: float, freqs=None,
        params=("lam0", "delta_f")) -> CrbResult:
    """Cramer-Rao covariance lower bound for one Poisson scan.

    The Fisher matrix is F_jk = sum_i (dmu_i/dtheta_j)(dmu_i/dtheta_k)/mu_i
    for mu_i = lam0 * L(f_i); lam0 and delta_f derivatives are analytic,
    shape parameters use central differences.
    """
    if lam0 <= 0:
        raise ValueError("lam0 must be positive")
    if freqs is None:
        freqs = default_grid()
    freqs = np.asarray(freqs, dtype=float)
    mu = lam0 * shape.value(freqs)
    cols = []
    for name in params:
        if name == "lam0":
            cols.append(shape.value(freqs))
        elif name == "delta_f":
            cols.append(-lam0 * shape.derivative(freqs))
        else:
            fld, i = _param_slot(name, len(shape.centers))
            values = list(getattr(shape, fld))
            v = values[i]
            h = 1e-4 * abs(v) if v else 1e-4
            levels = []
            for x in (v + h, v - h):
                values[i] = x
                levels.append(lam0 * replace(shape, **{fld: tuple(values)}).value(freqs))
            cols.append((levels[0] - levels[1]) / (2.0 * h))
    jac = np.column_stack(cols)
    fisher = jac.T @ (jac / mu[:, None])
    fisher = 0.5 * (fisher + fisher.T)
    # parameters carry wildly different units (counts vs Hz), so test
    # degeneracy on the diagonal-scaled matrix, not on raw eigenvalues
    diag = np.sqrt(np.diag(fisher))
    if (diag <= 0).any() or not np.isfinite(diag).all():
        raise np.linalg.LinAlgError("parameter carries no Fisher information")
    scaled = fisher / np.outer(diag, diag)
    eigvals = np.linalg.eigvalsh(scaled)
    if eigvals.min() <= 1e-6:
        raise np.linalg.LinAlgError(
            "singular Fisher information for the selected parameters")
    cov = np.linalg.inv(scaled) / np.outer(diag, diag)
    return CrbResult(params=tuple(params), matrix=cov)


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
    bin_s: float
    n_excluded: int
    meta: dict = field(default_factory=dict)


def scans_per_bin(bin_s: float, n_points: int) -> int:
    """Sweeps of `n_points` ticks the gate completes in `bin_s`; raises if
    not even one does."""
    scans = int(round(bin_s * _scans_per_second(n_points)))
    if scans < 1:
        raise ValueError("bin shorter than one scan")
    return scans


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
    n_bins = int(duration_s / bin_s)
    if n_bins < 1:
        raise ValueError("duration shorter than one bin")

    times = bin_s * np.arange(n_bins)
    truth = np.zeros(n_bins) if delta_f_of_t is None else \
        np.asarray(delta_f_of_t(times), dtype=float)
    if truth.shape != times.shape:
        raise ValueError("delta_f_of_t must return one shift per bin start time")
    # Generator.poisson fills an array in C order, so a block's draw is the
    # stream of one synthesize_scan call per bin
    counts = np.empty((n_bins, freqs.size), dtype=np.int64)
    for k in range(0, n_bins, _BLOCK_BINS):
        rows = slice(k, k + _BLOCK_BINS)
        counts[rows] = rng.poisson(scans * lam0 * shape.value(freqs, truth[rows, None]))
    total = OdmrScan(freqs, counts.sum(axis=0), n_scans=n_bins * scans)
    if fit_shape is None:
        fit_shape = build_interpolation(total)
    fits = [fit_shifts(counts[k:k + _BLOCK_BINS], freqs, fit_shape)
            for k in range(0, n_bins, _BLOCK_BINS)]
    delta_f, lam_fit, sigma, ok = (np.concatenate(col) for col in zip(*fits))
    return ShiftSeries(
        times=times,
        delta_f=delta_f,
        sigma=sigma,
        lam0=lam_fit,
        bin_s=bin_s,
        n_excluded=int((~ok).sum()),
        meta={"scans_per_bin": scans, "truth": truth},
    )
