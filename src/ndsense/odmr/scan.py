"""ODMR scan synthesis, accumulation, and the two-parameter shift fit."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .._table import read_table, write_table
from ..seeding import as_generator
from .lineshape import Lineshape, default_grid

__all__ = [
    "OdmrScan",
    "FitShiftResult",
    "synthesize_scan",
    "build_interpolation",
    "fit_shift",
    "average_shifts",
    "scans_to_csv",
    "scans_from_csv",
]


@dataclass
class OdmrScan:
    """Photon counts per frequency point of one (possibly accumulated) scan.

    `n_scans` counts how many raw 2 ms sweeps were summed; counts are per
    sample, so the expected level is n_scans * Lambda0 * L(f).
    """

    freqs: np.ndarray
    counts: np.ndarray
    n_scans: int = 1
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.counts = np.asarray(self.counts)
        if self.freqs.shape != self.counts.shape or self.freqs.ndim != 1:
            raise ValueError("freqs and counts must be matching 1-D arrays")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")
        df = np.diff(self.freqs)
        if df.size and (np.abs(df - df[0]) > 1e-3 * abs(df[0])).any():
            raise ValueError("frequency grid must be uniform")
        if self.n_scans < 1:
            raise ValueError("n_scans must be >= 1")


@dataclass(frozen=True)
class FitShiftResult:
    lam0: float          # fitted amplitude, counts per sample in this scan
    delta_f: float       # Hz
    sigma_delta_f: float # Hz, from the fit covariance
    converged: bool


def synthesize_scan(shape: Lineshape, lam0: float, delta_f: float, seed,
                    freqs=None, n_scans: int = 1) -> OdmrScan:
    """Draw one Poisson scan: counts_i ~ Poisson(n_scans*lam0*L(f_i - delta_f)).

    Accumulating `n_scans` sweeps at once is exact because sums of
    independent Poisson counts are Poisson.
    """
    if lam0 <= 0:
        raise ValueError("lam0 must be positive")
    if freqs is None:
        freqs = default_grid()
    freqs = np.asarray(freqs, dtype=float)
    rng = as_generator(seed)
    lam = n_scans * lam0 * shape.value(freqs, delta_f)
    counts = rng.poisson(lam)
    meta = {}
    span = freqs[-1] - freqs[0]
    if abs(delta_f) > 0.5 * span:
        meta["shift_outside_grid"] = True  # fit on this scan will be biased
    return OdmrScan(freqs=freqs, counts=counts, n_scans=n_scans, meta=meta)


def build_interpolation(scans) -> Lineshape:
    """Average scans into a normalized interpolation-table lineshape.

    The off-resonance plateau is taken as the median of the top decile of
    mean levels and divides the table so it tends to 1 off resonance.
    """
    if isinstance(scans, OdmrScan):
        scans = [scans]
    scans = list(scans)
    if not scans:
        raise ValueError("no scans to accumulate")
    freqs = scans[0].freqs
    total = np.zeros_like(freqs)
    weight = 0
    for s in scans:
        if not np.array_equal(s.freqs, freqs):
            raise ValueError("scans must share one frequency grid")
        total = total + s.counts
        weight += s.n_scans
    mean = total / weight
    if (mean <= 0).any():
        raise ValueError("mean counts must be positive at every point")
    top = np.sort(mean)[-max(mean.size // 10, 1):]
    plateau = float(np.median(top))
    return Lineshape.from_table(freqs, np.minimum(mean / plateau, 1.05))


def _closed_form_lam0(counts, levels):
    denom = float(np.dot(levels, levels))
    return float(np.dot(counts, levels)) / denom


def fit_shift(scan: OdmrScan, shape: Lineshape,
              max_shift: float | None = None) -> FitShiftResult:
    """Two-parameter least squares fit of lam0 * L(f - delta_f) to a scan.

    The amplitude is linear, so it is solved in closed form at each
    candidate shift and the search reduces to bounded 1-D minimization
    over delta_f.
    """
    counts = scan.counts.astype(float)
    freqs = scan.freqs
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
    return FitShiftResult(lam0=lam_tot, delta_f=df_hat, sigma_delta_f=sigma,
                          converged=converged)


def average_shifts(fits, n_f: int):
    """Average consecutive groups of n_f fitted shifts.

    Non-converged fits are excluded; returns (means, standard_errors,
    n_excluded). Groups left empty after exclusion yield NaN.
    """
    if n_f < 1:
        raise ValueError("n_f must be >= 1")
    shifts = np.array([f.delta_f for f in fits], dtype=float)
    ok = np.array([f.converged for f in fits], dtype=bool)
    n_groups = shifts.size // n_f
    means = np.full(n_groups, np.nan)
    errs = np.full(n_groups, np.nan)
    for g in range(n_groups):
        sel = ok[g * n_f:(g + 1) * n_f]
        vals = shifts[g * n_f:(g + 1) * n_f][sel]
        if vals.size:
            means[g] = vals.mean()
            errs[g] = vals.std(ddof=1) / np.sqrt(vals.size) if vals.size > 1 else np.inf
    return means, errs, int((~ok).sum())


def scans_to_csv(scans, path) -> None:
    """Write scans in long format: `scan_id,f_hz,counts`."""
    if isinstance(scans, OdmrScan):
        scans = [scans]
    write_table(path, [
        ("scan_id", np.repeat(np.arange(len(scans)), [s.freqs.size for s in scans]), "%d"),
        ("f_hz", np.concatenate([s.freqs for s in scans]), "%.6f"),
        ("counts", np.concatenate([s.counts for s in scans]), "%d")])


def scans_from_csv(path) -> list:
    """Read `scan_id,f_hz,counts` long format or blank-line-separated
    `f_hz,counts` blocks, one scan per block."""
    with open(path) as fh:
        if fh.readline().strip() == "f_hz,counts":
            blocks = [[]]
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    blocks.append([])
                    continue
                try:
                    f, c = line.split(",")
                    blocks[-1].append((float(f), int(float(c))))
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: bad ODMR row {line!r}") from None
            scans = [OdmrScan(freqs=np.array([f for f, _ in b]),
                              counts=np.array([c for _, c in b])) for b in blocks if b]
            if not scans:
                raise ValueError(f"{path}: no data rows")
            return scans
    _, (ids, freqs, counts) = read_table(path, ("scan_id", "f_hz", "counts"))
    return [OdmrScan(freqs=freqs[ids == i], counts=counts[ids == i].astype(int))
            for i in dict.fromkeys(ids.tolist())]
