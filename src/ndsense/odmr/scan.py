"""ODMR scan synthesis, accumulation, and the two-parameter shift fit."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .._table import read_table, write_table
from ..seeding import as_generator
from .lineshape import _TABLE_MAX_LEVEL, Lineshape, default_grid

__all__ = [
    "OdmrScan",
    "FitShiftResult",
    "synthesize_scan",
    "build_interpolation",
    "fit_shift",
    "fit_shifts",
    "average_shifts",
    "scans_to_csv",
    "scans_from_csv",
]

_SCAN_COLUMNS = ("scan_id", "f_hz", "counts", "n_scans")


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
    return Lineshape.from_table(freqs, np.minimum(mean / plateau, _TABLE_MAX_LEVEL))


# Options of the shift search, scipy's bounded Brent method
# (`minimize_scalar(method="bounded")`): 1 Hz absolute tolerance in the
# shift and at most 500 evaluations.
_XATOL_HZ = 1.0
_MAX_EVALS = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _rowdot(a, b):
    """Dot product of each row of a with the same row of b.

    A stacked (1, n) @ (n, 1) matmul runs the same dot kernel as `np.dot`
    on one pair of vectors, so each row's sum is bit-identical to it;
    `(a * b).sum(1)` would add in another order.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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
    return lv, _rowdot(counts, lv) / _rowdot(lv, lv)


def fit_shifts(counts, freqs, shape: Lineshape, max_shift: float | None = None):
    """Two-parameter least squares fits of lam0 * L(f - delta_f), one per row.

    The amplitude is linear, so it is solved in closed form at each
    candidate shift and the search reduces to a bounded 1-D minimization
    over delta_f in [-max_shift, max_shift] (default: half the grid span),
    run for all rows at once. Each row's result is bit-identical to a
    scalar `scipy.optimize.minimize_scalar(method="bounded")` fit with a
    1 Hz tolerance. Working memory grows with the number of rows.

    Parameters
    ----------
    counts : (n_bins, n_points) array
        Photon counts per bin and frequency point.
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

    def sse(delta_f, lanes):
        c = counts[lanes]
        lv, lam0 = _levels_and_lam0(c, freqs, shape, delta_f)
        r = c - lam0[:, None] * lv
        return _rowdot(r, r)

    delta_f, ok = _minimize_bounded(sse, counts.shape[0], -max_shift, max_shift)
    lv, lam0 = _levels_and_lam0(counts, freqs, shape, delta_f)
    converged = ok & (np.abs(delta_f) < 0.999 * max_shift) & (lam0 > 0)

    # Gauss-Newton covariance of (lam0, delta_f) at the optimum
    j2 = -lam0[:, None] * shape.derivative(freqs, delta_f[:, None])
    jtj = np.empty((counts.shape[0], 2, 2))
    jtj[:, 0, 0] = _rowdot(lv, lv)
    jtj[:, 0, 1] = jtj[:, 1, 0] = _rowdot(lv, j2)
    jtj[:, 1, 1] = _rowdot(j2, j2)
    r = counts - lam0[:, None] * lv
    s2 = _rowdot(r, r) / max(freqs.size - 2, 1)
    singular = np.zeros(counts.shape[0], dtype=bool)
    try:
        inv = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stack: invert lane by lane
        inv = np.zeros_like(jtj)
        for k in range(jtj.shape[0]):
            try:
                inv[k] = np.linalg.inv(jtj[k])
            except np.linalg.LinAlgError:
                singular[k] = True
    var = s2 * inv[:, 1, 1]
    sigma = np.where(singular, np.inf, np.sqrt(np.where(var < 0.0, 0.0, var)))
    return delta_f, lam0, sigma, converged & ~singular


def fit_shift(scan: OdmrScan, shape: Lineshape,
              max_shift: float | None = None) -> FitShiftResult:
    """`fit_shifts` on one scan."""
    delta_f, lam0, sigma, converged = fit_shifts(scan.counts[None, :], scan.freqs,
                                                 shape, max_shift)
    return FitShiftResult(lam0=float(lam0[0]), delta_f=float(delta_f[0]),
                          sigma_delta_f=float(sigma[0]), converged=bool(converged[0]))


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
    """Write scans in long format: `scan_id,f_hz,counts,n_scans`, one row
    per frequency point."""
    if isinstance(scans, OdmrScan):
        scans = [scans]
    sizes = [s.freqs.size for s in scans]
    cols = (np.repeat(np.arange(len(scans)), sizes),
            np.concatenate([s.freqs for s in scans]),
            np.concatenate([s.counts for s in scans]),
            np.repeat([s.n_scans for s in scans], sizes))
    write_table(path, list(zip(_SCAN_COLUMNS, cols, ("%d", "%.6f", "%d", "%d"))))


def _data_line(path, row: int) -> int:
    """Line number of data row `row` (from 0) of a table file."""
    with open(path) as fh:
        k = -1  # the header
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and line[0] != "#":
                if k == row:
                    return lineno
                k += 1


def scans_from_csv(path) -> list:
    """Read the long format of `scans_to_csv`, one scan per `scan_id`.

    Every row of a scan must carry the same `n_scans`; a row that does not
    is an error naming the path and line.
    """
    _, (ids, freqs, counts, n_scans) = read_table(path, _SCAN_COLUMNS)
    scans = []
    for i in dict.fromkeys(ids.tolist()):
        rows = np.flatnonzero(ids == i)
        bad = rows[n_scans[rows] != n_scans[rows[0]]]
        if bad.size:
            raise ValueError(f"{path}: line {_data_line(path, bad[0])}: n_scans "
                             f"{n_scans[bad[0]]:g} disagrees with {n_scans[rows[0]]:g} "
                             f"on the first row of scan {i:g}")
        scans.append(OdmrScan(freqs=freqs[rows], counts=counts[rows].astype(int),
                              n_scans=int(n_scans[rows[0]])))
    return scans
