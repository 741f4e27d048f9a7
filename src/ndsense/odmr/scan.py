"""ODMR count synthesis, the interpolation table, and the two-parameter shift fit."""

from __future__ import annotations

import math

import numpy as np

from ..seeding import as_generator
from .lineshape import _TABLE_MAX_LEVEL, Lineshape, default_grid

__all__ = [
    "synthesize_scan",
    "build_interpolation",
    "fit_shifts",
]


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
            out[part] = _rowdot(c, c)
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
        jtj[:, 0, 0] = _rowdot(lv, lv)
        jtj[:, 0, 1] = jtj[:, 1, 0] = _rowdot(lv, j2)
        jtj[:, 1, 1] = _rowdot(j2, j2)
        r = c - a[:, None] * lv
        s2 = _rowdot(r, r) / max(freqs.size - 2, 1)
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
