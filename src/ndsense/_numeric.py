"""Numeric rules that several layers share, each written once."""

from __future__ import annotations

import numpy as np

# OpenBLAS splits a dot product of over 10,000 entries across its threads,
# so the order of its sum, and the last bits of the result, follow the
# thread count; blocks of at most this many entries each run on one thread
_DOT_BLOCK = 8192


def dot(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """a @ b for two vectors, or for each row of two (rows, n) arrays, summed
    block by block in order: the same bits for every BLAS thread count, and
    a @ b's bits up to one block. A stacked (1, k) @ (k, 1) matmul runs the
    dot kernel of a lone vector pair, so each row's bits are its own dot's;
    `(a * b).sum(-1)` would add in another order."""
    # the sum starts at 0.0, so a sum of -0.0 reads +0.0
    out = (a[..., None, :_DOT_BLOCK] @ b[..., :_DOT_BLOCK, None])[..., 0, 0] + 0.0
    for i in range(_DOT_BLOCK, a.shape[-1], _DOT_BLOCK):
        out = out + (a[..., None, i:i + _DOT_BLOCK] @ b[..., i:i + _DOT_BLOCK, None])[..., 0, 0]
    return out


def weighted_line(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least-squares line through (x, y): its slope, the slope's
    sigma 1/sqrt(sum w (x - xm)^2) for weights of 1/variance, and x and y
    less their weighted means xm and ym."""
    sw = np.sum(w)
    xc = x - np.sum(w * x) / sw
    yc = y - np.sum(w * y) / sw
    sxx = np.sum(w * xc ** 2)
    return float(np.sum(w * xc * yc) / sxx), float(1.0 / np.sqrt(sxx)), xc, yc


def whole_units(total: float, unit: float) -> int:
    """Whole `unit`s in `total`. A total of whole units can divide to just
    below the integer (68.8 / 0.4 = 171.99999999999997), so the quotient is
    given 1e-9 of relative slack before it is truncated."""
    return int(total / unit * (1.0 + 1e-9))
