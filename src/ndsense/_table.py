"""The one CSV table format behind every file ndsense reads or writes.

A table is ``#key=value`` metadata lines, a header naming the columns, and
one row per sample with a fixed printf format per column, so identical
inputs give byte-identical files. Metadata and blank lines may only come
before the header; after it every line but an empty one is a data row.

Numbers are written byte for byte as printf (Python's ``%``) writes them.
Long tables are fixed-point columns (``%.Nf`` of floats) and integer ones
(``%d`` of ints or bools), and one ``%`` call per value would dominate a
write, so a block of rows made only of those is rendered with NumPy: each
value is rounded half-even at N decimals exactly (Dekker's two-product
settles the ties) and laid out from lookup tables of 3-digit groups.
Blocks with any other format (``%.Ne``, ``%s``, ...), a non-finite value
or a value of 2**52 or more once scaled by 10**N go through ``%``.
"""

from __future__ import annotations

import re
import warnings
from itertools import chain

import numpy as np

# rows rendered at a time; a block's text stays near 100 kB however long the table
_BLOCK_ROWS = 1024
_PARSE = dict(delimiter=",", comments=None, quotechar=None, ndmin=1)

# %.Nf with N <= 18 (10**N exact as a double and as an int64), or %d
_FIXED = re.compile(r"%(?:\.(\d+)f|d)")
_MAX_PLACES = 18
# below 2**52 every half-integer is a double, so the rounding of v*10**N is exact
_LIMIT = 2.0 ** 52
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's split of a double into two 26-bit halves


def _cells(chars):
    """Rows of up to 4 ASCII codes as one uint32 cell each, in memory order;
    a 0 code is no character."""
    out = np.zeros((len(chars), 4), np.uint8)
    out[:, :chars.shape[1]] = chars
    return out.view(np.uint32).ravel()


# Lookup tables of 3-digit groups, one cell per group:
# - _PADDED[w][g]: the w low digits of g, zero-padded; _POINTED[w][g] puts
#   a decimal point before them;
# - _ONES and _HIGHER at g + 1000 * (no digits above the group): the whole
#   part's ones group and any higher group, "007" or "7", where a zero
#   without digits above reads "0" as the ones group and nothing as a higher one;
# - _LEAD: a column's separator and sign, "", "-", "," or ",-".
_GROUP = np.arange(1000)[:, None]
_DIGITS = (_GROUP // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_PADDED = [_cells(_DIGITS[:, 3 - w:]) for w in range(4)]
_POINTED = [_cells(np.hstack([np.full((1000, 1), ord(".")), _DIGITS[:, 3 - w:]]))
            for w in range(4)]
_BARE = np.where(_GROUP >= [100, 10, 0], _DIGITS, 0)
_ONES = np.concatenate([_PADDED[3], _cells(_BARE)])
_BARE[0] = 0
_HIGHER = np.concatenate([_PADDED[3], _cells(_BARE)])
_LEAD = _cells(np.array([[0, 0], [ord("-"), 0], [ord(","), 0], [ord(","), ord("-")]]))
del _GROUP, _DIGITS, _BARE


def _places(fmt, col):
    """Decimal places printf gives ``col`` under ``fmt`` when the vectorized
    path can render it: ``%.Nf`` of floats or ``%d`` of integers (0 places);
    None for any other format or dtype."""
    m = _FIXED.fullmatch(fmt)
    if m is None:
        return None
    if m[1] is None:
        return 0 if col.dtype.kind in "biu" else None
    places = int(m[1])
    fits = col.dtype.kind == "f" and col.dtype.itemsize <= 8 and places <= _MAX_PLACES
    return places if fits else None


def _split(x):
    """Veltkamp's split: ``hi + lo == x`` with each half 26 bits wide."""
    hi = x * _SPLIT
    hi -= hi - x
    return hi, x - hi


def _round_scaled(a, places):
    """round-half-even(a·10**places) of the non-negative doubles ``a`` as
    int64, exactly as printf rounds; None if one is not finite or the scaled
    value reaches 2**52."""
    scale = 10.0 ** places
    p = a * scale
    if not p.max() < _LIMIT:  # also for a nan
        return None
    n = np.rint(p)
    d = p - n  # exact: p and n are doubles within 1/2 of each other
    off = np.abs(d)
    if off.max() == 0.5:
        ties = np.flatnonzero(off == 0.5)
        # p sits on a half: Dekker's two-product gives the exact error e of
        # p = fl(a·scale); the true value is past the half where e has d's sign
        at, dt, pt = a[ties], d[ties], p[ties]
        ah, al = _split(at)
        sh, sl = _split(scale)
        e = al * sl - (((pt - ah * sh) - al * sh) - ah * sl)
        n[ties] += np.sign(dt) * (e * dt > 0)
    return n.astype(np.int64)


def _column_cells(x, places, first):
    """The uint32 cells of one column's text, left to right, from the
    separator before it (none if ``first``); None if a value is not finite or
    reaches 2**52 once scaled."""
    if x.dtype.kind == "f":
        neg, ints = np.signbit(x), _round_scaled(np.abs(x), places)
        if ints is None:
            return None
    else:  # %d
        if not (x.min() > -2 ** 52 and x.max() < 2 ** 52):
            return None
        ints = x.astype(np.int64)
        neg, ints = ints < 0, np.abs(ints)
    cells = []  # right to left
    if places:
        full = (places - 1) // 3  # 3-digit groups right of the one after the point
        for k in range(full + 1):
            w = 3 if k < full else places - 3 * full
            q = ints // 10 ** w
            cells.append((_PADDED if k < full else _POINTED)[w][ints - q * 10 ** w])
            ints = q
    for k in range((len(str(ints.max())) + 2) // 3):  # the whole part's groups
        q = ints // 1000
        cells.append((_HIGHER if k else _ONES)[ints - q * 1000 + (q == 0) * 1000])
        ints = q
    lead = 0 if first else 2
    cells.append(np.where(neg, _LEAD[lead + 1], _LEAD[lead]))
    return cells[::-1]


def _fixed_rows(cols, places):
    """Text of equal-length, non-empty columns as the printf formats of
    ``places`` write it, byte for byte; None if a value is not finite or
    reaches 2**52 once scaled. Each row is a run of 4-byte cells, NUL where
    a cell holds fewer characters, and the NULs are dropped from the whole
    block at once."""
    cells = []
    for j, (x, n) in enumerate(zip(cols, places)):
        column = _column_cells(x, n, first=j == 0)
        if column is None:
            return None
        cells += column
    cells.append(ord("\n"))
    buf = np.empty((len(cols[0]), len(cells)), np.uint32)
    for j, cell in enumerate(cells):
        buf[:, j] = cell
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def write_table(path, columns, meta=()) -> None:
    """Write ``columns``, a list of ``(name, values, printf_format)``, after
    the ``(key, value)`` pairs of ``meta``. Raises ``ValueError`` naming the
    path, before writing anything, if the columns differ in length."""
    names, values, formats = zip(*columns)
    cols = [np.asarray(v) for v in values]
    if len({len(c) for c in cols}) > 1:
        sizes = ", ".join(f"{name} {len(c)}" for name, c in zip(names, cols))
        raise ValueError(f"{path}: columns differ in length ({sizes} rows)")
    places = [_places(fmt, c) for fmt, c in zip(formats, cols)]
    fixed = None not in places
    row = ",".join(formats) + "\n"
    with open(path, "w", newline="") as fh:
        for key, val in meta:
            if isinstance(val, (float, np.floating)):
                val = repr(float(val))  # shortest exact form, also for NumPy scalars
            fh.write(f"#{key}={val}\n")
        fh.write(",".join(names) + "\n")
        for i in range(0, len(cols[0]), _BLOCK_ROWS):
            block = [c[i:i + _BLOCK_ROWS] for c in cols]
            text = _fixed_rows(block, places) if fixed else None
            if text is None:
                flat = tuple(chain.from_iterable(zip(*(b.tolist() for b in block))))
                text = row * len(block[0]) % flat
            fh.write(text)


def _head(fh, path, header=None):
    """Read an open table up to its header (any header if ``header`` is
    None); return the metadata and the header's line number."""
    meta: dict = {}
    for lineno, line in enumerate(iter(fh.readline, ""), start=1):
        line = line.strip()
        if line and line[0] == "#":
            key, sep, val = line[1:].partition("=")
            if sep:
                meta[key] = val
        elif line:
            if header is not None and line != header:
                raise ValueError(f"{path}: line {lineno}: unexpected header "
                                 f"{line!r}, expected {header!r}")
            return meta, lineno
    raise ValueError(f"{path}: no data rows")


def _rows(path):
    """Yield ``(line number, text)`` of each data row of a table file, as
    NumPy's parser counts rows: every line after the header but empty ones."""
    with open(path) as fh:
        lineno = _head(fh, path)[1]
        for lineno, line in enumerate(fh, start=lineno + 1):
            if line != "\n":
                yield lineno, line.rstrip("\n")


def read_table(path, names):
    """Return ``(meta, columns)`` of a table with header ``names``: metadata
    as strings, then a float array per column. Errors name the path and line."""
    dtype = [(name, float) for name in names]
    with open(path) as fh:
        meta = _head(fh, path, ",".join(names))[0]
        try:
            with warnings.catch_warnings():
                # loadtxt warns on a table without rows, reported below
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, dtype, **_PARSE)
        except ValueError:
            # NumPy's message counts rows its own way: find the line here
            for lineno, line in _rows(path):
                n = line.count(",") + 1
                if n != len(names):
                    why = f"expected {len(names)} columns, got {n}"
                    break
                try:
                    np.loadtxt([line], dtype, **_PARSE)
                except ValueError:
                    why = "non-numeric field"
                    break
            else:
                raise
            raise ValueError(f"{path}: line {lineno}: {why}") from None
    if not table.size:
        raise ValueError(f"{path}: no data rows")
    return meta, [table[name] for name in names]
