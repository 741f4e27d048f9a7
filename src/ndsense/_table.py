"""The one CSV table format behind every file ndsense reads or writes.

A table is ``#key=value`` metadata lines, a header naming the columns, and
one row per sample with a fixed printf format per column, so identical
inputs give byte-identical files. Metadata and blank lines may only come
before the header; after it every line but an empty one is a data row.
"""

from __future__ import annotations

import warnings
from itertools import chain

import numpy as np

# rows per printf call; a block's text stays a few hundred kB however long the table
_BLOCK_ROWS = 4096
_PARSE = dict(delimiter=",", comments=None, quotechar=None, ndmin=1)


def write_table(path, columns, meta=()) -> None:
    """Write ``columns``, a list of ``(name, values, printf_format)``, after
    the ``(key, value)`` pairs of ``meta``."""
    names, values, formats = zip(*columns)
    row = ",".join(formats) + "\n"
    cols = [np.asarray(v) for v in values]
    with open(path, "w", newline="") as fh:
        for key, val in meta:
            if isinstance(val, (float, np.floating)):
                val = repr(float(val))  # shortest exact form, also for NumPy scalars
            fh.write(f"#{key}={val}\n")
        fh.write(",".join(names) + "\n")
        for i in range(0, min(map(len, cols)), _BLOCK_ROWS):
            block = tuple(chain.from_iterable(zip(*(c[i:i + _BLOCK_ROWS].tolist() for c in cols))))
            fh.write(row * (len(block) // len(cols)) % block)


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
