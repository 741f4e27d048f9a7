"""The one CSV table format behind every file ndsense reads or writes.

A table is ``#key=value`` metadata lines, a header naming the columns, and
one row per sample with a fixed printf format per column, so identical
inputs give byte-identical files.
"""

from __future__ import annotations

from array import array

import numpy as np


def write_table(path, columns, meta=()) -> None:
    """Write ``columns``, a list of ``(name, values, printf_format)``, after
    the ``(key, value)`` pairs of ``meta``."""
    names, values, formats = zip(*columns)
    row = ",".join(formats) + "\n"
    with open(path, "w", newline="") as fh:
        for key, val in meta:
            if isinstance(val, (float, np.floating)):
                val = repr(float(val))  # shortest exact form, also for NumPy scalars
            fh.write(f"#{key}={val}\n")
        fh.write(",".join(names) + "\n")
        fh.writelines(row % r for r in zip(*(np.asarray(v).tolist() for v in values)))


def read_table(path, names, text=()):
    """Return ``(meta, columns)`` of a table with header ``names``: metadata
    as strings, then a float array per column, or a list of strings for the
    names in ``text``. Errors name the path and line."""
    header = ",".join(names)
    keep = {i for i, name in enumerate(names) if name in text}
    meta: dict = {}
    # all-numeric tables fill one flat buffer: no Python list per row
    rows = [] if keep else array("d")
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line[0] == "#":
                key, sep, val = line[1:].partition("=")
                if sep:
                    meta[key] = val
                continue
            if header is not None:
                if line != header:
                    raise ValueError(f"{path}: line {lineno}: unexpected header "
                                     f"{line!r}, expected {header!r}")
                header = None
                continue
            parts = line.split(",")
            if len(parts) != len(names):
                raise ValueError(f"{path}: line {lineno}: expected {len(names)} "
                                 f"columns, got {len(parts)}")
            try:
                if keep:
                    rows.append([p if i in keep else float(p) for i, p in enumerate(parts)])
                else:
                    rows.extend(map(float, parts))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if not keep:
        return meta, list(np.frombuffer(rows).reshape(-1, len(names)).T)
    table = np.array(rows, dtype=object).T
    return meta, [col.tolist() if i in keep else col.astype(float, copy=False)
                  for i, col in enumerate(table)]
