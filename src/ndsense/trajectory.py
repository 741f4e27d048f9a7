"""Trajectory container and its CSV exchange format.

The CSV layout is ``t_s,x_nm,y_nm,z_nm`` with ``#key=value`` comment
lines carrying provenance metadata (seed, medium, temperature, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._table import read_table, write_table

__all__ = ["Trajectory"]

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

CSV_SCHEMA = 1
_COLUMNS = ("t_s", "x_nm", "y_nm", "z_nm")
# t_s is written as %.6f, so each time lies within 5e-7 s of its grid
# point; a t0 and dt inferred from the rounded rows add at most 1e-6 s
_T_TOL_S = 1.5e-6


def axes_to_indices(axes: str) -> list[int]:
    """Map an axis selection string like ``"xy"`` to column indices."""
    if not axes:
        raise ValueError("axis selection must name at least one of x, y, z")
    try:
        idx = [_AXIS_INDEX[a] for a in axes]
    except KeyError as exc:
        raise ValueError(f"unknown axis {exc.args[0]!r}; use characters from 'xyz'") from None
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate axis in selection {axes!r}")
    return idx


@dataclass
class Trajectory:
    """Sampled 3D positions of one emitter.

    Parameters
    ----------
    dt : float
        Sample period in seconds.
    points : ndarray, shape (n, 3)
        Positions in nm.
    t0 : float
        Start time in seconds.
    meta : dict
        Free-form provenance tags.
    """

    dt: float
    points: np.ndarray
    t0: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if self.points.shape[0] == 0:
            raise ValueError("trajectory has no points")
        if not np.isfinite(self.points).all():
            raise ValueError("trajectory contains non-finite coordinates")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))

    @property
    def duration(self) -> float:
        return self.dt * (len(self) - 1)

    def axis(self, axes: str) -> np.ndarray:
        """Columns for an axis selection, shape (n, len(axes))."""
        return self.points[:, axes_to_indices(axes)]

    def slice(self, start: int, stop: int) -> "Trajectory":
        """Sub-trajectory over point indices [start, stop)."""
        pts = self.points[start:stop]
        if pts.shape[0] < 2:
            raise ValueError("slice must keep at least 2 points")
        return Trajectory(self.dt, pts.copy(), t0=self.t0 + start * self.dt, meta=dict(self.meta))

    def to_csv(self, path) -> None:
        write_table(path, [(name, col, "%.6f")
                           for name, col in zip(_COLUMNS, (self.times, *self.points.T))],
                    meta=[("schema", CSV_SCHEMA), ("dt_s", self.dt), ("t0_s", self.t0),
                          *sorted(self.meta.items())])

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        meta, (t, *xyz) = read_table(path, _COLUMNS)
        if "dt_s" in meta:
            dt = float(meta.pop("dt_s"))
        elif t.size >= 2:
            dt = float(t[-1] - t[0]) / (t.size - 1)
        else:
            raise ValueError(f"{path}: cannot infer dt from a single row")
        t0 = float(meta.pop("t0_s", t[0]))
        meta.pop("schema", None)
        _check_times(path, t, t0, dt)
        return cls(dt=dt, points=np.column_stack(xyz), t0=t0, meta=meta)


def _check_times(path, t: np.ndarray, t0: float, dt: float) -> None:
    """Reject a ``t_s`` column that is not the written ``t0 + k*dt`` grid."""
    back = np.flatnonzero(np.diff(t) <= 0)
    if back.size:
        i = int(back[0]) + 1
        raise ValueError(f"{path}: t_s must increase strictly; sample {i} "
                         f"({float(t[i])} s) follows {float(t[i - 1])} s")
    off = np.abs(t - (t0 + dt * np.arange(t.size)))
    bad = np.flatnonzero(off > _T_TOL_S + 1e-15 * np.abs(t))  # and round-off of large t
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{path}: t_s is off the t0 + k*dt grid (t0={t0!r} s, "
                         f"dt={dt!r} s) by {off[i]:.3g} s at sample {i}")
