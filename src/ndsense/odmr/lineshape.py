"""Normalized ODMR lineshapes: Lorentzian families and interpolation tables.

A lineshape L(f) is the photoluminescence level normalized to 1 off
resonance; spin-resonance dips pull it below 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Lineshape",
    "DEFAULT_CENTER_HZ",
    "DEFAULT_SPLITTING_HZ",
    "DEFAULT_HWHM_HZ",
    "DEFAULT_CONTRASTS",
    "DEFAULT_SPAN_HZ",
    "DEFAULT_N_POINTS",
    "default_grid",
    "default_lineshape",
]

DEFAULT_CENTER_HZ = 2.87e9
DEFAULT_SPLITTING_HZ = 6.0e6
DEFAULT_HWHM_HZ = 6.0e6
DEFAULT_CONTRASTS = (0.1506, 0.1205)
DEFAULT_SPAN_HZ = 80.0e6
DEFAULT_N_POINTS = 200
# highest interpolation-table level: tables are normalized to 1 off
# resonance, and noise may lift a point a little above it
_TABLE_MAX_LEVEL = 1.05


@dataclass(frozen=True, eq=False)
class Lineshape:
    """Normalized PL level versus microwave frequency.

    Three kinds: "double_lorentzian" (asymmetric strain-split pair),
    "single_lorentzian", and "interpolation" (piecewise-linear table
    extending as L = 1 beyond its endpoints).
    """

    kind: str
    centers: tuple = ()
    contrasts: tuple = ()
    hwhms: tuple = ()
    table_f: np.ndarray = field(default=None, repr=False)
    table_L: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind in ("double_lorentzian", "single_lorentzian"):
            n = 2 if self.kind == "double_lorentzian" else 1
            if not (len(self.centers) == len(self.contrasts) == len(self.hwhms) == n):
                raise ValueError(f"{self.kind} needs {n} center/contrast/hwhm each")
            if any(c <= 0 for c in self.contrasts) or sum(self.contrasts) >= 1:
                raise ValueError("contrasts must be positive and sum below 1")
            if any(g <= 0 for g in self.hwhms):
                raise ValueError("linewidths must be positive")
        elif self.kind == "interpolation":
            f = np.asarray(self.table_f, dtype=float)
            lv = np.asarray(self.table_L, dtype=float)
            if f.ndim != 1 or f.shape != lv.shape or f.size < 2:
                raise ValueError("interpolation table needs matching 1-D arrays")
            if (np.diff(f) <= 0).any():
                raise ValueError("table frequencies must be strictly increasing")
            if (lv <= 0).any() or (lv > _TABLE_MAX_LEVEL).any():
                raise ValueError("table levels must lie in (0, 1] up to noise")
            object.__setattr__(self, "table_f", f)
            object.__setattr__(self, "table_L", lv)
        else:
            raise ValueError(f"unknown lineshape kind: {self.kind}")

    @classmethod
    def double(cls, center: float = DEFAULT_CENTER_HZ,
               splitting: float = DEFAULT_SPLITTING_HZ,
               contrasts=DEFAULT_CONTRASTS,
               hwhms=(DEFAULT_HWHM_HZ, DEFAULT_HWHM_HZ)) -> "Lineshape":
        c1 = center - 0.5 * splitting
        c2 = center + 0.5 * splitting
        return cls(kind="double_lorentzian", centers=(c1, c2),
                   contrasts=tuple(contrasts), hwhms=tuple(hwhms))

    @classmethod
    def single(cls, center: float = DEFAULT_CENTER_HZ, contrast: float = 0.23,
               hwhm: float = 7.4e6) -> "Lineshape":
        return cls(kind="single_lorentzian", centers=(center,),
                   contrasts=(contrast,), hwhms=(hwhm,))

    @classmethod
    def from_table(cls, freqs, levels) -> "Lineshape":
        return cls(kind="interpolation", table_f=np.asarray(freqs, dtype=float),
                   table_L=np.asarray(levels, dtype=float))

    def value(self, f, delta_f: float = 0.0):
        """L(f - delta_f); accepts scalars or arrays."""
        x = np.asarray(f, dtype=float) - delta_f
        if self.kind == "interpolation":
            return np.interp(x, self.table_f, self.table_L, left=1.0, right=1.0)
        out = np.ones_like(x)
        for c, amp, g in zip(self.centers, self.contrasts, self.hwhms):
            out = out - amp * g * g / ((x - c) ** 2 + g * g)
        return out

    def derivative(self, f, delta_f: float = 0.0):
        """dL/df at f - delta_f; piecewise-constant segment slopes for tables."""
        x = np.atleast_1d(np.asarray(f, dtype=float)) - delta_f
        if self.kind == "interpolation":
            slopes = np.diff(self.table_L) / np.diff(self.table_f)
            idx = np.searchsorted(self.table_f, x, side="right") - 1
            out = np.zeros_like(x)
            inside = (idx >= 0) & (idx < slopes.size) & (x >= self.table_f[0]) \
                     & (x <= self.table_f[-1])
            out[inside] = slopes[idx[inside]]
        else:
            out = np.zeros_like(x)
            for c, amp, g in zip(self.centers, self.contrasts, self.hwhms):
                d = x - c
                out = out + amp * g * g * 2.0 * d / (d * d + g * g) ** 2
        if np.isscalar(f) or np.asarray(f).ndim == 0:
            return float(out[0])
        return out


def default_grid(center: float = DEFAULT_CENTER_HZ, span: float = DEFAULT_SPAN_HZ,
                 n_points: int = DEFAULT_N_POINTS) -> np.ndarray:
    """Uniform microwave frequency grid of one scan."""
    return center + np.linspace(-0.5 * span, 0.5 * span, n_points)


def default_lineshape() -> Lineshape:
    """Asymmetric strain-split double Lorentzian used throughout the tests."""
    return Lineshape.double()
