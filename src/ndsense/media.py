"""Synthetic media: Brownian and viscoelastic trajectory generators.

Generates ground-truth emitter motion for the tracking simulator and the
analysis oracles. Units follow the package conventions (nm, s, Pa*s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN_J_PER_K, _NM_SCALE
from .seeding import as_generator
from .trajectory import Trajectory

__all__ = [
    "ViscousMediumModel",
    "ViscoelasticModel",
    "DirectedSegmentSpec",
    "GLYCEROL_MODEL",
    "viscosity_at",
    "stokes_einstein_D",
    "simulate_brownian",
    "simulate_viscoelastic",
    "first_bad_segment",
    "inject_directed",
]


@dataclass(frozen=True)
class ViscousMediumModel:
    """Linear-in-temperature viscosity model eta(T) = eta0 + mu*(T - T_ref).

    Parameters are config, not derived quantities; validity is checked at
    evaluation time (eta must stay positive).
    """

    eta0: float  # Pa*s at T_ref
    mu: float    # Pa*s per degC, signed
    T_ref: float  # degC


# Default constants stored verbatim from the calibration source; see the
# radius-fit tests for a physically consistent variant used in synthetics.
GLYCEROL_MODEL = ViscousMediumModel(eta0=0.301, mu=0.0208, T_ref=35.0)


@dataclass(frozen=True)
class ViscoelasticModel:
    """Power-law medium: per-axis MSD(tau) = 2*K_alpha*tau**alpha."""

    alpha: float    # dimensionless, 0 < alpha <= 2
    K_alpha: float  # nm^2 / s^alpha

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")
        if not (np.isfinite(self.K_alpha) and self.K_alpha >= 0):
            raise ValueError("K_alpha must be finite and non-negative")


@dataclass(frozen=True)
class DirectedSegmentSpec:
    """Ground-truth directed run: ``duration`` steps starting at ``start``."""

    start: int
    duration: int
    velocity: tuple  # nm/s, 2 or 3 components

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("duration must be >= 1 step")
        v = np.asarray(self.velocity, dtype=float)
        if v.shape not in ((2,), (3,)) or not np.isfinite(v).all():
            raise ValueError("velocity must be a finite 2- or 3-vector")

    @property
    def velocity3(self) -> np.ndarray:
        v = np.asarray(self.velocity, dtype=float)
        if v.shape == (2,):
            v = np.append(v, 0.0)
        return v


def viscosity_at(model: ViscousMediumModel, temperature_c: float) -> float:
    """Viscosity in Pa*s at the given temperature.

    Raises if the linear model leaves the physical regime (eta <= 0).
    """
    eta = model.eta0 + model.mu * (temperature_c - model.T_ref)
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(
            f"viscosity model invalid at T={temperature_c} degC (eta={eta!r} Pa*s)"
        )
    return eta


def stokes_einstein_D(temperature_k: float, radius_nm: float, eta_pa_s: float) -> float:
    """Diffusion coefficient k_B*T/(6*pi*r*eta) in nm^2/s."""
    if not (temperature_k > 0 and radius_nm > 0 and eta_pa_s > 0):
        raise ValueError("temperature, radius, and viscosity must be positive")
    return BOLTZMANN_J_PER_K * temperature_k * _NM_SCALE / (6.0 * np.pi * radius_nm * eta_pa_s)


def _check_sim_args(n_steps: int, dt: float):
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")


def simulate_brownian(D: float, n_steps: int, dt: float, seed,
                      origin=(0.0, 0.0, 0.0), t0: float = 0.0) -> Trajectory:
    """Free diffusion with independent N(0, 2*D*dt) increments per axis.

    Parameters
    ----------
    D : float
        Diffusion coefficient in nm^2/s.
    n_steps : int
        Number of steps; the trajectory has n_steps + 1 points.
    dt : float
        Step period in seconds.
    seed : int or numpy Generator
        Randomness source.
    """
    if not (np.isfinite(D) and D >= 0):
        raise ValueError("D must be finite and non-negative")
    _check_sim_args(n_steps, dt)
    rng = as_generator(seed)
    steps = rng.normal(0.0, np.sqrt(2.0 * D * dt), size=(n_steps, 3))
    points = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)]) + np.asarray(origin, dtype=float)
    meta = {"generator": "brownian", "D_nm2_s": D}
    return Trajectory(dt=dt, points=points, t0=t0, meta=meta)


def _fgn(n: int, hurst: float, dt: float, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Fractional Gaussian noise via circulant embedding (Davies-Harte).

    Returns n increments whose partial sums have variance
    ``variance * (k*dt)**(2*hurst)`` after k steps.
    """
    k = np.arange(n + 1, dtype=float)
    acov = 0.5 * variance * dt ** (2 * hurst) * (
        np.abs(k + 1) ** (2 * hurst) - 2 * np.abs(k) ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst)
    )
    row = np.concatenate([acov, acov[-2:0:-1]])
    m = row.size
    lam = np.fft.rfft(row).real
    # The fGn embedding is non-negative in practice; tiny negative values
    # are FFT round-off.
    if lam.min() < -1e-8 * max(lam.max(), 1e-300):
        raise RuntimeError("circulant embedding produced negative spectrum")
    lam = np.clip(lam, 0.0, None)
    g = rng.standard_normal(m // 2 + 1)
    h = rng.standard_normal(m // 2 + 1)
    z = g + 1j * h
    z[0] = g[0] * np.sqrt(2.0)
    z[-1] = g[-1] * np.sqrt(2.0)
    w = np.fft.irfft(np.sqrt(lam / (2.0 * m)) * z, n=m) * m
    return w[:n]


def simulate_viscoelastic(model: ViscoelasticModel, n_steps: int, dt: float,
                          seed) -> Trajectory:
    """Fractional-Brownian trajectory with per-axis MSD = 2*K_alpha*tau**alpha.

    alpha = 1 reduces to free diffusion with D = K_alpha; alpha = 2 is the
    degenerate ballistic limit (perfectly correlated increments).
    """
    _check_sim_args(n_steps, dt)
    rng = as_generator(seed)
    var = 2.0 * model.K_alpha
    if model.alpha == 2.0:
        # rank-one limit: x(t) = sqrt(var) * Z * t per axis
        z = rng.standard_normal(3)
        t = dt * np.arange(1, n_steps + 1)
        moves = np.sqrt(var) * np.outer(t, z)
    else:
        hurst = model.alpha / 2.0
        incs = np.column_stack([_fgn(n_steps, hurst, dt, var, rng) for _ in range(3)])
        moves = np.cumsum(incs, axis=0)
    points = np.vstack([np.zeros(3), moves])
    meta = {"generator": "viscoelastic", "alpha": model.alpha, "K_alpha": model.K_alpha}
    return Trajectory(dt=dt, points=points, meta=meta)


def first_bad_segment(specs, n_steps: int):
    """(index, reason) of the first spec outside steps [0, n_steps) or
    overlapping an earlier one; None when every spec fits."""
    taken = np.zeros(n_steps, dtype=bool)
    for i, s in enumerate(specs):
        if s.start < 0 or s.start + s.duration > n_steps:
            return i, f"segment [{s.start}, {s.start + s.duration}) outside trajectory"
        span = taken[s.start:s.start + s.duration]
        if span.any():
            return i, "directed segments overlap"
        span[:] = True
    return None


def inject_directed(traj: Trajectory, specs) -> Trajectory:
    """Add cumulative v*dt drift to the positions inside each segment.

    Segments are step ranges [start, start + duration); positions outside a
    segment are left unchanged. Overlapping segments are rejected.
    """
    specs = list(specs)
    bad = first_bad_segment(specs, len(traj) - 1)
    if bad:
        raise ValueError(bad[1])
    points = traj.points.copy()
    for s in specs:
        idx = np.arange(s.duration + 1)
        points[s.start:s.start + s.duration + 1] += np.outer(idx * traj.dt, s.velocity3)
    meta = dict(traj.meta)
    if specs:
        meta["directed_segments"] = len(specs)
    return Trajectory(dt=traj.dt, points=points, t0=traj.t0, meta=meta)
