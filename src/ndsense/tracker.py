"""Closed-loop orbital tracking simulator at the photon level.

The excitation focus orbits the current position estimate while two
axially offset collection planes count photons into angular bins. Each
orbit is fitted in closed form and the orbit center is corrected, which
emulates the hardware feedback loop update by update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import write_table
from .chip import CLOCK_S
from .seeding import as_generator
from .trajectory import Trajectory

__all__ = [
    "TrackerConfig",
    "OrbitFrame",
    "FitResult",
    "TrackDiagnostics",
    "TrackingLossError",
    "expected_rate",
    "fit_orbit",
    "correction",
    "track",
    "static_benchmark",
    "BenchmarkRow",
]


class TrackingLossError(RuntimeError):
    """Raised when a frame carries no usable signal."""


@dataclass(frozen=True)
class TrackerConfig:
    """Feedback-loop geometry and timing.

    Defaults reproduce the reference instrument: a 9.6 ms orbit of radius
    50 nm sampled on the chip's 100 kHz clock (`chip.CLOCK_S`) into 8
    angular bins, with collection planes offset +-200 nm axially.
    """

    T_orbit: float = 9.6e-3   # s
    R_xy: float = 50.0        # nm, orbit radius
    w_xy: float = 260.0       # nm, transverse PSF 1/e^2 radius
    R_z: float = 200.0        # nm, axial plane half-separation
    w_z: float = 200.0        # nm, axial PSF 1/e^2 radius
    G: float = 0.0            # detector imbalance, in [-1, 1]
    n_bins: int = 8
    gain: float = 1.0         # correction gain applied per update

    def __post_init__(self):
        if min(self.T_orbit, self.R_xy, self.w_xy, self.R_z, self.w_z) <= 0:
            raise ValueError("geometry and timing parameters must be positive")
        if not -1.0 <= self.G <= 1.0:
            raise ValueError("G must lie in [-1, 1]")
        if self.n_bins < 2:
            raise ValueError("need at least 2 angular bins")
        ticks = self.T_orbit / CLOCK_S
        if abs(ticks - round(ticks)) > 1e-6:
            raise ValueError("T_orbit must be an integer number of clock ticks")
        if round(ticks) % self.n_bins:
            raise ValueError("clock ticks per orbit must divide evenly into bins")

    @property
    def eps_xy(self) -> float:
        """Transverse error-to-correction scale w_xy^2/(4*R_xy), nm."""
        return self.w_xy ** 2 / (4.0 * self.R_xy)

    @property
    def eps_z(self) -> float:
        """Axial error-to-correction scale w_z^2/(4*R_z), nm."""
        return self.w_z ** 2 / (4.0 * self.R_z)

    @property
    def samples_per_orbit(self) -> int:
        return round(self.T_orbit / CLOCK_S)

    @property
    def samples_per_bin(self) -> int:
        return self.samples_per_orbit // self.n_bins

    @property
    def lock_attenuation(self) -> float:
        """PSF attenuation for an emitter at the orbit center."""
        return float(np.exp(-2.0 * self.R_xy ** 2 / self.w_xy ** 2)
                     * np.exp(-2.0 * self.R_z ** 2 / self.w_z ** 2))


@dataclass
class OrbitFrame:
    """Photon counts of one orbit: per angular bin, per collection plane."""

    counts_top: np.ndarray
    counts_bottom: np.ndarray

    def __post_init__(self):
        self.counts_top = np.asarray(self.counts_top)
        self.counts_bottom = np.asarray(self.counts_bottom)
        if self.counts_top.shape != self.counts_bottom.shape:
            raise ValueError("plane count arrays must have equal length")
        if (self.counts_top < 0).any() or (self.counts_bottom < 0).any():
            raise ValueError("counts must be non-negative")


@dataclass(frozen=True)
class FitResult:
    """Closed-form sinusoid fit of one orbit frame."""

    I_prime: float   # mean counts per bin
    delta: float     # normalized modulation depth, >= 0
    phi: float       # error azimuth, rad, in (-pi, pi]
    r_axial: float   # plane-imbalance ratio, in [-1, 1]


def expected_rate(emitter_offset, beam, plane: str, cfg: TrackerConfig,
                  I_topC: float, I_bottomC: float):
    """Expected count rate (counts/s) for an emitter offset from the orbit center.

    ``emitter_offset`` and ``beam`` are positions relative to the orbit
    center; the collection plane sits at beam z +- R_z. Accepts arrays for
    vectorized evaluation.
    """
    off = np.asarray(emitter_offset, dtype=float)
    b = np.asarray(beam, dtype=float)
    dx = b[..., 0] - off[..., 0]
    dy = b[..., 1] - off[..., 1]
    if plane == "top":
        amp, zc = I_topC, b[..., 2] + cfg.R_z
    elif plane == "bottom":
        amp, zc = I_bottomC, b[..., 2] - cfg.R_z
    else:
        raise ValueError("plane must be 'top' or 'bottom'")
    dz = zc - off[..., 2]
    return amp * np.exp(-2.0 * (dx * dx + dy * dy) / cfg.w_xy ** 2) \
               * np.exp(-2.0 * dz * dz / cfg.w_z ** 2)


def _bin_centers(cfg: TrackerConfig) -> np.ndarray:
    return 2.0 * np.pi * (np.arange(cfg.n_bins) + 0.5) / cfg.n_bins


def fit_orbit(frame: OrbitFrame, cfg: TrackerConfig) -> FitResult:
    """Fit summed bins to I'*(1 + delta*cos(theta - phi)) in closed form.

    The first discrete Fourier coefficient over uniform bins is the least
    squares solution of the 3-parameter sinusoid model.
    """
    top = np.asarray(frame.counts_top, dtype=float)
    bottom = np.asarray(frame.counts_bottom, dtype=float)
    total = top + bottom
    s = total.sum()
    if s <= 0:
        raise TrackingLossError("orbit frame carries no photons")
    theta = _bin_centers(cfg)
    a = 2.0 * (total * np.cos(theta)).sum() / cfg.n_bins
    b = 2.0 * (total * np.sin(theta)).sum() / cfg.n_bins
    i_prime = s / cfg.n_bins
    delta = float(np.hypot(a, b) / i_prime)
    phi = float(np.arctan2(b, a))
    r_axial = float((bottom.sum() - top.sum()) / s)
    return FitResult(I_prime=float(i_prime), delta=delta, phi=phi, r_axial=r_axial)


def correction(fit: FitResult, cfg: TrackerConfig) -> np.ndarray:
    """Position correction (nm) moving the orbit center toward the emitter."""
    rg = fit.r_axial * cfg.G
    if abs(rg - 1.0) < 1e-12:
        raise ValueError("singular axial geometry: r*G = 1")
    dxy = fit.delta * cfg.eps_xy
    dz = (fit.r_axial - cfg.G) / (rg - 1.0) * cfg.eps_z
    return np.array([dxy * np.cos(fit.phi), dxy * np.sin(fit.phi), dz])


@dataclass
class TrackDiagnostics:
    """Per-update residuals and lock state of one tracking run."""

    times: np.ndarray        # s, end of each orbit
    residual_nm: np.ndarray  # |estimate - truth| per update
    locked: np.ndarray       # bool per update (residual within 3*w_xy)
    lock_lost_at: int        # update index where loss was declared, or -1
    n_dark: int              # orbits without a photon; the center held still

    @property
    def lock_lost(self) -> bool:
        """Whether 5 consecutive unlocked updates occurred."""
        return self.lock_lost_at >= 0

    def to_csv(self, path) -> None:
        write_table(path, [("t_s", self.times, "%.6f"), ("err_nm", self.residual_nm, "%.6f"),
                           ("locked", self.locked, "%d")])


# Orbits whose truth is interpolated at once; each per-tick array of a
# block is 64 x 960 float64 = 0.5 MB at the default clock.
_BLOCK_ORBITS = 64


def track(truth: Trajectory, cfg: TrackerConfig, brightness: float, seed,
          modulation=None, initial_offset=(0.0, 0.0, 0.0), shot_noise: bool = True):
    """Run the closed feedback loop against a moving ground-truth emitter.

    Each orbit sums the expected per-tick counts of each plane into the
    angular bins and draws one Poisson count per bin and plane. A sum of
    independent Poisson variables is Poisson with the summed mean, so this
    is exact in distribution for per-tick photon counting. The fit and the
    correction are those of `fit_orbit` and `correction`, inlined.

    Parameters
    ----------
    truth : Trajectory
        Ground-truth motion; resampled onto the photon clock internally.
    cfg : TrackerConfig
    brightness : float
        Detected counts/s per collection plane with the emitter at the
        orbit center (locked). The PSF attenuation at lock is divided out
        so this is what the counters actually report when locked.
    seed : int or Generator
        Photon shot-noise stream.
    modulation : callable, optional
        ``modulation(t)`` -> rate multiplier per clock tick, used to impose
        ODMR spin-contrast dips on the photon stream. It is called once per
        block of orbits with the 1-D array of the block's tick times and
        scales each tick's rate before the bin sums.
    initial_offset : tuple
        Initial orbit-center displacement from the truth start position.
    shot_noise : bool
        If False, use expected (non-integer) counts; the noise-free mode
        of the benchmarks.

    Returns
    -------
    (estimate: Trajectory, diagnostics: TrackDiagnostics)
    """
    if not (brightness > 0):
        raise ValueError("brightness must be positive")
    rng = as_generator(seed)
    S = cfg.samples_per_orbit
    nb = cfg.n_bins
    n_orbits = int(truth.duration / cfg.T_orbit)
    if n_orbits < 1:
        raise ValueError("truth shorter than one orbit period")

    # per-plane (top, bottom) peak counts per tick such that the locked
    # detected rate is `brightness`
    amp = np.array([[1.0 - cfg.G], [1.0 + cfg.G]]) * (
        brightness / cfg.lock_attenuation * CLOCK_S)
    plane_z = np.array([[cfg.R_z], [-cfg.R_z]])
    kxy = -2.0 / cfg.w_xy ** 2
    kz = -2.0 / cfg.w_z ** 2
    # bin sums and first Fourier moments, the sufficient statistics of fit_orbit
    theta_bins = _bin_centers(cfg)
    moments = np.column_stack([np.ones(nb), np.cos(theta_bins), np.sin(theta_bins)])
    gain_xy = 2.0 * cfg.gain * cfg.eps_xy
    gain_z = cfg.gain * cfg.eps_z
    G = cfg.G

    theta = 2.0 * np.pi * (np.arange(S) + 0.5) / S
    bx = cfg.R_xy * np.cos(theta)
    by = cfg.R_xy * np.sin(theta)
    tick_frac = (np.arange(S) + 0.5) * CLOCK_S
    tt = truth.times
    tp = truth.points

    cx, cy, cz = (tp[0] + np.asarray(initial_offset, dtype=float)).tolist()
    est = np.empty((n_orbits, 3))
    n_dark = 0

    for k0 in range(0, n_orbits, _BLOCK_ORBITS):
        k1 = min(k0 + _BLOCK_ORBITS, n_orbits)
        t_ticks = (truth.t0 + cfg.T_orbit * np.arange(k0, k1)[:, None] + tick_frac).ravel()
        # beam (and collection plane) minus emitter per tick, before the orbit center
        ux = bx - np.interp(t_ticks, tt, tp[:, 0]).reshape(-1, S)
        uy = by - np.interp(t_ticks, tt, tp[:, 1]).reshape(-1, S)
        uz = plane_z - np.interp(t_ticks, tt, tp[:, 2]).reshape(-1, 1, S)
        if modulation is not None:
            mod = np.broadcast_to(modulation(t_ticks), t_ticks.shape).reshape(-1, S)
        for j in range(k1 - k0):
            dx = ux[j] + cx
            dy = uy[j] + cy
            dz = uz[j] + cz
            lam = np.exp(kxy * (dx * dx + dy * dy) + kz * (dz * dz))
            if modulation is not None:
                lam *= mod[j]
            lam = amp * lam.reshape(2, nb, -1).sum(axis=2)
            counts = rng.poisson(lam) if shot_noise else lam
            (s_top, a_top, b_top), (s_bot, a_bot, b_bot) = (counts @ moments).tolist()
            s = s_top + s_bot
            if s > 0:
                r = (s_bot - s_top) / s
                rg = r * G
                if abs(rg - 1.0) < 1e-12:
                    raise ValueError("singular axial geometry: r*G = 1")
                cx += gain_xy * (a_top + a_bot) / s
                cy += gain_xy * (b_top + b_bot) / s
                cz += gain_z * (r - G) / (rg - 1.0)
            else:
                n_dark += 1  # no photon: hold position, residual will show the loss
            est[k0 + j] = cx, cy, cz

    estimate = Trajectory(dt=cfg.T_orbit, points=est, t0=truth.t0 + cfg.T_orbit,
                          meta={"generator": "tracker", "brightness_cps": brightness})
    times = truth.t0 + cfg.T_orbit * (1 + np.arange(n_orbits))
    d = est - np.column_stack([np.interp(times, tt, tp[:, i]) for i in range(3)])
    # bit for bit the per-row np.linalg.norm; norm(axis=1) differs in the last bit
    resid = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    locked = ~(resid > 3.0 * cfg.w_xy)
    # loss is declared at the fifth update of the first run of 5 unlocked ones
    lost = np.flatnonzero(np.convolve(~locked, np.ones(5, int))[:n_orbits] == 5)
    diag = TrackDiagnostics(times=times, residual_nm=resid, locked=locked,
                            lock_lost_at=int(lost[0]) if lost.size else -1, n_dark=n_dark)
    return estimate, diag


@dataclass
class BenchmarkRow:
    """One stationary-emitter benchmark point."""

    brightness: float        # counts/s per plane; inf = noise-free
    counts_per_update: float
    rms_error_nm: float      # 3D RMS residual
    msd1_xy_nm2: float       # transverse MSD at one update lag
    apparent_D_xy: float     # msd1_xy/(4*T_orbit), nm^2/s
    apparent_D_z: float      # axial analogue, nm^2/s
    psd: object              # PsdCurve of the transverse estimate


def static_benchmark(brightness_list, cfg: TrackerConfig, seed,
                     n_updates: int = 1500) -> list:
    """Track a stationary emitter at each brightness; report apparent motion.

    Apparent diffusion comes entirely from localization noise, so it
    scales inversely with the photoluminescence rate.
    """
    from . import rheology  # local import to keep module load light

    rng = as_generator(seed)
    duration = (n_updates + 1) * cfg.T_orbit
    truth = Trajectory(dt=duration, points=np.zeros((2, 3)))
    rows = []
    for b in brightness_list:
        noise_free = np.isinf(b)
        eff_b = 1e6 if noise_free else float(b)
        est, diag = track(truth, cfg, eff_b, rng, shot_noise=not noise_free)
        pts = est.points[10:]  # drop acquisition transient
        rms = float(np.sqrt((pts ** 2).sum(axis=1).mean()))
        d_xy = np.diff(pts[:, :2], axis=0)
        d_z = np.diff(pts[:, 2])
        msd1_xy = float((d_xy ** 2).sum(axis=1).mean())
        msd1_z = float((d_z ** 2).mean())
        window = min(2.0, est.duration / 4)
        curve = rheology.psd(est, axes="xy", window_s=window)
        rows.append(BenchmarkRow(
            brightness=float(b),
            counts_per_update=2.0 * eff_b * cfg.T_orbit if not noise_free else float("inf"),
            rms_error_nm=rms,
            msd1_xy_nm2=msd1_xy,
            apparent_D_xy=msd1_xy / (4.0 * cfg.T_orbit),
            apparent_D_z=msd1_z / (2.0 * cfg.T_orbit),
            psd=curve,
        ))
    return rows
