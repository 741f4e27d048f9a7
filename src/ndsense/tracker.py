"""Closed-loop orbital tracking simulator at the photon level.

The excitation focus orbits the current position estimate while two
axially offset collection planes count photons into angular bins. Each
orbit is fitted in closed form and the orbit center is corrected, which
emulates the hardware feedback loop update by update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import dot
from ._table import write_table
from .chip import CLOCK_S
from .seeding import as_generator
from .trajectory import Trajectory

__all__ = [
    "TrackerConfig",
    "TrackDiagnostics",
    "track",
    "static_benchmark",
    "BenchmarkRow",
]


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


# Orbits whose pieces are laid out at once; bounds the block's per-piece lists.
_BLOCK_ORBITS = 64


def _orbit_pieces(truth: Trajectory, tt, cfg: TrackerConfig, k0: int, k1: int):
    """Split orbits k0..k1-1 into the tick runs that lie between two truth samples.

    The truth (sampled at times tt) is linear between its samples, so over
    each run (a piece) the emitter is at a + f*v, f = (i + 0.5)/S the phase
    of tick i in its orbit. Pieces are found from the sample times
    alone: a sample inside the block starts a piece at its first tick not
    before it, as does each orbit start. Returns, per piece, its orbit index
    within the block, its tick range (i0, i1) in that orbit, and a and v,
    each of shape (n_pieces, 3).
    """
    S = cfg.samples_per_orbit
    T = cfg.T_orbit
    starts = truth.t0 + T * np.arange(k0, k1)  # the orbit starts of the tick clock
    n_ticks = S * (k1 - k0)
    # each sample strictly inside the block, as the block tick that starts its piece
    lo = np.searchsorted(tt, starts[0], side="right")
    hi = np.searchsorted(tt, truth.t0 + T * k1, side="left")
    knot = np.ceil((tt[lo:hi] - starts[0]) / CLOCK_S - 0.5).astype(np.int64)
    first = np.sort(np.concatenate([S * np.arange(k1 - k0), knot[knot < n_ticks]]))
    # a sample on an orbit start, or several before one tick, starts no empty piece
    first = first[np.append(True, first[1:] != first[:-1])]
    orbit = first // S
    i0 = first - S * orbit
    i1 = np.append(first[1:], n_ticks) - S * orbit
    # the sample interval of each piece's first tick, as np.interp picks it
    seg = np.searchsorted(tt, starts[orbit] + (i0 + 0.5) * CLOCK_S, side="right") - 1
    seg = np.clip(seg, 0, len(tt) - 2)
    tp = truth.points
    step = tp[seg + 1] - tp[seg]
    a = tp[seg] + step * ((starts[orbit] - tt[seg]) / truth.dt)[:, None]
    v = step * (T / truth.dt)
    return orbit, i0, i1, a, v


def _poisson_counts(rng, lam):
    """Independent Poisson counts with the means `lam` of one orbit's bins and planes.

    One Poisson total of the summed mean is split over the shares lam/total
    by one multinomial draw. Independent Poisson counts, given their sum,
    are multinomial with these shares, and their sum is Poisson with the
    summed mean, so this is exact in distribution. A summed mean or a drawn
    total of 0 is a dark orbit: all zeros, and no shares are formed.
    """
    total = lam.sum()
    # a negative or NaN mean still raises ValueError in the draws
    n = rng.poisson(total) if total != 0.0 else 0
    if n == 0:
        return np.zeros(lam.shape, dtype=np.int64)
    return rng.multinomial(n, (lam / total).ravel()).reshape(lam.shape)


@np.errstate(under="ignore")  # a far emitter's rates underflow to 0: a dark orbit
def track(truth: Trajectory, cfg: TrackerConfig, brightness: float, seed,
          modulation=None, initial_offset=(0.0, 0.0, 0.0), shot_noise: bool = True):
    """Run the closed feedback loop against a moving ground-truth emitter.

    Each orbit sums the expected per-tick counts of each plane into the
    angular bins. A sum of independent Poisson variables is Poisson with the
    summed mean, so one Poisson count per bin and plane is exact in
    distribution for per-tick photon counting. `_poisson_counts` draws those
    counts as one Poisson total split over the bins and planes by one
    multinomial draw, which is exact too and costs less than one
    `rng.poisson` over the (2, n_bins) array of means; an orbit whose summed
    mean underflows to 0, or whose drawn total is 0, is dark. The bins are fitted
    to I'(1 + delta*cos(theta - phi)) by their first Fourier moments; the
    center moves gain*delta*eps_xy toward phi and gain*eps_z*(r - G)/(r*G - 1)
    axially, r = (bottom - top)/total. An orbit without photons holds still.

    The per-tick rates come from a fixed (7, S) basis of the orbit phase
    f = (i + 0.5)/S and the beam offset b_i: rows 1, f, f^2, b_x, b_y, f*b_x
    and f*b_y. The truth is linear between its samples, so over each piece of
    an orbit that lies between two samples the emitter sits at a + f*v, and
    with e = c - a, c the orbit center, each plane's exponent is
    kxy*(R^2 + |e|^2 + f^2|v|^2 + 2b.e - 2f b.v - 2f e.v) + kz*(+-R_z + e_z - f v_z)^2.
    That is a (2, 7) coefficient matrix of Python floats times the piece's
    basis columns. It is the same quadratic the sampled truth gives at each
    tick, written relative to c - a so that no large absolute positions
    cancel; only the rounding of each exponent differs, in its last bits.
    A truth sampled once per orbit gives one piece per orbit.

    Parameters
    ----------
    truth : Trajectory
        Ground-truth motion, linear between its samples.
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
    kxy = -2.0 / cfg.w_xy ** 2
    kz = -2.0 / cfg.w_z ** 2
    kxy2 = 2.0 * kxy
    R2 = cfg.R_xy ** 2
    R_z = cfg.R_z
    # bin sums and first Fourier moments, the sufficient statistics of the fit
    theta_bins = 2.0 * np.pi * (np.arange(nb) + 0.5) / nb
    moments = np.column_stack([np.ones(nb), np.cos(theta_bins), np.sin(theta_bins)])
    gain_xy = 2.0 * cfg.gain * cfg.eps_xy
    gain_z = cfg.gain * cfg.eps_z
    G = cfg.G

    theta = 2.0 * np.pi * (np.arange(S) + 0.5) / S
    bx = cfg.R_xy * np.cos(theta)
    by = cfg.R_xy * np.sin(theta)
    f = (np.arange(S) + 0.5) / S
    basis = np.stack([np.ones(S), f, f * f, bx, by, f * bx, f * by])
    tick_frac = (np.arange(S) + 0.5) * CLOCK_S
    expo = np.empty((2, S))  # each plane's exponent per tick of the current orbit
    views = {}  # (i0, i1) -> the piece's basis columns and exponent slots
    tt = truth.times

    cx, cy, cz = (truth.points[0] + np.asarray(initial_offset, dtype=float)).tolist()
    est = np.empty((n_orbits, 3))
    n_dark = 0

    for k0 in range(0, n_orbits, _BLOCK_ORBITS):
        k1 = min(k0 + _BLOCK_ORBITS, n_orbits)
        orbit, i0, i1, a, v = _orbit_pieces(truth, tt, cfg, k0, k1)
        spans = list(zip(i0.tolist(), i1.tolist()))
        for r0, r1 in set(spans).difference(views):
            views[r0, r1] = basis[:, r0:r1], expo[:, r0:r1]
        slots = list(map(views.__getitem__, spans))
        # per piece: a and the c-independent coefficients, of f^2, f*b_x and
        # f*b_y, and the factor of v_z in the coefficient of f
        params = list(zip(*a.T.tolist(),
                          (kxy * (v[:, 0] ** 2 + v[:, 1] ** 2) + kz * v[:, 2] ** 2).tolist(),
                          (-kxy2 * v[:, 0]).tolist(), (-kxy2 * v[:, 1]).tolist(),
                          (-2.0 * kz * v[:, 2]).tolist()))
        bounds = np.searchsorted(orbit, np.arange(k1 - k0 + 1)).tolist()
        if modulation is not None:
            t_ticks = (truth.t0 + cfg.T_orbit * np.arange(k0, k1)[:, None] + tick_frac).ravel()
            mod = np.broadcast_to(modulation(t_ticks), t_ticks.shape).reshape(-1, S)
        for j in range(k1 - k0):
            q0, q1 = bounds[j], bounds[j + 1]
            # each piece's (2, 7) coefficients of 1, f, f^2, b_x, b_y, f*b_x, f*b_y
            coef = []
            for ax, ay, az, c2, cfx, cfy, vz in params[q0:q1]:
                ex = cx - ax
                ey = cy - ay
                ez = cz - az
                c0 = kxy * (R2 + ex * ex + ey * ey)
                c1 = ex * cfx + ey * cfy
                cbx = kxy2 * ex
                cby = kxy2 * ey
                zt = ez + R_z
                zb = ez - R_z
                coef += (c0 + kz * zt * zt, c1 + vz * zt, c2, cbx, cby, cfx, cfy,
                         c0 + kz * zb * zb, c1 + vz * zb, c2, cbx, cby, cfx, cfy)
            coef = np.array(coef).reshape(-1, 2, 7)
            for q, (cols, out) in enumerate(slots[q0:q1]):
                np.matmul(coef[q], cols, out=out)
            lam = np.exp(expo, out=expo)
            if modulation is not None:
                lam *= mod[j]
            lam = amp * lam.reshape(2, nb, -1).sum(axis=2)
            counts = _poisson_counts(rng, lam) if shot_noise else lam
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

    tp = truth.points
    estimate = Trajectory(dt=cfg.T_orbit, points=est, t0=truth.t0 + cfg.T_orbit,
                          meta={"generator": "tracker", "brightness_cps": brightness})
    times = truth.t0 + cfg.T_orbit * (1 + np.arange(n_orbits))
    d = est - np.column_stack([np.interp(times, tt, tp[:, i]) for i in range(3)])
    # bit for bit the per-row np.linalg.norm; norm(axis=1) differs in the last bit
    resid = np.sqrt(dot(d, d))
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


def static_benchmark(brightness_list, cfg: TrackerConfig, seed,
                     n_updates: int = 1500) -> list:
    """Track a stationary emitter at each brightness; report apparent motion.

    Apparent diffusion comes entirely from localization noise, so it
    scales inversely with the photoluminescence rate.
    """
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
        msd1_xy = float((d_xy ** 2).sum(axis=1).mean())
        rows.append(BenchmarkRow(
            brightness=float(b),
            counts_per_update=2.0 * eff_b * cfg.T_orbit if not noise_free else float("inf"),
            rms_error_nm=rms,
            msd1_xy_nm2=msd1_xy,
            apparent_D_xy=msd1_xy / (4.0 * cfg.T_orbit),
        ))
    return rows
