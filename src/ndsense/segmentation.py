"""Directed-motion detection via the directionality ratio.

A window of N steps is scored by gamma = displacement/path-length; under
Brownian motion gamma has an analytic null derived from a non-central t
distribution, and windows beyond its critical value mark candidate
directed transport. Surviving segments are classified and their
anomalous exponents summarized per motion class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gamma as _gamma_fn
from scipy.stats import nct as _nct

from . import rheology
from ._table import read_table, write_table
from .trajectory import Trajectory

__all__ = [
    "GammaNull",
    "SegmentLabel",
    "ClassStats",
    "ClassExponents",
    "gamma_null",
    "directionality_ratio",
    "segment",
    "class_exponents",
    "labels_to_csv",
    "labels_from_csv",
]

DEFAULT_WINDOW_STEPS = 75
DEFAULT_DIMS = 2
DEFAULT_CONFIDENCE = 0.95
DEFAULT_MIN_LENGTH_NM = 500.0
_NULL_GRID = 2048         # gamma points the null's pdf is tabulated on
_MIN_SEGMENT_POINTS = 8   # shortest span class_exponents fits
_LABEL_COLUMNS = ("start_idx", "end_idx", "gamma", "class", "displacement_nm", "alpha")


@dataclass
class GammaNull:
    """Analytic null of the directionality ratio for Brownian windows."""

    N: int                    # steps per window
    M: int                    # dimensions
    confidence: float
    mu_chi: float             # mean of the chi(M) step length
    sigma_chi: float          # sd of the chi(M) step length
    gammas: np.ndarray        # tabulation grid on (0, 1]
    pdf: np.ndarray           # f_gamma on the grid
    critical_gamma: float

    def pdf_at(self, g):
        return np.interp(g, self.gammas, self.pdf, left=0.0, right=0.0)


def gamma_null(N: int, M: int = DEFAULT_DIMS,
               confidence: float = DEFAULT_CONFIDENCE) -> GammaNull:
    """Null distribution of gamma over N-step Brownian windows in M dims.

    The inverse ratio eta = sqrt(M)/(sigma*gamma) follows a non-central t
    with M degrees of freedom and non-centrality sqrt(N)*mu/sigma, where
    mu and sigma are the chi(M) step-length moments; the pdf of gamma
    follows by change of variables and the critical value from the upper
    tail at the requested confidence.
    """
    if N < 2:
        raise ValueError("need at least 2 steps per window")
    if M not in (1, 2, 3):
        raise ValueError("M must be 1, 2 or 3")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    mu = np.sqrt(2.0) * _gamma_fn(0.5 * (M + 1)) / _gamma_fn(0.5 * M)
    sigma = np.sqrt(M - mu * mu)
    nc = np.sqrt(N) * mu / sigma
    dist = _nct(df=M, nc=nc)

    # large gamma corresponds to the lower tail of eta
    eta_c = float(dist.ppf(1.0 - confidence))
    crit = float(np.sqrt(M) / (sigma * eta_c))

    gammas = np.linspace(1.0 / _NULL_GRID, 1.0, _NULL_GRID)
    eta = np.sqrt(M) / (sigma * gammas)
    pdf = np.sqrt(M) / (sigma * gammas ** 2) * dist.pdf(eta)
    norm = float(np.trapezoid(pdf, gammas))
    if not 0.9 < norm < 1.1:
        raise RuntimeError(f"gamma null failed to normalize: integral {norm:.4f}")
    return GammaNull(N=N, M=M, confidence=confidence, mu_chi=float(mu),
                     sigma_chi=float(sigma), gammas=gammas, pdf=pdf,
                     critical_gamma=crit)


def directionality_ratio(window: np.ndarray) -> float:
    """gamma = |end - start| / total path length for one position window.

    Returns NaN when the path length is zero (undefined ratio).
    """
    w = np.asarray(window, dtype=float)
    if w.ndim != 2 or w.shape[0] < 2:
        raise ValueError("window must be (n_positions >= 2, n_dims)")
    steps = np.diff(w, axis=0)
    path = float(np.linalg.norm(steps, axis=1).sum())
    if path == 0.0:
        return float("nan")
    return float(np.linalg.norm(w[-1] - w[0]) / path)


def _window_gammas(pos: np.ndarray, n_steps: int) -> np.ndarray:
    """directionality_ratio of every stride-1 window of `n_steps` steps.

    Bit for bit the per-window oracle: path lengths are window sums of the
    step norms, displacements the norms of pos[i + N] - pos[i].
    """
    path = sliding_window_view(np.linalg.norm(np.diff(pos, axis=0), axis=1),
                               n_steps).sum(axis=1)
    ends = pos[n_steps:] - pos[:-n_steps]
    disp = np.sqrt((ends[:, None, :] @ ends[:, :, None]).ravel())
    gammas = np.full(path.size, np.nan)
    np.divide(disp, path, out=gammas, where=path != 0.0)
    return gammas


@dataclass
class SegmentLabel:
    """One labeled index span of a trajectory (positions start..end inclusive)."""

    start_idx: int
    end_idx: int
    gamma: float          # max window gamma inside the span (NaN if undefined)
    cls: str              # "directed" or "non-directed"
    displacement_nm: float
    alpha: float | None = None

    @property
    def n_steps(self) -> int:
        return self.end_idx - self.start_idx


def segment(traj: Trajectory, null: GammaNull, axes: str = "xy",
            min_length_nm: float = DEFAULT_MIN_LENGTH_NM) -> list:
    """Label directed and non-directed spans of a trajectory.

    Stride-1 windows of `null.N` steps are tested against the null's
    critical value; overlapping supra-threshold windows merge into one
    candidate, which must also move at least `min_length_nm` end to end
    to count as directed. The remaining spans are labeled non-directed.
    """
    pos = traj.axis(axes)
    if pos.shape[1] != null.M:
        raise ValueError(f"axes select {pos.shape[1]} dims but the null has M={null.M}")
    n_pos = pos.shape[0]
    n_w = null.N
    if n_pos < n_w + 1:
        raise ValueError("trajectory shorter than one window")

    n_windows = n_pos - n_w
    gammas = _window_gammas(pos, n_w)
    # supra windows less than N apart overlap and merge into one candidate
    supra = np.flatnonzero(gammas > null.critical_gamma)  # NaN compares False
    breaks = np.flatnonzero(np.diff(supra) > n_w)
    starts = np.r_[supra[:1], supra[breaks + 1]].tolist()
    ends = (np.r_[supra[breaks], supra[-1:]] + n_w).tolist()

    def span_label(s, e, cls):
        """Label positions s..e; gamma is the NaN-safe max over its windows."""
        lo = min(s, n_windows - 1)
        sub = gammas[lo:max(e - n_w, lo) + 1]
        g = float(np.nanmax(sub)) if np.isfinite(sub).any() else float("nan")
        return SegmentLabel(start_idx=s, end_idx=e, gamma=g, cls=cls,
                            displacement_nm=float(np.linalg.norm(pos[e] - pos[s])))

    labels = []
    cursor = 0
    for s, e in zip(starts, ends):
        directed = span_label(s, e, "directed")
        if directed.displacement_nm >= min_length_nm:
            if s > cursor:
                labels.append(span_label(cursor, s, "non-directed"))
            labels.append(directed)
            cursor = e
    if cursor < n_pos - 1:
        labels.append(span_label(cursor, n_pos - 1, "non-directed"))
    return labels


@dataclass
class ClassStats:
    """Exponent statistics of one motion class."""

    alphas: np.ndarray
    mean: float
    sd: float
    degenerate: bool          # single segment: sd pinned to 0
    ensemble_taus: np.ndarray
    ensemble_msd: np.ndarray
    n_segments: int


@dataclass
class ClassExponents:
    classes: dict = field(default_factory=dict)
    notices: list = field(default_factory=list)


def class_exponents(traj: Trajectory, labels, axes: str = "xy") -> ClassExponents:
    """Per-class anomalous exponents and ensemble MSDs from labeled spans.

    Each segment of at least 8 positions is fitted over lags
    from 2*dt spanning one decade, capped at a quarter of the segment
    duration; classes without usable segments are omitted with a notice.
    """
    out = ClassExponents()
    by_class: dict = {}
    for lab in labels:
        by_class.setdefault(lab.cls, []).append(lab)

    for cls, labs in sorted(by_class.items()):
        alphas = []
        curves = []
        for lab in labs:
            n_seg = lab.end_idx - lab.start_idx + 1
            if n_seg < _MIN_SEGMENT_POINTS:
                continue
            sub = traj.slice(lab.start_idx, lab.end_idx + 1)
            max_lag = max(n_seg // 4, 2)
            lags = np.arange(1, max_lag + 1)
            curve = rheology.msd(sub, axes=axes, lags=lags, variance="none",
                                 noise_floor_nm2=0.0)
            lo = 2.0 * traj.dt
            hi = min(10.0 * lo, curve.taus[-1])
            sel = (curve.taus >= lo) & (curve.taus <= hi)
            if sel.sum() < 4:
                sel = np.ones(curve.taus.size, dtype=bool)
            try:
                fit = rheology.anomalous_exponent(
                    curve, fit_range=(curve.taus[sel][0], curve.taus[sel][-1]))
            except ValueError:
                continue
            lab.alpha = fit.alpha
            alphas.append(fit.alpha)
            curves.append(curve)
        if not alphas:
            out.notices.append(f"class '{cls}': no segment with >= {_MIN_SEGMENT_POINTS} points")
            continue
        alphas = np.asarray(alphas)
        degenerate = alphas.size == 1
        # common lag grid: intersect by truncation to the shortest curve
        n_common = min(c.taus.size for c in curves)
        taus = curves[0].taus[:n_common]
        ens = np.mean([c.msd[:n_common] for c in curves], axis=0)
        out.classes[cls] = ClassStats(
            alphas=alphas,
            mean=float(alphas.mean()),
            sd=0.0 if degenerate else float(alphas.std(ddof=1)),
            degenerate=degenerate,
            ensemble_taus=taus,
            ensemble_msd=ens,
            n_segments=int(alphas.size),
        )
    return out


def labels_to_csv(labels, path) -> None:
    write_table(path, [
        ("start_idx", [lab.start_idx for lab in labels], "%d"),
        ("end_idx", [lab.end_idx for lab in labels], "%d"),
        ("gamma", [lab.gamma for lab in labels], "%.6f"),
        ("class", [lab.cls for lab in labels], "%s"),
        ("displacement_nm", [lab.displacement_nm for lab in labels], "%.6f"),
        ("alpha", ["" if lab.alpha is None else "%.6f" % lab.alpha for lab in labels], "%s")])


def labels_from_csv(path) -> list:
    _, cols = read_table(path, _LABEL_COLUMNS, text=("class", "alpha"))
    return [SegmentLabel(start_idx=int(start), end_idx=int(end), gamma=float(gamma), cls=cls,
                         displacement_nm=float(disp), alpha=None if alpha == "" else float(alpha))
            for start, end, gamma, cls, disp, alpha in zip(*cols)]
