"""Directed-motion detection via the directionality ratio.

A window of N steps is scored by gamma = displacement/path-length; under
Brownian motion gamma has an analytic null derived from a non-central t
distribution, and windows beyond its critical value mark candidate
directed transport. Surviving segments are classified and their
anomalous exponents summarized per motion class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rheology
from ._table import write_table
from .trajectory import Trajectory

__all__ = [
    "GammaNull",
    "SegmentLabel",
    "ClassStats",
    "ClassExponents",
    "gamma_null",
    "segment",
    "class_exponents",
    "labels_to_csv",
]

DEFAULT_WINDOW_STEPS = 75
DEFAULT_DIMS = 2
DEFAULT_CONFIDENCE = 0.95
DEFAULT_MIN_LENGTH_NM = 500.0
_NULL_GRID = 2048         # gamma points the null's pdf is tabulated on
_MIN_SEGMENT_POINTS = 8   # shortest span class_exponents fits


@dataclass
class GammaNull:
    """Analytic null of the directionality ratio for Brownian windows.

    The pdf is tabulated on first read, from the package's own non-central
    t density (`_nct_pdf`); the critical value needs only its quantile.
    """

    N: int                    # steps per window
    M: int                    # dimensions
    confidence: float
    mu_chi: float             # mean of the chi(M) step length
    sigma_chi: float          # sd of the chi(M) step length
    critical_gamma: float

    @cached_property
    def gammas(self) -> np.ndarray:
        """Tabulation grid on (0, 1]."""
        return np.linspace(1.0 / _NULL_GRID, 1.0, _NULL_GRID)

    @cached_property
    def pdf(self) -> np.ndarray:
        """f_gamma on the grid."""
        eta = np.sqrt(self.M) / (self.sigma_chi * self.gammas)
        nc = float(np.sqrt(self.N) * self.mu_chi / self.sigma_chi)
        pdf = np.sqrt(self.M) / (self.sigma_chi * self.gammas ** 2) * _nct_pdf(eta, self.M, nc)
        norm = float(np.trapezoid(pdf, self.gammas))
        if not 0.9 < norm < 1.1:
            raise RuntimeError(f"gamma null failed to normalize: integral {norm:.4f}")
        return pdf

    def pdf_at(self, g):
        return np.interp(g, self.gammas, self.pdf, left=0.0, right=0.0)


@cache
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], by Newton's method on P_n."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(4):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_erfc = np.vectorize(math.erfc, otypes=[float])


def _nct_cdf(t: float, df: int, nc: float) -> float:
    """P(T <= t) for the non-central t T = (Z + nc) / (X / sqrt(df)), with Z
    standard normal and X chi-distributed with df = 1, 2 or 3, by 96-point
    Gauss-Legendre over whichever of Z and X the integrand is smoother in."""
    x, w = _gauss_legendre(96)
    r = math.sqrt(df)
    c = 2.0 ** (1.0 - 0.5 * df) / math.gamma(0.5 * df)  # X has pdf c s^(df-1) exp(-s^2/2)
    if t >= r:
        # P(Z + nc <= 0) plus the integral over u = Z + nc > 0 of P(X >= r u / t),
        # which changes on a scale t / r >= 1 of the normal's
        lo = max(0.0, nc - 12.0)
        half = 0.5 * (nc + 12.0 - lo)
        u = half * (x + 1.0) + lo
        s = r / t * u
        sf = c * s ** (df - 2) * np.exp(-0.5 * s * s) if df > 1 else 0.0
        if df % 2:
            sf = sf + _erfc(s / math.sqrt(2.0))
        g = np.exp(-0.5 * (u - nc) ** 2) * sf
        return 0.5 * math.erfc(nc / math.sqrt(2.0)) + half / math.sqrt(2.0 * math.pi) * float(w @ g)
    # the integral over X = s of P(Z <= t s / r - nc), which changes on a scale
    # r / |t|; below t = -r the range shrinks with that scale
    half = 6.0 * r / max(r, -t)
    s = half * (x + 1.0)
    g = c * s ** (df - 1) * np.exp(-0.5 * s * s) * _erfc((nc - t / r * s) / math.sqrt(2.0))
    return 0.5 * half * float(w @ g)


def _nct_sf(t: float, df: int, nc: float) -> float:
    """P(T > t) for the non-central t of `_nct_cdf`, as the integral over
    X = s of P(Z > t s / r - nc) rather than 1 - P(T <= t), so that a tail
    far below the CDF's round-off keeps its relative accuracy. For t > 0
    that probability falls from 1 to 0 within 12 / q of s = nc / q, q = t / r:
    96-point Gauss-Legendre runs on each side of where the fall begins, up
    to s = 12, past which X has no mass that counts."""
    x, w = _gauss_legendre(96)
    r = math.sqrt(df)
    c = 2.0 ** (1.0 - 0.5 * df) / math.gamma(0.5 * df)
    q = t / r
    cut, end = (min(max(nc + d, 0.0) / q, 12.0) if q > 0 else 12.0 for d in (-12.0, 12.0))
    total = 0.0
    for lo, hi in ((0.0, cut), (cut, end)):
        half = 0.5 * (hi - lo)
        s = half * (x + 1.0) + lo
        g = c * s ** (df - 1) * np.exp(-0.5 * s * s) * _erfc((q * s - nc) / math.sqrt(2.0))
        total += 0.5 * half * float(w @ g)
    return total


def _nct_pdf(t: np.ndarray, df: int, nc: float) -> np.ndarray:
    """Density at each of `t` of the non-central t of `_nct_cdf`: the
    integral over X = s of f_X(s) (s / r) phi(t s / r - nc), by 96-point
    Gauss-Legendre. The integrand peaks at the s* that solves
    (1 + q^2) s^2 - q nc s - df = 0, q = t / r, and its log has curvature
    -(1 + q^2 + df / s*^2) there; the window spans 12 of the widths that
    curvature gives on each side of s*, clipped at 0."""
    x, w = _gauss_legendre(96)
    r = math.sqrt(df)
    c = 2.0 ** (1.0 - 0.5 * df) / math.gamma(0.5 * df)
    q = t[:, None] / r
    a = 1.0 + q * q
    peak = (q * nc + np.sqrt((q * nc) ** 2 + 4.0 * df * a)) / (2.0 * a)
    width = 1.0 / np.sqrt(a + df / (peak * peak))
    lo = np.maximum(peak - 12.0 * width, 0.0)
    half = 0.5 * (peak + 12.0 * width - lo)
    s = half * (x + 1.0) + lo
    g = c / r * s ** df * np.exp(-0.5 * s * s - 0.5 * (q * s - nc) ** 2)
    return half[:, 0] / math.sqrt(2.0 * math.pi) * (g @ w)


def _nct_ppf(p: float, df: int, nc: float) -> float:
    """The t with P(T <= t) = p for the non-central t of `_nct_cdf`, by the
    Illinois variant of regula falsi to the last representable step. Above
    p = 0.5 it solves P(T > t) = 1 - p instead, where 1 - p is exact."""
    if p == 1.0:  # no finite t leaves a tail of 0
        return math.inf

    def f(t):
        return _nct_cdf(t, df, nc) - p if p <= 0.5 else 1.0 - p - _nct_sf(t, df, nc)

    a, fa = 0.0, f(0.0)
    b = -math.copysign(max(nc, 1.0), fa)  # towards the root from 0
    fb = f(b)
    while fa * fb > 0:  # double outwards until the root is bracketed
        if math.isinf(b):  # p is 0 or 1 to within the CDF's rounding
            return b
        a, fa, b = b, fb, 2.0 * b
        fb = f(b)
    while True:
        t = (a * fb - b * fa) / (fb - fa)
        if not min(a, b) < t < max(a, b):
            return a if abs(fa) < abs(fb) else b
        ft = f(t)
        if ft * fb < 0:
            a, fa = b, fb
        else:  # the end kept twice in a row has its value halved
            fa *= 0.5
        b, fb = t, ft


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
    mu = np.sqrt(2.0) * math.gamma(0.5 * (M + 1)) / math.gamma(0.5 * M)
    sigma = np.sqrt(M - mu * mu)
    nc = np.sqrt(N) * mu / sigma

    # large gamma corresponds to the lower tail of eta
    eta_c = _nct_ppf(1.0 - confidence, M, float(nc))
    crit = float(np.sqrt(M) / (sigma * eta_c))
    return GammaNull(N=N, M=M, confidence=confidence, mu_chi=float(mu),
                     sigma_chi=float(sigma), critical_gamma=crit)


def _window_gammas(pos: np.ndarray, n_steps: int) -> np.ndarray:
    """Directionality ratio of every stride-1 window of `n_steps` steps.

    gamma_i = |pos[i + n_steps] - pos[i]| divided by the summed length of
    the n_steps steps between them; a window with no path length scores NaN.
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


def class_exponents(traj: Trajectory, labels) -> ClassExponents:
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
            curve = rheology.msd(sub, axes="xy", lags=lags, variance="none",
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
