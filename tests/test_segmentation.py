import csv

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.special import nctdtrit
from scipy.stats import chi as chi_dist
from scipy.stats import nct

from ndsense import media, segmentation
from ndsense.seeding import substream
from ndsense.trajectory import Trajectory

from _oracles import (mc_directionality_null, mp_nct_pdf, mp_nct_ppf, mp_nct_tail,
                      reference_gamma)


NULL = segmentation.gamma_null(75, 2, 0.95)


def test_null_chi_moments_match_scipy():
    assert NULL.mu_chi == pytest.approx(chi_dist(2).mean(), rel=1e-12)
    assert NULL.sigma_chi == pytest.approx(chi_dist(2).std(), rel=1e-12)


def test_null_critical_value_frozen():
    assert NULL.critical_gamma == pytest.approx(0.22759, abs=2e-4)
    assert NULL.N == 75 and NULL.M == 2


def test_null_pdf_normalizes():
    integral = np.trapezoid(NULL.pdf, NULL.gammas)
    assert integral == pytest.approx(1.0, abs=2e-3)
    assert NULL.pdf_at(np.array([-0.5, 1.5])).tolist() == [0.0, 0.0]
    assert NULL.pdf_at(0.1) > 0


def test_null_critical_grows_for_short_windows():
    short = segmentation.gamma_null(25, 2, 0.95)
    assert short.critical_gamma > NULL.critical_gamma


def test_null_matches_monte_carlo():
    rng = np.random.default_rng(7)
    draws = mc_directionality_null(75, 4000, rng)
    # tail probability at the analytic critical value
    fpr = float((draws > NULL.critical_gamma).mean())
    assert fpr == pytest.approx(0.05, abs=0.015)
    # distribution bulk: analytic mean vs Monte Carlo mean
    grid_mean = np.trapezoid(NULL.gammas * NULL.pdf, NULL.gammas)
    assert draws.mean() == pytest.approx(grid_mean, rel=0.05)


@pytest.mark.parametrize("N", [2, 20, 75, 150])
@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
def test_null_critical_value_equals_nct_ppf(N, M, confidence):
    mu = np.sqrt(2.0) * gamma_fn(0.5 * (M + 1)) / gamma_fn(0.5 * M)
    sigma = np.sqrt(M - mu * mu)
    eta_c = float(nct(df=M, nc=np.sqrt(N) * mu / sigma).ppf(1.0 - confidence))
    want = float(np.sqrt(M) / (sigma * eta_c))
    # the package's own quantile cannot reproduce scipy's last-bit rounding
    assert segmentation.gamma_null(N, M, confidence).critical_gamma == pytest.approx(
        want, rel=1e-12)


_NCT_N = sorted({*range(2, 21), *np.geomspace(2, 1e5, 40).astype(int).tolist()})
# below 0.5 the quantile solves on the upper tail
_NCT_CONFIDENCE = (1e-6, 1e-4, 0.001, 0.01, 0.1, 0.25, 0.4,
                   0.5, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999, 0.9995, 0.9999)
# nctdtrit's own error at N = 5, M = 1, 99.99% is 1.0e-12 (against a 25-digit
# mpmath quantile of the same integrals, to which the package's is within 6e-16)
_NCTDTRIT_OFF = {(1, 5, 0.9999): 1.1e-12}


@pytest.mark.parametrize("M", [1, 2, 3])
def test_nct_quantile_matches_nctdtrit(M):
    mu = np.sqrt(2.0) * gamma_fn(0.5 * (M + 1)) / gamma_fn(0.5 * M)
    sigma = np.sqrt(M - mu * mu)
    off, negative = [], 0
    for N in _NCT_N:
        nc = float(np.sqrt(N) * mu / sigma)
        for confidence in _NCT_CONFIDENCE:
            want = float(nctdtrit(M, nc, 1.0 - confidence))
            got = segmentation._nct_ppf(1.0 - confidence, M, nc)
            negative += want < 0
            if abs(got - want) > _NCTDTRIT_OFF.get((M, N, confidence), 1e-12) * abs(want):
                off.append((N, confidence, got, want))
    assert not off
    assert negative  # short windows at high confidence have a negative quantile


@pytest.mark.parametrize("M", [1, 2, 3])
def test_nct_quantile_near_one_matches_mpmath(M):
    # 1 - p far below the CDF's round-off, where nctdtrit was never checked
    with mp.workdps(30):
        for nc in (5.0, 30.0):
            for p in (1 - 1e-9, 1 - 1e-12, 1 - 1e-15):
                got = segmentation._nct_ppf(p, M, nc)
                want = mp_nct_ppf(p, M, nc, start=got)
                assert abs(got - want) <= 1e-9 * want, (nc, p)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_nct_tails_match_scipy_or_mpmath(M):
    # both tails at t below -sqrt(M), in [-sqrt(M), sqrt(M)), at 0 and from
    # sqrt(M) out past the bulk: scipy's to 1e-12 relative where scipy's exceeds
    # 1e-250 and agrees, and elsewhere mpmath's quadrature at 30 digits to 1e-12
    # relative (scipy's lower tail at t < 0 is 1e-8 to 1e-6 off at nc = 5, and
    # orders of magnitude off further out). A lower tail under 1e-18 is held to
    # 1e-18 absolute only: the quadrature stops at X = 12 and does not resolve
    # the integrand where the normal probability is far out in its own tail,
    # and the quantile never solves for a lower tail under 2^-53
    r = np.sqrt(M)
    off = []
    for nc in (1.0, 5.0, 30.0, 120.0, 600.0):
        ts = r * np.array([-30.0, -3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0, 0.3 * nc, nc, 3.0 * nc])
        tails = {u: np.array([segmentation._nct_tail(t, M, nc, u) for t in ts])
                 for u in (False, True)}
        assert np.abs(tails[False] + tails[True] - 1.0).max() <= 1e-14
        for upper, scipy_tail in ((False, nct.cdf), (True, nct.sf)):
            want = scipy_tail(ts, M, nc)
            for t, got, w in zip(ts.tolist(), tails[upper].tolist(), want.tolist()):
                if w > 1e-250 and abs(got - w) <= 1e-12 * w:
                    continue
                with mp.workdps(30):
                    w = float(mp_nct_tail(t, M, nc, upper))
                if not abs(got - w) <= 1e-12 * w + (1e-300 if upper else 1e-18):
                    off.append((nc, t, upper, got, w))
    assert not off


@pytest.mark.parametrize("N", [2, 10, 75, 500, 2000])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_nct_pdf_matches_scipy_or_mpmath(N, M):
    # the density under the null's pdf at every grid point: scipy's to 1e-12
    # relative where scipy's exceeds 1e-250, and elsewhere (scipy's 0, or
    # scipy 5.7e-9 off at N = 2000, M = 3) the 1F1 closed form at 40 digits,
    # to 1e-12 relative down to an absolute 1e-300
    null = segmentation.gamma_null(N, M)
    eta = np.sqrt(M) / (null.sigma_chi * null.gammas)
    nc = float(np.sqrt(N) * null.mu_chi / null.sigma_chi)
    got = segmentation._nct_pdf(eta, M, nc)
    want = nct.pdf(eta, M, nc)
    agree = (want > 1e-250) & (np.abs(got - want) <= 1e-12 * want)
    with mp.workdps(40):
        off = [(eta[i], got[i], mp_nct_pdf(eta[i], M, nc)) for i in np.flatnonzero(~agree)]
    assert not [o for o in off if not abs(o[1] - o[2]) <= 1e-12 * o[2] + 1e-300]
    assert agree.mean() > 0.5


def test_null_with_negative_quantile():
    # the lower 0.1% of eta lies below 0 for a 2-step window in 2 dims, so the
    # critical gamma is negative: a threshold that flags every window
    null = segmentation.gamma_null(2, 2, 0.999)
    nc = np.sqrt(2) * null.mu_chi / null.sigma_chi
    eta_c = float(nctdtrit(2, nc, 0.001))
    assert eta_c == pytest.approx(-0.52, abs=0.01)
    assert null.critical_gamma == pytest.approx(np.sqrt(2) / (null.sigma_chi * eta_c),
                                                rel=1e-12)
    assert null.critical_gamma == pytest.approx(-4.14, abs=0.01)


def test_null_at_a_confidence_that_rounds_p_to_one():
    # 1 - 1e-20 is 1.0: the quantile is +inf, as nctdtrit gives, and the
    # critical gamma 0
    assert segmentation.gamma_null(75, 2, 1e-20).critical_gamma == 0.0


def test_null_pdf_check_raises_on_read():
    # a 2-step window's pdf puts too little mass on (0, 1] to pass the check;
    # only reading the pdf runs it
    null = segmentation.gamma_null(2, 2)
    with pytest.raises(RuntimeError, match="failed to normalize"):
        null.pdf


def test_null_validation():
    with pytest.raises(ValueError):
        segmentation.gamma_null(1, 2)
    with pytest.raises(ValueError):
        segmentation.gamma_null(75, 4)
    with pytest.raises(ValueError):
        segmentation.gamma_null(75, 2, confidence=1.0)


def test_directionality_ratio():
    # one window spanning the whole path, from the package and the oracle
    line = np.column_stack([np.arange(10.0), np.zeros(10)])
    assert segmentation._window_gammas(line, 9).tolist() == [1.0]
    assert reference_gamma(line) == pytest.approx(1.0)
    frozen = np.zeros((5, 2))
    assert np.isnan(segmentation._window_gammas(frozen, 4)).all()
    assert np.isnan(reference_gamma(frozen))
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.standard_normal((76, 2)), axis=0)
    g = segmentation._window_gammas(walk, 75)
    assert g.shape == (1,)
    assert 0.0 < g[0] < 1.0
    with pytest.raises(ValueError):
        segmentation._window_gammas(np.zeros((1, 2)), 1)


def test_window_gammas_match_directionality_ratio_bit_for_bit():
    # a walk with a directed run and a frozen stretch of 100 positions:
    # the 25 windows inside it have no path length and score NaN
    pos = brownian_with_run(seed=29, n=1500, start=600, duration=200).axis("xy")
    pos[1000:1100] = pos[1000]
    n_w = NULL.N
    want = np.array([reference_gamma(pos[i:i + n_w + 1]) for i in range(len(pos) - n_w)])
    got = segmentation._window_gammas(pos, n_w)
    assert np.isnan(want).sum() == 25
    assert np.array_equal(got, want, equal_nan=True)


def brownian_with_run(seed=11, n=3000, D=1e4, dt=9.6e-3,
                      start=2800, duration=200, speed=900.0):
    # the run sits at the end of the trajectory: positions after a
    # directed segment revert to the base walk, which would cancel the
    # net displacement a detector sees across the segment boundary
    traj = media.simulate_brownian(D, n, dt, seed=substream(seed, "medium"))
    spec = media.DirectedSegmentSpec(start=start, duration=duration,
                                     velocity=(speed / np.sqrt(2),
                                               speed / np.sqrt(2)))
    return media.inject_directed(traj, [spec])


def test_segment_pure_brownian_rarely_flags():
    traj = media.simulate_brownian(1e4, 3000, 9.6e-3,
                                   seed=substream(13, "medium"))
    labels = segmentation.segment(traj, NULL)
    directed = [l for l in labels if l.cls == "directed"]
    assert len(directed) <= 2  # isolated false alarms are possible


def test_segment_finds_injected_run():
    traj = brownian_with_run()
    labels = segmentation.segment(traj, NULL)
    directed = [l for l in labels if l.cls == "directed"]
    assert len(directed) >= 1
    # the dominant directed span overlaps the injected range
    span = max(directed, key=lambda l: l.displacement_nm)
    assert span.start_idx < 3000 and span.end_idx > 2800
    assert span.displacement_nm >= 500.0
    assert span.gamma > NULL.critical_gamma


def test_segment_labels_partition_trajectory():
    traj = brownian_with_run(seed=17)
    labels = segmentation.segment(traj, NULL)
    assert labels[0].start_idx == 0
    assert labels[-1].end_idx == len(traj) - 1
    for a, b in zip(labels[:-1], labels[1:]):
        assert a.end_idx == b.start_idx


_NULLS = {n_w: segmentation.gamma_null(n_w, 2, 0.95) for n_w in (5, 20, 75)}


@st.composite
def walks_with_runs(draw):
    """A 2-D Gaussian walk with random directed runs and frozen stretches,
    a window length N and a displacement gate."""
    n_w = draw(st.sampled_from(sorted(_NULLS)))
    n = draw(st.integers(n_w + 1, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.normal(0.0, 10.0, size=(n - 1, 2))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 2))
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        speed = draw(st.sampled_from([5.0, 20.0, 60.0]))
        steps[start:start + draw(st.integers(1, 300))] += \
            speed * np.array([np.cos(angle), np.sin(angle)])
    pos = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, n - 1))
        pos[start:start + draw(st.integers(1, 200))] = pos[start]
    points = np.column_stack([pos, np.zeros(n)])
    return (Trajectory(dt=0.01, points=points), _NULLS[n_w],
            draw(st.sampled_from([0.0, 100.0, 500.0])))


@settings(max_examples=150, deadline=None)
@given(case=walks_with_runs())
def test_segment_labels_tile_and_directed_spans_pass_both_gates(case):
    traj, null, min_length = case
    pos = traj.axis("xy")
    labels = segmentation.segment(traj, null, min_length_nm=min_length)
    assert labels[0].start_idx == 0
    assert labels[-1].end_idx == len(traj) - 1
    for a, b in zip(labels[:-1], labels[1:]):
        assert a.end_idx == b.start_idx
    for lab in labels:
        assert lab.end_idx > lab.start_idx
        if lab.cls != "directed":
            continue
        assert lab.displacement_nm >= min_length
        windows = [reference_gamma(pos[i:i + null.N + 1])
                   for i in range(lab.start_idx, lab.end_idx - null.N + 1)]
        assert max(g for g in windows if np.isfinite(g)) > null.critical_gamma


def test_segment_displacement_gate():
    # strong anisotropy but tiny net displacement: a slow run shorter
    # than the gate must stay non-directed
    traj = brownian_with_run(seed=19, D=2e2, duration=100, speed=300.0)
    spans = segmentation.segment(traj, NULL, min_length_nm=1e9)
    assert all(l.cls == "non-directed" for l in spans)


def test_segment_validation():
    traj = media.simulate_brownian(1e4, 50, 9.6e-3, seed=0)
    with pytest.raises(ValueError, match="shorter"):
        segmentation.segment(traj, NULL)
    with pytest.raises(ValueError, match="dims"):
        segmentation.segment(brownian_with_run(), NULL, axes="xyz")


def test_class_exponents():
    traj = brownian_with_run(seed=23)
    labels = segmentation.segment(traj, NULL)
    result = segmentation.class_exponents(traj, labels)
    assert "non-directed" in result.classes
    free = result.classes["non-directed"]
    assert free.mean == pytest.approx(1.0, abs=0.3)
    if "directed" in result.classes:
        run = result.classes["directed"]
        assert run.mean > 1.3
        assert run.ensemble_msd.size == run.ensemble_taus.size
        if run.n_segments == 1:
            assert run.degenerate and run.sd == 0.0


def test_class_exponents_skips_short_segments():
    traj = media.simulate_brownian(1e4, 200, 9.6e-3, seed=substream(29, "medium"))
    tiny = [segmentation.SegmentLabel(0, 3, 0.1, "directed", 10.0),
            segmentation.SegmentLabel(3, 199, 0.1, "non-directed", 10.0)]
    result = segmentation.class_exponents(traj, tiny)
    assert "directed" not in result.classes
    assert any("directed" in n for n in result.notices)


def test_labels_csv_roundtrip(tmp_path):
    traj = brownian_with_run(seed=31)
    labels = segmentation.segment(traj, NULL)
    segmentation.class_exponents(traj, labels)  # fills alpha where possible
    path = tmp_path / "labels.csv"
    segmentation.labels_to_csv(labels, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(labels)
    for orig, rt in zip(labels, back):
        assert int(rt["start_idx"]) == orig.start_idx
        assert int(rt["end_idx"]) == orig.end_idx
        assert rt["class"] == orig.cls
        assert float(rt["displacement_nm"]) == pytest.approx(orig.displacement_nm, abs=1e-5)
        if orig.alpha is None:
            assert rt["alpha"] == ""
        else:
            assert float(rt["alpha"]) == pytest.approx(orig.alpha, abs=1e-5)
