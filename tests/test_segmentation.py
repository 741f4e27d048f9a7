import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi as chi_dist

from ndsense import media, segmentation
from ndsense.seeding import substream
from ndsense.trajectory import Trajectory

from _oracles import mc_directionality_null


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


def test_null_validation():
    with pytest.raises(ValueError):
        segmentation.gamma_null(1, 2)
    with pytest.raises(ValueError):
        segmentation.gamma_null(75, 4)
    with pytest.raises(ValueError):
        segmentation.gamma_null(75, 2, confidence=1.0)


def test_directionality_ratio():
    line = np.column_stack([np.arange(10.0), np.zeros(10)])
    assert segmentation.directionality_ratio(line) == pytest.approx(1.0)
    frozen = np.zeros((5, 2))
    assert np.isnan(segmentation.directionality_ratio(frozen))
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.standard_normal((76, 2)), axis=0)
    g = segmentation.directionality_ratio(walk)
    assert 0.0 < g < 1.0
    with pytest.raises(ValueError):
        segmentation.directionality_ratio(np.zeros((1, 2)))


def test_window_gammas_match_directionality_ratio_bit_for_bit():
    # a walk with a directed run and a frozen stretch of 100 positions:
    # the 25 windows inside it have no path length and score NaN
    pos = brownian_with_run(seed=29, n=1500, start=600, duration=200).axis("xy")
    pos[1000:1100] = pos[1000]
    n_w = NULL.N
    want = np.array([segmentation.directionality_ratio(pos[i:i + n_w + 1])
                     for i in range(len(pos) - n_w)])
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
        windows = [segmentation.directionality_ratio(pos[i:i + null.N + 1])
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
    back = segmentation.labels_from_csv(path)
    assert len(back) == len(labels)
    for orig, rt in zip(labels, back):
        assert rt.start_idx == orig.start_idx
        assert rt.end_idx == orig.end_idx
        assert rt.cls == orig.cls
        assert rt.displacement_nm == pytest.approx(orig.displacement_nm, abs=1e-5)
        if orig.alpha is not None:
            assert rt.alpha == pytest.approx(orig.alpha, abs=1e-5)
