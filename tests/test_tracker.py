import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndsense import media, tracker
from ndsense.seeding import substream
from ndsense.trajectory import Trajectory

from _oracles import reference_fit_orbit, reference_track


CFG = tracker.TrackerConfig()


def static_truth(duration=10.0):
    return Trajectory(dt=duration, points=np.zeros((2, 3)))


def test_config_derived_quantities():
    assert CFG.eps_xy == pytest.approx(260.0 ** 2 / (4 * 50.0))  # 338 nm
    assert CFG.eps_z == pytest.approx(200.0 ** 2 / (4 * 200.0))  # 50 nm
    assert CFG.samples_per_orbit == 960
    assert CFG.samples_per_bin == 120
    assert CFG.lock_attenuation == pytest.approx(
        np.exp(-2 * 50.0 ** 2 / 260.0 ** 2) * np.exp(-2.0), rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        tracker.TrackerConfig(R_xy=-1.0)
    with pytest.raises(ValueError):
        tracker.TrackerConfig(G=1.5)
    with pytest.raises(ValueError):
        tracker.TrackerConfig(n_bins=1)
    with pytest.raises(ValueError):
        tracker.TrackerConfig(T_orbit=9.605e-3)  # non-integer ticks
    with pytest.raises(ValueError):
        tracker.TrackerConfig(n_bins=7)  # 960 ticks don't split into 7 bins


def test_fit_orbit_recovers_pure_harmonic():
    # the orbit fit inside the oracle behind
    # test_noise_free_track_matches_reference_loop
    i0, delta, phi = 500.0, 0.12, 0.8
    theta = 2 * np.pi * (np.arange(8) + 0.5) / 8
    counts = i0 * (1 + delta * np.cos(theta - phi))
    fit = reference_fit_orbit(counts / 2, counts / 2)
    np.testing.assert_allclose(fit[:3], (i0, delta, phi), rtol=1e-12)
    assert fit[3] == pytest.approx(0.0, abs=1e-12)


def test_fit_orbit_axial_ratio_sign():
    ones = np.full(8, 100.0)
    assert reference_fit_orbit(ones, 3 * ones)[3] == pytest.approx(0.5)


def test_fit_orbit_rejects_dark_frame():
    zeros = np.zeros(8)
    assert reference_fit_orbit(zeros, zeros) is None


def test_correction_singularity():
    # G = 1 leaves the top plane dark, so every lit orbit has r = 1
    cfg = tracker.TrackerConfig(G=1.0)
    with pytest.raises(ValueError, match="singular"):
        tracker.track(static_truth(duration=0.1), cfg, 1e6, seed=0)


def test_noise_free_loop_converges_on_static_emitter():
    truth = static_truth(duration=1.0)
    est, diag = tracker.track(truth, CFG, 1e6, seed=0,
                              initial_offset=(40.0, -25.0, 30.0),
                              shot_noise=False)
    assert diag.residual_nm[-1] < 1.0
    assert not diag.lock_lost
    assert diag.locked.all()


def test_track_timing_and_determinism():
    truth = media.simulate_brownian(1e3, 200, 9.6e-3,
                                    seed=substream(2, "medium"), t0=1.0)
    est, diag = tracker.track(truth, CFG, 1e6, seed=substream(2, "tracker-photons"))
    n_orbits = int(truth.duration / CFG.T_orbit)
    assert len(est) == n_orbits
    assert est.dt == CFG.T_orbit
    assert est.t0 == pytest.approx(truth.t0 + CFG.T_orbit)
    assert diag.times[0] == pytest.approx(truth.t0 + CFG.T_orbit)

    est2, _ = tracker.track(truth, CFG, 1e6, seed=substream(2, "tracker-photons"))
    np.testing.assert_array_equal(est.points, est2.points)


def test_track_validation():
    truth = static_truth()
    with pytest.raises(ValueError):
        tracker.track(truth, CFG, 0.0, seed=0)
    blip = Trajectory(dt=1e-3, points=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shorter"):
        tracker.track(blip, CFG, 1e6, seed=0)


def test_track_survives_dark_orbits():
    # sub-1-count rates produce empty frames; the loop must hold position
    # instead of raising
    truth = static_truth(duration=2.0)
    est, diag = tracker.track(truth, CFG, 20.0, seed=7,
                              initial_offset=(10.0, 0.0, 0.0))
    assert np.isfinite(est.points).all()
    assert len(est) == int(2.0 / CFG.T_orbit)
    # each dark orbit is counted and leaves the center where it was
    assert diag.n_dark > 0
    held = (np.diff(est.points, axis=0) == 0).all(axis=1).sum()
    assert held >= diag.n_dark - 1
    _, bright = tracker.track(truth, CFG, 2e6, seed=7,
                              initial_offset=(10.0, 0.0, 0.0))
    assert bright.n_dark == 0


def test_modulation_scale_invariance():
    # the sinusoid fit is normalized, so a uniform rate rescaling leaves
    # the noise-free feedback loop unchanged
    truth = static_truth(duration=1.0)
    kw = dict(initial_offset=(30.0, 10.0, -20.0), shot_noise=False)
    est_full, _ = tracker.track(truth, CFG, 1e6, seed=0, **kw)
    est_half, _ = tracker.track(truth, CFG, 1e6, seed=0,
                                modulation=lambda t: 0.5 * np.ones_like(t), **kw)
    np.testing.assert_allclose(est_half.points, est_full.points, atol=1e-9)



def wobbling_truth(n_orbits, t0=0.3):
    """Smooth 3D motion sampled at 1 ms, lasting just over n_orbits orbits."""
    n = int((n_orbits + 0.5) * CFG.T_orbit / 1e-3) + 1
    t = t0 + 1e-3 * np.arange(n)
    pts = np.column_stack([40.0 * np.sin(2 * np.pi * t / 0.7) + 25.0 * t,
                           30.0 * np.cos(2 * np.pi * t / 0.45),
                           20.0 * np.sin(2 * np.pi * t / 0.9)])
    return Trajectory(dt=1e-3, points=pts, t0=t0)


def square_dimming(t):
    # dims half the ticks, switching every 1.85 ms: inside angular bins
    # (1.2 ms each) and at a different phase in every orbit
    return np.where(np.sin(2 * np.pi * t / 3.7e-3) > 0, 1.0, 0.35)


@pytest.mark.parametrize("cfg, modulation", [
    (CFG, None),
    (CFG, square_dimming),
    (tracker.TrackerConfig(G=0.2, gain=0.8), square_dimming),
], ids=["plain", "dimmed", "imbalanced-dimmed"])
def test_noise_free_track_matches_reference_loop(cfg, modulation):
    # several blocks of the chunked loop plus a partial last one
    n_orbits = 2 * tracker._BLOCK_ORBITS + 23
    truth = wobbling_truth(n_orbits)
    kw = dict(modulation=modulation, initial_offset=(25.0, -15.0, 20.0))
    est, diag = tracker.track(truth, cfg, 1e6, seed=0, shot_noise=False, **kw)
    want = reference_track(truth, cfg, 1e6, **kw)
    assert len(est) == n_orbits
    assert diag.n_dark == 0
    np.testing.assert_allclose(est.points, want, rtol=0, atol=1e-9)


# (sample period in s, number of samples) of a truth that lasts n orbits or a
# little longer; "static" is two equal samples
TRUTH_GRIDS = {
    "orbit": lambda n: (CFG.T_orbit, n + 1),
    "2.5-orbits": lambda n: (2.5 * CFG.T_orbit, int(np.ceil(n / 2.5)) + 1),
    "1-ms": lambda n: (1e-3, int(np.ceil(n * CFG.T_orbit / 1e-3)) + 1),
    "static": lambda n: ((n + 0.5) * CFG.T_orbit, 2),
}


@pytest.mark.parametrize("grid", sorted(TRUTH_GRIDS))
@pytest.mark.parametrize("dimmed, G", [(False, 0.0), (True, 0.0), (False, 0.25), (True, -0.4)],
                         ids=["plain", "dimmed", "imbalanced", "imbalanced-dimmed"])
@settings(max_examples=8, deadline=None)
@given(n_orbits=st.integers(2, 12), t0=st.floats(1e-3, 50.0),
       origin=st.floats(-2000.0, 2000.0), seed=st.integers(0, 2**32 - 1))
def test_noise_free_track_matches_reference_on_any_truth_grid(grid, dimmed, G, n_orbits, t0,
                                                              origin, seed):
    # sample knots on orbit starts, inside some orbits, several per orbit,
    # or none at all, far from the origin and at any start time
    dt, n = TRUTH_GRIDS[grid](n_orbits)
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 12.0 * np.sqrt(dt / CFG.T_orbit), (n, 3))
    if grid == "static":
        steps[1] = 0.0
    truth = Trajectory(dt=dt, points=origin + np.cumsum(steps, axis=0), t0=t0)
    cfg = tracker.TrackerConfig(G=G)
    kw = dict(modulation=square_dimming if dimmed else None,
              initial_offset=tuple(rng.uniform(-30.0, 30.0, 3)))
    est, _ = tracker.track(truth, cfg, 1e6, seed=0, shot_noise=False, **kw)
    want = reference_track(truth, cfg, 1e6, **kw)
    assert est.points.shape == want.shape
    np.testing.assert_allclose(est.points, want, rtol=0, atol=1e-9)


def test_per_bin_draws_match_per_tick_mean_counts():
    # the tracker draws one Poisson count per bin from the summed per-tick
    # rates; summing per-tick draws must give the same mean counts per bin
    S, nb, reps = CFG.samples_per_orbit, CFG.n_bins, 400
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # per-tick means from 1e-3 to 10 counts, some ticks dimmed to zero
        lam = 10.0 ** rng.uniform(-3.0, 1.0, S) * (rng.random(S) > 0.1)
        per_tick = rng.poisson(lam, size=(reps, S)).reshape(reps, nb, -1).sum(axis=2)
        per_bin = rng.poisson(lam.reshape(nb, -1).sum(axis=1), size=(reps, nb))
        diff = per_tick.mean(axis=0) - per_bin.mean(axis=0)
        se = np.sqrt((per_tick.var(axis=0, ddof=1) + per_bin.var(axis=0, ddof=1)) / reps)
        z = diff / se
        assert np.abs(z).max() < 4.0, (seed, z)

def test_localization_noise_scales_with_brightness():
    rows = tracker.static_benchmark([1e5, 1e6], CFG,
                                    seed=substream(5, "tracker-photons"),
                                    n_updates=500)
    assert rows[0].counts_per_update == pytest.approx(2 * 1e5 * CFG.T_orbit)
    # shot-noise-limited: tenfold brightness cuts RMS by sqrt(10)
    ratio = rows[0].rms_error_nm / rows[1].rms_error_nm
    assert ratio == pytest.approx(np.sqrt(10.0), rel=0.3)
    for row in rows:
        assert row.apparent_D_xy == pytest.approx(
            row.msd1_xy_nm2 / (4 * CFG.T_orbit))


def test_noise_free_benchmark_row():
    rows = tracker.static_benchmark([np.inf], CFG, seed=0, n_updates=200)
    assert np.isinf(rows[0].counts_per_update)
    assert rows[0].rms_error_nm < 1e-6


def test_lock_loss_on_fast_diffusion():
    truth = media.simulate_brownian(5e5, 200, CFG.T_orbit,
                                    seed=substream(19, "medium"))
    est, diag = tracker.track(truth, CFG, 2e6,
                              seed=substream(19, "tracker-photons"))
    assert diag.lock_lost
    assert diag.lock_lost_at >= 0
    assert not diag.locked[diag.lock_lost_at]
    # loss is declared at the fifth update of the first run of five unlocked
    run, first = 0, -1
    for k, ok in enumerate(diag.locked):
        run = 0 if ok else run + 1
        if run == 5:
            first = k
            break
    assert diag.lock_lost_at == first
    truth_at_updates = np.array([[np.interp(t, truth.times, truth.points[:, i])
                                  for i in range(3)] for t in diag.times])
    want = [np.linalg.norm(p - q) for p, q in zip(est.points, truth_at_updates)]
    assert np.array_equal(diag.residual_nm, want)


def test_diagnostics_csv(tmp_path):
    truth = static_truth(duration=0.5)
    _, diag = tracker.track(truth, CFG, 1e5, seed=3)
    path = tmp_path / "diag.csv"
    diag.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t_s,err_nm,locked"
    assert len(lines) == 1 + len(diag.times)
