import os
import pathlib
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import welch
from scipy.special import gamma as gamma_fn

from ndsense import media, rheology
from ndsense._table import read_table
from ndsense.constants import _NM_SCALE, BOLTZMANN_J_PER_K
from ndsense.seeding import substream
from ndsense.trajectory import Trajectory

from _oracles import (
    ensemble_msd_variance,
    laplace_modulus,
    naive_cov_variance,
    naive_msd,
    naive_printed_variance,
    reference_axis_var,
)
from test_golden import PINNED_WITH


def random_walk(n=300, dt=0.1, seed=0, scale=10.0):
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.normal(0, scale, size=(n, 3)), axis=0)
    return Trajectory(dt=dt, points=pts)


def power_law_curve(alpha=0.6, K=2e3, n=30):
    taus = np.logspace(-2, 0, n)
    vals = 4.0 * K * taus ** alpha  # 2D MSD
    return rheology.MsdCurve(taus=taus, msd=vals, var=np.zeros(n), dims="xy",
                             n_samples=np.full(n, 1000), dt=taus[0],
                             meta={"noise_floor_nm2": 0.0})


# ------------------------------------------------------------------- MSD

def test_msd_matches_naive():
    traj = random_walk(n=200, seed=3)
    lags = [1, 3, 7]
    curve = rheology.msd(traj, axes="xy", lags=lags, noise_floor_nm2=0.0)
    for j, lag in enumerate(lags):
        expected = (naive_msd(traj.points[:, 0], lag)
                    + naive_msd(traj.points[:, 1], lag))
        assert curve.msd[j] == pytest.approx(expected, rel=1e-12)
        assert curve.n_samples[j] == 200 - lag
        assert curve.taus[j] == pytest.approx(lag * traj.dt)


def test_msd_variance_forms_match_naive():
    traj = random_walk(n=150, seed=4)
    x = traj.points[:, 0]
    for lag in (1, 2, 5):
        xi = x[lag:] - x[:-lag]
        cov = rheology.msd(traj, axes="x", lags=[lag], variance="cov",
                           noise_floor_nm2=0.0)
        assert cov.var[0] == pytest.approx(naive_cov_variance(xi, lag), rel=1e-10)


@st.composite
def walks_and_lags(draw, to_half=False):
    """A Gaussian random walk of 2..2,000 points, possibly drifting, and a
    random lag set that always holds the last lag, n - 1; with `to_half`,
    lags up to n/2 only, always holding 1 and n // 2."""
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    drift = draw(st.sampled_from([0.0, 0.2, 5.0]))
    pts = np.cumsum(scale * rng.normal(drift, 1.0, size=(n, 3)), axis=0)
    top = n // 2 if to_half else n - 1
    lags = draw(st.lists(st.integers(1, top), max_size=8))
    ends = (1, top) if to_half else (top,)
    return Trajectory(dt=0.01, points=pts), sorted({*lags, *ends})


def fft_msd(traj, lags, variance):
    """`msd` on x, asserting its RuntimeWarning wherever a lag is above N/2."""
    above_half = 2 * max(lags) > traj.points.shape[0]
    with pytest.warns(RuntimeWarning, match="above half") if above_half else nullcontext():
        return rheology.msd(traj, axes="x", lags=lags, variance=variance,
                            noise_floor_nm2=0.0)


@settings(max_examples=100, deadline=None)
@given(case=walks_and_lags())
def test_fft_msd_matches_naive(case):
    traj, lags = case
    x = traj.points[:, 0]
    n = x.size
    curve = fft_msd(traj, lags, variance="none")
    energy = float(np.sum((x - x.mean()) ** 2))
    for lag, got in zip(lags, curve.msd):
        want = naive_msd(x, lag)
        if lag <= max(n // 4, 1):  # the default lag grid's range
            assert got == pytest.approx(want, rel=1e-12)
        # FFT round-off scales with the whole axis, not with the few pairs
        # left near lag n - 1
        assert abs(got - want) <= 1e-13 * energy / (n - lag)


@settings(max_examples=100, deadline=None)
@given(case=walks_and_lags())
def test_fft_cov_variance_matches_naive(case):
    traj, lags = case
    x = traj.points[:, 0]
    curve = fft_msd(traj, lags, variance="cov")
    for lag, got in zip(lags, curve.var):
        assert got == pytest.approx(naive_cov_variance(x[lag:] - x[:-lag], lag),
                                    rel=1e-10)


@settings(max_examples=100, deadline=None)
@given(case=walks_and_lags(to_half=True))
def test_cov_variance_up_to_half_matches_naive(case):
    # lags up to N/2 take their variance from the steps' autocorrelation;
    # lag 1 has no end terms, lag N // 2 the largest
    traj, lags = case
    x = traj.points[:, 0]
    curve = rheology.msd(traj, axes="x", lags=lags, variance="cov", noise_floor_nm2=0.0)
    for lag, got in zip(lags, curve.var):
        assert got == pytest.approx(naive_cov_variance(x[lag:] - x[:-lag], lag),
                                    rel=1e-12)


@pytest.mark.parametrize("n", [300, 301])
def test_cov_variance_straddling_half(n):
    traj = random_walk(n=n, seed=n)
    x = traj.points[:, 0]
    lags = [1, 2, 7, n // 2 - 1, n // 2, n // 2 + 1, n // 2 + 2, n - 2, n - 1]
    with pytest.warns(RuntimeWarning, match=f"lag {n - 1} is above half") as record:
        curve = rheology.msd(traj, axes="x", lags=lags, variance="cov", noise_floor_nm2=0.0)
    assert len(record) == 1
    for lag, got in zip(lags, curve.var):
        assert got == pytest.approx(naive_cov_variance(x[lag:] - x[:-lag], lag),
                                    rel=1e-12)
    # the lags up to N/2 warn nothing and do not depend on the lags above
    low = rheology.msd(traj, axes="x", lags=lags[:5], variance="cov", noise_floor_nm2=0.0)
    np.testing.assert_array_equal(low.var, curve.var[:5])


@st.composite
def walks_and_lag_runs(draw):
    """A Gaussian random walk of 2..2,000 points on 1-3 axes, and lags in up
    to four runs of up to 40 consecutive lags, with or without the five lags
    around N/2, and with or without a leading run 1..L for L up to 400, so
    that a run may stop at the closed form's cap of 295."""
    n = draw(st.integers(2, 2000))
    axes = draw(st.sampled_from(["x", "z", "xy", "yz", "xyz"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    drift = draw(st.sampled_from([0.0, 0.2, 5.0]))
    pts = np.cumsum(scale * rng.normal(drift, 1.0, size=(n, 3)), axis=0)
    lags = {1}
    for start, length in draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(1, 40)),
                                       max_size=4)):
        lags.update(range(start, min(start + length, n)))
    if draw(st.booleans()):
        lags.update(m for m in range(n // 2 - 2, n // 2 + 3) if 1 <= m < n)
    if draw(st.booleans()):
        lags.update(range(1, draw(st.integers(1, min(n - 1, 400))) + 1))
    return Trajectory(dt=0.01, points=pts), axes, np.array(sorted(lags))


@settings(max_examples=100, deadline=None)
@given(case=walks_and_lag_runs())
@example(case=(random_walk(n=1001, seed=30), "xyz", np.arange(1, 401)))  # the CLI's 400 lags
def test_cov_variance_equals_per_axis_kernel_bitwise(case):
    # outside the leading run of lags 1..h that takes the closed form, the
    # variance shares each lag's transform pair across axes, but its bits
    # are those of one axis and one lag at a time, added in axis order
    traj, axes, lags = case
    n = traj.points.shape[0]
    above_half = 2 * lags[-1] > n
    with pytest.warns(RuntimeWarning, match="above half") if above_half else nullcontext():
        curve = rheology.msd(traj, axes=axes, lags=lags, variance="cov", noise_floor_nm2=0.0)
    want = np.zeros(lags.size)
    for a in axes:
        want += reference_axis_var(traj.points[:, "xyz".index(a)], lags)
    h = rheology._run_length(lags, n)
    np.testing.assert_array_equal(curve.var[h:], want[h:])


@st.composite
def walks_and_leading_runs(draw):
    """A Gaussian random walk of 4..2,000 points on three axes, drawn as
    `walks_and_lag_runs` draws one, offset by 0 or 1e6, and the lags 1..h
    for h in 2..min(N // 2, 295), with or without up to four later lags that
    leave the run as it is."""
    n = draw(st.integers(4, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    drift = draw(st.sampled_from([0.0, 0.2, 5.0]))
    offset = draw(st.sampled_from([0.0, 1e6]))
    pts = offset + np.cumsum(scale * rng.normal(drift, 1.0, size=(n, 3)), axis=0)
    h = draw(st.integers(2, min(n // 2, rheology._RUN_MAX)))
    later = draw(st.lists(st.integers(h + 2, n - 1), max_size=4)) if h + 2 < n else []
    return Trajectory(dt=0.01, points=pts), h, np.array(sorted({*range(1, h + 1), *later}))


@settings(max_examples=20, deadline=None)
@given(case=walks_and_leading_runs())
def test_cov_variance_of_the_leading_run_matches_naive(case):
    # lags 1..h take their variance in closed form from the steps'
    # autocorrelation and a prefix table per end; each axis has the same bits
    # alone as in a call on all three
    traj, h, lags = case
    n = traj.points.shape[0]
    assert rheology._run_length(lags, n) == h
    above_half = 2 * lags[-1] > n
    curves = {}
    for axes in ("xyz", "x", "y", "z"):
        with pytest.warns(RuntimeWarning, match="above half") if above_half else nullcontext():
            curves[axes] = rheology.msd(traj, axes=axes, lags=lags, variance="cov",
                                        noise_floor_nm2=0.0)
    np.testing.assert_array_equal(curves["xyz"].var,
                                  curves["x"].var + curves["y"].var + curves["z"].var)
    for a, x in zip("xyz", traj.points.T):
        for lag, got in zip(lags[:h].tolist(), curves[a].var[:h]):
            assert got == pytest.approx(naive_cov_variance(x[lag:] - x[:-lag], lag),
                                        rel=1e-12)


def test_cov_variance_memory_stays_within_its_groups():
    # every lag up to N/2 of a 2,000-point walk on three axes: the closed-form
    # run of lags 1..295 takes its tables and sums for as many axes at a time
    # as fit in _GROUP_FLOATS entries, and each later lag's transform pair
    # holds 16 rows of at most 3,000 entries, so the variance's working
    # memory stays within about 4 arrays of _GROUP_FLOATS entries
    traj = random_walk(n=2000, seed=9)
    lags = np.arange(1, 1001)
    peaks = {}
    for variance in ("none", "cov"):
        tracemalloc.start()
        try:
            rheology.msd(traj, axes="xyz", lags=lags, variance=variance)
            peaks[variance] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["cov"] < peaks["none"] + 4 * 8 * rheology._GROUP_FLOATS


def test_msd_printed_form_biased_high():
    # the literal mean-of-squared-products estimator overshoots the
    # covariance form at multi-sample lags
    traj = random_walk(n=2000, seed=5)
    lags = [5, 10, 20]
    cov = rheology.msd(traj, axes="xy", lags=lags, variance="cov",
                       noise_floor_nm2=0.0)
    printed = [sum(naive_printed_variance(x[lag:] - x[:-lag], lag)
                   for x in traj.points[:, :2].T) for lag in lags]
    assert (np.array(printed) > 1.5 * cov.var).all()


def test_msd_noise_floor():
    rng = np.random.default_rng(6)
    pts = rng.normal(0, 1.0, size=(500, 3))  # static emitter, ~nm jitter
    traj = Trajectory(dt=0.01, points=pts)
    curve = rheology.msd(traj, axes="xy", lags=[1, 2, 4], noise_floor_nm2=100.0)
    # MSD of order 4 nm^2 sits below the floor, so the error saturates
    assert (curve.msd < 100.0).all()
    np.testing.assert_allclose(curve.var, 100.0 ** 2)
    assert curve.meta["floored"].all()
    free = rheology.msd(traj, axes="xy", lags=[1, 2, 4], noise_floor_nm2=0.0)
    assert (free.var < 100.0 ** 2).all()


def test_msd_validation():
    traj = random_walk(n=50)
    with pytest.raises(ValueError):
        rheology.msd(traj, lags=[])
    with pytest.raises(ValueError):
        rheology.msd(traj, lags=[0, 1])
    with pytest.raises(ValueError):
        rheology.msd(traj, lags=[50])
    with pytest.raises(ValueError):
        rheology.msd(traj, lags=[1], variance="bogus")


@pytest.mark.parametrize("lags, message", [
    ([1.5, 2.7], "lag 1.5 is not a whole number"),
    ([True, 2], "lag True is not a whole number"),
    (np.array([1.0, np.nan]), "lag nan is not a whole number"),
    (["3"], "lag '3' is not a whole number"),
    ([[1, 2], [3, 4]], r"lags must be a 1-D sequence, got shape \(2, 2\)"),
    (4, r"lags must be a 1-D sequence, got shape \(\)"),
    ([2 ** 63], "lag 9223372036854775808 >= trajectory length 50"),
    ([1e20], "lag 100000000000000000000 >= trajectory length 50"),
    (np.array([1e20]), "lag 100000000000000000000 >= trajectory length 50"),
])
@pytest.mark.filterwarnings("error")
def test_msd_rejects_lags_that_are_not_whole_numbers(lags, message):
    with pytest.raises(ValueError, match=message):
        rheology.msd(random_walk(n=50), lags=lags)


def test_msd_takes_whole_numbers_of_any_numeric_type_as_lags():
    curve = rheology.msd(random_walk(n=50), lags=[1, 2.0, np.float64(3.0), np.int32(4)])
    np.testing.assert_array_equal(curve.n_samples, [49, 48, 47, 46])


@pytest.mark.filterwarnings("error")
def test_msd_warns_on_lags_above_half_length():
    traj = random_walk(n=200, seed=6)
    with pytest.warns(RuntimeWarning, match="above half the trajectory length 200"):
        rheology.msd(traj, lags=[1, 199])
    rheology.msd(traj, lags=[1, 50])
    rheology.msd(traj, lags=[100])


def test_msd_axes_sum():
    traj = random_walk(n=120, seed=7)
    lags = [1, 5]
    xy = rheology.msd(traj, axes="xy", lags=lags, noise_floor_nm2=0.0)
    x = rheology.msd(traj, axes="x", lags=lags, noise_floor_nm2=0.0)
    y = rheology.msd(traj, axes="y", lags=lags, noise_floor_nm2=0.0)
    np.testing.assert_allclose(xy.msd, x.msd + y.msd, rtol=1e-12)


# prints the MSD and variance bits of eight 30,000-point walks: the drift fit
# of each axis and the variance at lag 12,000 take dot products of over
# 10,000 entries, which OpenBLAS splits across its threads
_MSD_BITS = """
import numpy as np
from ndsense import rheology
from ndsense.trajectory import Trajectory
for seed in range(8):
    pts = np.cumsum(np.random.default_rng(seed).normal(0.0, 10.0, (30_000, 3)), axis=0)
    curve = rheology.msd(Trajectory(dt=0.01, points=pts), "xyz", lags=[1, 100, 12_000],
                         noise_floor_nm2=0.0)
    print(curve.msd.tobytes().hex(), curve.var.tobytes().hex())
"""

# prints the shift and sigma bits of a 3-row fit on a 20,000-point grid, whose
# row dot products are of over 10,000 entries
_FIT_SHIFTS_BITS = """
import numpy as np
from ndsense import odmr
freqs = odmr.default_grid(n_points=20_000)
shape = odmr.default_lineshape()
counts = odmr.synthesize_scan(shape, 10.0, np.array([[0.0], [2e5], [-5e5]]), 0, freqs)
delta_f, _, sigma, _ = odmr.fit_shifts(counts, freqs, shape)
print(delta_f.tobytes().hex(), sigma.tobytes().hex())
"""


@pytest.mark.parametrize("program, n_lines", [(_MSD_BITS, 8), (_FIT_SHIFTS_BITS, 1)],
                         ids=["msd", "fit_shifts"])
def test_msd_bits_do_not_follow_blas_threads(program, n_lines):
    src = str(pathlib.Path(rheology.__file__).resolve().parents[1])
    runs = [subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONPATH=src,
                                                OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
    assert runs[0].count("\n") == n_lines
    assert runs[0] == runs[1]


@pytest.mark.parametrize("dt", [0.1, np.float64(0.1)], ids=["float", "numpy-float64"])
def test_msd_csv_roundtrip(tmp_path, dt):
    traj = random_walk(n=100, dt=dt, seed=8)
    curve = rheology.msd(traj, axes="xy", lags=[1, 2, 4, 8])
    path = tmp_path / "msd.csv"
    curve.to_csv(path)
    meta, (taus, msd, _, k) = read_table(path, ("tau_s", "msd_nm2", "var_nm4", "k"))
    np.testing.assert_allclose(taus, curve.taus, rtol=1e-5)
    np.testing.assert_allclose(msd, curve.msd, rtol=1e-5)
    assert meta["dims"] == "xy"
    assert float(meta["dt_s"]) == pytest.approx(curve.dt)
    np.testing.assert_array_equal(k, curve.n_samples)


def test_ensemble_variance_agrees_with_cov_estimator():
    D, dt, n = 1e4, 9.6e-3, 2000
    lags = [1, 2, 5, 10, 20, 50, 100]
    trajs = [media.simulate_brownian(D, n, dt, seed=substream(31, "medium", i))
             for i in range(50)]
    taus, _, ens_var = ensemble_msd_variance(trajs, axes="xy", lags=lags)
    pred = np.mean([rheology.msd(t, axes="xy", lags=lags, variance="cov",
                                 noise_floor_nm2=0.0).var for t in trajs], axis=0)
    ratio = pred / ens_var
    assert (ratio > 0.6).all() and (ratio < 1.6).all()


# ------------------------------------------------------------------ fits

def test_fit_diffusion_exact():
    D = 3e4
    taus = np.arange(1, 20) * 0.01
    curve = rheology.MsdCurve(taus=taus, msd=4 * D * taus, var=np.ones_like(taus),
                              dims="xy", n_samples=np.full(taus.size, 100),
                              dt=0.01, meta={"noise_floor_nm2": 0.0})
    fit = rheology.fit_diffusion(curve, through_origin=True)
    assert fit.D == pytest.approx(D, rel=1e-12)
    assert not fit.below_floor

    # a constant offset must not bias the free-intercept route
    shifted = rheology.MsdCurve(taus=taus, msd=4 * D * taus + 500.0,
                                var=np.ones_like(taus), dims="xy",
                                n_samples=np.full(taus.size, 100), dt=0.01,
                                meta={"noise_floor_nm2": 0.0})
    free = rheology.fit_diffusion(shifted, through_origin=False)
    assert free.D == pytest.approx(D, rel=1e-12)
    pinned = rheology.fit_diffusion(shifted, through_origin=True)
    assert pinned.D > 1.01 * D  # offset leaks into the pinned slope


def test_fit_diffusion_brownian_recovery():
    D, dt = 1e4, 9.6e-3
    traj = media.simulate_brownian(D, 20000, dt, seed=substream(13, "medium"))
    curve = rheology.msd(traj, axes="xy", lags=np.arange(1, 51),
                         noise_floor_nm2=0.0)
    fit = rheology.fit_diffusion(curve, through_origin=False)
    assert fit.D == pytest.approx(D, rel=0.05)
    assert fit.sigma > 0


def test_fit_diffusion_below_floor():
    taus = np.arange(1, 10) * 0.01
    curve = rheology.MsdCurve(taus=taus, msd=np.full(taus.size, 30.0),
                              var=np.full(taus.size, 1e4), dims="xy",
                              n_samples=np.full(taus.size, 50), dt=0.01,
                              meta={"noise_floor_nm2": 100.0})
    fit = rheology.fit_diffusion(curve, through_origin=False)
    assert fit.below_floor


def test_fit_diffusion_validation():
    curve = power_law_curve()
    with pytest.raises(ValueError):
        rheology.fit_diffusion(curve, fit_range=(100.0, 200.0))


def test_anomalous_exponent_exact_and_noisy():
    curve = power_law_curve(alpha=0.6)
    fit = rheology.anomalous_exponent(curve)
    assert fit.alpha == pytest.approx(0.6, abs=1e-12)

    model = media.ViscoelasticModel(alpha=0.6, K_alpha=2e3)
    traj = media.simulate_viscoelastic(model, 20000, 9.6e-3,
                                       seed=substream(17, "medium"))
    meas = rheology.msd(traj, axes="xy", lags=np.arange(1, 40),
                        noise_floor_nm2=0.0)
    noisy = rheology.anomalous_exponent(meas)
    assert noisy.alpha == pytest.approx(0.6, abs=0.1)

    short = power_law_curve(n=3)
    with pytest.raises(ValueError):
        rheology.anomalous_exponent(short)


# --------------------------------------------------------------- modulus

def test_complex_modulus_power_law_closed_form():
    alpha, K, T_K, r_nm = 0.6, 2e3, 308.15, 28.0
    curve = power_law_curve(alpha=alpha, K=K)
    mod = rheology.complex_modulus(curve, T_K, r_nm)
    kbt = BOLTZMANN_J_PER_K * T_K
    expect = kbt * 1e27 / (np.pi * r_nm * (4 * K * (1 / mod.freqs) ** alpha)
                           * gamma_fn(1 + alpha))
    np.testing.assert_allclose(mod.G_abs, expect, rtol=1e-9)
    np.testing.assert_allclose(mod.alpha_local, alpha, atol=1e-9)
    np.testing.assert_allclose(mod.delta, np.pi * alpha / 2, atol=1e-9)
    np.testing.assert_allclose(mod.G_prime / mod.G_dprime,
                               1.0 / np.tan(np.pi * alpha / 2), rtol=1e-9)
    assert not mod.flagged.any()
    assert (np.diff(mod.freqs) > 0).all()


def test_complex_modulus_flags_unphysical_slope():
    taus = np.logspace(-2, 0, 20)
    vals = 1e4 / taus  # decreasing MSD: slope -1
    curve = rheology.MsdCurve(taus=taus, msd=vals, var=np.zeros(20), dims="xy",
                              n_samples=np.full(20, 100), dt=taus[0])
    mod = rheology.complex_modulus(curve, 300.0, 28.0)
    assert mod.flagged.all()
    assert mod.alpha_local[5] == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("alpha", [-1.0, -2.0, 171.0, np.nan])
def test_modulus_gamma_equals_scipy_at_poles_and_overflow(alpha):
    # Gamma(0) = inf, a negative integer gives NaN, Gamma(172) overflows to inf
    np.testing.assert_array_equal(rheology._gamma(1.0 + alpha), gamma_fn(1.0 + alpha))


def test_complex_modulus_gamma_matches_scipy():
    rng = np.random.default_rng(11)
    alpha = rng.uniform(-0.99, 2.0, 20000)
    alpha[-1] = 2.0
    ours = np.array([rheology._gamma(1.0 + a) for a in alpha.tolist()])
    np.testing.assert_allclose(ours, gamma_fn(1.0 + alpha), rtol=2e-15, atol=0)
    # and complex_modulus divides by it at each lag's local slope
    taus = np.logspace(-2, 1, 40)
    curve = rheology.MsdCurve(taus=taus, msd=np.exp(rng.uniform(5, 6, 40)) * taus,
                              var=np.zeros(40), dims="xy", n_samples=np.full(40, 100),
                              dt=taus[0])
    mod = rheology.complex_modulus(curve, 300.0, 28.0)
    scale = BOLTZMANN_J_PER_K * 300.0 * _NM_SCALE / (np.pi * 28.0)
    want = scale / (curve.msd * gamma_fn(1.0 + np.gradient(np.log(curve.msd), np.log(taus))))
    np.testing.assert_allclose(mod.G_abs, want[::-1], rtol=4e-15, atol=0)


def test_next_fast_len_equals_scipy():
    from scipy.fft import next_fast_len

    assert [rheology._next_fast_len(n) for n in range(1, 70001)] == [
        next_fast_len(n, real=True) for n in range(1, 70001)]


def test_complex_modulus_validation():
    curve3 = rheology.MsdCurve(taus=[0.1, 0.2], msd=[1.0, 2.0], var=[0, 0],
                               dims="xyz", n_samples=[10, 10], dt=0.1)
    with pytest.raises(ValueError, match="2D"):
        rheology.complex_modulus(curve3, 300.0, 28.0)
    curve = power_law_curve()
    with pytest.raises(ValueError):
        rheology.complex_modulus(curve, -1.0, 28.0)


def test_mason_shortcut_matches_laplace_oracle():
    # dual-route check: local power-law shortcut versus the numerical
    # transform; exact for a pure power law up to quadrature error
    for alpha in (0.4, 1.0, 1.6):
        curve = power_law_curve(alpha=alpha, K=3e3)
        mod = rheology.complex_modulus(curve, 308.15, 28.0)
        oracle = laplace_modulus(curve.taus, curve.msd, 308.15, 28.0)
        # oracle grid is in tau order = descending frequency
        np.testing.assert_allclose(mod.G_abs[::-1], oracle, rtol=0.02)


# ------------------------------------------------------------------- PSD

def test_psd_white_noise_level():
    rng = np.random.default_rng(23)
    sigma, dt = 5.0, 0.01
    pts = rng.normal(0, sigma, size=(8000, 3))
    traj = Trajectory(dt=dt, points=pts)
    spec = rheology.psd(traj, axes="xy", window_s=10.0)
    # two uncorrelated axes, one-sided density 2*sigma^2*dt each
    band = (spec.freqs > 5) & (spec.freqs < 40)
    assert spec.values[band].mean() == pytest.approx(2 * 2 * sigma ** 2 * dt,
                                                     rel=0.1)
    df = spec.freqs[1] - spec.freqs[0]
    assert np.sum(spec.values) * df == pytest.approx(2 * sigma ** 2, rel=0.1)


def test_psd_sine_peak():
    dt, f0, amp = 0.005, 12.0, 40.0
    t = dt * np.arange(20000)
    pts = np.zeros((20000, 3))
    pts[:, 0] = amp * np.sin(2 * np.pi * f0 * t)
    traj = Trajectory(dt=dt, points=pts)
    spec = rheology.psd(traj, axes="x", window_s=20.0)
    peak = spec.freqs[np.argmax(spec.values)]
    assert peak == pytest.approx(f0, abs=spec.freqs[1] - spec.freqs[0])


def test_psd_validation():
    traj = random_walk(n=100, dt=0.01)
    with pytest.raises(ValueError):
        rheology.psd(traj, window_s=0.02)  # too few samples per window
    with pytest.raises(ValueError):
        rheology.psd(traj, window_s=10.0)  # longer than the trajectory
    short = random_walk(n=120, dt=0.01)
    with pytest.raises(ValueError):
        rheology.psd(short, window_s=1.0)  # less than two overlapping windows


# (points, dt, window_s): nperseg 2880 as in the golden and rheo runs, odd
# windows, and lengths that leave a partial hop at the end
WELCH_SHAPES = [(30000, 0.01, 28.8), (30000, 0.01, 28.81), (1001, 0.1, 6.3),
                (500, 0.1, 0.5), (777, 0.01, 1.0), (6250, 0.0096, 28.8)]


@pytest.mark.parametrize("n, dt, window_s", WELCH_SHAPES)
def test_psd_equals_scipy_welch(n, dt, window_s):
    traj = random_walk(n=n, dt=dt, seed=n)
    spec = rheology.psd(traj, axes="xyz", window_s=window_s)
    nperseg = int(round(window_s / dt))
    assert n % (nperseg - nperseg // 2) != 0
    (freqs, px), (_, py), (_, pz) = (
        welch(traj.points[:, a], fs=1.0 / dt, nperseg=nperseg, detrend="constant")
        for a in range(3))
    want = px + py + pz
    # bit for bit on the versions the golden hashes were taken with
    pinned = f"numpy {np.__version__} / scipy {scipy.__version__}" == PINNED_WITH
    rtol = 0.0 if pinned else 1e-12
    np.testing.assert_allclose(spec.freqs, freqs, rtol=rtol, atol=0.0)
    np.testing.assert_allclose(spec.values, want, rtol=rtol, atol=0.0)


def test_psd_value_at_loglog():
    spec = rheology.PsdCurve(freqs=np.array([1.0, 10.0, 100.0]),
                             values=np.array([1.0, 10.0, 100.0]))
    assert spec.value_at(31.6227766) == pytest.approx(31.6227766, rel=1e-6)


# ------------------------------------------------------------ force balance

def equilibrium_psd_and_modulus(seed=41, n=60000, dt=4.8e-3):
    T_C, r_nm = 35.0, 28.0
    eta = media.viscosity_at(media.GLYCEROL_MODEL, T_C)
    D = media.stokes_einstein_D(T_C + 273.15, r_nm, eta)
    traj = media.simulate_brownian(D, n, dt, seed=substream(seed, "medium"))
    curve = rheology.msd(traj, axes="xy", variance="none", noise_floor_nm2=0.0)
    mod = rheology.complex_modulus(curve, T_C + 273.15, r_nm)
    spec = rheology.psd(traj, axes="xy", window_s=28.8)
    return spec, mod, r_nm, T_C + 273.15


def test_equilibrium_external_force_small():
    spec, mod, r_nm, T_K = equilibrium_psd_and_modulus()
    force = rheology.external_force_spectrum(spec, mod, r_nm, T_K)
    band = (force.omegas > 2 * np.pi * 2) & (force.omegas < 2 * np.pi * 15)
    resid = np.median(np.abs(force.external_raw[band]))
    therm = np.median(force.thermal[band])
    assert resid / therm < 0.3
    # clipping bookkeeping: external is the raw density with negatives zeroed
    np.testing.assert_array_equal(force.clipped, force.external_raw < 0)
    np.testing.assert_allclose(force.external,
                               np.where(force.clipped, 0.0, force.external_raw))


def test_external_force_grid_overlap_error():
    spec, mod, r_nm, T_K = equilibrium_psd_and_modulus()
    hi_only = rheology.ComplexModulus(
        freqs=mod.freqs + 1e5, G_abs=mod.G_abs, G_prime=mod.G_prime,
        G_dprime=mod.G_dprime, alpha_local=mod.alpha_local, delta=mod.delta,
        flagged=mod.flagged)
    with pytest.raises(ValueError):
        rheology.external_force_spectrum(spec, hi_only, r_nm, T_K)


# ---------------------------------------------------------- radius fitting

def test_fit_hydrodynamic_radius_exact():
    r_true = 28.0
    temps = [36.0, 38.0, 40.0, 42.0, 44.0]
    pairs = []
    for T in temps:
        eta = media.viscosity_at(media.GLYCEROL_MODEL, T)
        pairs.append((T, media.stokes_einstein_D(T + 273.15, r_true, eta)))
    fit = rheology.fit_hydrodynamic_radius(pairs, media.GLYCEROL_MODEL,
                                           sigma_D=[1.0] * len(pairs))
    assert fit.r_nm == pytest.approx(r_true, rel=1e-9)


def test_fit_hydrodynamic_radius_noisy():
    rng = np.random.default_rng(47)
    r_true = 28.0
    temps = np.linspace(36, 46, 8)
    pairs, sig = [], []
    for T in temps:
        eta = media.viscosity_at(media.GLYCEROL_MODEL, float(T))
        d = media.stokes_einstein_D(T + 273.15, r_true, eta)
        pairs.append((float(T), d * (1 + 0.02 * rng.standard_normal())))
        sig.append(0.02 * d)
    fit = rheology.fit_hydrodynamic_radius(pairs, media.GLYCEROL_MODEL, sigma_D=sig)
    assert fit.sigma_nm > 0
    assert abs(fit.r_nm - r_true) < 4 * fit.sigma_nm
