import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from ndsense import media, rheology
from ndsense.constants import BOLTZMANN_J_PER_K
from ndsense.seeding import substream
from ndsense.trajectory import Trajectory

from _oracles import (
    laplace_modulus,
    naive_cov_variance,
    naive_msd,
    naive_printed_variance,
)


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
def walks_and_lags(draw):
    """A Gaussian random walk of 2..2,000 points, possibly drifting, and a
    random lag set that always holds the last lag, n - 1."""
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    drift = draw(st.sampled_from([0.0, 0.2, 5.0]))
    pts = np.cumsum(scale * rng.normal(drift, 1.0, size=(n, 3)), axis=0)
    lags = draw(st.lists(st.integers(1, n - 1), max_size=8))
    return Trajectory(dt=0.01, points=pts), sorted({*lags, n - 1})


@settings(max_examples=100, deadline=None)
@given(case=walks_and_lags())
def test_fft_msd_matches_naive(case):
    traj, lags = case
    x = traj.points[:, 0]
    n = x.size
    curve = rheology.msd(traj, axes="x", lags=lags, variance="none",
                         noise_floor_nm2=0.0)
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
    curve = rheology.msd(traj, axes="x", lags=lags, variance="cov",
                         noise_floor_nm2=0.0)
    for lag, got in zip(lags, curve.var):
        assert got == pytest.approx(naive_cov_variance(x[lag:] - x[:-lag], lag),
                                    rel=1e-10)


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


@pytest.mark.parametrize("dt", [0.1, np.float64(0.1)], ids=["float", "numpy-float64"])
def test_msd_csv_roundtrip(tmp_path, dt):
    traj = random_walk(n=100, dt=dt, seed=8)
    curve = rheology.msd(traj, axes="xy", lags=[1, 2, 4, 8])
    path = tmp_path / "msd.csv"
    curve.to_csv(path)
    back = rheology.MsdCurve.from_csv(path)
    np.testing.assert_allclose(back.taus, curve.taus, rtol=1e-5)
    np.testing.assert_allclose(back.msd, curve.msd, rtol=1e-5)
    assert back.dims == "xy"
    assert back.dt == pytest.approx(curve.dt)
    np.testing.assert_array_equal(back.n_samples, curve.n_samples)


def test_ensemble_variance_agrees_with_cov_estimator():
    D, dt, n = 1e4, 9.6e-3, 2000
    lags = [1, 2, 5, 10, 20, 50, 100]
    trajs = [media.simulate_brownian(D, n, dt, seed=substream(31, "medium", i))
             for i in range(50)]
    taus, _, ens_var = rheology.ensemble_msd_variance(trajs, axes="xy", lags=lags)
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

    one = rheology.fit_diffusion(curve, single_tau=0.05)
    assert one.D == pytest.approx(D, rel=1e-12)


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


def test_psd_value_at_loglog():
    spec = rheology.PsdCurve(freqs=np.array([1.0, 10.0, 100.0]),
                             values=np.array([1.0, 10.0, 100.0]),
                             axes="xy", window_s=1.0)
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
