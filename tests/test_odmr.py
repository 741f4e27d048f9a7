import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndsense import chip, odmr
from ndsense.odmr.sensitivity import _BLOCK_BINS
from ndsense.seeding import substream

from _oracles import fisher_sigma, lorentzian_pair, naive_allan, reference_fit_shift


SHAPE = odmr.default_lineshape()
GRID = odmr.default_grid()


# --------------------------------------------------------------- lineshape

def test_default_grid():
    assert GRID.size == 200
    assert GRID[0] == pytest.approx(2.87e9 - 40e6)
    assert GRID[-1] == pytest.approx(2.87e9 + 40e6)


def test_default_shape_parameters():
    assert SHAPE.kind == "double_lorentzian"
    assert SHAPE.centers[1] - SHAPE.centers[0] == pytest.approx(6e6)
    assert 0.5 * (SHAPE.centers[0] + SHAPE.centers[1]) == pytest.approx(2.87e9)
    assert SHAPE.contrasts == (0.1506, 0.1205)
    assert SHAPE.hwhms == (6e6, 6e6)


def test_double_lorentzian_matches_longhand():
    f = np.linspace(2.83e9, 2.91e9, 400)
    expected = lorentzian_pair(f, 2.87e9, 6e6, 6e6, 6e6,
                               SHAPE.contrasts[0], SHAPE.contrasts[1])
    np.testing.assert_allclose(SHAPE.value(f, 0.0), expected, rtol=1e-12)
    # a shift moves the whole profile rigidly
    np.testing.assert_allclose(SHAPE.value(f, 2e6),
                               lorentzian_pair(f, 2.87e9 + 2e6, 6e6, 6e6, 6e6,
                                               SHAPE.contrasts[0],
                                               SHAPE.contrasts[1]),
                               rtol=1e-12)


def test_lineshape_limits():
    far = SHAPE.value(np.array([2.0e9, 3.7e9]), 0.0)
    np.testing.assert_allclose(far, 1.0, atol=1e-3)
    dip = SHAPE.value(np.array([SHAPE.centers[0]]), 0.0)
    assert dip[0] < 1.0 - SHAPE.contrasts[0] + 0.05


def test_lineshape_validation():
    with pytest.raises(ValueError):
        odmr.Lineshape.single(2.87e9, contrast=1.2)
    with pytest.raises(ValueError):
        odmr.Lineshape.double(contrasts=(0.6, 0.6))
    with pytest.raises(ValueError):
        odmr.Lineshape.from_table(GRID, np.full(GRID.size, 2.0))
    with pytest.raises(ValueError):
        odmr.Lineshape(kind="bogus")


def test_derivative_matches_finite_difference():
    f = GRID
    h = 50.0
    numeric = (SHAPE.value(f + h) - SHAPE.value(f - h)) / (2 * h)
    np.testing.assert_allclose(SHAPE.derivative(f), numeric, rtol=1e-5,
                               atol=1e-15)


def test_table_lineshape_interp_and_edges():
    table = odmr.Lineshape.from_table(GRID, SHAPE.value(GRID, 0.0))
    inside = table.value(GRID[:5] + 100.0, 0.0)
    assert np.isfinite(inside).all()
    outside = table.value(np.array([GRID[0] - 5e6, GRID[-1] + 5e6]), 0.0)
    np.testing.assert_allclose(outside, 1.0)
    assert table.derivative(np.array([GRID[0] - 5e6]))[0] == 0.0
    mid = 0.5 * (GRID[3] + GRID[4])
    seg_slope = (table.table_L[4] - table.table_L[3]) / (GRID[4] - GRID[3])
    assert table.derivative(np.array([mid]))[0] == pytest.approx(seg_slope,
                                                                 rel=1e-9)


# -------------------------------------------------------------------- scan

def test_synthesize_scan_statistics():
    scan = odmr.synthesize_scan(SHAPE, 10.0, 0.0, substream(3, "odmr-photons"),
                                n_scans=20000)
    mu = 20000 * 10.0 * SHAPE.value(GRID, 0.0)
    np.testing.assert_allclose(scan.counts, mu, rtol=0.02)
    assert scan.n_scans == 20000
    assert not scan.meta.get("shift_outside_grid", False)

    wild = odmr.synthesize_scan(SHAPE, 10.0, 60e6, substream(3, "x"))
    assert wild.meta["shift_outside_grid"]


def test_build_interpolation_normalization():
    scan = odmr.synthesize_scan(SHAPE, 10.0, 0.0, substream(5, "odmr-photons"),
                                n_scans=50000)
    table = odmr.build_interpolation(scan)
    assert table.kind == "interpolation"
    assert table.table_L.max() <= 1.05
    # edge plateau normalizes to ~1
    assert table.table_L[:5].mean() == pytest.approx(1.0, abs=0.01)
    assert table.table_L.min() < 0.8


def test_fit_shift_recovers_truth():
    truth = -1.5e6
    scan = odmr.synthesize_scan(SHAPE, 10.0, truth, substream(7, "odmr-photons"),
                                n_scans=50000)
    fit = odmr.fit_shift(scan, SHAPE)
    bound = odmr.shift_bound_per_scan(SHAPE, 10.0) / np.sqrt(50000)
    assert fit.converged
    assert fit.delta_f == pytest.approx(truth, abs=4 * bound)
    assert fit.lam0 == pytest.approx(50000 * 10.0, rel=0.01)
    # reported uncertainty tracks the per-scan bound scaled by scan count
    assert fit.sigma_delta_f == pytest.approx(bound, rel=0.3)


def test_fit_shift_flags_boundary():
    scan = odmr.synthesize_scan(SHAPE, 10.0, 30e6, substream(9, "odmr-photons"),
                                n_scans=2000)
    fit = odmr.fit_shift(scan, SHAPE, max_shift=2e6)
    assert not fit.converged


TABLE = odmr.build_interpolation(
    odmr.synthesize_scan(SHAPE, 10.0, 0.0, substream(21, "table"), n_scans=2000))
FIT_SHAPES = {"double": SHAPE, "single": odmr.Lineshape.single(), "table": TABLE}


def _fit_fields(fits):
    """delta_f, lam0, sigma and converged arrays of scalar fit results."""
    return [np.array([getattr(f, name) for f in fits])
            for name in ("delta_f", "lam0", "sigma_delta_f", "converged")]


def _assert_bits_equal(got, want):
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@st.composite
def scan_batches(draw):
    """A stack of Poisson scans of one lineshape at random shifts, some
    outside the grid, with bright to nearly dark bins, and a search bound
    that is the default half-span or small enough to stop the search."""
    shape = FIT_SHAPES[draw(st.sampled_from(sorted(FIT_SHAPES)))]
    freqs = odmr.default_grid(n_points=draw(st.integers(8, 200)))
    shifts = draw(st.lists(st.floats(-70e6, 70e6), min_size=1, max_size=12))
    level = draw(st.sampled_from([0.01, 0.3, 10.0])) * draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.poisson(level * shape.value(freqs, np.array(shifts)[:, None]))
    max_shift = draw(st.one_of(st.none(), st.floats(0.0, 40e6)))
    return counts, freqs, shape, max_shift


@settings(max_examples=150, deadline=None)
@given(case=scan_batches())
def test_fit_shifts_matches_scalar_reference(case):
    counts, freqs, shape, max_shift = case
    got = odmr.fit_shifts(counts, freqs, shape, max_shift)
    _assert_bits_equal(got, _fit_fields([reference_fit_shift(
        odmr.OdmrScan(freqs, c), shape, max_shift) for c in counts]))


def test_fit_shifts_singular_lane():
    # a dark bin fits lam0 = 0, whose normal matrix is singular; the batched
    # inverse fails for the whole stack, so only that lane may lose its sigma
    rng = np.random.default_rng(5)
    counts = rng.poisson(1600.0 * SHAPE.value(GRID, np.array([0.0, 1e6, -2e6, 5e5])[:, None]))
    counts[2] = 0
    got = odmr.fit_shifts(counts, GRID, SHAPE)
    _assert_bits_equal(got, _fit_fields([reference_fit_shift(odmr.OdmrScan(GRID, c), SHAPE)
                                         for c in counts]))
    delta_f, lam0, sigma, converged = got
    assert sigma[2] == np.inf and not converged[2] and lam0[2] == 0.0
    assert np.isfinite(sigma[[0, 1, 3]]).all() and converged[[0, 1, 3]].all()


def test_average_shifts():
    fits = [odmr.FitShiftResult(10.0, 1000.0, 100.0, True),
            odmr.FitShiftResult(10.0, 3000.0, 100.0, True),
            odmr.FitShiftResult(10.0, 9e9, 100.0, False)]
    means, errs, n_excluded = odmr.average_shifts(fits, n_f=3)
    assert means.shape == (1,)
    assert means[0] == pytest.approx(2000.0)
    assert errs[0] == pytest.approx(1000.0)
    assert n_excluded == 1


def test_scan_csv_roundtrip(tmp_path):
    scans = [odmr.synthesize_scan(SHAPE, 10.0, 0.0, substream(4, "a"), n_scans=3),
             odmr.synthesize_scan(SHAPE, 10.0, 1e6, substream(4, "b"), n_scans=3)]
    path = tmp_path / "scans.csv"
    odmr.scans_to_csv(scans, path)
    back = odmr.scans_from_csv(path)
    assert len(back) == 2
    for orig, rt in zip(scans, back):
        np.testing.assert_allclose(rt.freqs, orig.freqs, rtol=1e-9)
        np.testing.assert_array_equal(rt.counts, orig.counts)
        assert rt.n_scans == orig.n_scans == 3
    # rows of one scan that disagree on n_scans are an error naming the line
    lines = path.read_text().splitlines()
    lines[5] = lines[5].removesuffix(",3") + ",4"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 6: n_scans"):
        odmr.scans_from_csv(path)


# -------------------------------------------------------------- CRB bounds

def test_crb_matches_independent_fisher():
    res = odmr.crb(SHAPE, 10.0, GRID)
    sig = fisher_sigma(GRID, lambda f: SHAPE.value(f, 0.0),
                       lambda f: SHAPE.derivative(f), 10.0)
    assert res.sigma("lam0") == pytest.approx(sig[0], rel=1e-9)
    assert res.sigma("delta_f") == pytest.approx(sig[1], rel=1e-9)


def test_crb_shape_parameter_columns():
    res = odmr.crb(SHAPE, 10.0, GRID,
                   params=("lam0", "delta_f", "hwhm1", "contrast1"))
    assert res.sigma("hwhm1") > 0
    # extra free parameters can only widen the shift bound
    base = odmr.crb(SHAPE, 10.0, GRID)
    assert res.sigma("delta_f") >= base.sigma("delta_f")


def test_crb_bare_parameter_names_mean_the_first_dip():
    bare = odmr.crb(SHAPE, 10.0, GRID, params=("lam0", "delta_f", "center", "hwhm"))
    first = odmr.crb(SHAPE, 10.0, GRID, params=("lam0", "delta_f", "center1", "hwhm1"))
    assert np.array_equal(bare.matrix, first.matrix)
    with pytest.raises(ValueError, match="unknown parameter"):
        odmr.crb(SHAPE, 10.0, GRID, params=("lam0", "width"))


@pytest.mark.parametrize("name", ["center0", "center3", "centerx", "hwhm12", "contrasts"])
def test_crb_rejects_malformed_parameter_names(name):
    # the default shape has two dips, so only indices 1 and 2 exist
    with pytest.raises(ValueError, match="unknown parameter"):
        odmr.crb(SHAPE, 10.0, GRID, params=("lam0", "delta_f", name))


def test_crb_singular_parameterization():
    single = odmr.Lineshape.single(2.87e9)
    # a rigid center shift and delta_f are indistinguishable
    with pytest.raises(np.linalg.LinAlgError):
        odmr.crb(single, 10.0, GRID, params=("delta_f", "center1"))


def test_shift_bound_per_scan_value():
    # frozen reference for the default photon budget and profile
    bound = odmr.shift_bound_per_scan(SHAPE, odmr.DEFAULT_PHOTON_BUDGET)
    assert bound == pytest.approx(2519714.8, rel=1e-4)


def test_scan_timing():
    gate = chip.DutyCycleSchedule()
    assert gate.scans_per_second(200) == 400
    assert gate.scans_per_second(100) == 800


def test_temperature_sensitivity_value():
    sens = odmr.crb_temperature_sensitivity(SHAPE, 10.0, -60.0)
    assert sens == pytest.approx(2.0998, abs=2e-3)
    # consistency with its own ingredients
    per_scan = odmr.shift_bound_per_scan(SHAPE, 10.0)
    rate = chip.DutyCycleSchedule().scans_per_second(200)
    manual = per_scan / np.sqrt(rate) / 60e3
    assert sens == pytest.approx(manual, rel=1e-9)


def test_sensitivity_scan_rate_follows_grid_length():
    # a 100-point sweep takes 1 ms, so the 0.16 s gate fits 160 of them per 0.2 s
    grid = odmr.default_grid(n_points=100)
    sens = odmr.crb_temperature_sensitivity(SHAPE, 10.0, -60.0, freqs=grid)
    per_scan = odmr.shift_bound_per_scan(SHAPE, 10.0, grid)
    assert sens == pytest.approx(per_scan / np.sqrt(800) / 60e3, rel=1e-12)


def test_sweep_longer_than_gate_is_rejected():
    # 20,000 ticks of 10 us take 0.2 s, more than the 0.16 s microwave gate
    grid = odmr.default_grid(n_points=20000)
    assert chip.DutyCycleSchedule().scans_per_second(len(grid)) == 0
    with pytest.raises(ValueError, match="does not fit in the 0.16 s microwave gate"):
        odmr.crb_temperature_sensitivity(SHAPE, 10.0, -60.0, freqs=grid)
    with pytest.raises(ValueError, match="does not fit in the 0.16 s microwave gate"):
        odmr.simulate_shift_series(SHAPE, 10.0, 8.0, 0, freqs=grid)


def test_lineshape_bound_comparison():
    ref = odmr.synthesize_scan(SHAPE, 10.0, 0.0, substream(11, "tbl"),
                               n_scans=100000)
    table = odmr.build_interpolation(ref)
    cmp = odmr.lineshape_bound_comparison(table, 10.0, -60.0)
    for val in (cmp.interpolation, cmp.double_lorentzian, cmp.single_lorentzian):
        assert 1.5 < val < 2.7
    split = cmp.double_shape.centers[1] - cmp.double_shape.centers[0]
    assert split == pytest.approx(6e6, rel=0.2)
    assert cmp.single_shape.kind == "single_lorentzian"


# ------------------------------------------------------------ shift series

def test_simulate_shift_series_static():
    series = odmr.simulate_shift_series(SHAPE, 10.0, 8.0,
                                        substream(13, "odmr-photons"))
    assert series.times.size == 20
    np.testing.assert_allclose(np.diff(series.times), 0.4)
    assert (series.sigma > 0).all()
    assert series.n_excluded == 0
    assert series.meta["scans_per_bin"] == 160
    se = series.delta_f.std() / np.sqrt(series.times.size)
    assert abs(series.delta_f.mean()) < 4 * se


def test_simulate_shift_series_tracks_drift():
    step = -2e6
    drift = lambda t: step * (t >= 12.0)
    series = odmr.simulate_shift_series(SHAPE, 10.0, 24.0,
                                        substream(15, "odmr-photons"),
                                        delta_f_of_t=drift, fit_shape=SHAPE)
    early = series.delta_f[series.times < 12.0].mean()
    late = series.delta_f[series.times >= 12.0].mean()
    assert late - early == pytest.approx(step, abs=1.5e5)
    np.testing.assert_allclose(series.meta["truth"],
                               np.where(series.times >= 12.0, step, 0.0))


def test_block_draws_match_per_bin_scans():
    # one synthesize_scan and one scalar fit per bin, all from one generator,
    # against the block draws and batched fits; the last block is partial
    n_bins = _BLOCK_BINS + 44
    drift = lambda t: -3e6 * np.sin(0.05 * t)
    series = odmr.simulate_shift_series(SHAPE, 10.0, 0.4 * n_bins,
                                        substream(17, "odmr-photons"),
                                        delta_f_of_t=drift)
    rng = substream(17, "odmr-photons")
    scans = [odmr.synthesize_scan(SHAPE, 10.0, drift(t), rng, n_scans=160)
             for t in 0.4 * np.arange(n_bins)]
    table = odmr.build_interpolation(scans)
    fits = [reference_fit_shift(s, table) for s in scans]
    assert series.times.size == n_bins and n_bins % _BLOCK_BINS
    delta_f, lam0, sigma, converged = _fit_fields(fits)
    _assert_bits_equal((series.delta_f, series.lam0, series.sigma), (delta_f, lam0, sigma))
    assert series.n_excluded == (~converged).sum()


@pytest.mark.filterwarnings("error")
def test_simulate_shift_series_emits_no_warning():
    # lanes that take a golden-section step still compute the masked
    # parabolic step p / q, where q can be 0; nearly dark bins have singular fits
    odmr.simulate_shift_series(SHAPE, 10.0, 40.0, substream(19, "odmr-photons"),
                               delta_f_of_t=lambda t: 1e6 * (t - 20.0))
    dim = odmr.simulate_shift_series(SHAPE, 1e-4, 40.0, substream(19, "dim"),
                                     fit_shape=SHAPE)
    assert dim.n_excluded > 0


# ------------------------------------------------------------------- Allan

def test_allan_matches_naive():
    rng = np.random.default_rng(17)
    x = np.cumsum(rng.standard_normal(200)) * 0.1 + rng.standard_normal(200)
    taus, adev = odmr.allan_deviation(x, 0.4, taus=[0.4, 0.8, 2.0])
    for tau, a in zip(taus, adev):
        m = int(round(tau / 0.4))
        assert a == pytest.approx(naive_allan(x, 0.4, m), rel=1e-12)


def test_allan_white_noise_slope():
    rng = np.random.default_rng(19)
    x = rng.standard_normal(3000)
    taus, adev = odmr.allan_deviation(x, 1.0)
    fit = np.polyfit(np.log(taus), np.log(adev), 1)
    assert fit[0] == pytest.approx(-0.5, abs=0.1)


def test_allan_validation():
    with pytest.raises(ValueError):
        odmr.allan_deviation(np.arange(100.0), 0.4, taus=[0.5])  # not a multiple
    with pytest.raises(ValueError):
        odmr.allan_deviation(np.arange(4.0), 0.4, taus=[4.0])  # beyond n/3


def test_allan_sensitivity():
    taus = np.array([1.0, 2.0, 4.0])
    adev = 3.0 / np.sqrt(taus)
    s = odmr.allan_sensitivity(taus, adev)
    assert s == pytest.approx(3.0, rel=1e-12)


# ------------------------------------------------------------------- kappa

def test_shift_to_temperature():
    cal = odmr.KappaCalibration(kappa_khz_per_C=-60.0, sigma_khz_per_C=0.4)
    dT, sig = odmr.shift_to_temperature(-60e3, cal, sigma_delta_f_hz=6e3)
    assert dT == pytest.approx(1.0)
    # quadrature of read noise and calibration uncertainty
    expect = np.hypot(6e3 / 60e3, 1.0 * 0.4 / 60.0)
    assert sig == pytest.approx(expect, rel=1e-9)
    with pytest.raises(ValueError):
        odmr.KappaCalibration(kappa_khz_per_C=0.0, sigma_khz_per_C=0.4)


def test_temperature_series_csv(tmp_path):
    series = odmr.TemperatureSeries(times=np.array([0.0, 0.4, 0.8]),
                                    dT_C=np.array([0.1, 0.2, 0.3]),
                                    sigma_C=np.array([0.05, 0.05, 0.05]))
    path = tmp_path / "temp.csv"
    series.to_csv(path)
    back = odmr.TemperatureSeries.from_csv(path)
    np.testing.assert_allclose(back.times, series.times, atol=1e-9)
    np.testing.assert_allclose(back.dT_C, series.dT_C, atol=1e-9)


def test_calibrate_kappa_exact_line():
    temps = np.repeat([0.0, 4.0, 8.0, 12.0], 50)
    shifts = -60e3 * temps
    cal = odmr.calibrate_kappa(temps, shifts)
    assert cal.kappa_khz_per_C == pytest.approx(-60.0, rel=1e-9)
    with pytest.raises(ValueError):
        odmr.calibrate_kappa(np.repeat([0.0, 4.0], 5), np.zeros(10))


def test_calibrate_kappa_noisy():
    rng = np.random.default_rng(23)
    temps = np.repeat([0.0, 4.0, 8.0, 12.0, 16.0], 200)
    shifts = -60e3 * temps + 2e5 * rng.standard_normal(temps.size)
    cal = odmr.calibrate_kappa(temps, shifts)
    assert cal.sigma_khz_per_C > 0
    assert abs(cal.kappa_khz_per_C + 60.0) < 3 * cal.sigma_khz_per_C


def test_kappa_posterior_separates_groups():
    rng = np.random.default_rng(29)
    live = -60.0 + 1.5 * rng.standard_normal(8)
    dry = -66.0 + 1.5 * rng.standard_normal(8)
    post = odmr.kappa_shift_posterior(
        list(zip(live, np.full(8, 0.5))), list(zip(dry, np.full(8, 0.5))),
        n_draws=4000, burn=500, seed=1)
    assert post.mean == pytest.approx(6.0, abs=3.0)
    lo, hi = post.credible_interval(0.95)
    assert lo < post.mean < hi
    assert post.sd > 0


def test_kappa_posterior_rejects_degenerate_group():
    with pytest.raises(ValueError):
        odmr.kappa_shift_posterior([(-60.0, 0.0)], [(-66.0, 0.5)] * 4,
                                   n_draws=100, burn=10, seed=0)
