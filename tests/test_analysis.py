import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import digamma, polygamma

from photocorr import (
    DataError,
    EfficiencyPair,
    InconsistentDataError,
    NoiseDominatedError,
    ShotSeries,
    SimulationConfig,
    SourceSpec,
    UndefinedMarkerError,
    ValidationError,
    correlation_coefficient,
    correlation_function,
    fit_multithermal,
    imbalance_bounds,
    measured_correlation,
    measured_difference_variance,
    noise_surface,
    sample_series,
    solve_pump_noise,
)
from photocorr.analysis import _MAX_BINS, _fd_histogram, _imbalance_terms, _quartiles
from photocorr.detection import _difference_variance

PAPER_TWB = dict(sigma2=2.124e11, m1=7.225e6, m2=7.212e6, mu=14, eta=0.67)
PAPER_THERMAL = dict(sigma2=4.097e13, m1=2.22e8, m2=2.22e8, mu=15, eta=0.71)


def variance_oracle(eta_bar, n, mu, kind):
    """(floor, curvature) of sigma2(d) = floor + delta**2 * curvature, written out per
    kind for efficiencies eta_bar +- delta/2 and per-beam mean N = n over mu modes (the
    split-thermal splitter balanced): an oracle independent of the pgf coefficients."""
    if kind == "twin_beam":
        return 2.0 * eta_bar * (1.0 - eta_bar) * n, n * n / mu + n / 2.0
    if kind == "split_thermal":
        return 2.0 * eta_bar * n, n * n / mu
    return 2.0 * eta_bar * n, 0.0


def oracle_sigma2(delta, eta_bar, n, mu, kind):
    floor, curvature = variance_oracle(eta_bar, n, mu, kind)
    return floor + delta * delta * curvature


@pytest.mark.parametrize("kind", ["twin_beam", "split_thermal", "coherent_pair"])
@pytest.mark.parametrize("mu", [1, 14])
@pytest.mark.parametrize("n", [1e3, 1e7])
def test_the_law_core_matches_the_per_kind_oracle(n, mu, kind):
    for eta_bar, delta in ((0.67, 0.013), (0.5, 0.2), (0.9, 0.2)):
        want_floor, want_curvature = variance_oracle(eta_bar, n, mu, kind)
        floor, curvature = _imbalance_terms(kind, n, mu, eta_bar)
        s2 = _difference_variance(kind, n, mu, 0.5, eta_bar + delta / 2, eta_bar - delta / 2)
        assert floor == pytest.approx(want_floor, rel=1e-13)
        assert curvature == pytest.approx(want_curvature, rel=1e-13)
        assert s2 == pytest.approx(oracle_sigma2(delta, eta_bar, n, mu, kind), rel=1e-13)


def counts_series(ch1, ch2, noise=(0.0, 0.0)):
    return ShotSeries(np.asarray(ch1, dtype=np.int64), np.asarray(ch2, dtype=np.int64),
                      "counts", (1.0, 1.0), noise)


class TestCorrelationFunction:
    def test_identical_channels(self):
        rng = np.random.Generator(np.random.Philox(0))
        v = rng.poisson(50.0, 5000)
        s = counts_series(v, v)
        assert correlation_function(s, 0) == pytest.approx(1.0, abs=1e-12)

    def test_independent_channels_near_zero(self):
        rng = np.random.Generator(np.random.Philox(1))
        s = counts_series(rng.poisson(20.0, 100000), rng.poisson(20.0, 100000))
        assert abs(correlation_function(s, 0)) < 3.0 / math.sqrt(100000)

    def test_lag_symmetric_at_zero(self):
        rng = np.random.Generator(np.random.Philox(2))
        a = rng.poisson(20.0, 20000)
        b = a + rng.poisson(5.0, 20000)
        s = counts_series(a, b)
        t = counts_series(b, a)
        assert correlation_function(s, 0) == pytest.approx(correlation_function(t, 0), rel=1e-12)

    def test_perfect_copy_lags(self):
        s = sample_series(SimulationConfig(SourceSpec.twin_beam(5.0, 2),
                                           EfficiencyPair(1.0, 1.0), shots=100000, seed=3))
        assert correlation_function(s, 0) == pytest.approx(1.0, abs=1e-12)
        assert abs(correlation_function(s, 1)) < 3.0 / math.sqrt(len(s))

    def test_bounded_by_one(self):
        rng = np.random.Generator(np.random.Philox(4))
        a = rng.poisson(20.0, 5000)
        s = counts_series(a, a * 2)
        for lag in (-3, -1, 0, 1, 3):
            assert abs(correlation_function(s, lag)) <= 1.0 + 1e-3

    def test_short_series_rejected(self):
        s = counts_series([1, 2, 3], [1, 2, 3])
        with pytest.raises(ValidationError):
            correlation_function(s, 5)

    def test_constant_channel_rejected(self):
        s = counts_series([1, 1, 1, 1], [1, 2, 3, 4])
        with pytest.raises(UndefinedMarkerError):
            correlation_function(s, 0)


class TestMeasuredCorrelation:
    def test_zero_noise_equals_raw(self):
        s = sample_series(SimulationConfig(SourceSpec.split_thermal(10.0, 2),
                                           EfficiencyPair(0.7, 0.7), shots=50000, seed=5))
        assert measured_correlation(s) == correlation_function(s, 0)

    def test_noise_subtraction_restores_theory(self):
        cfg = SimulationConfig(SourceSpec.split_thermal(50.0, 3), EfficiencyPair(0.71, 0.71),
                               shots=100000, seed=6, volts=True, conv=(1e-7, 1e-7),
                               instrument_noise_var=(4e-12, 4e-12))
        s = sample_series(cfg)
        want = correlation_coefficient(cfg.source, cfg.eff)
        raw = correlation_function(s, 0)
        corrected = measured_correlation(s)
        assert raw < corrected
        assert corrected == pytest.approx(want, abs=0.01)

    def test_noise_dominated_rejected(self):
        s = counts_series([1, 2, 1, 2, 1, 2], [2, 1, 2, 1, 2, 1], noise=(100.0, 100.0))
        with pytest.raises(NoiseDominatedError):
            measured_correlation(s)

    def test_constant_channel_without_noise_rejected(self):
        # zero variance, not noise, leaves the correlation undefined
        s = counts_series([1, 1, 1, 1], [1, 2, 3, 4])
        with pytest.raises(UndefinedMarkerError, match="zero variance"):
            measured_correlation(s)

    def test_one_shot_rejected(self):
        with pytest.raises(ValidationError, match="lag 0 needs more than 1 shots, got 1"):
            measured_correlation(counts_series([1], [2]))


def test_correlations_are_scale_free():
    # at 1e-200 the variances underflow to 0, unless the channels are scaled first
    v = np.random.default_rng(5).uniform(1e-200, 2e-200, (2, 2000))
    v[1] = 0.5 * (v[0] + v[1])
    tiny = ShotSeries(v[0], v[1], "volts", (1.0, 1.0))
    large = ShotSeries(np.ldexp(v[0], 664), np.ldexp(v[1], 664), "volts", (1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for lag in (0, 1, -3):
            assert correlation_function(tiny, lag) == correlation_function(large, lag)
        assert measured_correlation(tiny) == measured_correlation(large) > 0.5
        # a noise variance that the scaling takes beyond the float range dominates
        noisy = ShotSeries(v[0], v[1], "volts", (1.0, 1.0), (1e-80, 0.0))
        with pytest.raises(NoiseDominatedError):
            measured_correlation(noisy)


class TestMeasuredDifferenceVariance:
    def test_perfect_copy_is_zero(self):
        rng = np.random.Generator(np.random.Philox(7))
        v = rng.poisson(30.0, 10000)
        assert measured_difference_variance(counts_series(v, v)) == 0.0

    def test_noise_dominated_rejected(self):
        rng = np.random.Generator(np.random.Philox(7))
        v = rng.poisson(30.0, 10000)
        with pytest.raises(NoiseDominatedError):
            measured_difference_variance(counts_series(v, v + rng.integers(0, 2, v.size),
                                                       noise=(1.0, 1.0)))

    def test_volts_mode_recovers_count_variance(self):
        src = SourceSpec.twin_beam(100.0, 4)
        eff = EfficiencyPair(0.6, 0.7)
        counts = sample_series(SimulationConfig(src, eff, shots=100000, seed=8))
        volts = sample_series(SimulationConfig(src, eff, shots=100000, seed=8, volts=True,
                                               conv=(6.7e-8, 8.3e-8),
                                               instrument_noise_var=(2e-14, 2e-14)))
        want = measured_difference_variance(counts)
        got = measured_difference_variance(volts)
        assert got == pytest.approx(want, rel=0.02)

    def test_calibration_beyond_the_float_range(self):
        # alpha**2 underflows to 0 at 1e-170: the noise term is inf, not a ZeroDivisionError
        v = 1.0 + np.arange(2000.0) * 1e-160
        volts = ShotSeries(v, v[::-1], "volts", (1e-170, 1e-170), (1e-8, 1e-8))
        with pytest.raises(NoiseDominatedError):
            measured_difference_variance(volts)
        # counts of about 1e167 apart: their variance is beyond the float range
        v = 1.0 + np.arange(2000.0) * 1e-3
        with pytest.raises(DataError, match="beyond the float range"):
            measured_difference_variance(ShotSeries(v, v[::-1], "volts", (1e-170, 1e-170)))


class TestMomentsBeyondTheFloatRange:
    """A volts record near the float's largest value: its counts are finite, but their
    sums, squares and differences are not.  The correlations, which scale each channel
    into (-1, 1) first, are those of the record times 2**-1024; the fit refuses it.
    Neither raises a RuntimeWarning."""

    v = np.random.default_rng(3).uniform(1e307, 1.7e308, (2, 2000))
    series = ShotSeries(v[0], v[1], "volts", (1.0, 1.0))

    @pytest.mark.parametrize("call", [
        lambda s: correlation_function(s, 0),
        lambda s: correlation_function(s, -3),
        measured_correlation,
    ])
    def test_correlation_is_that_of_the_scaled_record(self, call):
        scaled = ShotSeries(np.ldexp(self.v[0], -1024), np.ldexp(self.v[1], -1024), "volts")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert call(self.series) == call(scaled)

    def test_fit_raises_data_error_naming_the_moment(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="the mean of the positive values is beyond "
                                                "the float range"):
                fit_multithermal(self.series.counts()[0])


def grid_mu(values):
    """Integer mode count maximising the multithermal profile log-likelihood,
    by a search over every integer in [1, 200] (the lowest on a tie)."""
    v = np.asarray(values, dtype=float)
    v = v[v > 0.0]
    mu = np.arange(1, 201, dtype=float)
    lgam = np.array([math.lgamma(m) for m in mu])
    ll = (mu - 1.0) * np.log(v).mean() - mu - lgam - mu * np.log(v.mean() / mu)
    return float(mu[np.argmax(ll)])


class TestFitMultithermal:
    @pytest.mark.parametrize("mu", [1, 5, 14, 15])
    @pytest.mark.parametrize("v_mean", [0.5, 1.0, 10.0])
    def test_recovers_synthetic(self, mu, v_mean):
        rng = np.random.Generator(np.random.Philox(int(mu * 1000 + v_mean * 10)))
        v = rng.gamma(mu, v_mean / mu, 100000)
        fit = fit_multithermal(v)
        assert fit.mu_hat == mu == grid_mu(v)
        assert fit.v_mean_hat == pytest.approx(v_mean, rel=0.01)

    def test_continuous_mode(self):
        rng = np.random.Generator(np.random.Philox(99))
        v = rng.gamma(14.0, 1.0 / 14.0, 100000)
        fit = fit_multithermal(v, integer_mu=False)
        assert fit.mu_hat == pytest.approx(14.0, rel=0.05)

    @pytest.mark.parametrize("scale", [1.0, 7.2e6])
    @pytest.mark.parametrize("mu", [0.8, 1.2, 5.5, 14.3, 150.0])
    def test_continuous_mode_is_the_exact_mle(self, mu, scale):
        # the Gamma-shape MLE solves ln mu - psi(mu) = ln mean(v) - mean(ln v)
        rng = np.random.Generator(np.random.Philox(int(mu * 10)))
        v = rng.gamma(mu, scale / mu, 200000)
        s = math.log(v.mean()) - np.log(v).mean()
        want = 0.5 / s
        for _ in range(50):
            want -= (math.log(want) - digamma(want) - s) / (1.0 / want - polygamma(1, want))
        fit = fit_multithermal(v, integer_mu=False)
        assert fit.mu_hat == pytest.approx(max(want, 1.0), rel=1e-7)

    def test_clipping_counter(self):
        rng = np.random.Generator(np.random.Philox(100))
        v = rng.gamma(5.0, 0.2, 50000)
        v[:10] = -1.0
        fit = fit_multithermal(v)
        assert fit.n_clipped == 10
        assert fit.mu_hat == 5 == grid_mu(v)

    def test_integer_mu_equals_the_grid_oracle(self):
        # shapes from below 1 to above the search range, on small records whose estimate
        # often falls between two integers
        rng = np.random.Generator(np.random.Philox(102))
        for shape in np.exp(rng.uniform(math.log(0.5), math.log(300.0), 400)):
            v = rng.gamma(shape, 3.0 / shape, int(rng.integers(1000, 3000)))
            assert fit_multithermal(v).mu_hat == grid_mu(v)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError):
            fit_multithermal(np.ones(10))

    def test_no_positive_samples_rejected(self):
        with pytest.raises(ValidationError, match="no positive samples"):
            fit_multithermal(np.zeros(1000))

    def test_goodness_reasonable_for_true_model(self):
        rng = np.random.Generator(np.random.Philox(101))
        v = rng.gamma(14.0, 1.0 / 14.0, 100000)
        fit = fit_multithermal(v)
        assert fit.goodness < 3.0


def _quartile_samples():
    """Integers, floats and ties at the sizes where the virtual index's fraction cycles."""
    rng = np.random.default_rng(27)
    for n in (1, 2, 3, 4, 5, 999, 1000, 1001, 200_000):
        yield pytest.param(rng.integers(-10**6, 10**6, n), id=f"int-{n}")
        yield pytest.param(rng.standard_normal(n) * 1e3, id=f"float-{n}")
        yield pytest.param(rng.integers(0, 3, n).astype(float), id=f"float-ties-{n}")
        yield pytest.param(rng.integers(-2, 2, n), id=f"int-ties-{n}")


@pytest.mark.parametrize("v", _quartile_samples())
def test_quartiles_are_numpys_percentiles_bit_for_bit(v):
    got, want = _quartiles(v), np.percentile(v, [75, 25])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (got, want)


def _uncapped_fd_histogram(v, integer):
    """The Freedman-Diaconis rule without the bin cap, written out with np.percentile
    and np.histogram on explicit edges; None where it asks for more than _MAX_BINS bins."""
    q75, q25 = np.percentile(v, [75, 25])
    width = 2.0 * (q75 - q25) * v.size ** (-1.0 / 3.0)
    lo, hi = v.min(), v.max()
    if integer:
        width = max(1, math.ceil(width))
        bins = int((hi - lo) // width) + 1
        if bins > _MAX_BINS:
            return None
        edges = lo + width * np.arange(bins + 1)
        return np.histogram(v, edges - 0.5)[0], edges
    bins = math.ceil((hi - lo) / width) if width > 0 else 1
    return None if bins > _MAX_BINS else np.histogram(v, bins, (lo, hi))


@st.composite
def fd_samples(draw):
    """(sample, integer): integers, or floats about 1 at a spread of 1e-9 to 1e6, of
    1 to 400 values, one of which may be an extreme value (a glitch shot)."""
    integer = draw(st.booleans())
    if integer:
        v = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=400)), float)
    else:
        scale = draw(st.sampled_from([1e-9, 1.0, 1e6]))
        v = 1.0 + scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=400)))
    extreme = draw(st.sampled_from([None, 1e3, 1e15, -1e15]))
    if extreme is not None:
        v[draw(st.integers(0, v.size - 1))] = extreme
    return v, integer


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(fd_samples())
@example((np.r_[np.zeros(999), 65535.0], True))  # the rule asks for exactly _MAX_BINS bins
def test_fd_histogram_bins_every_value_once(sample):
    v, integer = sample
    counts, edges = _fd_histogram(v, integer)
    bins = counts.size
    assert 1 <= bins <= _MAX_BINS and edges.size == bins + 1
    assert counts.sum() == v.size and np.all(np.diff(edges) > 0)
    # each value lies in e_i <= v < e_(i+1); the last float bin is closed
    index = np.searchsorted(edges, v, side="right") - 1
    if integer:
        assert all(type(e) is int for e in edges) and edges[0] == v.min() and edges[-1] > v.max()
    else:
        assert edges[-1] == v.max() or v.min() == v.max()
        index = np.minimum(index, bins - 1)
    assert index.min() >= 0 and np.array_equal(np.bincount(index, minlength=bins), counts)
    # the cap changes nothing where the rule asks for at most _MAX_BINS bins, and where
    # it widens the bins it keeps more than half of them
    want = _uncapped_fd_histogram(v, integer)
    if want is None:
        assert bins > _MAX_BINS // 2
    else:
        assert np.array_equal(counts, want[0]) and np.array_equal(edges, want[1])


class TestImbalanceBounds:
    def test_paper_twb_interval(self):
        p = PAPER_TWB
        lo, hi = imbalance_bounds(p["sigma2"], p["m1"], p["m2"], p["mu"], p["eta"])
        assert 0.12 <= lo <= hi <= 0.22

    def test_paper_thermal_interval(self):
        p = PAPER_THERMAL
        lo, hi = imbalance_bounds(p["sigma2"], p["m1"], p["m2"], p["mu"], p["eta"],
                                  kind="split_thermal")
        assert 0.05 <= lo <= hi <= 0.12

    def test_at_floor_returns_degenerate_interval(self):
        # measurement equal to the balanced model pins the imbalance at zero
        m, eta, mu = 1000.0, 0.65, 14
        floor = oracle_sigma2(0.0, eta, m / eta, mu, "twin_beam")
        assert imbalance_bounds(floor, m, m, mu, eta) == (0.0, 0.0)

    def test_midpoint_round_trip(self):
        p = PAPER_TWB
        lo, hi = imbalance_bounds(p["sigma2"], p["m1"], p["m2"], p["mu"], p["eta"])
        # each endpoint solves the model at its efficiency exactly
        m_bar = 0.5 * (p["m1"] + p["m2"])
        for eta_bar, delta in ((p["eta"] * 0.8, lo), (p["eta"] * 1.2, hi)):
            back = oracle_sigma2(delta, eta_bar, m_bar / eta_bar, p["mu"], "twin_beam")
            assert back == pytest.approx(p["sigma2"], rel=1e-10)

    def test_no_solution_raises(self):
        with pytest.raises(InconsistentDataError):
            # far too large for any efficiency pair below one
            imbalance_bounds(1e9, 100.0, 100.0, 1, 0.9)

    @pytest.mark.parametrize("eta_nominal", [0.85, 0.9])
    @pytest.mark.parametrize("p, kind", [(PAPER_TWB, "twin_beam"),
                                         (PAPER_THERMAL, "split_thermal")])
    def test_clamped_upper_end_matches_root_search(self, p, kind, eta_nominal):
        m_bar = 0.5 * (p["m1"] + p["m2"])

        def delta(eta_bar):
            floor, curvature = variance_oracle(eta_bar, m_bar / eta_bar, p["mu"], kind)
            return math.sqrt((p["sigma2"] - floor) / curvature)

        def overshoot(eta_bar):
            return eta_bar + delta(eta_bar) / 2.0 - 1.0

        assert overshoot(min(1.2 * eta_nominal, 1.0)) > 0.0  # the clamp is reached
        root = brentq(overshoot, 0.8 * eta_nominal, 1.0, xtol=1e-15)
        while overshoot(root) > 0.0:  # the last admissible efficiency
            root = np.nextafter(root, 0.0)
        lo, hi = imbalance_bounds(p["sigma2"], p["m1"], p["m2"], p["mu"], eta_nominal, kind)
        assert lo == pytest.approx(delta(0.8 * eta_nominal), rel=1e-14)
        # delta grows with eta_bar, so hi <= delta(root), up to the rounding of
        # delta, means eta_bar + hi/2 <= 1 at the returned end
        assert -4 * np.spacing(hi) <= delta(root) - hi <= 1e-11

    def test_validation(self):
        with pytest.raises(ValidationError):
            imbalance_bounds(1.0, -5.0, 5.0, 1, 0.5)
        with pytest.raises(ValidationError):
            imbalance_bounds(1.0, 5.0, 5.0, 1, 1.5)


class TestSolvePumpNoise:
    def test_paper_twb_value(self):
        p = PAPER_TWB
        fit = solve_pump_noise(p["sigma2"], p["eta"], p["eta"], p["m1"], p["m2"], p["mu"])
        assert 0.01 <= fit.x <= 0.04
        assert fit.x == pytest.approx(0.01515, abs=2e-4)
        assert not fit.at_floor

    def test_paper_thermal_value(self):
        p = PAPER_THERMAL
        fit = solve_pump_noise(p["sigma2"], p["eta"], p["eta"], p["m1"], p["m2"], p["mu"],
                               kind="split_thermal")
        assert 0.005 <= fit.x <= 0.05
        assert not fit.at_floor

    @pytest.mark.parametrize("kind", ["twin_beam", "split_thermal"])
    def test_round_trip(self, kind):
        p = PAPER_TWB if kind == "twin_beam" else PAPER_THERMAL
        fit = solve_pump_noise(p["sigma2"], p["eta"], p["eta"], p["m1"], p["m2"], p["mu"],
                               kind=kind)
        assert fit.predicted_sigma2() == pytest.approx(p["sigma2"], rel=1e-10)

    def test_at_floor(self):
        fit = solve_pump_noise(1.0, 0.6, 0.7, 600.0, 700.0, 14)
        base = fit.base_sigma2
        again = solve_pump_noise(base, 0.6, 0.7, 600.0, 700.0, 14)
        assert again.x == 0.0
        assert again.at_floor

    def test_validation(self):
        with pytest.raises(ValidationError):
            solve_pump_noise(1.0, 0.0, 0.5, 10.0, 10.0, 1)
        with pytest.raises(ValidationError):
            solve_pump_noise(1.0, 0.5, 0.5, 10.0, 10.0, 1, kind="coherent_pair")

    def test_a_bool_among_the_efficiencies_rejected(self):
        # np.asarray reads True as 1, which would solve the budget at eta1 = 1
        with pytest.raises(ValidationError, match=r"eta1\[1\]: .* got True"):
            solve_pump_noise(2.124e11, [0.6, True], 0.68, 7.2e6, 7.2e6, 14)

    def test_efficiencies_that_do_not_broadcast_are_refused(self):
        with pytest.raises(ValidationError, match=r"shapes \(3,\) and \(2,\) do not broadcast"):
            solve_pump_noise(1e11, [0.5, 0.6, 0.7], [0.5, 0.6], 7e6, 7e6, 14)

    @pytest.mark.parametrize("mu", [0, -3, 1.5])
    def test_mode_count_validated(self, mu):
        # the budget divides by mu; a bad count must not end in ZeroDivisionError
        with pytest.raises(ValidationError, match="mu"):
            solve_pump_noise(1.0, 0.5, 0.5, 10.0, 10.0, mu)
        with pytest.raises(ValidationError, match="mu"):
            imbalance_bounds(1e9, 10.0, 10.0, mu, 0.5)


class TestNoiseSurface:
    def test_single_point_reduces_to_solver(self):
        p = PAPER_TWB
        nb = noise_surface(p["sigma2"], p["m1"], p["m2"], p["mu"],
                           [p["eta"]], [p["eta"]], eta_nominal=p["eta"])
        direct = solve_pump_noise(p["sigma2"], p["eta"], p["eta"], p["m1"], p["m2"], p["mu"])
        assert nb.x[0, 0] == direct.x
        assert nb.shot_noise_plane == p["m1"] + p["m2"]

    def test_thermal_surface_stays_above_plane(self):
        p = PAPER_THERMAL
        grid1 = np.linspace(0.45, 0.95, 9)
        grid2 = np.linspace(0.47, 0.97, 9)  # offset avoids exactly balanced points
        nb = noise_surface(p["sigma2"], p["m1"], p["m2"], p["mu"], grid1, grid2,
                           kind="split_thermal", eta_nominal=p["eta"])
        assert np.all(nb.corrected_sigma2 >= nb.shot_noise_plane * (1 - 1e-12))
        assert np.all(nb.corrected_sigma2.ravel()[1:] > nb.shot_noise_plane)

    def test_twb_surface_dips_below_plane_when_balanced(self):
        p = PAPER_TWB
        grid = np.linspace(0.5, 0.9, 5)
        nb = noise_surface(p["sigma2"], p["m1"], p["m2"], p["mu"], grid, grid,
                           eta_nominal=p["eta"])
        diag = np.array([nb.corrected_sigma2[i, i] for i in range(5)])
        assert np.all(diag < nb.shot_noise_plane)
        assert nb.corrected_sigma2.max() > nb.shot_noise_plane

    @pytest.mark.parametrize("kind, p", [("twin_beam", PAPER_TWB),
                                         ("split_thermal", PAPER_THERMAL)])
    def test_matches_per_point_solver(self, kind, p):
        # the grid spans both sides of the floor: balanced points need pump noise,
        # strongly unbalanced ones already exceed the measurement at x = 0
        grid1 = np.linspace(0.3, 0.95, 14)
        grid2 = np.linspace(0.35, 1.0, 11)
        nb = noise_surface(p["sigma2"], p["m1"], p["m2"], p["mu"], grid1, grid2,
                           kind=kind, eta_nominal=p["eta"])
        x = np.zeros((grid1.size, grid2.size))
        corrected = np.zeros_like(x)
        floor = np.zeros(x.shape, dtype=bool)
        for i, a in enumerate(grid1):
            for j, b in enumerate(grid2):
                fit = solve_pump_noise(p["sigma2"], a, b, p["m1"], p["m2"], p["mu"], kind)
                x[i, j] = fit.x
                floor[i, j] = fit.at_floor
                corrected[i, j] = p["sigma2"] if fit.at_floor else fit.base_sigma2
        assert floor.any() and not floor.all()
        assert np.array_equal(nb.at_floor, floor)
        assert nb.x == pytest.approx(x, rel=1e-12, abs=0.0)
        assert nb.corrected_sigma2 == pytest.approx(corrected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("grids", [([[0.5, 0.6]], [0.6]), ([0.6], [[0.5], [0.6]])])
    def test_a_grid_that_is_not_1d_is_refused(self, grids):
        p = PAPER_TWB
        with pytest.raises(ValidationError, match="expected 1-d grids"):
            noise_surface(p["sigma2"], p["m1"], p["m2"], p["mu"], *grids)

    def test_imbalance_interval_passed_through(self):
        p = PAPER_TWB
        nb = noise_surface(p["sigma2"], p["m1"], p["m2"], p["mu"],
                           [0.6, 0.7], [0.6, 0.7], eta_nominal=p["eta"])
        lo, hi = nb.imbalance_interval
        assert 0.12 <= lo <= hi <= 0.22


class TestEndToEnd:
    def test_known_pump_noise_recovered(self):
        eta1, eta2, x_true, n_mean, mu = 0.6, 0.7, 0.02, 1000.0, 14
        hits_x, hits_imb = 0, 0
        for seed in range(10):
            s = sample_series(SimulationConfig(SourceSpec.twin_beam(n_mean, mu),
                                               EfficiencyPair(eta1, eta2),
                                               shots=100000, seed=seed, pump_x=x_true))
            sigma2 = measured_difference_variance(s)
            m1, m2 = s.ch1.mean(), s.ch2.mean()
            fit = solve_pump_noise(sigma2, eta1, eta2, m1, m2, mu)
            if abs(fit.x - x_true) <= 0.1 * x_true:
                hits_x += 1
            lo, hi = imbalance_bounds(fit.base_sigma2, m1, m2, mu, 0.5 * (eta1 + eta2))
            if lo <= abs(eta1 - eta2) <= hi:
                hits_imb += 1
        assert hits_x >= 9
        assert hits_imb >= 9
