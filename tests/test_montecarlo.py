import math

import numpy as np
import pytest

from photocorr import (
    EfficiencyPair,
    SimulationConfig,
    SourceSpec,
    ValidationError,
    correlation_coefficient,
    difference_variance,
    predicted_beam_variance,
    sample_series,
    solve_pump_noise,
)


def corr_and_se(a, b):
    """Sample correlation with its delta-method standard error."""
    za = (a - a.mean()) / a.std()
    zb = (b - b.mean()) / b.std()
    r = float((za * zb).mean())
    psi = za * zb - 0.5 * r * (za**2 + zb**2)
    return r, float(psi.std() / math.sqrt(len(a)))


def var_and_se(x):
    """Sample variance with its moment-based standard error."""
    c = x - x.mean()
    v = float((c**2).mean())
    m4 = float((c**4).mean())
    return v, float(math.sqrt(max(m4 - v**2, 0.0) / len(x)))


def cfg_for(kind, n_mean, mu, eta, shots=100000, seed=123, **kw):
    return SimulationConfig(SourceSpec(kind, n_mean, mu), EfficiencyPair(*eta),
                            shots=shots, seed=seed, **kw)


class TestDeterminism:
    def test_same_seed_same_series(self):
        cfg = cfg_for("twin_beam", 5.0, 3, (0.6, 0.7), shots=5000, pump_x=0.01)
        a, b = sample_series(cfg), sample_series(cfg)
        assert np.array_equal(a.ch1, b.ch1) and np.array_equal(a.ch2, b.ch2)

    def test_integral_float_shots(self):
        cfg = cfg_for("twin_beam", 5.0, 3, (0.6, 0.7), shots=1e3, pump_x=0.01)
        ref = sample_series(cfg_for("twin_beam", 5.0, 3, (0.6, 0.7), shots=1000, pump_x=0.01))
        series = sample_series(cfg)
        assert type(cfg.shots) is int
        assert np.array_equal(series.ch1, ref.ch1) and np.array_equal(series.ch2, ref.ch2)

    def test_seed_changes_series(self):
        base = cfg_for("split_thermal", 5.0, 2, (0.7, 0.7), shots=2000)
        other = cfg_for("split_thermal", 5.0, 2, (0.7, 0.7), shots=2000, seed=124)
        assert not np.array_equal(sample_series(base).ch1, sample_series(other).ch1)


class TestPerfectCorrelation:
    def test_unit_efficiency_copies(self):
        series = sample_series(cfg_for("twin_beam", 4.0, 3, (1.0, 1.0), shots=3000))
        assert np.array_equal(series.ch1, series.ch2)


SOURCES = ["twin_beam", "coherent_pair", "split_thermal"]


class TestAgainstAnalytic:
    @pytest.mark.parametrize("kind", SOURCES)
    @pytest.mark.parametrize("n_mean,mu", [(1.0, 1), (10.0, 3)])
    def test_difference_variance(self, kind, n_mean, mu):
        cfg = cfg_for(kind, n_mean, mu, (0.6, 0.7))
        s = sample_series(cfg)
        d = s.ch1.astype(float) - s.ch2
        v, se = var_and_se(d)
        want = difference_variance(cfg.source, cfg.eff).sigma2_d
        assert abs(v - want) < 3 * se

    @pytest.mark.parametrize("kind", SOURCES)
    @pytest.mark.parametrize("n_mean,mu", [(1.0, 1), (10.0, 3)])
    def test_correlation(self, kind, n_mean, mu):
        cfg = cfg_for(kind, n_mean, mu, (0.6, 0.7))
        s = sample_series(cfg)
        r, se = corr_and_se(s.ch1.astype(float), s.ch2.astype(float))
        want = correlation_coefficient(cfg.source, cfg.eff)
        assert abs(r - want) < 3 * se

    def test_twb_small_case_variance(self):
        cfg = cfg_for("twin_beam", 1.0, 1, (0.5, 0.5), seed=7)
        s = sample_series(cfg)
        v, se = var_and_se(s.ch1.astype(float) - s.ch2)
        assert abs(v - 0.5) < 3 * se

    def test_means(self):
        cfg = cfg_for("split_thermal", 10.0, 2, (0.6, 0.7), seed=9)
        s = sample_series(cfg)
        for ch, eta in ((s.ch1, 0.6), (s.ch2, 0.7)):
            m = ch.mean()
            se = ch.std() / math.sqrt(len(s))
            assert abs(m - eta * 10.0) < 3 * se


class TestShotIndependence:
    @pytest.mark.parametrize("kind", SOURCES)
    def test_lag_one_uncorrelated(self, kind):
        from photocorr import correlation_function
        s = sample_series(cfg_for(kind, 5.0, 2, (0.7, 0.7), seed=21))
        assert abs(correlation_function(s, 1)) < 3.0 / math.sqrt(len(s))


class TestPumpNoise:
    def test_channel_variance_and_covariance_grow(self):
        quiet = sample_series(cfg_for("twin_beam", 1000.0, 14, (0.6, 0.7), seed=5))
        noisy = sample_series(cfg_for("twin_beam", 1000.0, 14, (0.6, 0.7), seed=5, pump_x=0.05))
        assert noisy.ch1.var() > quiet.ch1.var()
        assert noisy.ch2.var() > quiet.ch2.var()
        cov_q = np.cov(quiet.ch1, quiet.ch2)[0, 1]
        cov_n = np.cov(noisy.ch1, noisy.ch2)[0, 1]
        assert cov_n > cov_q

    def test_difference_variance_matches_budget(self):
        # sample sigma2(d) must land on the budget the analyzers invert
        x = 0.02
        cfg = cfg_for("twin_beam", 1000.0, 14, (0.6, 0.7), seed=31, pump_x=x)
        s = sample_series(cfg)
        d = s.ch1.astype(float) - s.ch2
        v, se = var_and_se(d)
        fit = solve_pump_noise(1.0, 0.6, 0.7, 600.0, 700.0, 14)  # for base and coefficient
        want = fit.base_sigma2 + x**2 * fit.excess_coefficient
        assert abs(v - want) < 3 * se + 0.02 * want

    def test_truncation_counter(self):
        cfg = cfg_for("twin_beam", 10.0, 2, (0.5, 0.5), shots=2000, seed=2, pump_x=0.8)
        assert sample_series(cfg).pump_truncations > 0
        quiet = cfg_for("twin_beam", 10.0, 2, (0.5, 0.5), shots=2000, seed=2)
        assert sample_series(quiet).pump_truncations == 0


class TestPredictedBeamVariance:
    def test_quiet_limit_is_multithermal(self):
        src = SourceSpec.twin_beam(1e4, 14)
        assert predicted_beam_variance(src, 0.0) == pytest.approx(1e8 / 14, rel=1e-12)

    def test_correction_stays_small_in_bright_regime(self):
        src = SourceSpec.twin_beam(1e7, 14)
        ratio = predicted_beam_variance(src, 0.0224) / predicted_beam_variance(src, 0.0)
        assert 1.0 < ratio < 1.03

    def test_monte_carlo_cross_check(self):
        # at unit efficiency the detected counts are the photon numbers
        src = SourceSpec.twin_beam(1e4, 14)
        x = 0.0224
        s = sample_series(SimulationConfig(src, EfficiencyPair(1.0, 1.0),
                                           shots=100000, seed=77, pump_x=x))
        v, se = var_and_se(s.ch1.astype(float))
        assert abs(v - predicted_beam_variance(src, x)) < 3 * se

    def test_thermal_excess(self):
        src = SourceSpec.split_thermal(100.0, 5)
        want = 100.0**2 / 5 + 2 * 0.03**2 * 100.0**2
        assert predicted_beam_variance(src, 0.03) == pytest.approx(want, rel=1e-12)

    def test_coherent_excess(self):
        src = SourceSpec.coherent_pair(100.0)
        assert predicted_beam_variance(src, 0.1) == pytest.approx(100.0 + 0.01 * 1e4, rel=1e-12)


class TestVoltsMode:
    def test_conversion_and_noise(self):
        cfg = cfg_for("split_thermal", 20.0, 2, (0.7, 0.7), seed=13, volts=True,
                      conv=(6.7e-8, 8.3e-8), instrument_noise_var=(1e-15, 1e-15))
        s = sample_series(cfg)
        assert s.unit == "volts"
        c1, c2 = s.counts()
        # counts() undoes the conversion; means stay near eta * N
        assert c1.mean() == pytest.approx(0.7 * 20.0, rel=0.05)
        assert c2.mean() == pytest.approx(0.7 * 20.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValidationError):
            cfg_for("twin_beam", 1.0, 1, (0.5, 0.5), volts=True, conv=(0.0, 1.0))
        with pytest.raises(ValidationError):
            cfg_for("twin_beam", 1.0, 1, (0.5, 0.5), shots=0)
        with pytest.raises(ValidationError):
            cfg_for("twin_beam", 1.0, 1, (0.5, 0.5), pump_x=-0.1)
