import math

import numpy as np
import pytest
from scipy import stats

from photocorr import (
    EfficiencyPair,
    SimulationConfig,
    SourceSpec,
    ValidationError,
    analytic_moments,
    correlation_coefficient,
    difference_variance,
    multimode_convolve,
    predicted_beam_variance,
    sample_series,
    solve_pump_noise,
    source_joint,
    thin_joint,
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


class TestExactLaw:
    """Sampled (m1, m2) against the exact mu-mode law of the detected counts."""

    @pytest.mark.parametrize("kind,tau,eta", [
        ("twin_beam", 0.5, (0.6, 0.7)),
        ("coherent_pair", 0.5, (0.6, 0.7)),
        ("split_thermal", 0.5, (0.6, 0.7)),
        ("split_thermal", 0.3, (0.9, 0.5)),
        ("split_thermal", 1.0, (1.0, 0.7)),
        # zero rates: B - C = 0, A - C = 0, a silent beam 1, a silent coherent beam 1
        ("twin_beam", 0.5, (1.0, 0.7)),
        ("twin_beam", 0.5, (0.7, 1.0)),
        ("split_thermal", 0.0, (0.6, 0.7)),
        ("coherent_pair", 0.5, (0.0, 0.7)),
    ])
    def test_joint_counts_chi2(self, kind, tau, eta):
        n_mean, mu, shots = 2.0, 3, 200_000
        eff = EfficiencyPair(*eta)
        src = SourceSpec(kind, n_mean, mu, tau)
        expected = multimode_convolve(thin_joint(source_joint(src), eff), mu).probs * shots
        s = sample_series(SimulationConfig(src, eff, shots=shots, seed=11))
        observed = np.zeros(expected.shape)
        inside = (s.ch1 < expected.shape[0]) & (s.ch2 < expected.shape[1])
        np.add.at(observed, (s.ch1[inside], s.ch2[inside]), 1.0)
        # cells expecting fewer than 5 shots are pooled with the window's tail
        cells = expected >= 5
        obs = np.append(observed[cells], shots - observed[cells].sum())
        exp = np.append(expected[cells], shots - expected[cells].sum())
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        assert stats.chi2.sf(chi2, obs.size - 1) > 1e-3

    @pytest.mark.parametrize("kind", SOURCES)
    def test_bright_moments(self, kind):
        cfg = cfg_for(kind, 1.0e6, 14, (0.66, 0.68), shots=100_000, seed=41)
        s = sample_series(cfg)
        want = analytic_moments(cfg.source, cfg.eff)
        c1, c2 = s.ch1.astype(float), s.ch2.astype(float)
        x1, x2 = c1 - c1.mean(), c2 - c2.mean()
        k = len(s)
        for got, se, ref in [
            (c1.mean(), x1.std() / math.sqrt(k), want.mean1),
            (c2.mean(), x2.std() / math.sqrt(k), want.mean2),
            (*var_and_se(c1), want.var1),
            (*var_and_se(c2), want.var2),
            ((x1 * x2).mean(), (x1 * x2).std() / math.sqrt(k), want.cov),
        ]:
            assert abs(got - ref) < 4 * se


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

    def test_pumped_twin_beam_marginals(self):
        # Per mode, beam j draws a geometric count of mean a_j = sinh(G sqrt(u_j))**2 with
        # u_j ~ N(1, sd_j**2): E[n] = E[a] and Var n = E[a] + 2 E[a**2] - E[a]**2 exactly.
        # The expectations over u_j use Gauss-Hermite quadrature; u_j is truncated at 0
        # as in the sampler, which happens with probability below 1e-5 here.
        n_mean, mu, eta, x = 20.0, 3, (0.6, 0.7), 0.2
        s = sample_series(cfg_for("twin_beam", n_mean, mu, eta, seed=17, pump_x=x))
        z, w = np.polynomial.hermite_e.hermegauss(96)
        w = w / w.sum()
        gain = math.asinh(math.sqrt(n_mean / mu))
        for ch, e in ((s.ch1, eta[0]), (s.ch2, eta[1])):
            u = np.clip(1.0 + x / (e * math.sqrt(2.0)) * z, 0.0, None)
            a = np.sinh(gain * np.sqrt(u)) ** 2
            ea, ea2 = w @ a, w @ (a * a)
            mean_n, var_n = mu * ea, mu * (ea + 2.0 * ea2 - ea * ea)
            c = ch.astype(float)
            assert abs(c.mean() - e * mean_n) < 4 * c.std() / math.sqrt(len(c))
            v, se = var_and_se(c)
            assert abs(v - (e * e * var_n + e * (1.0 - e) * mean_n)) < 4 * se

    @pytest.mark.parametrize("eta", [(0.5, 0.5), (0.9, 0.05)])
    def test_pump_bound_keeps_counts_in_int64(self, eta):
        # a pump scale 10 sd up must keep the mean of mu modes within 1e15; the last
        # accepted pump_x samples without overflow, the next one is refused before sampling
        gain = math.asinh(math.sqrt(1e6))
        top = (math.asinh(math.sqrt(1e15)) / gain) ** 2
        x_max = (top - 1.0) / 10.0 * min(eta) * math.sqrt(2.0)
        s = sample_series(cfg_for("twin_beam", 1e6, 1, eta, shots=2000, pump_x=0.999 * x_max))
        assert s.ch1.min() >= 0 and s.ch2.min() >= 0
        with pytest.raises(ValidationError, match="pump_x"):
            cfg_for("twin_beam", 1e6, 1, eta, pump_x=1.001 * x_max)
        with pytest.raises(ValidationError, match="pump_x"):
            cfg_for("twin_beam", 1e6, 1, eta, pump_x=100.0)

    def test_pump_bound_follows_each_source_spread(self):
        # a 10-sd pump scale is 1 + 10 x for the coherent pair (9.9e14 < 1e15) and
        # 1 + 10 sqrt(2) x for split thermal light (1.03e15)
        cfg_for("coherent_pair", 9e14, 1, (0.5, 0.5), shots=10, pump_x=0.01)
        with pytest.raises(ValidationError, match="pump_x"):
            cfg_for("split_thermal", 9e14, 1, (0.5, 0.5), shots=10, pump_x=0.01)

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

    @pytest.mark.parametrize("x", [0.0, 0.03])
    def test_split_thermal_is_beam_one(self, x):
        # beam 1 of split thermal light carries 2 N tau of the N per beam at tau = 1/2
        src = SourceSpec.split_thermal(1e4, 14, tau=0.3)
        m = 2 * 1e4 * 0.3
        want = m**2 / 14 + 2 * x**2 * m**2
        assert predicted_beam_variance(src, x) == pytest.approx(want, rel=1e-12)

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

    @pytest.mark.parametrize("key", ["conv", "instrument_noise_var"])
    @pytest.mark.parametrize("value", [(1.0,), (1.0, 2.0, 3.0), 5.0], ids=["one", "three", "number"])
    def test_pairs_must_be_pairs(self, key, value):
        with pytest.raises(ValidationError, match=f"{key}: expected a pair"):
            cfg_for("coherent_pair", 2.0, 1, (0.6, 0.7), shots=10, volts=True, **{key: value})
