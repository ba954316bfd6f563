import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.signal import convolve2d
from scipy.stats import binom, nbinom, poisson

import oracles
from photocorr import (
    EfficiencyPair,
    SourceSpec,
    ValidationError,
    analytic_moments,
    correlation_coefficient,
    multimode_convolve,
    source_joint,
    thin_joint,
)
from photocorr.detection import loss_matrix
from photocorr.sources import DEFAULT_TAIL_TOL

ETA_GRID = [0.3, 0.5, 0.67, 0.9]


class TestThinJoint:
    def test_unit_efficiency_is_identity(self):
        j = source_joint(SourceSpec.twin_beam(1.0))
        t = thin_joint(j, EfficiencyPair(1.0, 1.0))
        assert np.allclose(t.probs, j.probs, atol=1e-14)

    def test_zero_efficiency_is_vacuum(self):
        j = source_joint(SourceSpec.twin_beam(1.0))
        t = thin_joint(j, EfficiencyPair(0.0, 0.0))
        assert t.probs[0, 0] == pytest.approx(1.0 - j.tail_mass, abs=1e-12)
        assert t.probs[1:, :].sum() + t.probs[:, 1:].sum() == 0.0

    def test_twb_half_efficiency_p00(self):
        # geometric oracle: sum_n 0.5 * (1/8)^n = 4/7
        j = source_joint(SourceSpec.twin_beam(1.0), tail_tol=1e-14)
        t = thin_joint(j, EfficiencyPair(0.5, 0.5))
        assert t.probs[0, 0] == pytest.approx(4.0 / 7.0, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 1e-3] + ETA_GRID + [0.999, 1.0])
    def test_loss_matrix_matches_binomial_pmf(self, eta):
        want = binom.pmf(np.arange(301)[:, None], np.arange(301)[None, :], eta)
        assert np.max(np.abs(loss_matrix(eta, 300) - want)) < 1e-13

    @pytest.mark.parametrize("eta, cutoff, bad", [
        (1.5, 3, "eta"), (float("nan"), 2, "eta"), (float("inf"), 2, "eta"),
        (0.5, -1, "cutoff"), (0.5, 2.5, "cutoff"), (0.5, float("nan"), "cutoff"),
    ])
    def test_loss_matrix_arguments_checked(self, eta, cutoff, bad):
        with pytest.raises(ValidationError, match=bad):
            loss_matrix(eta, cutoff)

    @pytest.mark.parametrize("eta", ETA_GRID)
    def test_probability_preserved(self, eta):
        j = source_joint(SourceSpec.split_thermal(2.0))
        t = thin_joint(j, EfficiencyPair(eta, 0.9 * eta))
        assert t.probs.sum() == pytest.approx(j.probs.sum(), abs=1e-12)

    @pytest.mark.parametrize("eta", ETA_GRID)
    def test_thermal_marginal_thins_to_thermal(self, eta):
        n_mean = 1.5
        j = source_joint(SourceSpec.split_thermal(n_mean), tail_tol=1e-13)
        t = thin_joint(j, EfficiencyPair(eta, eta))
        k = np.arange(t.cutoff + 1)
        want = oracles.thermal_pmf(k, eta * n_mean)
        got = t.marginal(1)
        assert np.max(np.abs(got - want)[: t.cutoff // 2]) < 1e-10


class TestMoments:
    @pytest.mark.parametrize("eta", ETA_GRID)
    def test_thinned_twb_moments(self, eta):
        n_mean = 1.0
        j = source_joint(SourceSpec.twin_beam(n_mean), tail_tol=1e-13)
        m = oracles.detected_moments(thin_joint(j, EfficiencyPair(eta, eta)))
        assert m.mean1 == pytest.approx(eta * n_mean, rel=1e-10)
        want_var = eta**2 * n_mean * (n_mean + 1) + eta * (1 - eta) * n_mean
        assert m.var1 == pytest.approx(want_var, rel=1e-9)

    @pytest.mark.parametrize("n_mean", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eta", [(0.5, 0.5), (0.3, 0.9)])
    def test_thinned_twb_covariance(self, n_mean, eta):
        j = source_joint(SourceSpec.twin_beam(n_mean), tail_tol=1e-13)
        m = oracles.detected_moments(thin_joint(j, EfficiencyPair(*eta)))
        want = eta[0] * eta[1] * n_mean * (n_mean + 1)
        assert m.cov == pytest.approx(want, rel=1e-8)

    def test_coherent_covariance_zero(self):
        j = source_joint(SourceSpec.coherent_pair(1.0), tail_tol=1e-13)
        m = oracles.detected_moments(thin_joint(j, EfficiencyPair(0.6, 0.8)))
        assert abs(m.cov) < 1e-10

    @pytest.mark.parametrize("kind", ["twin_beam", "coherent_pair", "split_thermal"])
    @pytest.mark.parametrize("eta", [(0.5, 0.5), (0.3, 0.9)])
    def test_analytic_matches_distribution_single_mode(self, kind, eta):
        src = SourceSpec(kind, 1.5)
        eff = EfficiencyPair(*eta)
        got = analytic_moments(src, eff)
        j = source_joint(src, tail_tol=1e-13)
        want = oracles.detected_moments(thin_joint(j, eff))
        for field in ("mean1", "mean2", "var1", "var2", "cov"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("kind", ["twin_beam", "coherent_pair", "split_thermal"])
    def test_analytic_matches_distribution_three_modes(self, kind):
        src, eff = SourceSpec(kind, 2.0, 3), EfficiencyPair(0.6, 0.7)
        table = source_joint(src, eff, 1e-13)
        got, want = analytic_moments(src, eff), oracles.detected_moments(table)
        for field in ("mean1", "mean2", "var1", "var2", "cov"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-8, abs=1e-10)
        if kind == "coherent_pair":  # exactly 0 in closed form, rounding noise in the table
            assert correlation_coefficient(src, eff) == 0.0
            assert abs(oracles.correlation_from_joint(table)) < 1e-10
        else:
            assert correlation_coefficient(src, eff) == pytest.approx(
                oracles.correlation_from_joint(table), rel=1e-8)

    def test_twb_mean_independent_of_mu(self):
        eff = EfficiencyPair(0.6, 0.7)
        for mu in (1, 3, 14):
            m = analytic_moments(SourceSpec.twin_beam(4.0, mu), eff)
            assert m.mean1 == pytest.approx(0.6 * 4.0, rel=1e-12)

    def test_split_thermal_variance_scales_with_mu(self):
        eff = EfficiencyPair(0.71, 0.71)
        # per-beam totals fixed; variance of each beam drops as modes share the energy
        v1 = analytic_moments(SourceSpec.split_thermal(4.0, 1), eff).var1
        v2 = analytic_moments(SourceSpec.split_thermal(4.0, 2), eff).var1
        n, eta = 4.0, 0.71
        assert v1 == pytest.approx(eta**2 * n * (1 + n) + eta * (1 - eta) * n, rel=1e-12)
        assert v2 == pytest.approx(eta**2 * n * (1 + n / 2) + eta * (1 - eta) * n, rel=1e-12)


class TestMultimodeConvolve:
    def test_mu_one_identity(self):
        j = source_joint(SourceSpec.twin_beam(1.0))
        assert multimode_convolve(j, 1) is j

    def test_delta_shifts(self):
        p = np.zeros((3, 3))
        p[1, 1] = 1.0
        from photocorr import JointCountDistribution
        j = JointCountDistribution(p, 0.0)
        c = multimode_convolve(j, 2)
        assert c.probs[2, 2] == pytest.approx(1.0)
        assert c.probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("mu", [2, 3])
    def test_mean_and_variance_scale(self, mu):
        src = SourceSpec.split_thermal(1.0)
        j = thin_joint(source_joint(src, tail_tol=1e-13), EfficiencyPair(0.67, 0.67))
        single = oracles.detected_moments(j)
        multi = oracles.detected_moments(multimode_convolve(j, mu, tail_tol=1e-12))
        assert multi.mean1 == pytest.approx(mu * single.mean1, rel=1e-9)
        assert multi.var1 == pytest.approx(mu * single.var1, rel=1e-8)
        assert multi.cov == pytest.approx(mu * single.cov, rel=1e-8)

    def test_nested_sum_oracle_small(self):
        # direct four-index enumeration on a tiny support: cutoff 8
        j = thin_joint(oracles.single_pair_joint(SourceSpec.twin_beam(0.8), 8),
                       EfficiencyPair(0.6, 0.8))
        got = multimode_convolve(j, 2, tail_tol=1e-15)
        c = j.cutoff
        want = np.zeros((2 * c + 1, 2 * c + 1))
        for a1 in range(c + 1):
            for b1 in range(c + 1):
                for a2 in range(c + 1):
                    for b2 in range(c + 1):
                        want[a1 + a2, b1 + b2] += j.probs[a1, b1] * j.probs[a2, b2]
        assert np.max(np.abs(got.probs - want[: got.cutoff + 1, : got.cutoff + 1])) < 1e-15


    def test_matches_repeated_direct_convolution(self):
        j = thin_joint(source_joint(SourceSpec.twin_beam(1.0)), EfficiencyPair(0.6, 0.7))
        want = j.probs
        for _ in range(4):
            want = convolve2d(want, j.probs)
        got = multimode_convolve(j, 5, tail_tol=1e-300)
        assert got.cutoff == 5 * j.cutoff
        assert np.max(np.abs(got.probs - want)) < 1e-15

    def test_holds_two_fft_tables_at_its_peak(self):
        # a 512 x 512 FFT: its complex half-spectrum and its real output take 2 MiB each
        j = thin_joint(oracles.single_pair_joint(SourceSpec.twin_beam(40.0, 14), 76),
                       EfficiencyPair(0.6, 0.7))
        tracemalloc.start()
        try:
            multimode_convolve(j, 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


def test_import_leaves_scipy_stats_and_signal_unloaded():
    # no scipy module at all: the package does not import scipy
    for module in ("photocorr", "photocorr.cli"):
        code = (f"import sys, {module}; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]", module


class TestEfficiencyPair:
    def test_bounds(self):
        with pytest.raises(ValidationError):
            EfficiencyPair(1.2, 0.5)
        with pytest.raises(ValidationError):
            EfficiencyPair(0.5, -0.1)


# the accuracy grid of source_joint: sources, per-beam mean and modes, and efficiencies
# with both edges
JOINT_SOURCES = [("twin_beam", 0.5), ("coherent_pair", 0.5)] + [
    ("split_thermal", tau) for tau in (0.0, 0.3, 0.5, 1.0)]
JOINT_SIZES = [(n_mean, mu) for n_mean in (0.0, 1.0, 10.0, 40.0) for mu in (1, 3, 14)]
JOINT_ETAS = [(1.0, 1.0), (0.66, 0.68), (0.0, 1.0)]


def detected_marginals(src, eff):
    """The exact laws of the two detected counts summed over the mu mode pairs."""
    n, mu = src.per_mode_mean, src.mu
    if src.kind == "coherent_pair":
        return poisson(mu * n * eff.eta1), poisson(mu * n * eff.eta2)
    share = (src.tau, 1.0 - src.tau) if src.kind == "split_thermal" else (0.5, 0.5)
    means = [2.0 * n * s * eta for s, eta in zip(share, (eff.eta1, eff.eta2))]
    return tuple(nbinom(mu, 1.0 / (1.0 + m)) for m in means)


def assert_window_holds(j, src, eff, tail_tol):
    """The exact marginal tails put at most tail_tol / 2 outside the square window, and
    tail_mass is what the table's sum leaves to 1."""
    assert sum(law.sf(j.cutoff) for law in detected_marginals(src, eff)) <= tail_tol / 2
    assert j.tail_mass == max(0.0, 1.0 - j.probs.sum())


class TestSourceJoint:
    """The 2-D pgf inversion against the term-by-term oracle, thinned and convolved."""

    # the oracle's thinning is two matrix products of its side cubed: the split thermal
    # beams of N = 40 at mu = 1 and tau in {0, 0.3, 1} (sides 2100-3000, 2-4 s each) are
    # left out; the full grid held TV <= 8.4e-14 when run by hand
    @pytest.mark.parametrize("kind, tau, n_mean, mu", [
        (kind, tau, n_mean, mu) for kind, tau in JOINT_SOURCES for n_mean, mu in JOINT_SIZES
        if oracles.pair_cutoff(SourceSpec(kind, n_mean / mu, 1, tau), 1e-16) <= 1500])
    @pytest.mark.parametrize("eta", JOINT_ETAS)
    def test_matches_the_thinned_joint_oracle(self, kind, tau, n_mean, mu, eta):
        src, eff = SourceSpec(kind, n_mean, mu, tau), EfficiencyPair(*eta)
        one = SourceSpec(kind, n_mean / mu, 1, tau)
        pair = oracles.single_pair_joint(one, oracles.pair_cutoff(one, 1e-16))
        want = multimode_convolve(thin_joint(pair, eff), mu, tail_tol=1e-14)
        got = source_joint(src, eff, tail_tol=1e-14)
        assert oracles.joint_tv(got.probs, want.probs) <= 1e-12
        assert_window_holds(got, src, eff, 1e-14)

    @pytest.mark.parametrize("kind, tau", JOINT_SOURCES)
    @pytest.mark.parametrize("n_mean, mu", JOINT_SIZES + [(300.0, 14)])
    @pytest.mark.parametrize("eta", JOINT_ETAS)
    def test_mass_beyond_the_window_is_within_tail_tol(self, kind, tau, n_mean, mu, eta):
        src, eff = SourceSpec(kind, n_mean, mu, tau), EfficiencyPair(*eta)
        assert_window_holds(source_joint(src, eff), src, eff, DEFAULT_TAIL_TOL)

    def test_default_efficiency_gives_photon_numbers(self):
        src = SourceSpec.split_thermal(3.0, tau=0.3)
        assert np.array_equal(source_joint(src).probs,
                              source_joint(src, EfficiencyPair(1.0, 1.0)).probs)
