import math

import numpy as np
import pytest
from scipy.special import gammaln, iv

import oracles
from photocorr import (
    DifferenceDistribution,
    EfficiencyPair,
    JointCountDistribution,
    SourceSpec,
    TailToleranceError,
    UndefinedMarkerError,
    ValidationError,
    analytic_moments,
    correlation_coefficient,
    difference_analytic,
    difference_from_joint,
    difference_variance,
    multimode_convolve,
    thin_joint,
    variance_threshold,
)
from photocorr.detection import _pgf_coefficients


def thinned(src, eff, tail_tol=1e-13):
    """The thinned-joint oracle: one mode pair of src, built term by term and thinned."""
    return thin_joint(oracles.single_pair_joint(src, oracles.pair_cutoff(src, tail_tol)), eff)


def total_variation(dd_a, dd_b):
    lo = min(dd_a.support[0], dd_b.support[0])
    hi = max(dd_a.support[1], dd_b.support[1])
    return 0.5 * sum(abs(dd_a.prob(d) - dd_b.prob(d)) for d in range(lo, hi + 1))


class TestCorrelationCoefficient:
    def test_coherent_zero(self):
        assert correlation_coefficient(SourceSpec.coherent_pair(3.0), EfficiencyPair(0.4, 0.9)) == 0.0

    def test_anchor_values(self):
        eff = EfficiencyPair(0.5, 0.5)
        assert correlation_coefficient(SourceSpec.twin_beam(1.0), eff) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert correlation_coefficient(SourceSpec.split_thermal(1.0), eff) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_bright_limit_closes_the_gap(self):
        eff = EfficiencyPair(0.67, 0.67)
        for n in (1e2, 1e4, 1e6):
            twb = correlation_coefficient(SourceSpec.twin_beam(n), eff)
            th = correlation_coefficient(SourceSpec.split_thermal(n), eff)
            assert twb > th
            assert twb - th == pytest.approx(0.67 / (1 + 0.67 * n), rel=1e-9)
        assert correlation_coefficient(SourceSpec.twin_beam(1e8), eff) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eta", [(0.3, 0.5), (0.67, 0.9)])
    def test_gap_identity(self, n, eta):
        eff = EfficiencyPair(*eta)
        gap = correlation_coefficient(SourceSpec.twin_beam(n), eff) - correlation_coefficient(
            SourceSpec.split_thermal(n), eff)
        want = math.sqrt(eta[0] * eta[1]) / math.sqrt((1 + eta[0] * n) * (1 + eta[1] * n))
        assert gap == pytest.approx(want, rel=1e-12)
        assert 0.0 < correlation_coefficient(SourceSpec.split_thermal(n), eff) < 1.0

    @pytest.mark.parametrize("kind", ["twin_beam", "split_thermal"])
    def test_matches_joint_route(self, kind):
        src = SourceSpec(kind, 1.0)
        eff = EfficiencyPair(0.5, 0.5)
        want = {"twin_beam": 2.0 / 3.0, "split_thermal": 1.0 / 3.0}[kind]
        assert oracles.correlation_from_joint(thinned(src, eff)) == pytest.approx(want, rel=1e-8)

    def test_coherent_joint_route_zero(self):
        got = oracles.correlation_from_joint(
            thinned(SourceSpec.coherent_pair(1.0), EfficiencyPair(0.5, 0.5)))
        assert abs(got) < 1e-10

    def test_zero_variance_rejected(self):
        j = JointCountDistribution(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.0)
        with pytest.raises(UndefinedMarkerError):
            oracles.correlation_from_joint(j)

    @pytest.mark.parametrize("src, eta", [
        (SourceSpec.twin_beam(0.0), (0.5, 0.5)),
        (SourceSpec.twin_beam(2.0, mu=3), (0.0, 0.5)),
        (SourceSpec.split_thermal(0.0), (0.5, 0.5)),
        (SourceSpec.split_thermal(1.0), (0.5, 0.0)),
        (SourceSpec.split_thermal(1.0, tau=0.3), (0.0, 0.5)),
    ])
    def test_zero_variance_beam_rejected(self, src, eta):
        with pytest.raises(UndefinedMarkerError):
            correlation_coefficient(src, EfficiencyPair(*eta))

    def test_multimode_uses_per_mode_population(self):
        # splitting the same energy over mu pairs lowers the per-mode mean
        eff = EfficiencyPair(0.6, 0.7)
        got = correlation_coefficient(SourceSpec.twin_beam(10.0, mu=3), eff)
        n = 10.0 / 3.0
        want = (1 + n) * math.sqrt(0.42) / math.sqrt((1 + 0.6 * n) * (1 + 0.7 * n))
        assert got == pytest.approx(want, rel=1e-12)


class TestDifferenceFromJoint:
    def test_point_mass(self):
        p = np.zeros((4, 4))
        p[3, 1] = 1.0
        dd = difference_from_joint(JointCountDistribution(p, 0.0))
        assert dd.prob(2) == 1.0
        assert dd.mean() == pytest.approx(2.0)

    def test_perfect_twb_is_delta_at_zero(self):
        dd = difference_from_joint(thinned(SourceSpec.twin_beam(1.0), EfficiencyPair(1.0, 1.0)))
        assert dd.prob(0) == pytest.approx(1.0, abs=1e-12)
        assert dd.variance() == pytest.approx(0.0, abs=1e-12)

    def test_coherent_center_value(self):
        # independent-Poisson oracle: p(0) = sum_m P(m)^2 = e^-2 I0(2)
        dd = difference_from_joint(thinned(SourceSpec.coherent_pair(1.0), EfficiencyPair(1.0, 1.0)))
        want = sum(math.exp(-2.0 - 2 * gammaln(m + 1)) for m in range(60))
        assert dd.prob(0) == pytest.approx(want, rel=1e-12)
        assert dd.prob(0) == pytest.approx(0.30851, abs=5e-6)


class TestDifferenceAnalytic:
    def test_coherent_skellam_value(self):
        dd = difference_analytic(SourceSpec.coherent_pair(1.0), EfficiencyPair(1.0, 1.0))
        assert dd.prob(0) == pytest.approx(math.exp(-2.0) * iv(0, 2.0), rel=1e-12)

    def test_skellam_by_poisson_convolution(self):
        eff = EfficiencyPair(0.6, 0.9)
        n_mean = 1.5
        dd = difference_analytic(SourceSpec.coherent_pair(n_mean), eff)
        lam1, lam2 = 0.6 * n_mean, 0.9 * n_mean
        for d in (-3, -1, 0, 2, 4):
            want = sum(
                math.exp(-lam1 + (m + d) * math.log(lam1) - gammaln(m + d + 1))
                * math.exp(-lam2 + m * math.log(lam2) - gammaln(m + 1))
                for m in range(max(0, -d), 80)
            )
            assert dd.prob(d) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("kind", ["twin_beam", "coherent_pair", "split_thermal"])
    @pytest.mark.parametrize("eta", [(0.5, 0.5), (0.3, 0.9), (0.67, 0.5)])
    def test_matches_joint_oracle(self, kind, eta):
        src = SourceSpec(kind, 1.0)
        eff = EfficiencyPair(*eta)
        analytic = difference_analytic(src, eff)
        oracle = difference_from_joint(thinned(src, eff))
        assert total_variation(analytic, oracle) < 1e-9

    @pytest.mark.parametrize("kind", ["twin_beam", "coherent_pair", "split_thermal"])
    def test_symmetric_iff_balanced(self, kind):
        src = SourceSpec(kind, 1.0)
        bal = difference_analytic(src, EfficiencyPair(0.6, 0.6))
        for d in range(1, 6):
            if kind == "split_thermal":
                # joint route sums the two anti-diagonals in different orders
                assert bal.prob(d) == pytest.approx(bal.prob(-d), rel=1e-10, abs=1e-14)
            else:
                # series evaluation with swapped efficiencies is the identical computation
                assert bal.prob(d) == bal.prob(-d)
        if kind != "split_thermal":
            unbal = difference_analytic(src, EfficiencyPair(0.4, 0.8))
            asym = max(abs(unbal.prob(d) - unbal.prob(-d)) for d in range(1, 6))
            assert asym > 1e-3

    def test_window_captures_everything(self):
        dd = difference_analytic(SourceSpec.twin_beam(2.0), EfficiencyPair(0.3, 0.9))
        assert dd.tail_mass <= 1e-10
        assert dd.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_is_delta(self):
        dd = difference_analytic(SourceSpec.twin_beam(0.0), EfficiencyPair(0.5, 0.7))
        assert dd.prob(0) == 1.0

    def test_variance_agrees_with_closed_form(self):
        src = SourceSpec.twin_beam(1.0)
        eff = EfficiencyPair(0.5, 0.7)
        dd = difference_analytic(src, eff)
        assert dd.variance() == pytest.approx(difference_variance(src, eff).sigma2_d, rel=1e-8)


def thermal_difference_literal(d, n_mean, eta1, eta2, q_max=90, n_max=45):
    """Triple-series form of the balanced split-thermal difference law.

    Independent nested summation over the photon numbers (q, q') of the two
    output beams and the count overlap n, with binomial weights bound to the
    outer indices; used only as a cross-check oracle at small intensity.
    The three indices are numpy axes (n, q, q'); terms outside
    q >= n + d, q' >= n are masked to zero.
    """
    if d < 0:
        return thermal_difference_literal(-d, n_mean, eta2, eta1, q_max, n_max)
    y = n_mean / (1.0 + 2.0 * n_mean)
    n = np.arange(n_max)[:, None, None]
    q = np.arange(q_max)[None, :, None]
    qp = np.arange(q_max)[None, None, :]
    terms = (
        y ** (q + qp)
        * np.exp(gammaln(q + qp + 1) - gammaln(q + 1) - gammaln(qp + 1))
        * (1 - eta1) ** q * (1 - eta2) ** qp
        * np.exp(gammaln(q + 1) - gammaln(n + d + 1) - gammaln(np.maximum(q - n - d, 0) + 1))
        * np.exp(gammaln(qp + 1) - gammaln(n + 1) - gammaln(np.maximum(qp - n, 0) + 1))
    )
    inner = np.where((q >= n + d) & (qp >= n), terms, 0.0).sum(axis=(1, 2))
    ratio_n = (eta1 * eta2 / ((1 - eta1) * (1 - eta2))) ** np.arange(n_max)
    return float(ratio_n @ inner) * (eta1 / (1 - eta1)) ** d / (1.0 + 2.0 * n_mean)


class TestThermalLiteralSeries:
    @pytest.mark.parametrize("eta", [(0.5, 0.5), (0.5, 0.7)])
    def test_matches_joint_route_at_small_n(self, eta):
        src = SourceSpec.split_thermal(0.5)
        eff = EfficiencyPair(*eta)
        dd = difference_analytic(src, eff)
        for d in range(-4, 5):
            want = thermal_difference_literal(d, 0.5, *eta)
            assert dd.prob(d) == pytest.approx(want, rel=1e-8)


KINDS = ["twin_beam", "coherent_pair", "split_thermal"]


class TestManyModesAndBrightBeams:
    @pytest.mark.parametrize("n_mean", [10.0, 300.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_mu_modes_match_convolved_single_pair(self, kind, n_mean):
        eff = EfficiencyPair(0.6, 0.7)
        got = difference_analytic(SourceSpec(kind, n_mean, 14), eff)
        # the 2-D route: the 14-fold convolution of the thinned single-pair joint table
        pair = thinned(SourceSpec(kind, n_mean, 14), eff)
        joint = multimode_convolve(pair, 14, tail_tol=1e-12)
        assert total_variation(got, difference_from_joint(joint)) < 1e-9
        # the window leaves out at most tail_tol / 2 beyond what the 14 pairs leave out
        assert joint.tail_mass <= 1e-12 / 2 + 14 * pair.tail_mass

    @pytest.mark.parametrize("kind", KINDS)
    def test_bright_beam_moments(self, kind):
        src = SourceSpec(kind, 1e6, 14)
        eff = EfficiencyPair(0.66, 0.68)
        dd = difference_analytic(src, eff)
        m = analytic_moments(src, eff)
        assert dd.probs.sum() == pytest.approx(1.0 - dd.tail_mass, abs=1e-12)
        assert dd.tail_mass <= 1e-10
        assert dd.mean() == pytest.approx(m.mean1 - m.mean2, rel=1e-6)
        assert dd.variance() == pytest.approx(difference_variance(src, eff).sigma2_d, rel=1e-6)

    @pytest.mark.parametrize("n_mean", [1e3, 1e5, 1e7])
    @pytest.mark.parametrize("kind", KINDS)
    def test_cumulants_match_closed_forms(self, kind, n_mean):
        # kappa_1..4 of d from the derivatives of ln G(e**t, e**-t)**mu at t = 0: no FFT,
        # no window, no Chernoff bound; N = 1e7 also shows the table budget admits it
        src, eff = SourceSpec(kind, n_mean, 14), EfficiencyPair(0.66, 0.68)
        dd = difference_analytic(src, eff)
        bose, a, b, c, _, _ = _pgf_coefficients(kind, src.per_mode_mean, src.tau,
                                                eff.eta1, eff.eta2)
        x1, x2, mu = a - b, a + b - 2 * c, src.mu
        if bose:
            want = [mu * x1, mu * (x2 + x1**2), mu * (x1 + 3 * x1 * x2 + 2 * x1**3),
                    mu * (x2 + 4 * x1**2 + 3 * x2**2 + 12 * x1**2 * x2 + 6 * x1**4)]
        else:
            want = [mu * x1, mu * x2, mu * x1, mu * x2]
        p = dd.probs / dd.probs.sum()
        mean = p @ dd.d_values
        c = dd.d_values - mean
        m2, m3, m4 = p @ c**2, p @ c**3, p @ c**4
        got = [mean, m2, m3, m4 - 3.0 * m2**2]
        assert got[0] == pytest.approx(want[0], rel=1e-9)
        assert got[1] == pytest.approx(want[1], rel=1e-9)
        if bose:
            assert got[2] == pytest.approx(want[2], rel=5e-8)
            assert got[3] == pytest.approx(want[3], rel=1e-6)
        else:  # kappa_3 and kappa_4 are tiny against sigma**3 and sigma**4
            sigma = math.sqrt(want[1])
            assert abs(got[2] - want[2]) / sigma**3 <= 1e-7
            assert abs(got[3] - want[3]) / sigma**4 <= 1e-7

    @pytest.mark.parametrize("n_mean, mu", [(1.0, 1), (1.0, 14), (1.0, 10**6), (1.0, 10**12),
                                            (1e7, 10**8), (1e7, 10**12)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_normalised_at_any_mode_count(self, kind, n_mean, mu):
        # many modes of a fixed total N: each pair's pgf is 1/(1 - x) at a tiny x, whose
        # logarithm mu magnifies
        src, eff = SourceSpec(kind, n_mean, mu), EfficiencyPair(0.6, 0.7)
        dd = difference_analytic(src, eff)
        assert dd.probs.sum() + dd.tail_mass == pytest.approx(1.0, abs=1e-12)
        assert dd.variance() == pytest.approx(difference_variance(src, eff).sigma2_d, rel=1e-6)

    def test_oversized_window_rejected(self):
        with pytest.raises(TailToleranceError):
            difference_analytic(SourceSpec.twin_beam(1e15, 14), EfficiencyPair(0.5, 0.7))

    @pytest.mark.parametrize("tail_tol", [0.0, -1e-10, 1.0])
    def test_tail_tol_validated(self, tail_tol):
        with pytest.raises(ValidationError):
            difference_analytic(SourceSpec.twin_beam(1.0), EfficiencyPair(0.5, 0.7),
                                tail_tol=tail_tol)

    def test_one_sided_support(self):
        # a perfect detector on beam 1 sees every twin photon: d >= 0
        dd = difference_analytic(SourceSpec.twin_beam(2.0), EfficiencyPair(1.0, 0.6))
        assert dd.support[0] == 0
        oracle = difference_from_joint(thinned(SourceSpec.twin_beam(2.0), EfficiencyPair(1.0, 0.6)))
        assert total_variation(dd, oracle) < 1e-9

    @pytest.mark.parametrize("d_range", [(-90, 0), (-3, 60), (20, 40)])
    def test_balanced_law_asymmetric_range(self, d_range):
        # A = B: the window is mirrored and the law averaged with its mirror image;
        # it must match the oracle pointwise over one-sided ranges too
        src, eff = SourceSpec.twin_beam(1.0), EfficiencyPair(0.6, 0.6)
        dd = difference_analytic(src, eff)
        assert dd.support[0] == -dd.support[1]
        oracle = difference_from_joint(thinned(src, eff))
        for d in range(d_range[0], d_range[1] + 1):
            assert dd.prob(d) == pytest.approx(oracle.prob(d), abs=1e-12)


class TestDifferenceVariance:
    def test_balanced_twb_form(self):
        rep = difference_variance(SourceSpec.twin_beam(3.0), EfficiencyPair(0.6, 0.6))
        assert rep.sigma2_d == 2.0 * 0.6 * (1.0 - 0.6) * 3.0
        assert rep.below_shot_noise

    def test_perfect_detection_cancels(self):
        rep = difference_variance(SourceSpec.twin_beam(3.0), EfficiencyPair(1.0, 1.0))
        assert rep.sigma2_d == 0.0

    def test_unbalanced_anchor(self):
        rep = difference_variance(SourceSpec.twin_beam(1.0), EfficiencyPair(0.5, 0.7))
        assert rep.sigma2_d == pytest.approx(0.54, rel=1e-12)

    def test_balanced_classical_sources_agree(self):
        eff = EfficiencyPair(0.67, 0.67)
        a = difference_variance(SourceSpec.coherent_pair(2.0), eff).sigma2_d
        v = difference_variance(SourceSpec.split_thermal(2.0), eff).sigma2_d
        assert a == v

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
    def test_twb_strictly_below_classical_when_balanced(self, n):
        for eta in (0.3, 0.67, 0.9):
            eff = EfficiencyPair(eta, eta)
            x = difference_variance(SourceSpec.twin_beam(n), eff).sigma2_d
            a = difference_variance(SourceSpec.coherent_pair(n), eff).sigma2_d
            v = difference_variance(SourceSpec.split_thermal(n), eff).sigma2_d
            assert x < a == v

    def test_unbalanced_ordering_and_threshold(self):
        eff = EfficiencyPair(0.5, 0.7)
        n_th = variance_threshold(eff)
        for n in (1.0, 10.0, 17.0, 18.0, 30.0):
            x = difference_variance(SourceSpec.twin_beam(n), eff).sigma2_d
            a = difference_variance(SourceSpec.coherent_pair(n), eff).sigma2_d
            v = difference_variance(SourceSpec.split_thermal(n), eff).sigma2_d
            assert x < v and a < v
            assert (x < a) == (n < n_th)

    def test_threshold_crossing_exact(self):
        eff = EfficiencyPair(0.5, 0.7)
        n_th = variance_threshold(eff)
        x = difference_variance(SourceSpec.twin_beam(n_th), eff).sigma2_d
        a = difference_variance(SourceSpec.coherent_pair(n_th), eff).sigma2_d
        assert x == pytest.approx(a, rel=1e-12)

    def test_threshold_value(self):
        assert variance_threshold(EfficiencyPair(0.5, 0.7)) == pytest.approx(17.5, rel=1e-14)

    def test_threshold_unbounded_for_equal_efficiencies(self):
        assert variance_threshold(EfficiencyPair(0.6, 0.6)) is None

    @pytest.mark.parametrize("eta, want", [((1e-200, 2e-200), 4.0), ((0.0, 1e-300), 0.0),
                                           ((1e-160, 2e-160), 4.0), ((5e-324, 0.0), 0.0)])
    def test_threshold_where_the_squared_gap_underflows(self, eta, want):
        assert variance_threshold(EfficiencyPair(*eta)) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("eta", [(0.5, 0.7), (0.66, 0.68), (1e-100, 3e-100), (0.5, 0.5 + 2**-52)])
    def test_threshold_keeps_the_closed_form_bits(self, eta):
        e1, e2 = eta
        assert variance_threshold(EfficiencyPair(*eta)) == 2.0 * e1 * e2 / (e1 - e2) ** 2

    def test_multimode_quadratic_term(self):
        rep = difference_variance(SourceSpec.twin_beam(10.0, mu=5), EfficiencyPair(0.5, 0.7))
        assert rep.sigma2_d == pytest.approx(0.04 * 100.0 / 5 + 0.5 * 10.0, rel=1e-12)


class TestDifferenceDistributionType:
    def test_rejects_unnormalized(self):
        with pytest.raises(Exception):
            DifferenceDistribution(np.array([0.4, 0.4]), -1, 0.0)

    def test_rejects_a_table(self):
        with pytest.raises(ValidationError, match="probs: expected a 1-d array"):
            DifferenceDistribution(np.full((2, 2), 0.25), -1, 0.0)

    def test_accessors(self):
        dd = DifferenceDistribution(np.array([0.25, 0.5, 0.25]), -1, 0.0)
        assert dd.support == (-1, 1)
        assert dd.prob(5) == 0.0
        assert dd.prob(np.int64(-1)) == dd.prob(-1.0) == 0.25
        assert dd.mean() == 0.0
        assert dd.variance() == pytest.approx(0.5)

    @pytest.mark.parametrize("d", [2.5, "a", None, True, math.nan, [0]])
    def test_prob_refuses_a_non_integer(self, d):
        with pytest.raises(ValidationError, match="d: must be an integer"):
            DifferenceDistribution(np.array([0.25, 0.5, 0.25]), -1).prob(d)
