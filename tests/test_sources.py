import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import poisson

from photocorr import (
    DifferenceDistribution,
    EfficiencyPair,
    JointCountDistribution,
    SourceSpec,
    TailToleranceError,
    ValidationError,
    difference_analytic,
    multimode_convolve,
    multithermal_pdf,
    source_joint,
    thermal_pmf,
    thin_joint,
    twin_beam_joint,
)
from photocorr import sources
from photocorr.detection import loss_matrix
from photocorr.sources import _check_cutoff, _log_factorial

N_GRID = [0.0, 0.5, 1.0, 2.0, 5.0]
EFF = EfficiencyPair(0.6, 0.7)
KINDS = ["twin_beam", "coherent_pair", "split_thermal"]


def tol_for_cutoff(c):
    """The tail tolerance at which a twin beam of mean 1 (tail 2**-(c+1)) gets cutoff c."""
    return 1.5 * 2.0 ** -(c + 1)


class TestTwinBeamJoint:
    def test_vacuum_is_delta(self):
        j = source_joint(SourceSpec.twin_beam(0.0))
        assert j.probs[0, 0] == 1.0
        assert j.tail_mass == 0.0

    def test_cutoff_zero(self):
        # geometric series: x^2 = 1/2, p(0,0) = 1 - x^2, tail = x^2
        j = source_joint(SourceSpec.twin_beam(1.0), tol_for_cutoff(0))
        assert j.probs[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert j.tail_mass == pytest.approx(0.5, abs=1e-15)

    def test_diagonal_only(self):
        j = source_joint(SourceSpec.twin_beam(2.0))
        off = j.probs - np.diag(np.diag(j.probs))
        assert np.all(off == 0.0)

    def test_marginal_mean_approaches_n(self):
        j = source_joint(SourceSpec.twin_beam(1.0), 1e-13)
        n = np.arange(j.cutoff + 1)
        assert j.marginal(1) @ n == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("n_mean", N_GRID)
    def test_normalization(self, n_mean):
        j = source_joint(SourceSpec.twin_beam(n_mean))
        assert abs(j.probs.sum() + j.tail_mass - 1.0) < 1e-12
        assert j.tail_mass <= 1e-10

    def test_negative_mean_rejected(self):
        with pytest.raises(ValidationError):
            source_joint(SourceSpec.twin_beam(-0.5))

    def test_tail_tolerance_error_reports_cutoff(self):
        with pytest.raises(TailToleranceError) as err:
            source_joint(SourceSpec.twin_beam(1e8))
        assert err.value.required_cutoff > 20000

    @pytest.mark.parametrize("n_mean", N_GRID)
    def test_the_benchmark_name_is_the_single_mode_source_joint(self, n_mean):
        want = source_joint(SourceSpec.twin_beam(n_mean))
        got = twin_beam_joint(n_mean)
        assert np.array_equal(got.probs, want.probs) and got.tail_mass == want.tail_mass


class TestCoherentPairJoint:
    def test_vacuum(self):
        j = source_joint(SourceSpec.coherent_pair(0.0))
        assert j.probs[0, 0] == 1.0

    def test_p00_matches_direct_poisson(self):
        j = source_joint(SourceSpec.coherent_pair(1.0))
        assert j.probs[0, 0] == pytest.approx(math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("n_mean", [0.5, 1.0, 2.0, 5.0])
    def test_factorizes(self, n_mean):
        j = source_joint(SourceSpec.coherent_pair(n_mean), 1e-13)
        outer = np.outer(j.marginal(1), j.marginal(2))
        assert np.max(np.abs(j.probs - outer)) < 1e-12

    @pytest.mark.parametrize("n_mean, tail_tol, cutoff", [
        (60.0, 1e-10, 117), (10.0, 1e-10, 37), (1.0, 1e-10, 14), (0.3, 1e-10, 9),
        (1000.0, 1e-10, 1212), (60.0, 1e-14, 130), (1.0, 1e-16, 19), (1.0, 1e-300, 167),
        (1e-300, 1e-300, 2), (1000.0, 1e-14, 1255), (60.0, 1e-300, 532), (10.0, 1e-30, 66),
        (0.3, 1e-300, 135),
    ])
    def test_cutoff_is_the_least_whose_tail_is_within_half_the_tolerance(self, n_mean, tail_tol,
                                                                          cutoff):
        c = source_joint(SourceSpec.coherent_pair(n_mean), tail_tol).cutoff
        assert poisson.sf(c - 1, n_mean) <= tail_tol / 2 < poisson.sf(c - 2, n_mean)  # P(X >= c)
        assert c == cutoff

    @pytest.mark.parametrize("n_mean", [1e5, 1e300])
    def test_an_oversized_table_is_refused_before_the_tail_is_walked(self, monkeypatch, n_mean):
        # the cutoff is at least floor(n_mean), so the budget refuses the table first
        def walk(lam, tol):
            raise AssertionError("the tail was walked")
        monkeypatch.setattr(sources, "_poisson_cutoff", walk)
        with pytest.raises(TailToleranceError, match="table budget"):
            source_joint(SourceSpec.coherent_pair(n_mean))

    @pytest.mark.parametrize("n_mean", N_GRID)
    def test_normalization_and_means(self, n_mean):
        j = source_joint(SourceSpec.coherent_pair(n_mean), 1e-13)
        assert abs(j.probs.sum() + j.tail_mass - 1.0) < 1e-12
        n = np.arange(j.cutoff + 1)
        for beam in (1, 2):
            assert j.marginal(beam) @ n == pytest.approx(n_mean, abs=1e-9)


class TestSplitThermalJoint:
    def test_vacuum(self):
        j = source_joint(SourceSpec.split_thermal(0.0))
        assert j.probs[0, 0] == 1.0

    def test_p00_is_nu0(self):
        # zero photons in both beams requires zero input photons
        j = source_joint(SourceSpec.split_thermal(1.0))
        assert j.probs[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_balanced_marginal_zero_by_geometric_series(self):
        # sum_k (1/3)(2/3)^k (1/2)^k = (1/3)/(1 - 1/3) = 1/2
        j = source_joint(SourceSpec.split_thermal(1.0), 1e-13)
        assert j.marginal(1)[0] == pytest.approx(0.5, rel=1e-11)

    def test_transparent_splitter(self):
        j = source_joint(SourceSpec.split_thermal(1.0, tau=1.0))
        assert np.all(j.probs[:, 1:] == 0.0)
        k = np.arange(j.cutoff + 1)
        assert np.allclose(j.probs[:, 0], thermal_pmf(k, 2.0), atol=1e-12)

    def test_opaque_splitter_is_exactly_thermal(self):
        # 0 * log 0 = 0 in the log-binomial: beam 1 is empty, beam 2 carries the thermal law
        j = source_joint(SourceSpec.split_thermal(1.0, tau=0.0))
        assert np.all(j.probs[1:, :] == 0.0)
        assert np.array_equal(j.probs[0, :], thermal_pmf(np.arange(j.cutoff + 1), 2.0))

    @pytest.mark.parametrize("n_mean", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
    def test_marginals_thermal(self, n_mean, tau):
        j = source_joint(SourceSpec.split_thermal(n_mean, tau=tau), 1e-13)
        k = np.arange(j.cutoff + 1)
        for beam, mean in ((1, 2 * n_mean * tau), (2, 2 * n_mean * (1 - tau))):
            got = j.marginal(beam)
            want = thermal_pmf(k, mean)
            # truncation removes a little mass from the top entries only
            assert np.max(np.abs(got - want)[: j.cutoff // 2]) < 1e-10

    @pytest.mark.parametrize("n_mean", N_GRID)
    def test_normalization(self, n_mean):
        j = source_joint(SourceSpec.split_thermal(n_mean))
        assert abs(j.probs.sum() + j.tail_mass - 1.0) < 1e-12


class TestThermalPmf:
    @pytest.mark.parametrize("k", [-1, 2.5, math.nan, math.inf, "a", [0, -2], [True]])
    def test_points_that_are_not_integers_from_zero_rejected(self, k):
        with pytest.raises(ValidationError, match="k"):
            thermal_pmf(k, 2.0)


class TestMultithermalPdf:
    def test_single_mode_is_exponential(self):
        v = np.linspace(0.0, 10.0, 50)
        want = np.exp(-v / 2.0) / 2.0
        assert np.allclose(multithermal_pdf(v, 1, 2.0), want, rtol=1e-12)

    @pytest.mark.parametrize("mu", [1, 2, 14, 15])
    @pytest.mark.parametrize("v_mean", [0.5, 1.0, 10.0])
    def test_moments_by_quadrature(self, mu, v_mean):
        norm, _ = quad(lambda v: multithermal_pdf(v, mu, v_mean), 0, np.inf)
        mean, _ = quad(lambda v: v * multithermal_pdf(v, mu, v_mean), 0, np.inf)
        m2, _ = quad(lambda v: v * v * multithermal_pdf(v, mu, v_mean), 0, np.inf)
        assert norm == pytest.approx(1.0, rel=1e-8)
        assert mean == pytest.approx(v_mean, rel=1e-8)
        assert m2 - mean**2 == pytest.approx(v_mean**2 / mu, rel=1e-6)

    def test_real_mu_accepted(self):
        assert multithermal_pdf(1.0, 14.5, 1.0) > 0.0

    def test_negative_v_rejected(self):
        with pytest.raises(ValidationError):
            multithermal_pdf(-0.1, 14, 1.0)

    @pytest.mark.parametrize("v", [math.nan, math.inf, "a", [0.5, math.nan], [True]])
    def test_points_that_are_not_finite_numbers_rejected(self, v):
        with pytest.raises(ValidationError, match="v"):
            multithermal_pdf(v, 2, 1.0)

    @pytest.mark.parametrize("v_mean", [1e-300, 1.0, 1e300])
    def test_accurate_at_the_largest_mode_count(self, v_mean):
        # the density at its mean is sqrt(mu / 2 pi) exp(-1 / (12 mu)) / v_mean, by Stirling's
        # series, to about 1/(360 mu**3) relative
        mu = 1e6
        want = math.sqrt(mu / (2.0 * math.pi)) * math.exp(-1.0 / (12.0 * mu)) / v_mean
        assert multithermal_pdf(v_mean, mu, v_mean) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("mu", [math.nextafter(1e6, math.inf), 1e14, 1e300])
    def test_refused_above_the_largest_mode_count(self, mu):
        with pytest.raises(ValidationError, match="mu"):
            multithermal_pdf([1.0, 2.0], mu, 1.0)


class TestSourceSpec:
    def test_kind_validated(self):
        with pytest.raises(ValidationError):
            SourceSpec("squeezed", 1.0)

    def test_mu_validated(self):
        with pytest.raises(ValidationError):
            SourceSpec.twin_beam(1.0, mu=0)

    @pytest.mark.parametrize("n_mean", [math.inf, -math.inf, math.nan])
    def test_non_finite_mean_rejected(self, n_mean):
        with pytest.raises(ValidationError, match="n_mean"):
            SourceSpec.coherent_pair(n_mean)

    def test_tau_validated(self):
        with pytest.raises(ValidationError):
            SourceSpec.split_thermal(1.0, tau=1.5)

    def test_source_joint_dispatch(self):
        for ctor in (SourceSpec.twin_beam, SourceSpec.coherent_pair, SourceSpec.split_thermal):
            j = source_joint(ctor(1.0))
            assert abs(j.probs.sum() + j.tail_mass - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_source_joint_is_one_of_the_mode_pairs(self, kind):
        j = source_joint(SourceSpec(kind, 10.0, 14))
        assert j.marginal(1) @ np.arange(j.cutoff + 1) == pytest.approx(10.0 / 14, rel=1e-6)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_mean", [math.inf, math.nan])
def test_non_finite_mean_rejected_by_joints(kind, n_mean):
    with pytest.raises(ValidationError, match="n_mean"):
        source_joint(SourceSpec(kind, n_mean))


@pytest.mark.parametrize("tail_tol", [0.0, 1.0, -1e-10, math.nan, math.inf])
def test_tail_tolerance_outside_zero_one_rejected(tail_tol):
    with pytest.raises(ValidationError, match=r"tail_tol: must be a number in \(0, 1\)"):
        source_joint(SourceSpec.split_thermal(1.0, tau=0.3), tail_tol)


class TestTableBudget:
    """One float64 table budget, sources._TABLE_BYTES, guards every exact layer."""

    SMALL = 1 << 16  # 8192 points: a joint table of cutoff 89
    AUTO = "auto"  # an automatic cutoff, above the 89 the small budget admits

    # each case builds its call at the real budget; the call runs under the small one
    @pytest.mark.parametrize("prepare, cutoff", [
        (lambda: partial(source_joint, SourceSpec.twin_beam(1.0), tol_for_cutoff(100)), 100),
        (lambda: partial(source_joint, SourceSpec.twin_beam(50.0)), AUTO),
        (lambda: partial(source_joint, SourceSpec.coherent_pair(70.0), 1e-3), 100),
        # floor(n_mean), no cdf walk
        (lambda: partial(source_joint, SourceSpec.coherent_pair(1e5)), 100000),
        # refused after the walk
        (lambda: partial(source_joint, SourceSpec.coherent_pair(80.0)), AUTO),
        # each beam's tail tolerance is half the table's
        (lambda: partial(source_joint, SourceSpec.split_thermal(1.0), tol_for_cutoff(99)), 100),
        (lambda: partial(source_joint, SourceSpec.split_thermal(50.0, tau=0.3)), AUTO),
        (lambda: partial(loss_matrix, 0.5, 100), 100),
        (lambda: partial(thin_joint, source_joint(SourceSpec.twin_beam(1.0), tol_for_cutoff(100)),
                         EFF), 100),
        (lambda: partial(multimode_convolve,
                         source_joint(SourceSpec.twin_beam(1.0), tol_for_cutoff(10)), 14), 69),
        (lambda: partial(difference_analytic, SourceSpec.twin_beam(1e6, 14), EFF), None),
    ], ids=["twin-100", "twin-auto", "coherent-100", "coherent-auto-bound",
            "coherent-auto-walk", "split-100", "split-auto", "loss_matrix", "thin_joint",
            "multimode_convolve", "difference_analytic"])
    def test_refused_before_allocating(self, monkeypatch, prepare, cutoff):
        call = prepare()
        monkeypatch.setattr(sources, "_TABLE_BYTES", self.SMALL)
        tracemalloc.start()
        try:
            with pytest.raises(TailToleranceError, match="table budget") as err:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.SMALL
        if cutoff == self.AUTO:
            assert err.value.required_cutoff > 89
        else:
            assert err.value.required_cutoff == cutoff

    def test_edge_of_the_budget(self, monkeypatch):
        monkeypatch.setattr(sources, "_TABLE_BYTES", self.SMALL)
        assert source_joint(SourceSpec.twin_beam(1.0), tol_for_cutoff(89)).cutoff == 89
        with pytest.raises(TailToleranceError):
            source_joint(SourceSpec.twin_beam(1.0), tol_for_cutoff(90))

    def test_real_budget(self):
        # 2**27 bytes are 2**24 points: a joint table of cutoff 4095 or the widest p(d) FFT
        assert _check_cutoff(4095, 1e-10) == 4095
        with pytest.raises(TailToleranceError) as err:
            _check_cutoff(4096, 1e-10)
        assert err.value.required_cutoff == 4096
        # a twin beam of mean 1e6 needs cutoff 23 025 862 at the default tail tolerance
        for call in (partial(source_joint, SourceSpec.twin_beam(1e6)),
                     partial(loss_matrix, 0.5, 10**6)):
            with pytest.raises(TailToleranceError, match="128 MiB table budget"):
                call()


class TestJointCountDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            JointCountDistribution(np.eye(3) / 2.0, 0.0)

    def test_rejects_negative(self):
        p = np.zeros((2, 2))
        p[0, 0] = 1.5
        p[1, 1] = -0.5
        with pytest.raises(ValidationError):
            JointCountDistribution(p, 0.0)

    @pytest.mark.parametrize("make", [lambda: JointCountDistribution(np.zeros((0, 0)), 1.0),
                                      lambda: DifferenceDistribution(np.zeros(0), 0, 1.0)],
                             ids=["joint", "difference"])
    def test_rejects_empty(self, make):
        # the pmf check both distribution types share
        with pytest.raises(ValidationError, match="empty"):
            make()


class TestCheckedArray:
    """The array form of the number check against the scalar form, element by element."""

    VALUES = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 1.5, 2.0, 1e308]

    @pytest.mark.parametrize("rule", sorted(sources._DOMAINS))
    def test_agrees_with_the_scalar_check(self, rule):
        passing, want = [], []
        for value in self.VALUES:
            try:
                want.append(sources._checked("x", value, rule))
                passing.append(value)
            except ValidationError:
                with pytest.raises(ValidationError, match=r"x\[3\]: must be"):
                    sources._checked_array("x", [0.5 if rule == "(0, 1)" else 1.0] * 3 + [value],
                                           rule)
        got = sources._checked_array("x", passing, rule)
        assert got.dtype == np.float64 and got.tolist() == want

    def test_names_the_first_offending_element(self):
        with pytest.raises(ValidationError, match=r"x\[1, 0\]: .* got nan"):
            sources._checked_array("x", [[1.0, 2.0], [math.nan, -1.0]], ">= 0")

    @pytest.mark.parametrize("values", [[True, False], ["1"], np.array([0.5], dtype=object)])
    def test_refuses_what_is_not_a_number(self, values):
        with pytest.raises(ValidationError, match="array of numbers"):
            sources._checked_array("x", values, "finite")

    def test_empty_array_passes(self):
        assert sources._checked_array("x", [], "> 0").size == 0


class TestLogFactorial:
    def test_small_values(self):
        assert _log_factorial(0).tolist() == [0.0]
        want = [math.log(math.factorial(k)) for k in range(21)]
        assert _log_factorial(20) == pytest.approx(want, rel=1e-15, abs=1e-15)

    def test_matches_gammaln(self):
        k = np.arange(45001)
        np.testing.assert_allclose(_log_factorial(45000), gammaln(k + 1.0), rtol=1e-14, atol=0)
