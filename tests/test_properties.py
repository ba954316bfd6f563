"""Property tests of the closed-form source model over random parameters.

The difference variance, the detected moments and the noise-budget base
variance are written from one source model; these checks tie them together
over kind, tau, N, mu and both efficiencies, tie p(d) to the moments, and tie
the joint tables of two efficiencies together by thinning.
Runs are derandomized, so the examples are the same on every run.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from photocorr import (
    DifferenceDistribution,
    EfficiencyPair,
    SourceSpec,
    TailToleranceError,
    analytic_moments,
    difference_analytic,
    difference_variance,
    noise_surface,
    solve_pump_noise,
    source_joint,
    thin_joint,
)
from photocorr.markers import _variances
from photocorr.sources import DEFAULT_TAIL_TOL

KINDS = ("twin_beam", "coherent_pair", "split_thermal")

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None, database=None)

# subnormal inputs only test float underflow (0.5 * 5e-324 == 0), not the model
etas = st.floats(0.0, 1.0, allow_subnormal=False)
budget_etas = st.floats(0.01, 1.0)
taus = st.one_of(st.just(0.5), st.floats(0.0, 1.0, allow_subnormal=False))
means = st.floats(0.0, 1e7, allow_subnormal=False)
modes = st.integers(1, 40)


def source(kind, n_mean, mu, tau):
    return SourceSpec(kind, n_mean, mu, tau if kind == "split_thermal" else 0.5)


@PROPERTY
@given(st.sampled_from(KINDS), taus, means, modes, etas, etas)
def test_difference_variance_is_var1_plus_var2_minus_2cov(kind, tau, n_mean, mu, eta1, eta2):
    src = source(kind, n_mean, mu, tau)
    eff = EfficiencyPair(eta1, eta2)
    m = analytic_moments(src, eff)
    got = difference_variance(src, eff).sigma2_d
    # the two routes round differently; bound by the size of the terms they cancel
    scale = m.var1 + m.var2 + 2.0 * abs(m.cov)
    assert got == pytest.approx(m.var1 + m.var2 - 2.0 * m.cov, rel=1e-12, abs=1e-12 * scale)


@PROPERTY
@given(st.sampled_from(("twin_beam", "split_thermal")), st.floats(1e-3, 1e7), modes,
       budget_etas, budget_etas)
def test_pump_budget_base_is_the_difference_variance(kind, n_mean, mu, eta1, eta2):
    # measured means m_j = eta_j N put the budget's photon number back at N
    fit = solve_pump_noise(1.0, eta1, eta2, eta1 * n_mean, eta2 * n_mean, mu, kind)
    want = difference_variance(SourceSpec(kind, n_mean, mu), EfficiencyPair(eta1, eta2)).sigma2_d
    assert fit.base_sigma2 == pytest.approx(want, rel=1e-12)


@PROPERTY
@given(st.sampled_from(KINDS), taus, st.floats(0.0, 1e5, allow_subnormal=False), modes, etas, etas)
def test_difference_variance_is_additive_in_mu(kind, tau, per_mode, mu, eta1, eta2):
    eff = EfficiencyPair(eta1, eta2)
    one = difference_variance(source(kind, per_mode, 1, tau), eff).sigma2_d
    many = difference_variance(source(kind, mu * per_mode, mu, tau), eff).sigma2_d
    assert many == pytest.approx(mu * one, rel=1e-12, abs=1e-300)  # abs: underflow only


@settings(PROPERTY, max_examples=100)
@given(st.sampled_from(KINDS), taus, modes,
       st.lists(st.tuples(means, etas, etas), min_size=1, max_size=8))
def test_a_grid_in_one_call_equals_the_scalar_calls(kind, tau, mu, points):
    # the sweep's broadcasting route against difference_variance, element for element
    n, eta1, eta2 = (np.array(column) for column in zip(*points))
    tau = source(kind, 0.0, mu, tau).tau
    s2, shot = _variances(kind, n, mu, tau, eta1, eta2)
    want = [difference_variance(source(kind, n_mean, mu, tau), EfficiencyPair(e1, e2))
            for n_mean, e1, e2 in points]
    assert s2.tolist() == [r.sigma2_d for r in want]
    assert shot.tolist() == [r.shot_noise_level for r in want]


def squares_apart(values):
    """The values whose square C pow (Python's x**2) and x * x round apart."""
    values = values.tolist()
    return np.array([v for v in values if v**2 != v * v])


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_and_array_variances_agree_bit_for_bit(kind):
    # difference_variance squares Python floats, _variances numpy arrays; both must
    # multiply, or about 1 square in 1000 differs in the last bit
    n = squares_apart(np.random.default_rng(1).uniform(0.0, 1e7, 20000))
    assert n.size > 0
    eff = EfficiencyPair(0.66, 0.68)
    s2, shot = _variances(kind, n, 14, 0.5, eff.eta1, eff.eta2)
    want = [difference_variance(SourceSpec(kind, v, 14), eff) for v in n.tolist()]
    assert s2.tolist() == [r.sigma2_d for r in want]
    assert shot.tolist() == [r.shot_noise_level for r in want]


@pytest.mark.parametrize("kind", ("twin_beam", "split_thermal"))
def test_scalar_and_array_pump_budgets_agree_bit_for_bit(kind):
    # the budget squares N_j = m_j / eta_j, their mean and arcsinh(sqrt(N_j / mu))
    eta1 = np.linspace(0.5, 0.9, 2001)
    assert squares_apart(7.225e6 / eta1).size > 0
    sigma2, m1, m2, mu = 2.124e11, 7.225e6, 7.212e6, 14
    budget = noise_surface(sigma2, m1, m2, mu, eta1, [0.68], kind=kind, eta_nominal=0.67)
    fits = [solve_pump_noise(sigma2, e, 0.68, m1, m2, mu, kind) for e in eta1.tolist()]
    assert budget.x[:, 0].tolist() == [float(f.x) for f in fits]
    assert budget.corrected_sigma2[:, 0].tolist() == [
        sigma2 if f.at_floor else f.base_sigma2 for f in fits]


def total_variation(p, q):
    """Total variation distance of two DifferenceDistributions."""
    lo, hi = min(p.d_min, q.d_min), max(p.support[1], q.support[1])
    dense = np.zeros((2, hi - lo + 1))
    for row, dist in zip(dense, (p, q)):
        row[dist.d_min - lo:dist.support[1] - lo + 1] = dist.probs
    return 0.5 * np.abs(dense[0] - dense[1]).sum()


# a decade from 1e-3 to 1e6 and a mantissa in [1, 10]: N log-uniform up to 1e7
log_means = st.builds(lambda e, m: m * 10.0**e, st.integers(-3, 6), st.floats(1.0, 10.0))


# each example computes two p(d), of up to a few million points
@settings(PROPERTY, max_examples=25)
@given(st.sampled_from(KINDS), taus, log_means, modes, etas, etas)
@example("twin_beam", 0.5, 1e7, 14, 0.66, 0.68)  # the paper's bright beams
def test_difference_pmf_tail_swap_symmetry_and_moments(kind, tau, n_mean, mu, eta1, eta2):
    src, eff = source(kind, n_mean, mu, tau), EfficiencyPair(eta1, eta2)
    try:
        dd = difference_analytic(src, eff)
        swapped = difference_analytic(source(kind, n_mean, mu, 1.0 - src.tau),
                                      EfficiencyPair(eta2, eta1))
    except TailToleranceError:  # a window above the table budget: no p(d) to check
        assume(False)
    assert dd.tail_mass <= DEFAULT_TAIL_TOL and swapped.tail_mass <= DEFAULT_TAIL_TOL
    # p(d; eta1, eta2, tau) = p(-d; eta2, eta1, 1 - tau)
    mirrored = DifferenceDistribution(swapped.probs[::-1], -swapped.support[1], swapped.tail_mass)
    assert total_variation(dd, mirrored) <= 1e-8
    m = analytic_moments(src, eff)
    var = m.var1 + m.var2 - 2.0 * m.cov
    # the FFT resolves a probability to about 1e-16, so a moment below 1e-12 is not resolved;
    # the mean is compared relative to the spread of d too, since it may be zero
    assert dd.variance() == pytest.approx(var, rel=1e-6, abs=1e-12)
    assert dd.mean() == pytest.approx(m.mean1 - m.mean2, rel=1e-6,
                                      abs=1e-6 * math.sqrt(var) + 1e-12)


# efficiencies with their edges at 0 and 1 drawn often
edge_etas = st.one_of(st.sampled_from([0.0, 1.0]), etas)


# each example builds two joint tables and thins one, a cubic cost in the table's side
@settings(PROPERTY, max_examples=60)
@given(st.sampled_from(KINDS), taus, st.floats(0.0, 20.0, allow_subnormal=False),
       st.integers(1, 5), edge_etas, edge_etas, edge_etas, edge_etas)
@example("twin_beam", 0.5, 20.0, 1, 1.0, 1.0, 0.66, 0.68)  # the largest table
@example("split_thermal", 0.0, 5.0, 3, 0.0, 1.0, 1.0, 0.0)
def test_thinning_twice_is_thinning_once_at_the_product(kind, tau, n_mean, mu, eta1, eta2,
                                                        then1, then2):
    # each table misplaces at most its tail tolerance (what lies beyond the window and what
    # folds into it), and thinning does not increase the L1 distance, so the two tables are
    # within tail_tol in total variation, plus the FFTs' rounding
    src, tail_tol = source(kind, n_mean, mu, tau), 1e-10
    twice = thin_joint(source_joint(src, EfficiencyPair(eta1, eta2), tail_tol),
                       EfficiencyPair(then1, then2)).probs
    once = source_joint(src, EfficiencyPair(eta1 * then1, eta2 * then2), tail_tol).probs
    assert oracles.joint_tv(twice, once) <= tail_tol + 1e-12
