"""Property tests of the closed-form source model over random parameters.

The difference variance, the detected moments and the noise-budget base
variance are written from one source model; these checks tie them together
over kind, tau, N, mu and both efficiencies.  Runs are derandomized, so the
examples are the same on every run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photocorr import (
    EfficiencyPair,
    SourceSpec,
    analytic_moments,
    difference_variance,
    solve_pump_noise,
)

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
