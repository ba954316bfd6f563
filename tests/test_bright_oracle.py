"""p(d) at the paper's brightness against an independent oracle (tests/oracles.py).

At N = 1e6 and 1e7 photons per beam over mu = 14 mode pairs no joint table can
be built, so the windowed FFT inversion of difference_analytic is checked
against the g integral of a Skellam law whose rates come from photon physics.
The oracle itself is checked against adaptive quadrature of the same integral
from N = 10 to 1e7, at integer and real mu.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.stats import skellam

import oracles
from photocorr import EfficiencyPair, SourceSpec, difference_analytic

MU = 14
# measured largest relative error at N = 1e7 where p > 1e-12: 3.9e-8 (coherent pair), 6.7e-9
# (split thermal), 3.3e-9 (twin beam), each at p of about 1e-12, where the FFT's absolute
# rounding, about 4e-16 of the peak, dominates
RELATIVE_AT_1E7 = 1e-7


@pytest.mark.parametrize("alpha, beta", [(50.0, 60.0), (3000.0, 2800.0), (2000.0, 2000.0)])
def test_the_skellam_oracle_matches_scipy(alpha, beta):
    # both branches of the log-pmf: ive below |d| = 1000, the Debye expansion above
    sd = np.sqrt(alpha + beta)
    d = np.arange(int(alpha - beta - 12 * sd), int(alpha - beta + 12 * sd) + 1)
    got, want = np.exp(oracles.skellam_logpmf(d, alpha, beta)), skellam.pmf(d, alpha, beta)
    assert 0.5 * np.abs(got - want).sum() <= 1e-13
    seen = want > 1e-12
    assert np.max(np.abs(got[seen] / want[seen] - 1.0)) <= 1e-12


@pytest.mark.parametrize("kind, eta", [("twin_beam", (0.66, 0.68)), ("split_thermal", (0.66, 0.68)),
                                       ("coherent_pair", (0.66, 0.68)), ("twin_beam", (0.67, 0.67))])
def test_p_d_at_1e6_photons_matches_the_oracle_over_the_window(kind, eta):
    # (0.67, 0.67) is the symmetric branch: A = B, a mirrored window averaged with itself
    dist = difference_analytic(SourceSpec(kind, 1e6, MU), EfficiencyPair(*eta))
    want = oracles.difference_pmf(kind, 1e6, MU, 0.5, *eta, dist.d_values)
    assert 0.5 * np.abs(dist.probs - want).sum() <= 1e-12


@pytest.mark.parametrize("kind", ["twin_beam", "split_thermal", "coherent_pair"])
def test_p_d_at_1e7_photons_matches_the_oracle_pointwise(kind):
    eta = (0.66, 0.68)
    dist = difference_analytic(SourceSpec(kind, 1e7, MU), EfficiencyPair(*eta))
    got, d = dist.probs[::16], dist.d_values[::16]
    want = oracles.difference_pmf(kind, 1e7, MU, 0.5, *eta, d)
    seen = want > 1e-12
    assert seen.sum() > 1000
    assert np.max(np.abs(got[seen] / want[seen] - 1.0)) <= RELATIVE_AT_1E7


@pytest.mark.parametrize("mu", [14, 13.6])
@pytest.mark.parametrize("n_mean", [10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7])
@pytest.mark.parametrize("kind", ["twin_beam", "split_thermal"])
def test_the_oracle_matches_adaptive_quadrature_at_every_brightness(kind, n_mean, mu):
    # about 200 values of d over the mean +- 15 standard deviations; where they are strided,
    # each stands for `stride` integers in the sum that estimates the total variation
    eta = (0.66, 0.68)
    alpha, beta = oracles.rates(kind, n_mean, mu, 0.5, *eta)
    mean = mu * (alpha - beta)
    sd = math.sqrt(mu * (alpha + beta) + mu * (alpha - beta) ** 2)
    lo, hi = math.floor(mean - 15.0 * sd), math.ceil(mean + 15.0 * sd)
    stride = max(1, (hi - lo) // 200)
    d = np.arange(lo, hi + 1, stride).astype(float)

    def integrand(g):
        return np.exp(oracles._log_gamma_pdf(g, mu)
                      + oracles.skellam_logpmf(d, g * alpha, g * beta))

    # Gamma(mu) keeps far below 1e-17 of its mass above mu + 40 sqrt(mu) + 40
    want, _ = quad_vec(integrand, 0.0, mu + 40.0 * math.sqrt(mu) + 40.0, epsabs=1e-17,
                       epsrel=1e-13, norm="max", limit=20000)
    got = oracles.difference_pmf(kind, n_mean, mu, 0.5, *eta, d)
    assert stride * want.sum() == pytest.approx(1.0, abs=1e-6)
    assert 0.5 * stride * np.abs(got - want).sum() <= 1e-12
