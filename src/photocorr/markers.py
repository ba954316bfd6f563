"""Discrimination markers for correlated beams.

Two markers separate twin-beam light from classically correlated light of
the same intensity:

* the correlation coefficient of the two detected photocurrents, which
  saturates toward 1 for every correlated source once the beams are bright,
  and therefore stops discriminating, and
* the distribution (and variance) of the difference photocurrent
  d = m1 - m2, which for a twin beam drops below the coherent-pair
  shot-noise level (eta1 + eta2) * N as long as the efficiencies are not
  too unbalanced.

Every analytic form here has a distribution-derived counterpart so the two
routes can be checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sources
from .detection import EfficiencyPair, _difference_variance, _pgf_coefficients, analytic_moments, detected_moments
from .errors import UndefinedMarkerError, ValidationError
from .sources import (
    COHERENT_PAIR,
    DEFAULT_TAIL_TOL,
    JointCountDistribution,
    SourceSpec,
    _check_table,
    _checked,
    _checked_array,
    _checked_pmf,
)


@dataclass(frozen=True)
class DifferenceDistribution:
    """Probability mass over the signed count difference d = m1 - m2.

    probs[i] is the probability of d = d_min + i; tail_mass is whatever was
    lost to truncation of the underlying joint distribution or window.
    """

    probs: np.ndarray
    d_min: int
    tail_mass: float = field(default=0.0)

    def __post_init__(self):
        p = _checked_pmf(self.probs, self.tail_mass)
        if p.ndim != 1:
            raise ValidationError("probs: expected a 1-d array")
        object.__setattr__(self, "probs", p)

    @property
    def support(self) -> tuple[int, int]:
        return self.d_min, self.d_min + len(self.probs) - 1

    @property
    def d_values(self) -> np.ndarray:
        return np.arange(self.d_min, self.d_min + len(self.probs))

    def prob(self, d: int) -> float:
        i = d - self.d_min
        if 0 <= i < len(self.probs):
            return float(self.probs[i])
        return 0.0

    def mean(self) -> float:
        return float(self.d_values @ self.probs)

    def variance(self) -> float:
        m = self.mean()
        return float((self.d_values - m) ** 2 @ self.probs)


@dataclass(frozen=True)
class VarianceReport:
    """Difference-photocurrent variance next to its shot-noise benchmark."""

    sigma2_d: float
    shot_noise_level: float
    below_shot_noise: bool


def correlation_coefficient(src: SourceSpec, eff: EfficiencyPair) -> float:
    """Correlation coefficient cov / sqrt(var1 var2) of the two detected
    photocurrents, from the closed-form moments (analytic_moments).

    A coherent pair is uncorrelated, so it returns exactly zero, also in
    vacuum.  Otherwise raises UndefinedMarkerError when a beam's detected
    variance is zero (no photons, or zero efficiency).
    """
    if src.kind == COHERENT_PAIR:
        return 0.0
    return _correlation(analytic_moments(src, eff))


def correlation_from_joint(dist: JointCountDistribution) -> float:
    """Correlation coefficient computed from a joint count distribution."""
    return _correlation(detected_moments(dist))


def _correlation(m) -> float:
    """cov / sqrt(var1 var2); UndefinedMarkerError at a zero variance, ValidationError on overflow."""
    if m.var1 <= 0.0 or m.var2 <= 0.0:
        raise UndefinedMarkerError("correlation undefined: a beam has zero variance")
    return m.cov / math.sqrt(_checked("var1 * var2", m.var1 * m.var2, "finite"))


def difference_from_joint(dist: JointCountDistribution) -> DifferenceDistribution:
    """Distribution of d = m1 - m2 obtained by summing joint anti-diagonals."""
    c = dist.cutoff
    probs = np.array([np.trace(dist.probs, offset=-d) for d in range(-c, c + 1)])
    return DifferenceDistribution(probs, -c, dist.tail_mass)


def difference_variance(src: SourceSpec, eff: EfficiencyPair) -> VarianceReport:
    """Closed-form variance of the difference photocurrent.

    The scalar caller of _variances, which holds the arithmetic: sigma2(d)
    next to the coherent-pair shot-noise benchmark (eta1 + eta2) N.  Either
    value beyond the float range raises ValidationError.
    """
    s2, shot = _variances(src.kind, src.n_mean, src.mu, src.tau, eff.eta1, eff.eta2)
    return VarianceReport(s2, shot, s2 < shot)


def _variances(kind, n_mean, mu, tau, eta1, eta2):
    """sigma2(d) (detection._difference_variance) and the shot-noise level
    (eta1 + eta2) N, checked by sources._checked_array to be finite: floats for
    scalar arguments, else float64 arrays of the broadcast shape.

    n_mean, eta1 and eta2 may be arrays that broadcast against each other, so a
    whole sweep column is one call, bit for bit the scalar calls element by element.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, past the float range
        s2 = _difference_variance(kind, n_mean, mu, tau, eta1, eta2)
        shot = (eta1 + eta2) * n_mean
    return (_checked_array("sigma2_d", s2, "finite"),
            _checked_array("shot_noise_level", shot, "finite"))


def variance_threshold(eff: EfficiencyPair):
    """Mean photon number per mode pair below which the twin-beam difference
    variance stays under the coherent-pair benchmark; over mu mode pairs the
    threshold on the total N is mu times this.

    Equals 2 eta1 eta2 / (eta1 - eta2)**2.  For equal efficiencies the twin
    beam wins at every intensity; that case returns None rather than a
    numeric infinity.
    """
    if eff.eta1 == eff.eta2:
        return None
    return 2.0 * eff.eta1 * eff.eta2 / (eff.eta1 - eff.eta2) ** 2


#: |ln s| values searched for the Chernoff bound P(d >= k) <= G(s, 1/s) s**-k.
#: Log-spaced: the optimal s lies within ~1e-4 of 1 at N = 1e7 and far from
#: it for faint beams.
_LN_S = np.geomspace(1e-9, 40.0, 400)


def _log_pgf(bose, mu, x):
    """ln G**mu for mu mode pairs, G = exp(x) or 1/(1 - x); inf where 1/(1 - x) diverges."""
    if not bose:
        return mu * x
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(np.real(x) < 1.0, -mu * np.log1p(-x), np.inf)


def _tail_edge(log_mgf, rate, log_tol):
    """Smallest k >= 0 whose Chernoff bound min_u exp(log_mgf - (k+1) u) on
    P(d > k) is at most exp(log_tol); log_mgf is ln E[e**(u d)] on u = _LN_S.
    A zero rate means d never exceeds 0; the table budget in points stands
    for any k that large or not found on the grid."""
    if rate == 0.0:
        return 0
    cap = sources._TABLE_BYTES // 8
    k = np.min((log_mgf - log_tol) / _LN_S)
    return max(0, math.ceil(k) - 1) if k < cap else cap


def difference_analytic(src: SourceSpec, eff: EfficiencyPair,
                        tail_tol: float = DEFAULT_TAIL_TOL) -> DifferenceDistribution:
    """Distribution of the difference photocurrent over all mu mode pairs.

    The generating function of d is G(z, 1/z)**mu, with G the closed-form
    single-pair pgf of the source.  At z1 = z, z2 = 1/z the product u1 u2 of
    detection._pgf_coefficients equals -(u1 + u2), so G depends on z only
    through x = (A - C)(z - 1) + (B - C)(1/z - 1); a zero first (second) rate
    means d never exceeds (falls below) zero.  G is evaluated on the unit
    circle and inverted by one inverse FFT (Abate & Whitt, Oper. Res. Lett.
    12, 1992).  The window is sized up front from a Chernoff bound on the
    same pgf, so that at most tail_tol of the mass lies outside it; the FFT
    runs over at least twice that width, so the mass that wraps around into
    the window comes only from far beyond its edges.
    When the law is symmetric (A = B) the window is symmetric too and the
    result is averaged with its mirror image, so p(d) == p(-d) exactly.
    tail_mass is the mass outside the returned window, 1 - probs.sum().
    """
    tail_tol = _checked("tail_tol", tail_tol, "(0, 1)")
    bose, a, b, c, _, _ = _pgf_coefficients(src.kind, src.per_mode_mean, src.tau,
                                            eff.eta1, eff.eta2)
    a, b, mu = a - c, b - c, src.mu
    # ln E[s**d] and ln E[s**-d] at s = e**u > 1; a bound that overflows is inf, never the least
    with np.errstate(over="ignore"):
        log_up = _log_pgf(bose, mu, a * np.expm1(_LN_S) + b * np.expm1(-_LN_S))
        log_down = _log_pgf(bose, mu, b * np.expm1(_LN_S) + a * np.expm1(-_LN_S))
    log_tol = math.log(tail_tol / 2.0)
    lo = -_tail_edge(log_down, b, log_tol)
    hi = _tail_edge(log_up, a, log_tol)
    if a == b:
        lo = min(lo, -hi)
        hi = -lo
    # a power of two: pocketfft is ~10x slower on lengths with large prime factors
    m = 1 << (2 * (hi - lo) + 1).bit_length()
    _check_table(m, "the p(d) FFT")
    # x at z = exp(-i theta), the points irfft inverts; z**-start puts d = start at index 0
    start = lo - (m - (hi - lo + 1)) // 2
    theta = 2.0 * np.pi / m * np.arange(m // 2 + 1)
    x = -2.0 * (a + b) * np.sin(theta / 2.0) ** 2 - 1j * (a - b) * np.sin(theta)
    probs = np.fft.irfft(np.exp(_log_pgf(bose, mu, x) + 1j * start * theta), m)
    probs = np.maximum(probs[lo - start:hi - start + 1], 0.0)
    if a == b:
        probs = 0.5 * (probs + probs[::-1])
    return DifferenceDistribution(probs, lo, max(0.0, 1.0 - probs.sum()))

