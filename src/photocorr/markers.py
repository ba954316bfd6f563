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
import sys
from dataclasses import dataclass, field

import numpy as np

from .detection import EfficiencyPair, _difference_pmf, _difference_variance, analytic_moments, detected_moments
from .errors import UndefinedMarkerError, ValidationError
from .sources import (COHERENT_PAIR, DEFAULT_TAIL_TOL, JointCountDistribution, SourceSpec, _checked,
                      _checked_array, _checked_pmf)


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
        i = _checked("d", d, "integer") - self.d_min
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

    Equals 2 eta1 eta2 / (eta1 - eta2)**2, as 2 (eta1 / delta)(eta2 / delta) once the
    square of delta = eta1 - eta2 falls below the normal float range.  For equal
    efficiencies the twin beam wins at every intensity; that case returns None
    rather than a numeric infinity.
    """
    if eff.eta1 == eff.eta2:
        return None
    delta = eff.eta1 - eff.eta2
    if delta * delta < sys.float_info.min:  # subnormal or 0: the square has lost its digits
        return 2.0 * (eff.eta1 / delta) * (eff.eta2 / delta)
    return 2.0 * eff.eta1 * eff.eta2 / (eff.eta1 - eff.eta2) ** 2


def difference_analytic(src: SourceSpec, eff: EfficiencyPair,
                        tail_tol: float = DEFAULT_TAIL_TOL) -> DifferenceDistribution:
    """Distribution of the difference photocurrent over all mu mode pairs (detection._difference_pmf),
    on a window that leaves at most tail_tol of the mass outside it: tail_mass, 1 - probs.sum()."""
    probs, d_min = _difference_pmf(src, eff, _checked("tail_tol", tail_tol, "(0, 1)"))
    return DifferenceDistribution(probs, d_min, max(0.0, 1.0 - probs.sum()))
