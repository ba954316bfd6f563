"""Detection model: binomial thinning with quantum efficiency.

A detector of quantum efficiency eta registers each incident photon
independently with probability eta and produces no dark counts, so a photon
number n yields a detected count m ~ Binomial(n, eta).  This module applies
that map to joint distributions and provides detected-count moments in both
distribution-derived and closed form.

It is also the law core: _pgf_coefficients (the count pgf of one mode pair)
and _pump_excess hold the package's only per-source algebra, from which the
moments, sigma2(d), p(d), the Monte Carlo draw and the noise budget derive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sources import (
    COHERENT_PAIR,
    DEFAULT_TAIL_TOL,
    SPLIT_THERMAL,
    TWIN_BEAM,
    JointCountDistribution,
    SourceSpec,
    _check_fields,
    _check_table,
    _checked,
    _log_binomial,
    _log_factorial,
)


@dataclass(frozen=True)
class EfficiencyPair:
    """Quantum efficiencies of the two detection branches."""

    eta1: float
    eta2: float

    def __post_init__(self):
        _check_fields(self, eta1="[0, 1]", eta2="[0, 1]")


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of the two detected photocurrents."""

    mean1: float
    mean2: float
    var1: float
    var2: float
    cov: float


def loss_matrix(eta, cutoff):
    """L[m, n] = Binomial(n, eta) pmf at m, for m, n = 0..cutoff.

    Evaluated as a log-binomial (sources._log_binomial), exact at eta = 0
    and eta = 1.  An eta outside [0, 1] (nan included) or a cutoff that is
    not an integer >= 0 raises ValidationError; a matrix above the table
    budget raises TailToleranceError.
    """
    eta, cutoff = _checked("eta", eta, "[0, 1]"), _checked("cutoff", cutoff, "integer >= 0")
    _check_table((cutoff + 1) ** 2, f"a loss matrix of cutoff {cutoff}", cutoff)
    m = np.arange(cutoff + 1)[:, None]
    n = np.arange(cutoff + 1)[None, :]
    return np.where(m <= n, np.exp(_log_binomial(m, n, eta, _log_factorial(cutoff))), 0.0)


def thin_joint(dist: JointCountDistribution, eff: EfficiencyPair) -> JointCountDistribution:
    """Apply independent binomial thinning to both beams of a joint distribution.

    Total probability is preserved exactly (every photon pattern maps to some
    count pattern at or below it); the recorded tail mass carries over.
    """
    c = dist.cutoff
    l1 = loss_matrix(eff.eta1, c)
    l2 = loss_matrix(eff.eta2, c)
    thinned = l1 @ dist.probs @ l2.T
    np.maximum(thinned, 0.0, out=thinned)
    return JointCountDistribution(thinned, dist.tail_mass)


def detected_moments(dist: JointCountDistribution) -> MomentSet:
    """Exact moments of the (truncated) joint distribution."""
    p = dist.probs
    n = np.arange(p.shape[0], dtype=float)
    p1 = p.sum(axis=1)
    p2 = p.sum(axis=0)
    m1 = p1 @ n
    m2 = p2 @ n
    v1 = p1 @ n**2 - m1**2
    v2 = p2 @ n**2 - m2**2
    cov = n @ p @ n - m1 * m2
    return MomentSet(m1, m2, v1, v2, cov)


def _pgf_coefficients(kind, n, tau, eta1, eta2):
    """Bose flag, coefficients (A, B, C) of a source's single-pair count pgf, A - B
    and A + B - 2C.

    With u_j = z_j - 1, the detected-count pgf of one mode pair is exp(x)
    (bose False) or 1/(1 - x) (bose True), x = A u1 + B u2 + C u1 u2.  With
    a = 1 + eta1 u1 and b = 1 + eta2 u2 carrying the binomial thinning and
    per-mode mean n (Mandel & Wolf, ch. 12-14):

                       pgf                           A            B                C
        twin beam      1/(1+n-n a b)                 n eta1       n eta2           n eta1 eta2
        coherent pair  exp(n(a-1)+n(b-1))            n eta1       n eta2           0
        split thermal  1/(1+2n-2n(tau a+(1-tau) b))  2n tau eta1  2n (1-tau) eta2  0

    A - B and A + B - 2C are written without the cancellation of a difference
    of products: n (eta1 - eta2) and n (eta1 (1 - eta2) + eta2 (1 - eta1)) for
    the twin beam, for instance.  n, tau, eta1 and eta2 may be arrays that
    broadcast against each other.
    """
    if kind == TWIN_BEAM:
        return (True, n * eta1, n * eta2, n * eta1 * eta2, n * (eta1 - eta2),
                n * (eta1 * (1.0 - eta2) + eta2 * (1.0 - eta1)))
    if kind == COHERENT_PAIR:
        return False, n * eta1, n * eta2, 0.0, n * (eta1 - eta2), n * (eta1 + eta2)
    return (True, 2.0 * n * tau * eta1, 2.0 * n * (1.0 - tau) * eta2, 0.0,
            2.0 * n * (tau * eta1 - (1.0 - tau) * eta2),
            2.0 * n * (tau * eta1 + (1.0 - tau) * eta2))


def _moments(kind, n_mean, mu, tau, eta1, eta2):
    """(mean1, mean2, var1, var2, cov) of analytic_moments, unchecked; n_mean, mu,
    tau, eta1 and eta2 may be arrays that broadcast against each other."""
    bose, a, b, c, _, _ = _pgf_coefficients(kind, n_mean / mu, tau, eta1, eta2)
    return (mu * a, mu * b, mu * (bose * a * a + a), mu * (bose * b * b + b),
            mu * (bose * a * b + c))


def _difference_variance(kind, n_mean, mu, tau, eta1, eta2):
    """sigma2(d) = var1 + var2 - 2 cov = mu (bose (A - B)**2 + A + B - 2 C) at the
    per-mode mean n_mean / mu, unchecked.  Arguments may be arrays that broadcast;
    element for element they give the scalar result bit for bit, as the square is
    x * x, never x**2 (C pow rounds about 1 square in 1000 one ulp apart)."""
    bose, _, _, _, a_minus_b, rate_sum = _pgf_coefficients(kind, n_mean / mu, tau, eta1, eta2)
    return mu * ((a_minus_b * a_minus_b if bose else 0.0) + rate_sum)


def _pump_excess(kind, n, mu):
    """Per-beam excess variance per unit pump_x**2 at per-beam mean n over mu modes.

        twin beam:      (n**2 / mu) arcsinh(sqrt(n / mu))**2
        split thermal:  2 n**2
        coherent pair:  n**2

    n may be an array.
    """
    if kind == TWIN_BEAM:
        g = np.arcsinh(np.sqrt(n / mu))
        return n * n / mu * (g * g)
    if kind == SPLIT_THERMAL:
        return 2.0 * (n * n)
    return n * n


def analytic_moments(src: SourceSpec, eff: EfficiencyPair) -> MomentSet:
    """Closed-form detected moments for a source measured with efficiencies eff.

    The cumulants of ln G**mu over mu independent mode pairs, at u = 0 (see
    _pgf_coefficients): means mu A and mu B, factorial variances
    mu bose A**2 and mu bose B**2, and covariance mu (bose A B + C).  A moment
    beyond the float range raises ValidationError.
    """
    moments = _moments(src.kind, src.n_mean, src.mu, src.tau, eff.eta1, eff.eta2)
    return MomentSet(*(_checked(name, m, "finite")
                       for name, m in zip(MomentSet.__dataclass_fields__, moments)))


def multimode_convolve(dist: JointCountDistribution, mu: int,
                       tail_tol: float = DEFAULT_TAIL_TOL) -> JointCountDistribution:
    """Distribution of per-beam count sums over mu independent mode pairs.

    Computed as the mu-fold two-dimensional self-convolution of the
    single-pair distribution: the mu-th power of its 2-D FFT, zero-padded to
    at least the full support mu * cutoff + 1 per axis so nothing wraps
    around, and cropped back to it.  The support is then trimmed back while
    the discarded mass stays within tail_tol / 2.
    """
    mu, tail_tol = _checked("mu", mu, "integer >= 1"), _checked("tail_tol", tail_tol, "(0, 1)")
    if mu == 1:
        return dist
    full = mu * dist.cutoff + 1
    # a power of two: pocketfft is ~10x slower on lengths with large prime factors
    size = (1 << (full - 1).bit_length(),) * 2
    _check_table(size[0] ** 2, f"the {mu}-mode convolution of a joint table "
                 f"of cutoff {dist.cutoff}", mu * dist.cutoff)
    out = np.fft.irfftn(np.fft.rfftn(dist.probs, size, (0, 1)) ** mu, size, (0, 1))[:full, :full]
    np.maximum(out, 0.0, out=out)
    out = _trim_square(out, tail_tol / 2)
    tail = max(0.0, 1.0 - out.sum())
    return JointCountDistribution(out, tail)


def _trim_square(p, budget):
    """Drop trailing rows/columns whose combined mass stays below budget."""
    c = p.shape[0]
    dropped = 0.0
    while c > 1:
        edge = p[c - 1, :c].sum() + p[:c - 1, c - 1].sum()
        if dropped + edge > budget:
            break
        dropped += edge
        c -= 1
    return np.ascontiguousarray(p[:c, :c])
