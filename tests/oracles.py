"""Independent oracles: the one-pair joint photon table, built term by term, the
moments and correlation coefficient of any joint table, and p(d), the law of
d = m1 - m2, at any brightness.

single_pair_joint writes the photon-number law of one mode pair of each source
in closed form, at an explicit cutoff: a thermal number on both beams for the
twin beam, two Poisson beams for the coherent pair, and a thermal beam of mean
2n split binomially for split thermal light.  Thinned by detection.thin_joint
and summed over the mu pairs by detection.multimode_convolve, it is the
reference for the package's pgf inversion, detection.source_joint.
detected_moments and correlation_from_joint sum a joint table directly; they are
the references for the closed forms detection.analytic_moments and
markers.correlation_coefficient.

For p(d):

Conditional on a common intensity g, the two detected counts are independent
Poisson counts of means g alpha and g beta, so d is a Skellam difference.  g is
Gamma(mu)-distributed (shape mu, scale 1) for the thermal sources and equals mu
for the coherent pair.  The rates come from the photon-level physics of each
source at per-mode mean n = N / mu, not from the package's pgf coefficients:

    twin beam       alpha = n eta1 (1 - eta2)   beta = n eta2 (1 - eta1)
    split thermal   alpha = 2 n tau eta1        beta = 2 n (1 - tau) eta2
    coherent pair   alpha = n eta1              beta = n eta2

(a twin-beam pair detected on both sides moves neither count's difference, so
only the photons lost on the other side count).  p(d) is the g integral of the
Skellam pmf.  When alpha != beta it is a trapezoid rule over t = ln g, centred
on the peak of the whole integrand, ln p(d | g) + ln f_Gamma(g; mu) + t, with
nodes spaced by its width 1 / sqrt(-F''(t*)); both are found by a few Newton
steps from the peak of the normal approximation of the Skellam law.  The
integrand is close to a Gaussian at the bright end, where the conditional law
pins g, and close to the Gamma density at the faint end, where it does not;
over ln g it is smooth and decays fast at both ends, so the rule holds at both,
for mu >= 2.  When alpha == beta it is Gauss-Laguerre quadrature.
"""

import math

import numpy as np
from scipy.special import gammaln, ive, roots_genlaguerre
from scipy.stats import binom, poisson

from photocorr import JointCountDistribution, MomentSet, UndefinedMarkerError

#: |d| from which the Skellam pmf takes the Debye expansion of I_nu, four terms
#: (relative error about u_5 / nu**5 < 1e-15); below it, scipy's ive.
DEBYE_FROM = 1000

#: Trapezoid nodes at +-16 widths of the integrand's peak, two per width; Newton steps
#: to the peak; Gauss-Laguerre order.
WIDTHS, STEPS_PER_WIDTH, NEWTON_STEPS, LAGUERRE_NODES = 16, 2, 6, 48

# Debye polynomials u_k(t) of I_nu(nu z), t = 1 / sqrt(1 + z**2): u_k = t**k P_k(t**2), with
# the coefficients of P_k over its common denominator
_DEBYE = [
    (np.array([3.0, -5.0]), 24.0),
    (np.array([81.0, -462.0, 385.0]), 1152.0),
    (np.array([30375.0, -369603.0, 765765.0, -425425.0]), 414720.0),
    (np.array([4465125.0, -94121676.0, 349922430.0, -446185740.0, 185910725.0]), 39813120.0),
]


def thermal_pmf(k, mean):
    """Bose-Einstein (geometric) pmf of the given mean at the integers k >= 0."""
    if mean == 0.0:
        return np.where(k == 0, 1.0, 0.0)
    return np.exp(k * (math.log(mean) - math.log1p(mean)) - math.log1p(mean))


def single_pair_joint(spec, cutoff):
    """The photon-number table of one of the mu mode pairs of a SourceSpec (per-mode mean
    n per beam) over 0..cutoff on each beam, with tail_mass the mass it leaves out."""
    n, k = spec.n_mean / spec.mu, np.arange(cutoff + 1)
    if spec.kind == "twin_beam":
        probs = np.diag(thermal_pmf(k, n))
    elif spec.kind == "coherent_pair":
        probs = np.outer(poisson.pmf(k, n), poisson.pmf(k, n))
    else:
        total = k[:, None] + k[None, :]
        probs = binom.pmf(k[:, None], total, spec.tau) * thermal_pmf(total, 2.0 * n)
    return JointCountDistribution(probs, max(0.0, 1.0 - probs.sum()))


def detected_moments(dist):
    """Exact moments of a (truncated) joint table, as a MomentSet."""
    p = dist.probs
    n = np.arange(p.shape[0], dtype=float)
    p1, p2 = p.sum(axis=1), p.sum(axis=0)
    m1, m2 = p1 @ n, p2 @ n
    return MomentSet(m1, m2, p1 @ n**2 - m1**2, p2 @ n**2 - m2**2, n @ p @ n - m1 * m2)


def correlation_from_joint(dist):
    """cov / sqrt(var1 var2) of a joint table; UndefinedMarkerError at a zero variance."""
    m = detected_moments(dist)
    if m.var1 <= 0.0 or m.var2 <= 0.0:
        raise UndefinedMarkerError("correlation undefined: a beam has zero variance")
    return m.cov / math.sqrt(m.var1 * m.var2)


def joint_tv(p, q):
    """Total variation of two square tables, the smaller padded with zeros."""
    size = max(len(p), len(q))
    diff = np.zeros((size, size))
    diff[:len(p), :len(p)] += p
    diff[:len(q), :len(q)] -= q
    return 0.5 * np.abs(diff).sum()


def pair_cutoff(spec, tol):
    """The least cutoff at which single_pair_joint(spec, cutoff) leaves at most tol out per
    beam: the exact geometric tail of the brighter thermal beam, or the exact Poisson tail."""
    n = spec.n_mean / spec.mu
    if n == 0.0:
        return 0
    if spec.kind == "coherent_pair":
        return int(poisson.isf(tol, n)) + 1
    mean = n * (2.0 * max(spec.tau, 1.0 - spec.tau) if spec.kind == "split_thermal" else 1.0)
    return max(0, math.ceil(math.log(tol) / -math.log1p(1.0 / mean)) - 1)


def rates(kind, n_mean, mu, tau, eta1, eta2):
    """(alpha, beta) of the conditional Skellam law per unit g."""
    n = n_mean / mu
    if kind == "twin_beam":
        return n * eta1 * (1.0 - eta2), n * eta2 * (1.0 - eta1)
    if kind == "split_thermal":
        return 2.0 * n * tau * eta1, 2.0 * n * (1.0 - tau) * eta2
    return n * eta1, n * eta2


def skellam_logpmf(d, alpha, beta):
    """ln P(d) of the difference of Poisson counts of means alpha and beta (> 0),
    elementwise over arrays that broadcast, without the cancellation of large terms.

    With nu = |d| (alpha and beta swapped where d < 0), R = sqrt(nu**2 + 4 alpha beta),
    s = alpha + beta and q = (alpha - beta - nu)(alpha - beta + nu), for nu >= DEBYE_FROM

        ln P = -q / (R + s) + nu log1p(((alpha - beta - nu) + q / (s + R)) / (nu + R))
               - ln(2 pi R) / 2 + ln(1 + sum_k u_k(nu / R) / nu**k),

    and below it P = ive(nu, 2 sqrt(alpha beta)) exp(-(sqrt alpha - sqrt beta)**2
    + (nu / 2) ln(alpha / beta)).
    """
    d, alpha, beta = np.broadcast_arrays(np.asarray(d, dtype=float), alpha, beta)
    nu = np.abs(d)
    a = np.where(d < 0, beta, alpha)
    b = np.where(d < 0, alpha, beta)
    out = np.empty(nu.shape)
    big = nu >= DEBYE_FROM
    if big.any():
        nu_, a_, b_ = nu[big], a[big], b[big]
        r, s = np.sqrt(nu_ * nu_ + 4.0 * a_ * b_), a_ + b_
        q = (a_ - b_ - nu_) * (a_ - b_ + nu_)
        t2, x = (nu_ / r) ** 2, 1.0 / r  # t / nu = 1 / R
        series = 0.0
        for c, scale in reversed(_DEBYE):  # sum_k (t / nu)**k P_k(t**2), by Horner in t / nu
            series = x * (np.polynomial.polynomial.polyval(t2, c / scale) + series)
        out[big] = (-q / (r + s) + nu_ * np.log1p(((a_ - b_ - nu_) + q / (s + r)) / (nu_ + r))
                    - 0.5 * np.log(2.0 * np.pi * r) + np.log1p(series))
    small = ~big
    if small.any():
        nu_, a_, b_ = nu[small], a[small], b[small]
        gap = (a_ - b_) ** 2 / (np.sqrt(a_) + np.sqrt(b_)) ** 2  # (sqrt a - sqrt b)**2
        with np.errstate(divide="ignore"):  # ive underflows to 0 far in the tail: ln 0 = -inf
            out[small] = (np.log(ive(nu_, 2.0 * np.sqrt(a_ * b_))) - gap
                          + 0.5 * nu_ * np.log(a_ / b_))
    return out


def _log_gamma_pdf(g, mu):
    return (mu - 1.0) * np.log(g) - g - math.lgamma(mu)


def _peak(d, alpha, beta, mu):
    """(t*, width) of the integrand of each d over t = ln g: the peak t* of
    F(t) = ln f_Gamma(e**t; mu) + ln p(d | e**t) + t and 1 / sqrt(-F''(t*)).  The start is
    the peak over g with p(d | g) replaced by the normal density of mean g (alpha - beta)
    and variance g (alpha + beta), the positive root of
    (1 + gap**2 / 2s) g**2 - (mu - 3/2) g - d**2 / 2s = 0; the Newton steps on F take
    central differences at a tenth of the current width."""
    gap, s = alpha - beta, alpha + beta
    a, b, c = 1.0 + gap * gap / (2.0 * s), mu - 1.5, d * d / (2.0 * s)
    g = (b + np.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)
    t, width = np.log(g), 1.0 / np.sqrt(d * d / (g * s) + b)

    def log_f(x):
        g = np.exp(x)
        return _log_gamma_pdf(g, mu) + skellam_logpmf(d, g * alpha, g * beta) + x

    for step in range(NEWTON_STEPS + 1):
        h = 0.1 * width
        f0, up, down = log_f(t), log_f(t + h), log_f(t - h)
        slope, curve = (up - down) / (2.0 * h), (up - 2.0 * f0 + down) / (h * h)
        width = 1.0 / np.sqrt(-curve)
        if step < NEWTON_STEPS:
            t = t - slope / curve
    return t, width


def difference_pmf(kind, n_mean, mu, tau, eta1, eta2, d, block=4096):
    """p(d) at the integers d of a source of total mean n_mean per beam over mu mode pairs."""
    alpha, beta = rates(kind, n_mean, mu, tau, eta1, eta2)
    d = np.asarray(d, dtype=float)
    if kind == "coherent_pair":
        return np.exp(skellam_logpmf(d, mu * alpha, mu * beta))
    if alpha == beta:
        nodes, weights = roots_genlaguerre(LAGUERRE_NODES, mu - 1.0)
        log_w = np.log(weights) - gammaln(mu)
        return np.concatenate([
            np.exp(skellam_logpmf(part[:, None], nodes * alpha, nodes * beta) + log_w).sum(axis=1)
            for part in np.array_split(d, max(1, len(d) // block))])
    k = np.arange(-WIDTHS * STEPS_PER_WIDTH, WIDTHS * STEPS_PER_WIDTH + 1) / STEPS_PER_WIDTH
    out = []
    for part in np.array_split(d, max(1, len(d) // block)):
        centre, width = _peak(part, alpha, beta, mu)
        t = centre[:, None] + width[:, None] * k
        g = np.exp(t)
        terms = np.exp(_log_gamma_pdf(g, mu) + skellam_logpmf(part[:, None], g * alpha, g * beta)
                       + t)
        out.append(width / STEPS_PER_WIDTH * terms.sum(axis=1))
    return np.concatenate(out)
