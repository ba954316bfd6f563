"""An independent oracle for p(d), the law of d = m1 - m2, at any brightness.

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
Skellam pmf: a trapezoid rule around the conditional peak g* = d / (alpha - beta)
when alpha != beta, and Gauss-Laguerre quadrature when alpha == beta, where the
conditional law no longer pins g.
"""

import math

import numpy as np
from scipy.special import gammaln, ive, roots_genlaguerre

#: |d| from which the Skellam pmf takes the Debye expansion of I_nu, four terms
#: (relative error about u_5 / nu**5 < 1e-15); below it, scipy's ive.
DEBYE_FROM = 1000

#: Trapezoid nodes at +-12 conditional widths, two per width; Gauss-Laguerre order.
WIDTHS, STEPS_PER_WIDTH, LAGUERRE_NODES = 12, 2, 48

# Debye polynomials u_k(t) of I_nu(nu z), t = 1 / sqrt(1 + z**2): u_k = t**k P_k(t**2), with
# the coefficients of P_k over its common denominator
_DEBYE = [
    (np.array([3.0, -5.0]), 24.0),
    (np.array([81.0, -462.0, 385.0]), 1152.0),
    (np.array([30375.0, -369603.0, 765765.0, -425425.0]), 414720.0),
    (np.array([4465125.0, -94121676.0, 349922430.0, -446185740.0, 185910725.0]), 39813120.0),
]


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
    gap, s = alpha - beta, alpha + beta
    k = np.arange(-WIDTHS * STEPS_PER_WIDTH, WIDTHS * STEPS_PER_WIDTH + 1) / STEPS_PER_WIDTH
    out = []
    for part in np.array_split(d, max(1, len(d) // block)):
        centre = np.maximum(part / gap, 0.0)
        width = np.sqrt(centre * s + 1.0) / abs(gap)
        g = centre[:, None] + width[:, None] * k
        inside = g > 0.0
        g = np.where(inside, g, 1.0)  # a placeholder, weighted 0 below
        terms = np.exp(_log_gamma_pdf(g, mu) + skellam_logpmf(part[:, None], g * alpha, g * beta))
        out.append(width / STEPS_PER_WIDTH * np.where(inside, terms, 0.0).sum(axis=1))
    return np.concatenate(out)
