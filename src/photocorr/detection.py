"""Detection model: binomial thinning with quantum efficiency.

A detector of quantum efficiency eta registers each incident photon
independently with probability eta and produces no dark counts, so a photon
number n yields a detected count m ~ Binomial(n, eta).

This module is the law core: _pgf_coefficients (the count pgf of one mode
pair, thinning included) and the pump model hold the package's only
per-source algebra, from which the moments, sigma2(d), p(d), the joint
tables, the Monte Carlo draw and the noise budget derive.  The pump model is
the scale rule _pump_sds, the spreads of the pump scales that the simulator
draws, and _pump_excess, the small-x closed form of the per-beam excess that
the noise budget inverts.  _difference_pmf inverts the pgf of d = m1 - m2 to
p(d) with one windowed FFT, and source_joint inverts the 2-D pgf of (m1, m2)
to the joint table with one FFT per axis.

thin_joint, loss_matrix and multimode_convolve apply thinning and the sum over
mode pairs to a table directly; no layer of the package calls them, and they
stay for the benchmark's reference route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sources
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


def _log_factorial(top):
    """log(k!) for k = 0..top, as a table to index with integer arrays."""
    return np.array([math.lgamma(k + 1.0) for k in range(top + 1)])


def loss_matrix(eta, cutoff):
    """L[m, n] = Binomial(n, eta) pmf at m, for m, n = 0..cutoff.

    ln L[m, n] = ln n! + (m ln eta - ln m!) + ((n - m) ln(1 - eta) - ln (n - m)!): a row, a
    column and a Toeplitz term, the last a strided view of one vector that is -inf where
    n < m, so that the matrix is built in one array and is 0 above the diagonal.  A power
    term is 0 where its exponent is 0 (0 * log 0 = 0), so the pmf is exact at eta = 0 and
    eta = 1.  An eta outside [0, 1] (nan included) or a cutoff that is not an integer >= 0
    raises ValidationError; a matrix above the table budget raises TailToleranceError.
    """
    eta, cutoff = _checked("eta", eta, "[0, 1]"), _checked("cutoff", cutoff, "integer >= 0")
    _check_table((cutoff + 1) ** 2, f"a loss matrix of cutoff {cutoff}", cutoff)
    k, log_fact = np.arange(cutoff + 1), _log_factorial(cutoff)
    hit = np.where(k > 0, k * math.log(eta) if eta > 0.0 else -np.inf, 0.0) - log_fact
    miss = np.where(k > 0, k * math.log1p(-eta) if eta < 1.0 else -np.inf, 0.0) - log_fact
    # row m of the reversed sliding window over [-inf] * cutoff + miss reads miss[n - m]
    lag = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((np.full(cutoff, -np.inf), miss)), cutoff + 1)[::-1]
    out = log_fact[None, :] + hit[:, None]
    out += lag
    return np.exp(out, out=out)


def thin_joint(dist: JointCountDistribution, eff: EfficiencyPair) -> JointCountDistribution:
    """Apply independent binomial thinning to both beams of a joint distribution.

    Total probability is preserved exactly (every photon pattern maps to some
    count pattern at or below it); the recorded tail mass carries over.
    """
    c = dist.cutoff
    thinned = loss_matrix(eff.eta1, c) @ dist.probs
    thinned = thinned @ loss_matrix(eff.eta2, c).T
    np.maximum(thinned, 0.0, out=thinned)
    return JointCountDistribution(thinned, dist.tail_mass)


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


def _difference_variance(kind, n_mean, mu, tau, eta1, eta2):
    """sigma2(d) = var1 + var2 - 2 cov = mu (bose (A - B)**2 + A + B - 2 C) at the
    per-mode mean n_mean / mu, unchecked.  Arguments may be arrays that broadcast;
    element for element they give the scalar result bit for bit, as the square is
    x * x, never x**2 (C pow rounds about 1 square in 1000 one ulp apart)."""
    bose, _, _, _, a_minus_b, rate_sum = _pgf_coefficients(kind, n_mean / mu, tau, eta1, eta2)
    return mu * ((a_minus_b * a_minus_b if bose else 0.0) + rate_sum)


#: |ln s| values searched for the Chernoff bound P(d >= k) <= G(s, 1/s) s**-k.
#: Log-spaced: the optimal s lies within ~1e-4 of 1 at N = 1e7 and far from
#: it for faint beams.
_LN_S = np.geomspace(1e-9, 40.0, 400)


def _log_pgf(bose, mu, x):
    """ln G**mu for mu mode pairs, G = exp(x) or 1/(1 - x); inf where 1/(1 - x) diverges.
    A complex ln(1 - x) is ln|1 - x| + i arg(1 - x), with |1 - x|**2 - 1 through the real
    log1p: numpy's complex log1p is log(1 + x), which loses the digits of a small x.  A
    complex x of the Bose form is overwritten with the result, so that a 2-D grid holds
    one complex and three real tables at most."""
    if not bose:
        return mu * x
    if np.iscomplexobj(x):
        re, im = x.real, x.imag
        mag = 2.0 - re
        mag *= re
        np.subtract(im * im, mag, out=mag)  # |1 - x|**2 - 1 = im**2 - re (2 - re)
        np.log1p(mag, out=mag)
        arg = np.negative(im)
        np.arctan2(arg, 1.0 - re, out=arg)
        np.multiply(mag, -0.5 * mu, out=re)
        np.multiply(arg, -mu, out=im)
        return x
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(x < 1.0, -mu * np.log1p(-x), np.inf)


def _tail_edge(log_mgf, rate, log_tol):
    """Smallest k >= 0 whose Chernoff bound min_u exp(log_mgf - (k+1) u) on
    P(X > k) is at most exp(log_tol), for a count X with ln E[e**(u X)] = log_mgf
    on u = _LN_S.  A zero rate means X never exceeds 0; the table budget in
    points stands for any k that large or not found on the grid."""
    if rate == 0.0:
        return 0
    cap = sources._TABLE_BYTES // 8
    k = np.min((log_mgf - log_tol) / _LN_S)
    # k is -inf where log_mgf is hugely negative: mu modes of a law short of mass keep none
    return math.ceil(max(k, 1.0)) - 1 if k < cap else cap


def _fft_length(points):
    """A power of two at least twice `points`: what wraps around into a window of that
    width comes from far beyond it, and pocketfft is ~10x slower on large prime factors."""
    return 1 << (2 * points - 1).bit_length()


def _difference_pmf(src: SourceSpec, eff: EfficiencyPair, tail_tol):
    """p(d) of the difference photocurrent d = m1 - m2 over all mu mode pairs, as
    (probs, d_min) with probs[i] the probability of d = d_min + i.

    The generating function of d is G(z, 1/z)**mu, with G the closed-form
    single-pair pgf of the source.  At z1 = z, z2 = 1/z the product u1 u2 of
    _pgf_coefficients equals -(u1 + u2), so G depends on z only through
    x = (A - C)(z - 1) + (B - C)(1/z - 1); a zero first (second) rate
    means d never exceeds (falls below) zero.  G is evaluated on the unit
    circle and inverted by one inverse FFT (Abate & Whitt, Oper. Res. Lett.
    12, 1992).  The window is sized up front from a Chernoff bound on the
    same pgf, so that at most tail_tol of the mass lies outside it; the FFT
    runs over at least twice that width, so the mass that wraps around into
    the window comes only from far beyond its edges.
    When the law is symmetric (A = B) the window is symmetric too and the
    result is averaged with its mirror image, so p(d) == p(-d) exactly.
    """
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
    m = _fft_length(hi - lo + 1)
    _check_table(m, "the p(d) FFT")
    # x at z = exp(-i theta), the points irfft inverts; z**-start puts d = start at index 0
    start = lo - (m - (hi - lo + 1)) // 2
    theta = 2.0 * np.pi / m * np.arange(m // 2 + 1)
    x = -2.0 * (a + b) * np.sin(theta / 2.0) ** 2 - 1j * (a - b) * np.sin(theta)
    probs = np.fft.irfft(np.exp(_log_pgf(bose, mu, x) + 1j * start * theta), m)
    probs = np.maximum(probs[lo - start:hi - start + 1], 0.0)
    if a == b:
        probs = 0.5 * (probs + probs[::-1])
    return probs, lo


def source_joint(src: SourceSpec, eff: EfficiencyPair = EfficiencyPair(1.0, 1.0),
                 tail_tol=DEFAULT_TAIL_TOL) -> JointCountDistribution:
    """Joint distribution of the counts (m1, m2) detected from all mu mode pairs of a
    source with efficiencies eff; at the default eff = (1, 1) they are photon numbers.

    The pgf of (m1, m2) is G(z1, z2)**mu, with G the closed-form single-pair pgf of
    _pgf_coefficients, whose coefficients A, B and C carry the binomial thinning.  It
    is evaluated on the 2-D unit grid and inverted by one inverse FFT per axis, as
    _difference_pmf inverts the pgf of d.  The window 0..c is square: c is the larger
    of the two beams' Chernoff edges (_tail_edge on the marginal pgfs G(z, 1)**mu and
    G(1, z)**mu) at tail_tol / 4, so at most tail_tol / 2 of the mass lies beyond it.
    Counts are >= 0, so an FFT of exactly c + 1 points per axis folds into the window
    only that mass.  tail_mass is max(0, 1 - probs.sum()), which is rounding-level.
    """
    tail_tol = _checked("tail_tol", tail_tol, "(0, 1)")
    bose, a, b, c, _, _ = _pgf_coefficients(src.kind, src.per_mode_mean, src.tau,
                                            eff.eta1, eff.eta2)
    log_tol = math.log(tail_tol / 4.0)
    with np.errstate(over="ignore"):  # a bound that overflows is inf, never the least
        edge = max(_tail_edge(_log_pgf(bose, src.mu, rate * np.expm1(_LN_S)), rate, log_tol)
                   for rate in (a, b))
    m = edge + 1
    _check_table(m * m, f"a joint table of cutoff {edge} (for tail tolerance {tail_tol:g})",
                 edge)
    # u = z - 1 at z = exp(-i theta), the points ifft and irfft invert; x = A u1 + B u2
    # + C u1 u2 is written as (A - C) u1 + (B - C) u2 + C (z1 z2 - 1), with z1 z2 - 1 read
    # from u at theta1 + theta2 (a Hankel view), not the cancelling sum u1 + u2 + u1 u2
    theta = 2.0 * np.pi / m * np.arange(m)
    u = -2.0 * np.sin(theta / 2.0) ** 2 - 1j * np.sin(theta)
    u1, u2 = u[:, None], u[None, :m // 2 + 1]
    u12 = np.lib.stride_tricks.sliding_window_view(np.concatenate((u, u)), m // 2 + 1)[:m]
    x = (a - c) * u1 + (b - c) * u2
    x += c * u12
    x = _log_pgf(bose, src.mu, x)
    x = np.fft.ifft(np.exp(x, out=x), axis=0)
    probs = np.fft.irfft(x, m, axis=1)
    np.maximum(probs, 0.0, out=probs)
    return JointCountDistribution(probs, max(0.0, 1.0 - probs.sum()))


def twin_beam_joint(n_mean):
    """source_joint of a single-mode twin beam of mean n_mean.  Kept only because the
    benchmark's library step (perfbench/libstep.py) calls it by this name."""
    return source_joint(SourceSpec.twin_beam(n_mean))


def _pump_sds(kind, pump_x, eff):
    """Standard deviations of a source's pump scales u ~ N(1, sd**2), truncated at 0,
    that scale each mode pair's mean (montecarlo draws them): one per beam for the
    twin beam, pump_x / (eta_j sqrt(2)) (0 where eta_j is 0), else one common to all
    modes and both beams, sqrt(2) pump_x for split thermal light and pump_x for the
    coherent pair.  They are set against _pump_excess, whose split-thermal form leaves
    out the Bose term mu A**2 Var u of a shared scale: the drawn excess is (1 + 1/mu)
    times it."""
    if kind != TWIN_BEAM:
        return [math.sqrt(2.0) * pump_x if kind == SPLIT_THERMAL else pump_x]
    return [pump_x / (eta * math.sqrt(2.0)) if eta > 0 else 0.0 for eta in (eff.eta1, eff.eta2)]


def _pump_excess(kind, n, mu):
    """Per-beam excess variance per unit pump_x**2 at per-beam mean n over mu modes, for
    the two sources the noise budget takes, the twin beam and split thermal light:

        twin beam:      (n**2 / mu) arcsinh(sqrt(n / mu))**2
        split thermal:  2 n**2

    n may be an array.
    """
    if kind == TWIN_BEAM:
        g = np.arcsinh(np.sqrt(n / mu))
        return n * n / mu * (g * g)
    return 2.0 * (n * n)


def analytic_moments(src: SourceSpec, eff: EfficiencyPair) -> MomentSet:
    """Closed-form detected moments for a source measured with efficiencies eff.

    The cumulants of ln G**mu over mu independent mode pairs, at u = 0 (see
    _pgf_coefficients): means mu A and mu B, factorial variances
    mu bose A**2 and mu bose B**2, and covariance mu (bose A B + C).  A moment
    beyond the float range raises ValidationError.
    """
    bose, a, b, c, _, _ = _pgf_coefficients(src.kind, src.per_mode_mean, src.tau,
                                            eff.eta1, eff.eta2)
    moments = (a, b, bose * a * a + a, bose * b * b + b, bose * a * b + c)
    return MomentSet(*(_checked(name, src.mu * m, "finite")
                       for name, m in zip(MomentSet.__dataclass_fields__, moments)))


def multimode_convolve(dist: JointCountDistribution, mu: int,
                       tail_tol: float = DEFAULT_TAIL_TOL) -> JointCountDistribution:
    """Distribution of per-beam count sums over mu independent mode pairs.

    Computed as the mu-fold two-dimensional self-convolution of the
    single-pair distribution: the mu-th power of its 2-D FFT, windowed as
    _difference_pmf windows p(d).  A Chernoff bound on each beam's mu-fold sum
    leaves at most tail_tol / 4 beyond the window, so the tail mass is at most
    tail_tol / 2 plus about mu times the input's.  Where the FFT of the full
    support mu * cutoff + 1 is shorter, it is taken, and nothing wraps around.
    """
    mu, tail_tol = _checked("mu", mu, "integer >= 1"), _checked("tail_tol", tail_tol, "(0, 1)")
    if mu == 1:
        return dist
    full, log_tol, edge = mu * dist.cutoff + 1, math.log(tail_tol / 4.0), 0
    for pmf in (dist.marginal(1), dist.marginal(2)):
        # ln E[e**(u k)] = u top + ln sum_k pmf[k] e**(-u (top - k)), top the last positive
        # term, by Horner's rule: it neither overflows nor underflows to 0
        top = np.flatnonzero(pmf > 0).max(initial=0)
        # ln 0 only where top = 0, which _tail_edge does not read; a bound that overflows is inf
        with np.errstate(divide="ignore", over="ignore"):
            log_mgf = _LN_S * top + np.log(np.polyval(pmf[:top + 1], np.exp(-_LN_S)))
            edge = max(edge, _tail_edge(mu * log_mgf, top, log_tol))
    points = min(edge + 1, full)
    size = (min(_fft_length(points), 1 << (full - 1).bit_length()),) * 2
    _check_table(size[0] ** 2, f"the {mu}-mode convolution of a joint table "
                 f"of cutoff {dist.cutoff}", points - 1)
    # irfftn in two passes, the second on the window's rows only: two FFT tables at the peak
    spec = np.fft.rfftn(dist.probs, size, (0, 1))
    spec **= mu
    spec = np.fft.ifft(spec, axis=0)[:points]
    out = np.maximum(np.fft.irfft(spec, size[1], axis=1)[:, :points], 0.0)
    return JointCountDistribution(out, max(0.0, 1.0 - out.sum()))
