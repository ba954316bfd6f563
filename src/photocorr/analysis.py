"""Estimators and inverse problems on recorded shot series.

Forward statistics (correlation function, correlation coefficient with
instrument-noise subtraction, difference-photocurrent variance) mirror how
boxcar records are reduced in the lab.  The inverse problems recover what
the forward model cannot pin down directly:

* fit_multithermal: number of modes and mean of a bright thermal channel,
* imbalance_bounds: how unbalanced the two quantum efficiencies would have
  to be for imbalance alone to explain a measured difference variance,
* solve_pump_noise: the pump excess-noise fraction x that closes the noise
  budget at given efficiencies,
* noise_surface: x and the corrected variance over a whole efficiency grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    InconsistentDataError,
    NoiseDominatedError,
    UndefinedMarkerError,
    ValidationError,
)
from .detection import _difference_variance, _pgf_coefficients, _pump_excess
from .seriesio import ShotSeries
from .sources import SPLIT_THERMAL, TWIN_BEAM, _check_table, _checked, _checked_array, multithermal_pdf


def correlation_function(series: ShotSeries, lag: int) -> float:
    """Normalized cross-correlation of the two channels at a shot lag.

    The sum runs over the shots where both samples exist (no circular
    indexing); means and standard deviations are taken over the full series.
    A standard deviation or covariance beyond the float range raises DataError.
    """
    v1 = np.asarray(series.ch1, dtype=float)
    v2 = np.asarray(series.ch2, dtype=float)
    k = len(v1)
    lag = _checked("lag", lag, "integer")
    if k <= abs(lag) + 1:
        raise ValidationError(f"lag {lag} needs more than {abs(lag) + 1} shots, got {k}")
    with np.errstate(over="ignore", invalid="ignore"):  # a moment beyond the float range is refused
        s1 = _finite_moment("standard deviation of ch1", v1.std())
        s2 = _finite_moment("standard deviation of ch2", v2.std())
        if s1 == 0.0 or s2 == 0.0:
            raise UndefinedMarkerError("correlation undefined: a channel has zero variance")
        d1 = v1 - v1.mean()
        d2 = v2 - v2.mean()
        if lag >= 0:
            num = (d1[: k - lag] * d2[lag:]).mean()
        else:
            num = (d1[-lag:] * d2[: k + lag]).mean()
        # s1 * s2 can pass the float range where num does not; the quotient is then 0
        return float(_finite_moment(f"lag-{lag} covariance", num) / (s1 * s2))


def measured_correlation(series: ShotSeries) -> float:
    """Zero-lag correlation with instrument noise removed from the variances.

    Each channel's variance is reduced by its recorded instrument-noise
    variance before normalizing; the covariance itself needs no correction
    because the noise of the two channels is independent.  A variance or the
    covariance beyond the float range raises DataError.
    """
    v1 = np.asarray(series.ch1, dtype=float)
    v2 = np.asarray(series.ch2, dtype=float)
    nv1, nv2 = series.instrument_noise_var
    with np.errstate(over="ignore", invalid="ignore"):  # a moment beyond the float range is refused
        var1 = _finite_moment("variance of ch1", v1.var()) - nv1
        var2 = _finite_moment("variance of ch2", v2.var()) - nv2
        if var1 <= 0.0 or var2 <= 0.0:
            raise NoiseDominatedError("instrument noise exceeds a channel's measured variance")
        cov = _finite_moment("covariance", ((v1 - v1.mean()) * (v2 - v2.mean())).mean())
    return float(cov / (math.sqrt(var1) * math.sqrt(var2)))


def measured_difference_variance(series: ShotSeries) -> float:
    """Variance of the per-shot detected-count difference, noise subtracted.

    Voltage records are first mapped back to counts (v/alpha); the additive
    instrument-noise variance propagates as nv1/alpha1**2 + nv2/alpha2**2
    and is removed.  Raises NoiseDominatedError when that noise exceeds the
    measured variance, and DataError when the result is beyond the float range.
    """
    c1, c2 = series.counts()
    nv1, nv2 = series.instrument_noise_var
    if series.unit == "volts":
        a1, a2 = series.conv
        noise = nv1 / a1 / a1 + nv2 / a2 / a2  # a1**2 can underflow to 0
    else:
        noise = nv1 + nv2
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        sigma2 = float((c1 - c2).var() - noise)
    if sigma2 < 0.0:
        raise NoiseDominatedError("instrument noise exceeds the measured difference variance")
    return _finite_moment("difference variance", sigma2)


def _finite_moment(name, value):
    """value, a moment of a record; DataError naming it when it is inf or nan (inf - inf)."""
    if not math.isfinite(value):
        raise DataError(f"the {name} is beyond the float range")
    return value


@dataclass(frozen=True)
class MultithermalFit:
    """Maximum-likelihood multithermal fit of one channel."""

    mu_hat: float
    v_mean_hat: float
    goodness: float  # chi-square per bin on Freedman-Diaconis bins
    n_clipped: int = 0


_MU_MAX = 200  # largest mode count fit_multithermal considers
_ETA_WINDOW = 0.2  # imbalance_bounds scans eta_nominal * (1 -+ _ETA_WINDOW)


def fit_multithermal(values, integer_mu: bool = True) -> MultithermalFit:
    """Fit the mode count and mean of a multithermal (Gamma-shaped) channel.

    The mean is the maximum-likelihood estimate for every fixed mode count,
    so only the shape mu is searched, over [1, _MU_MAX], by bisection
    (_bisect, to 1e-9) on the sign of the profile log-likelihood's central
    difference ll(mu (1 + 1e-4)) - ll(mu (1 - 1e-4)), which moves the root by
    about 3e-9 relative.  With integer_mu the estimate is whichever of
    floor(mu) and floor(mu) + 1, within [1, _MU_MAX], has the larger ll (the
    lower on a tie): ll is strictly concave in mu, so that is the integer
    maximum.  Values at or below zero (possible in voltage records) are
    clipped to zero, counted, and excluded from the likelihood.  A mean of the
    positive values beyond the float range raises DataError.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 1000:
        raise ValidationError(f"need at least 1000 samples, got {v.size}")
    clipped = int((v <= 0.0).sum())
    v = v[v > 0.0]
    if v.size == 0:
        raise ValidationError("no positive samples to fit")
    with np.errstate(over="ignore", invalid="ignore"):  # a mean beyond the float range is refused
        v_mean = _finite_moment("mean of the positive values", v.mean())
    mean_log = np.log(v).mean()

    def mean_loglik(mu):
        # profile log-likelihood per sample at the ML mean
        return (mu - 1.0) * mean_log - mu - math.lgamma(mu) - mu * np.log(v_mean / mu)

    def rising(mu):
        return mean_loglik(mu * (1.0 + 1e-4)) > mean_loglik(mu * (1.0 - 1e-4))

    mu_hat = _bisect(rising, 1.0, float(_MU_MAX), 1e-9)
    if integer_mu:
        low = float(math.floor(mu_hat))
        high = min(low + 1.0, float(_MU_MAX))
        mu_hat = high if mean_loglik(high) > mean_loglik(low) else low
    goodness = _chi2_per_bin(v, mu_hat, v_mean)
    return MultithermalFit(mu_hat, float(v_mean), goodness, clipped)


def _bisect(holds, lo, hi, tol):
    """Last point of [lo, hi], to within tol, where holds, a predicate true up
    to some point and false after it, is still true; lo if it never holds.
    tol must exceed the float spacing at hi, or the halving never ends."""
    if holds(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def _quartiles(v):
    """(q75, q25) of a 1-d sample, bit for bit np.percentile(v, [75, 25]).

    numpy's linear method from one partition: the order statistics around the
    virtual index (n - 1) q (exact for q = 1/4, 3/4), joined by its lerp,
    which interpolates down from the upper one when the weight is >= 1/2.
    np.percentile itself calls np.unique, whose first use imports numpy.ma.
    """
    at = (v.size - 1) * np.array([0.75, 0.25])
    lo = np.floor(at).astype(np.intp)
    hi = np.minimum(lo + 1, v.size - 1)
    part = np.partition(v, np.concatenate((lo, hi)))
    below, above, t = part[lo], part[hi], at - lo
    step = above - below
    q = below + step * t
    np.subtract(above, step * (1 - t), out=q, where=t >= 0.5)
    return q


_MAX_BINS = 2**16  # bins widen past the Freedman-Diaconis width to keep at most this many


def _fd_histogram(v, integer):
    """(counts, edges) of a 1-d sample on Freedman-Diaconis bins, in numeric order.

    The bin width is 2 IQR / n**(1/3), widened where the range of v would
    otherwise need more than _MAX_BINS bins.  For integer data it is rounded
    up to a whole number >= 1 and the edges are integers from min v, so each
    bin holds the integers e_i <= v < e_(i+1).  Otherwise [min v, max v] is
    split into ceil(range / width) equal bins (one bin when the width is 0),
    the last one closed.  Every value falls in one bin.  Integer edges are
    Python ints, as a difference of two int64 counts can pass the int64 range.
    """
    q75, q25 = _quartiles(v)
    width = 2.0 * (q75 - q25) * v.size ** (-1.0 / 3.0)
    lo, hi = v.min(), v.max()
    if integer:
        # floor(range / width) + 1 bins, so the width must exceed range / _MAX_BINS
        width = max(math.ceil(width), int((hi - lo) // _MAX_BINS) + 1)
        counts = np.bincount(((v - lo) // width).astype(np.intp))
        return counts, int(lo) + width * np.arange(counts.size + 1, dtype=object)
    # the ratio is capped first, as it can exceed the float range
    bins = math.ceil(min((hi - lo) / width, _MAX_BINS)) if width > 0 else 1
    return np.histogram(v, bins=bins, range=(lo, hi))


def _chi2_per_bin(v, mu, v_mean):
    """Chi-square per bin against the fitted density, on _fd_histogram's bins."""
    observed, edges = _fd_histogram(v, False)
    if observed.size < 2:
        return float("nan")
    centers = 0.5 * edges[:-1] + 0.5 * edges[1:]  # no overflow near the float range
    expected = multithermal_pdf(centers, mu, v_mean) * np.diff(edges) * v.size
    keep = expected > 5.0
    if keep.sum() < 2:
        return float("nan")
    chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    return float(chi2 / keep.sum())


def _check_budget(sigma2_measured, m1, m2, mu, kind):
    """(sigma2_measured, m1, m2, mu), checked, as the two noise-budget inversions share them."""
    checked = (_checked("sigma2_measured", sigma2_measured, "finite"), _checked("m1", m1, "> 0"),
               _checked("m2", m2, "> 0"), _checked("mu", mu, "integer >= 1"))
    if kind not in (TWIN_BEAM, SPLIT_THERMAL):
        raise ValidationError(f"kind: expected twin_beam or split_thermal, got {kind!r}")
    return checked


def _imbalance_terms(kind, n_mean, mu, eta_bar):
    """(floor, curvature) of sigma2(d) = floor + delta**2 * curvature at efficiencies
    eta_bar +- delta/2, N = n_mean over mu modes and a balanced splitter.  In
    sigma2(d) = mu (bose (A - B)**2 + A + B - 2 C), A - B = n delta, A + B does not
    move and C is bilinear in (eta1, eta2), so curvature = mu (bose n**2
    + 2 [C(eta_bar, eta_bar) - C(eta_bar + 1/2, eta_bar - 1/2)]) at n = n_mean / mu."""
    n = n_mean / mu
    bose, _, _, c, _, _ = _pgf_coefficients(kind, n, 0.5, eta_bar, eta_bar)
    c_apart = _pgf_coefficients(kind, n, 0.5, eta_bar + 0.5, eta_bar - 0.5)[3]
    return (_difference_variance(kind, n_mean, mu, 0.5, eta_bar, eta_bar),
            mu * ((n * n if bose else 0.0) + 2.0 * (c - c_apart)))


def imbalance_bounds(sigma2_measured, m1, m2, mu, eta_nominal, kind=TWIN_BEAM):
    """Efficiency-imbalance interval compatible with a measured variance.

    Solves sigma2 = floor + delta**2 * curvature (_imbalance_terms, read from
    the law core in detection) for delta = |eta1 - eta2| with the mean photon
    number tied to the detected means, N = (m1+m2)/(2 eta), while the mean
    efficiency eta scans eta_nominal * (1 -+ _ETA_WINDOW).  The solution grows
    with the mean efficiency, so the interval is spanned by the two endpoints;
    the upper one is clamped by bisection (_bisect, to 1e-14 in eta) to the last
    efficiency with eta + delta/2 <= 1.

    Returns (0.0, 0.0) when the measurement does not exceed the balanced
    model at the nominal efficiency; raises InconsistentDataError when no
    admissible solution exists anywhere in the scan.
    """
    sigma2_measured, m1, m2, mu = _check_budget(sigma2_measured, m1, m2, mu, kind)
    eta_nominal = _checked("eta_nominal", eta_nominal, "(0, 1]")
    m_bar = 0.5 * m1 + 0.5 * m2  # 0.5 * (m1 + m2) without overflow
    if sigma2_measured <= _imbalance_terms(kind, m_bar / eta_nominal, mu, eta_nominal)[0]:
        return (0.0, 0.0)

    def delta_at(eta_bar):
        floor, curvature = _imbalance_terms(kind, m_bar / eta_bar, mu, eta_bar)
        rhs = sigma2_measured - floor
        return math.sqrt(rhs / curvature) if rhs > 0.0 else None

    lo_eta = eta_nominal * (1.0 - _ETA_WINDOW)
    hi_eta = min(eta_nominal * (1.0 + _ETA_WINDOW), 1.0)

    def admissible(eta_bar):
        d = delta_at(eta_bar)
        return d is None or eta_bar + d / 2.0 <= 1.0

    # keep eta_bar + delta/2 <= 1 at the upper end of the scan
    if not admissible(hi_eta):
        hi_eta = _bisect(admissible, lo_eta, hi_eta, 1e-14)
    hi = delta_at(hi_eta)
    if hi is None or not admissible(hi_eta):
        raise InconsistentDataError(
            "no admissible efficiency pair reproduces the measured variance")
    return (delta_at(lo_eta) or 0.0, hi)


def _efficiencies(name, eta):
    """eta, a number or a non-empty array of numbers, each checked to lie in (0, 1]."""
    if not isinstance(eta, (list, tuple, np.ndarray)):
        return _checked(name, eta, "(0, 1]")
    arr = _checked_array(name, eta, "(0, 1]")
    if arr.size == 0:
        raise ValidationError(f"{name}: must be a number or a non-empty array of numbers, "
                              f"got {eta!r}")
    return arr


@dataclass(frozen=True)
class PumpFit:
    """Pump excess-noise fraction solving the noise budget, with round trip."""

    x: float | np.ndarray
    at_floor: bool | np.ndarray
    base_sigma2: float | np.ndarray         # model variance at x = 0 (the corrected value)
    excess_coefficient: float | np.ndarray  # d sigma2 / d x**2

    def predicted_sigma2(self):
        return self.base_sigma2 + self.x * self.x * self.excess_coefficient


def solve_pump_noise(sigma2_measured, eta1, eta2, m1, m2, mu,
                     kind=TWIN_BEAM) -> PumpFit:
    """Pump-noise fraction x reproducing a measured difference variance.

    The budget equation is affine in x**2, so the root is closed-form:

        sigma2_measured = sigma2_model(eta1, eta2, N) + x**2 * coefficient

    with sigma2_model = detection._difference_variance at the mean N of
    N_j = m_j / eta_j (a balanced splitter for split thermal light), and
    coefficient the sum over both beams of detection._pump_excess at N_j.

    Measurements at or below the x = 0 model return x = 0 with at_floor set.
    A model value beyond the float range raises ValidationError.
    eta1 and eta2 may be arrays that broadcast against each other (e.g. a
    column and a row of an efficiency grid); every field of the result then
    has the broadcast shape.
    """
    eta1, eta2 = _efficiencies("eta1", eta1), _efficiencies("eta2", eta2)
    sigma2_measured, m1, m2, mu = _check_budget(sigma2_measured, m1, m2, mu, kind)
    with np.errstate(all="ignore"):  # a value beyond the float range is refused below
        n1, n2 = m1 / eta1, m2 / eta2
        base = _difference_variance(kind, 0.5 * (n1 + n2), mu, 0.5, eta1, eta2)
        coef = _pump_excess(kind, n1, mu) + _pump_excess(kind, n2, mu)
        x = np.sqrt(np.maximum(sigma2_measured - base, 0.0) / coef)
    for name, value in (("base_sigma2", base), ("excess_coefficient", coef), ("x", x)):
        _checked_array(name, value, "finite")
    return PumpFit(x, sigma2_measured <= base, base, coef)


@dataclass(frozen=True)
class NoiseBudget:
    """Noise-budget surface over an efficiency grid."""

    eta1: np.ndarray
    eta2: np.ndarray
    x: np.ndarray                 # shape (len(eta1), len(eta2))
    corrected_sigma2: np.ndarray
    at_floor: np.ndarray
    shot_noise_plane: float       # (eta1 + eta2) N = m1 + m2, constant
    imbalance_interval: tuple[float, float]
    nominal: PumpFit              # solve_pump_noise at eta1 = eta2 = eta_nominal


def noise_surface(sigma2_measured, m1, m2, mu, eta1_grid, eta2_grid,
                  kind=TWIN_BEAM, eta_nominal=None) -> NoiseBudget:
    """Solve the pump-noise budget at every point of an efficiency grid.

    The corrected variance at a grid point is the x = 0 model value there
    (the measurement minus the solved excess); where the measurement sits
    below the model no correction is possible and the measured value is
    kept, flagged at_floor.  The shot-noise plane (eta1 + eta2) N equals
    m1 + m2 for every efficiency choice, hence a single number.  The imbalance
    interval and the nominal fit are taken at eta_nominal, by default the grid's mean.
    """
    e1 = np.atleast_1d(_efficiencies("eta1_grid", eta1_grid))
    e2 = np.atleast_1d(_efficiencies("eta2_grid", eta2_grid))
    _check_table(e1.size * e2.size, f"a {e1.size} x {e2.size} noise surface")
    fit = solve_pump_noise(sigma2_measured, e1[:, None], e2[None, :], m1, m2, mu, kind)
    corrected = np.where(fit.at_floor, sigma2_measured, fit.base_sigma2)
    if eta_nominal is None:
        eta_nominal = 0.5 * (float(e1.mean()) + float(e2.mean()))
    interval = imbalance_bounds(sigma2_measured, m1, m2, mu, eta_nominal, kind)
    nominal = solve_pump_noise(sigma2_measured, eta_nominal, eta_nominal, m1, m2, mu, kind)
    return NoiseBudget(e1, e2, fit.x, corrected, fit.at_floor, float(m1 + m2), interval, nominal)
