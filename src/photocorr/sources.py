"""Photon-number statistics of two-beam light sources.

Three benchmark sources are covered, all parametrized by the per-beam mean
photon number N (the total over all populated modes):

* twin beam: pairwise-correlated beams from parametric downconversion, with
  identical photon numbers in the two beams of each mode pair,
* coherent pair: two independent coherent beams (Poissonian, uncorrelated),
* split thermal: a thermal beam of mean 2N divided on a beam splitter of
  transmissivity tau (classically correlated outputs).

This module holds what every layer shares: the SourceSpec that names a
source, the JointCountDistribution of a truncated joint table (which
detection.source_joint computes from the source's generating function), the
multithermal intensity law and the number checks.  _check_table refuses any
float64 table above _TABLE_BYTES (128 MiB: cutoff 4095, or a p(d) FFT of 2**24
points) with TailToleranceError before it is allocated, in every exact layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TailToleranceError, ValidationError

TWIN_BEAM = "twin_beam"
COHERENT_PAIR = "coherent_pair"
SPLIT_THERMAL = "split_thermal"

_KINDS = (TWIN_BEAM, COHERENT_PAIR, SPLIT_THERMAL)

#: Default bound on the probability mass allowed outside the truncation window.
DEFAULT_TAIL_TOL = 1e-10

#: Largest float64 array, in bytes, that a joint table, loss matrix,
#: multimode convolution or p(d) FFT may allocate.
_TABLE_BYTES = 1 << 27

#: Numeric domains: rule -> (what it asks for, least and greatest float allowed, integer).
_MAX, _TINY = math.nextafter(math.inf, 0.0), math.nextafter(0.0, 1.0)
_DOMAINS = {
    "finite": ("a finite number", -_MAX, _MAX, False),
    ">= 0": ("a finite number >= 0", 0.0, _MAX, False),
    "> 0": ("a finite number > 0", _TINY, _MAX, False),
    ">= 1": ("a finite number >= 1", 1.0, _MAX, False),
    "[0, 1]": ("a number in [0, 1]", 0.0, 1.0, False),
    "(0, 1]": ("a number in (0, 1]", _TINY, 1.0, False),
    "(0, 1)": ("a number in (0, 1)", _TINY, math.nextafter(1.0, 0.0), False),
    "integer": ("an integer", -_MAX, _MAX, True),
    "integer >= 0": ("an integer >= 0", 0.0, _MAX, True),
    "integer >= 1": ("an integer >= 1", 1.0, _MAX, True),
}
_REALS = (float, int, np.floating, np.integer)  # and not bool


def _checked(name, value, rule):
    """value, a Python or numpy real scalar but not a bool, as a float (an int for the
    integer rules) if it obeys the rule of _DOMAINS, else ValidationError naming name,
    the rule and the value; nan, +-inf and ints beyond the float range fail every rule."""
    text, least, greatest, integer = _DOMAINS[rule]
    kind = type(value)
    try:  # the exact type tests first: they are the common case, and cheaper than isinstance
        real = kind is float or kind is int or (kind is not bool and isinstance(value, _REALS))
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    if least <= x <= greatest and (not integer or x.is_integer()):
        return int(value) if integer else x
    raise ValidationError(f"{name}: must be {text}, got {value!r}")


def _checked_array(name, values, rule):
    """The array form of _checked: values, an array of real numbers of any shape, as a
    float64 array if every element obeys the same rule of _DOMAINS (the integer rules ask
    for whole numbers), else ValidationError naming name, the index and the value of the
    first element that does not.  An array of bools, strings or objects, and a ragged
    sequence, fail every rule.
    A float goes to _checked and comes back a float, so scalar callers pay no array cost."""
    if isinstance(values, float):
        return _checked(name, values, rule)
    text, least, greatest, integer = _DOMAINS[rule]
    try:
        arr = np.asarray(values)
    except ValueError:  # nested sequences of unequal lengths
        raise ValidationError(f"{name}: must be an array of numbers, got nested "
                              f"sequences of unequal lengths") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{name}: must be an array of numbers, got dtype {arr.dtype}")
    x = arr.astype(float, copy=False)
    ok = (least <= x) & (x <= greatest)
    if integer:
        ok &= np.trunc(x) == x
    if not ok.all():
        index = np.argwhere(~ok)[0].tolist()
        raise ValidationError(f"{name}{index if index else ''}: must be {text}, "
                              f"got {arr[tuple(index)].item()!r}")
    return x


def _checked_pair(name, value, rule):
    """value, a pair (x1, x2) whose two elements obey the same rule of _DOMAINS, as a
    tuple of _checked values, else ValidationError naming name."""
    try:
        x1, x2 = value
    except (TypeError, ValueError):
        raise ValidationError(f"{name}: expected a pair (x1, x2), got {value!r}") from None
    return _checked(name, x1, rule), _checked(name, x2, rule)


def _check_fields(spec, **rules):
    """Replace each field of a frozen dataclass by its _checked value under its rule."""
    fields = vars(spec)  # a frozen dataclass refuses setattr, not a write to its __dict__
    for name, rule in rules.items():
        fields[name] = _checked(name, fields[name], rule)


@dataclass(frozen=True)
class SourceSpec:
    """Which two-beam source to model.

    n_mean is the mean photon number of each beam, totalled over the mu
    identically populated mode pairs.  tau applies to split thermal light
    only (transmissivity of the splitter; 1/2 gives balanced beams).
    """

    kind: str
    n_mean: float
    mu: int = 1
    tau: float = 0.5

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"kind: expected one of {_KINDS}, got {self.kind!r}")
        _check_fields(self, n_mean=">= 0", mu="integer >= 1", tau="[0, 1]")

    @classmethod
    def twin_beam(cls, n_mean, mu=1):
        return cls(TWIN_BEAM, n_mean, mu)

    @classmethod
    def coherent_pair(cls, n_mean, mu=1):
        return cls(COHERENT_PAIR, n_mean, mu)

    @classmethod
    def split_thermal(cls, n_mean, mu=1, tau=0.5):
        return cls(SPLIT_THERMAL, n_mean, mu, tau)

    @property
    def per_mode_mean(self) -> float:
        return self.n_mean / self.mu


@dataclass(frozen=True)
class JointCountDistribution:
    """Truncated joint probability matrix over photon (or count) pairs.

    probs[n1, n2] is the probability of n1 counts on beam 1 and n2 on
    beam 2, for n1, n2 = 0..cutoff.  tail_mass is the probability that
    probs leaves out, so probs.sum() + tail_mass == 1 to 1e-12; tables built
    by an FFT record max(0, 1 - probs.sum()), which is rounding-level.
    """

    probs: np.ndarray
    tail_mass: float = field(default=0.0)

    def __post_init__(self):
        p = _checked_pmf(self.probs, self.tail_mass)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValidationError(f"probs: expected a square matrix, got shape {p.shape}")
        object.__setattr__(self, "probs", p)

    @property
    def cutoff(self) -> int:
        return self.probs.shape[0] - 1

    def marginal(self, beam: int) -> np.ndarray:
        if beam not in (1, 2):
            raise ValidationError("beam: must be 1 or 2")
        return self.probs.sum(axis=2 - beam)


def _checked_pmf(probs, tail_mass):
    """probs as a float array, checked to be non-negative and to sum to 1 with tail_mass."""
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise ValidationError("probs: empty")
    if p.min() < -1e-14:
        raise ValidationError(f"probs: negative entry {p.min()}")
    total = p.sum() + tail_mass
    if not abs(total - 1.0) <= 1e-12:  # nan included
        raise ValidationError(f"probs + tail_mass sum to {total}, expected 1")
    return p


def _check_table(points, what, required_cutoff=None):
    """Raise TailToleranceError, before anything is allocated, when a float64
    array of `points` entries would exceed the table budget _TABLE_BYTES."""
    if 8 * points > _TABLE_BYTES:
        raise TailToleranceError(f"{what} has {points} float64 entries, above the "
                                 f"{_TABLE_BYTES / 2**20:g} MiB table budget", required_cutoff)


def multithermal_pdf(v, mu, v_mean):
    """Density of the sum of mu equally populated thermal modes.

    This is the high-intensity (continuous) law: a Gamma density with shape
    mu and mean v_mean, variance v_mean**2 / mu.  Non-integer mu >= 1 is
    accepted; the factorial generalizes through the Gamma function.

    The log-density is a sum of terms of size mu * |ln v| and mu * |ln(v_mean / mu)|
    that cancel to about ln(sqrt(mu) / v_mean), so its rounding error, which is the
    density's relative error, grows with mu: within 3e-7 up to mu = 1e6 for every v_mean
    from 1e-305 to 1e305 (against a 50-digit evaluation, within 6 standard deviations of
    the mean), and above 1e-5 at mu = 1e8.  A mu above 1e6 raises ValidationError.
    """
    mu, v_mean = _checked("mu", mu, ">= 1"), _checked("v_mean", v_mean, "> 0")
    if mu > 1e6:
        raise ValidationError(f"mu: the multithermal density holds 1e-6 relative accuracy "
                              f"up to mu = 1e6, got {mu!r}")
    v = np.asarray(_checked_array("v", v, ">= 0"))
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    out = np.zeros_like(v)
    pos = v > 0
    with np.errstate(over="ignore", invalid="ignore"):  # a density beyond the float range is refused
        out[pos] = np.exp(-v[pos] * mu / v_mean + (mu - 1) * np.log(v[pos]) - math.lgamma(mu)
                          - mu * math.log(v_mean / mu))
    if mu == 1:
        out[~pos] = 1.0 / v_mean
    _checked_array("the multithermal density", out, "finite")
    return out[0] if scalar else out
