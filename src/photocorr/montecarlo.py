"""Monte Carlo generation of per-shot detected counts and voltages.

Each laser shot produces mu independent mode pairs.  Per shot the detected
counts (m1, m2) are drawn from their exact law with (shots,) arrays only, and
are optionally converted to boxcar voltages v = alpha * m plus additive
Gaussian instrument noise.

Every source except the pumped twin beam is drawn from its generating
function.  With u_j = z_j - 1, the mu-pair count pgf is exp(mu x) (coherent
pair) or (1 - x)**-mu (thermal sources), x = A u1 + B u2 + C u1 u2, with
(A, B, C) from detection._pgf_coefficients and C <= A, B.  Both equal
E_g[exp(g x)] for g = mu or g ~ Gamma(mu), and exp(g x) factorises into the
pgfs of three independent Poisson counts: Z of mean g C, common to both beams,
and X_j of mean g (A_j - C).  So, per shot, m_j = X_j + Z, with g scaled by
the pump scale u (1 without pump noise).  Z is drawn only when C > 0 (the
twin beam).  The pumped twin beam is drawn mode by mode (see below), then
thinned.

Pump-laser excess noise (fraction pump_x of the mean) jitters the means from
shot to shot.  The jitter is injected so that the per-beam detected-count
excess matches the error-propagation budget used by the analysis module:

* twin beam: the squeezing gain maps a pump scale u to a per-mode mean
  a = sinh(G sqrt(u))**2 with G = arcsinh(sqrt(N/mu)).  Scales are drawn
  independently per shot, per mode and per beam with standard deviation
  pump_x / (eta_j * sqrt(2)); the 1/eta_j factor compensates the thinning
  attenuation and the 1/sqrt(2) the fact that a thermal law turns mean
  jitter into variance twice (once through the mean, once through the
  mean-squared term of its own variance).  The two beams of a pair stay
  maximally correlated through one shared Exp(1) variate E per mode: beam j
  counts floor(E / log1p(1 / a_j)) photons, the geometric inverse cdf.
  Independent per-beam scales are a model choice made to match the budget
  that solve_pump_noise inverts, not physics derived from the source paper:
  a real pump scales both beams of a pair together.
* split thermal / coherent pair: the mean scales linearly with a per-shot
  scale common to all modes and both beams, with standard deviation
  sqrt(2) * pump_x (thermal, matching an excess of 2 x**2 N**2 per beam) or
  pump_x (coherent, excess x**2 N**2).

Negative Gaussian scales are truncated at zero and counted, not redrawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sources
from .detection import EfficiencyPair, _pgf_coefficients, _pump_excess
from .errors import TailToleranceError, ValidationError
from .seriesio import ShotSeries
from .sources import SPLIT_THERMAL, TWIN_BEAM, SourceSpec, _check_fields, _checked, _checked_pair


#: Largest n_mean simulated: Poisson means reach about 40 n_mean (thermal tail
#: and pump scale), and numpy's Poisson sampler and int64 counts end near 9.2e18.
_MAX_N_MEAN = 1e15

#: A pumped source must keep its mean within _MAX_N_MEAN up to this many
#: standard deviations of the pump scale above 1 (a draw beyond it has
#: probability below 1e-23).
_PUMP_SDS = 10.0

#: A pumped twin beam is drawn mode by mode, mu rounds over all shots.  On a
#: 2-vCPU Xeon one round costs about 50 us plus 130 ns a shot, so the work is
#: counted as mu * (shots + _MODE_SHOTS) shot draws and refused above
#: _PUMPED_DRAWS (about 35 s there).  Up to 15 modes, the paper's mu of about 14
#: among them, keep the whole 2**24-shot range of the table budget.
_MODE_SHOTS = 512
_PUMPED_DRAWS = 1 << 28


@dataclass(frozen=True)
class SimulationConfig:
    source: SourceSpec
    eff: EfficiencyPair
    shots: int
    seed: int = 0
    pump_x: float = 0.0
    volts: bool = False
    conv: tuple[float, float] = (1.0, 1.0)
    instrument_noise_var: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        _check_fields(self, shots="integer >= 1", seed="integer >= 0", pump_x=">= 0")
        for name, rule in ("conv", "> 0" if self.volts else ">= 0"), ("instrument_noise_var", ">= 0"):
            object.__setattr__(self, name, _checked_pair(name, getattr(self, name), rule))
        if any(self.instrument_noise_var) and not self.volts:
            raise ValidationError(f"instrument_noise_var: noise is added to volts only, got "
                                  f"{self.instrument_noise_var} for a counts record")
        sources._check_table(self.shots, f"a series of {self.shots} shots")
        src = self.source
        top = 1.0 + _PUMP_SDS * max(_pump_sds(src.kind, self.pump_x, self.eff))
        if src.kind == TWIN_BEAM and self.pump_x > 0:
            draws = src.mu * (self.shots + _MODE_SHOTS)
            if draws > _PUMPED_DRAWS:
                raise TailToleranceError(
                    f"a pumped twin beam of {src.mu} modes and {self.shots} shots is drawn mode "
                    f"by mode: mu * (shots + {_MODE_SHOTS}) = {draws} shot draws, above the "
                    f"budget of {_PUMPED_DRAWS}")
            # the mean grows as exp(2 G sqrt(u)) in the pump scale u
            fits = (math.asinh(math.sqrt(src.per_mode_mean)) * math.sqrt(top)
                    <= math.asinh(math.sqrt(_MAX_N_MEAN / src.mu)))
        else:  # the mean grows linearly in u
            fits = src.n_mean * top <= _MAX_N_MEAN
        if not fits:
            raise ValidationError(
                f"n_mean {src.n_mean:g} and pump_x {self.pump_x:g}: a pump scale {_PUMP_SDS:g} "
                f"standard deviations up would put a {src.kind} at eta {self.eff.eta1:g}, "
                f"{self.eff.eta2:g} above a mean of {_MAX_N_MEAN:g}, and counts overflow int64")


def sample_series(cfg: SimulationConfig) -> ShotSeries:
    """Simulate a shot series for the configured source and detection chain.

    Deterministic for a fixed config: all randomness comes from one
    counter-based generator seeded with cfg.seed.  The pumped twin beam draws
    its photon totals mode by mode and thins them.  Every other source draws,
    in this order, the pump scales u, the Gamma(mu) variates of a thermal
    source, Z (twin beam only), X1 and X2 of the module docstring.  Volts then
    draw the instrument noise of channel 1 and of channel 2.
    """
    src, eff = cfg.source, cfg.eff
    k = cfg.shots
    rng = np.random.Generator(np.random.Philox(cfg.seed))

    if src.kind == TWIN_BEAM and cfg.pump_x > 0:
        n1, n2, truncations = _pumped_twin_beam(rng, cfg)
        m1, m2 = _thin(rng, n1, eff.eta1), _thin(rng, n2, eff.eta2)
    else:
        bose, a, b, c, _, _ = _pgf_coefficients(src.kind, src.per_mode_mean, src.tau,
                                                eff.eta1, eff.eta2)
        u, truncations = _pump_scales(rng, _pump_sds(src.kind, cfg.pump_x, eff)[0], k)
        g = u * rng.standard_gamma(src.mu, k) if bose else u * src.mu
        z = rng.poisson(g * c) if c > 0 else 0
        m1, m2 = rng.poisson(g * (a - c)), rng.poisson(g * (b - c))
        m1 += z
        m2 += z

    if not cfg.volts:
        return ShotSeries(m1.astype(np.int64), m2.astype(np.int64), "counts",
                          cfg.conv, cfg.instrument_noise_var, truncations)
    a1, a2 = cfg.conv
    nv1, nv2 = cfg.instrument_noise_var
    v1 = a1 * m1 + (rng.normal(0.0, math.sqrt(nv1), k) if nv1 > 0 else 0.0)
    v2 = a2 * m2 + (rng.normal(0.0, math.sqrt(nv2), k) if nv2 > 0 else 0.0)
    return ShotSeries(v1, v2, "volts", cfg.conv, cfg.instrument_noise_var, truncations)


def _pump_scales(rng, sd, size):
    """Pump scales N(1, sd**2) truncated at zero, and the number truncated."""
    if sd == 0:
        return np.ones(size), 0
    u = rng.normal(1.0, sd, size)
    truncations = int(np.count_nonzero(u < 0))
    np.clip(u, 0.0, None, out=u)
    return u, truncations


def _thin(rng, counts, eta):
    """Binomial thinning of each count with success probability eta."""
    return rng.binomial(counts, eta) if eta < 1.0 else counts


def _pumped_twin_beam(rng, cfg):
    """Photon totals (n1, n2) of a pump-noisy twin beam, summed mode by mode.

    Per mode pair, one Exp(1) variate E is shared by both beams and beam j
    counts floor(E / log1p(1 / a_j)) photons, a geometric law of mean a_j
    (the inverse cdf at the uniform 1 - exp(-E)).  a_j = sinh(G sqrt(u_j))**2
    with its own pump scale u_j per mode and beam.
    """
    k, mu = cfg.shots, cfg.source.mu
    gain = math.asinh(math.sqrt(cfg.source.per_mode_mean))
    sds = _pump_sds(TWIN_BEAM, cfg.pump_x, cfg.eff)
    totals = np.zeros((2, k), dtype=np.int64)
    truncations = 0
    with np.errstate(divide="ignore"):
        for _ in range(mu):
            e = rng.standard_exponential(k)
            for total, sd in zip(totals, sds):
                u, cut = _pump_scales(rng, sd, k)
                truncations += cut
                mean = np.sinh(gain * np.sqrt(u)) ** 2
                # a zero mean gives log1p(inf) = inf and a draw of 0
                total += np.floor(e / np.log1p(1.0 / mean)).astype(np.int64)
    return totals[0], totals[1], truncations


def _pump_sds(kind, pump_x, eff):
    """Standard deviations of a source's pump scales (see the module docstring): one
    per beam for the twin beam (0 where eta is 0), else one common to both beams."""
    if kind != TWIN_BEAM:
        return [math.sqrt(2.0) * pump_x if kind == SPLIT_THERMAL else pump_x]
    return [pump_x / (eta * math.sqrt(2.0)) if eta > 0 else 0.0 for eta in (eff.eta1, eff.eta2)]


def predicted_beam_variance(src: SourceSpec, pump_x: float) -> float:
    """Photon-number variance of beam 1, of mean m = mu A (detection._pgf_coefficients:
    N, or 2 N tau for split thermal light), in the bright-beam (multithermal) limit.

    m**2/mu for the thermal laws (m for a coherent pair), without the Bose term +m
    that m >> mu makes small, plus pump_x**2 * detection._pump_excess at m.  A
    variance beyond the float range raises ValidationError.
    """
    pump_x = _checked("pump_x", pump_x, ">= 0")
    bose, a, _, _, _, _ = _pgf_coefficients(src.kind, src.per_mode_mean, src.tau, 1.0, 1.0)
    mean = src.mu * a
    with np.errstate(over="ignore", invalid="ignore"):
        excess = _pump_excess(src.kind, mean, src.mu)
        variance = mean * (a if bose else 1.0) + pump_x * pump_x * excess
    return _checked("the predicted beam variance", variance, "finite")
