"""Monte Carlo generation of per-shot detected counts and voltages.

Each laser shot produces mu independent mode pairs.  Per shot the chain is:
draw photon numbers for every mode pair, thin each beam binomially with its
quantum efficiency, sum over modes, and optionally convert the totals to
boxcar voltages v = alpha * m plus additive Gaussian instrument noise.

Pump-laser excess noise (fraction pump_x of the mean) jitters the per-mode
means from shot to shot.  The jitter is injected so that the per-beam
detected-count excess matches the error-propagation budget used by the
analysis module:

* twin beam: the squeezing gain maps a pump scale u to a per-mode mean
  sinh(G sqrt(u))**2 with G = arcsinh(sqrt(N/mu)).  Scales are drawn
  independently per shot, per mode and per beam with standard deviation
  pump_x / (eta_j * sqrt(2)); the 1/eta_j factor compensates the thinning
  attenuation and the 1/sqrt(2) the fact that a thermal law turns mean
  jitter into variance twice (once through the mean, once through the
  mean-squared term of its own variance).  The two beams of a pair stay
  maximally correlated through a shared uniform.
* split thermal / coherent pair: the mean scales linearly with a per-shot
  scale common to both beams, with standard deviation sqrt(2) * pump_x
  (thermal, matching an excess of 2 x**2 N**2 per beam) or pump_x
  (coherent, excess x**2 N**2).

Negative Gaussian scales are truncated at zero and counted, not redrawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detection import EfficiencyPair
from .errors import ValidationError
from .sources import COHERENT_PAIR, SPLIT_THERMAL, TWIN_BEAM, SourceSpec


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
        if int(self.shots) != self.shots or self.shots < 1:
            raise ValidationError(f"shots: must be an integer >= 1, got {self.shots}")
        object.__setattr__(self, "shots", int(self.shots))
        if self.pump_x < 0:
            raise ValidationError(f"pump_x: must be >= 0, got {self.pump_x}")
        if self.volts and (self.conv[0] <= 0 or self.conv[1] <= 0):
            raise ValidationError(f"conv: must be > 0 for voltage output, got {self.conv}")
        if min(self.instrument_noise_var) < 0:
            raise ValidationError("instrument_noise_var: must be >= 0")


@dataclass(frozen=True)
class ShotSeries:
    """Per-shot outputs of the two detection channels.

    ch1/ch2 hold detected counts (unit == "counts") or boxcar voltages
    (unit == "volts").  Conversion coefficients and instrument-noise
    variances travel with the data so analyzers can undo them.
    """

    ch1: np.ndarray
    ch2: np.ndarray
    unit: str
    conv: tuple[float, float] = (1.0, 1.0)
    instrument_noise_var: tuple[float, float] = (0.0, 0.0)
    pump_truncations: int = 0

    def __post_init__(self):
        if self.unit not in ("counts", "volts"):
            raise ValidationError(f"unit: expected 'counts' or 'volts', got {self.unit!r}")
        if len(self.ch1) != len(self.ch2):
            raise ValidationError("ch1 and ch2 must have equal length")

    def __len__(self):
        return len(self.ch1)

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Channel values mapped back to detected-photon units."""
        if self.unit == "counts":
            return np.asarray(self.ch1, dtype=float), np.asarray(self.ch2, dtype=float)
        return self.ch1 / self.conv[0], self.ch2 / self.conv[1]


def _thermal_inverse(u, mean):
    """Comonotone thermal draw: inverse cdf of the geometric law at u."""
    out = np.zeros_like(u)
    pos = mean > 0
    if np.any(pos):
        log_r = -np.log1p(1.0 / mean[pos])  # log(mean/(1+mean)), no cancellation
        out[pos] = np.floor(np.log1p(-u[pos]) / log_r)
    return out.astype(np.int64)


def sample_series(cfg: SimulationConfig) -> ShotSeries:
    """Simulate a shot series for the configured source and detection chain.

    Deterministic for a fixed config: all randomness comes from one
    counter-based generator seeded with cfg.seed, consumed in a fixed order
    (pump scales, photon draws, thinning for channel 1 then 2, instrument
    noise).
    """
    src, eff = cfg.source, cfg.eff
    k, mu = cfg.shots, src.mu
    n = src.per_mode_mean
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    truncations = 0

    if src.kind == TWIN_BEAM:
        gain = math.asinh(math.sqrt(n))
        if cfg.pump_x > 0:
            s1 = cfg.pump_x / (eff.eta1 * math.sqrt(2.0)) if eff.eta1 > 0 else 0.0
            s2 = cfg.pump_x / (eff.eta2 * math.sqrt(2.0)) if eff.eta2 > 0 else 0.0
            u1 = rng.normal(1.0, s1, (k, mu))
            u2 = rng.normal(1.0, s2, (k, mu))
            truncations = int((u1 < 0).sum() + (u2 < 0).sum())
            np.clip(u1, 0.0, None, out=u1)
            np.clip(u2, 0.0, None, out=u2)
            mean1 = np.sinh(gain * np.sqrt(u1)) ** 2
            mean2 = np.sinh(gain * np.sqrt(u2)) ** 2
        else:
            mean1 = mean2 = np.full((k, mu), n)
        shared = rng.random((k, mu))
        n1 = _thermal_inverse(shared, mean1).sum(axis=1)
        n2 = _thermal_inverse(shared, mean2).sum(axis=1)
    elif src.kind == SPLIT_THERMAL:
        if cfg.pump_x > 0:
            u = rng.normal(1.0, cfg.pump_x * math.sqrt(2.0), k)
            truncations = int((u < 0).sum())
            np.clip(u, 0.0, None, out=u)
        else:
            u = np.ones(k)
        total_mean = 2.0 * n * u[:, None] * np.ones((1, mu))
        totals = _thermal_inverse(rng.random((k, mu)), total_mean)
        n1 = rng.binomial(totals, src.tau).sum(axis=1)
        n2 = (totals.sum(axis=1) - n1).astype(np.int64)
        n1 = n1.astype(np.int64)
    else:
        if cfg.pump_x > 0:
            u = rng.normal(1.0, cfg.pump_x, k)
            truncations = int((u < 0).sum())
            np.clip(u, 0.0, None, out=u)
        else:
            u = np.ones(k)
        lam = src.n_mean * u
        n1 = rng.poisson(lam)
        n2 = rng.poisson(lam)

    m1 = rng.binomial(n1, eff.eta1) if eff.eta1 < 1.0 else n1
    m2 = rng.binomial(n2, eff.eta2) if eff.eta2 < 1.0 else n2

    if not cfg.volts:
        return ShotSeries(m1.astype(np.int64), m2.astype(np.int64), "counts",
                          cfg.conv, cfg.instrument_noise_var, truncations)
    a1, a2 = cfg.conv
    nv1, nv2 = cfg.instrument_noise_var
    v1 = a1 * m1 + (rng.normal(0.0, math.sqrt(nv1), k) if nv1 > 0 else 0.0)
    v2 = a2 * m2 + (rng.normal(0.0, math.sqrt(nv2), k) if nv2 > 0 else 0.0)
    return ShotSeries(v1, v2, "volts", cfg.conv, cfg.instrument_noise_var, truncations)


def _pump_excess(kind, n, mu):
    """Per-beam excess variance per unit pump_x**2 at per-beam mean n over mu modes.

        twin beam:      (n**2 / mu) arcsinh(sqrt(n / mu))**2
        split thermal:  2 n**2
        coherent pair:  n**2

    n may be an array.
    """
    if kind == TWIN_BEAM:
        return n**2 / mu * np.arcsinh(np.sqrt(n / mu)) ** 2
    if kind == SPLIT_THERMAL:
        return 2.0 * n**2
    return n**2


def predicted_beam_variance(src: SourceSpec, pump_x: float) -> float:
    """Per-beam variance in the bright-beam (multithermal) approximation.

    N**2/mu for the thermal laws (N for a coherent pair) plus
    pump_x**2 * _pump_excess.  The Bose linear term (+N) of the discrete
    thermal laws is dropped, as appropriate when N >> mu.
    """
    if pump_x < 0:
        raise ValidationError(f"pump_x: must be >= 0, got {pump_x}")
    n_tot, mu = src.n_mean, src.mu
    base = n_tot if src.kind == COHERENT_PAIR else n_tot**2 / mu
    return float(base + pump_x**2 * _pump_excess(src.kind, n_tot, mu))
