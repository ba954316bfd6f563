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
shot to shot through pump scales u ~ N(1, sd**2).  The spreads sd are the
scale rule of the law core, detection._pump_sds, set against the
error-propagation budget that the analysis module inverts; this module only
draws them:

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
  sqrt(2) * pump_x (thermal) or pump_x (coherent).

Negative Gaussian scales are truncated at zero and counted, not redrawn.

A record is drawn in chunks of _CHUNK_SHOTS shots, and chunk i takes all its
numbers from a stream of its own, Philox(seed).jumped(i).  The chunks are
drawn by one thread per core the process may run on (at most one per chunk),
because numpy's samplers and ufuncs release the interpreter lock; the record
does not depend on the number of threads or on which thread drew a chunk.  A
record of at most one chunk is the single Philox(seed) draw.  The chunk size
is part of a record's bytes: another size would give another record of the
same law.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import sources
from .detection import EfficiencyPair, _pgf_coefficients, _pump_sds
from .errors import TailToleranceError, ValidationError
from .seriesio import ShotSeries
from .sources import TWIN_BEAM, SourceSpec, _check_fields, _checked_pair


#: Largest n_mean simulated: Poisson means reach about 40 n_mean (thermal tail
#: and pump scale), and numpy's Poisson sampler and int64 counts end near 9.2e18.
_MAX_N_MEAN = 1e15

#: A pumped source must keep its mean within _MAX_N_MEAN up to this many
#: standard deviations of the pump scale above 1 (a draw beyond it has
#: probability below 1e-23).
_PUMP_SDS = 10.0

#: A pumped twin beam is drawn mode by mode, mu rounds over the shots of each
#: chunk.  On a 2-vCPU Xeon a round costs 30-45 us plus 75-100 ns a shot on one
#: core, and about 55 ns a shot with both cores drawing chunks (the whole-record
#: rounds this replaced took about 120 ns a shot there).  A record of one chunk
#: pays the fixed cost once per mode, a longer one once per mode and chunk,
#: under 1.5 ns a shot; so the work is counted as mu * (shots + _MODE_SHOTS)
#: shot draws and refused above _PUMPED_DRAWS (about 15 s there on two cores).
#: Up to 15 modes, the paper's mu of about 14 among them, keep the whole
#: 2**24-shot range of the table budget.
_MODE_SHOTS = 512
_PUMPED_DRAWS = 1 << 28

#: Shots per chunk of a record (see sample_series).
_CHUNK_SHOTS = 1 << 15


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

    Deterministic for a fixed config.  The record is drawn in chunks of
    _CHUNK_SHOTS shots, and chunk i takes all its randomness from one
    counter-based generator, Philox(cfg.seed).jumped(i): a record of at most
    one chunk is the single Philox(cfg.seed) draw, and a longer one is a fixed
    function of the config and the seed, whatever the number of threads (the
    chunk size is therefore part of a record's bytes).  The chunks are drawn
    by up to one thread per core, the calling thread among them; an exception
    in any of them is raised here.  Within a chunk, the pumped twin beam draws
    its photon totals mode by mode and thins them.  Every other source draws,
    in this order, the pump scales u, the Gamma(mu) variates of a thermal
    source, Z (twin beam only), X1 and X2 of the module docstring.  Volts then
    draw the instrument noise of channel 1 and of channel 2.
    """
    k = cfg.shots
    out = np.empty((2, k), dtype=float if cfg.volts else np.int64)
    chunks = -(-k // _CHUNK_SHOTS)
    truncations = [0] * chunks

    def draw(i):
        rng = np.random.Generator(np.random.Philox(cfg.seed).jumped(i))
        chunk = out[:, i * _CHUNK_SHOTS:(i + 1) * _CHUNK_SHOTS]
        truncations[i] = _draw_chunk(rng, cfg, chunk)

    _run_chunks(draw, chunks, min(_cores(), chunks))
    unit = "volts" if cfg.volts else "counts"
    return ShotSeries(out[0], out[1], unit, cfg.conv, cfg.instrument_noise_var, sum(truncations))


def _cores():
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(draw, chunks, threads):
    """draw(i) for i in range(chunks), on the given number of threads.

    The calling thread is one of them, and every thread takes the next index
    from one shared iterator until it runs out or a thread fails.  The other
    threads are joined before this returns, and the first exception raised
    by any thread is raised again here.
    """
    todo = iter(range(chunks))
    lock = threading.Lock()
    errors = []

    def worker():
        # errstate is per thread: a zero pump scale gives a mean of 0 and 1 / 0 = inf
        with np.errstate(divide="ignore"):
            while not errors:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                try:
                    draw(i)
                except BaseException as exc:  # raised again by the calling thread
                    errors.append(exc)

    others = [threading.Thread(target=worker) for _ in range(threads - 1)]
    for thread in others:
        thread.start()
    try:
        worker()
    finally:
        for thread in others:
            thread.join()
    if errors:
        raise errors[0]


def _draw_chunk(rng, cfg, out):
    """Draw one chunk of the record into out, a (2, n) slice of counts or volts;
    returns the number of truncated pump scales.  A thread keeps the memory it
    frees in its own malloc arena, so the channels are drawn one at a time, each
    as it is stored, and a counts record's pumped totals are summed in out."""
    src, eff = cfg.source, cfg.eff
    n = out.shape[1]
    if src.kind == TWIN_BEAM and cfg.pump_x > 0:
        totals = np.empty((2, n), dtype=np.int64) if cfg.volts else out
        truncations = _pumped_twin_beam(rng, cfg, totals)
        counts = (rng.binomial(m, eta) if eta < 1.0 else m  # binomial thinning
                  for m, eta in zip(totals, (eff.eta1, eff.eta2)))
    else:
        bose, a, b, c, _, _ = _pgf_coefficients(src.kind, src.per_mode_mean, src.tau,
                                                eff.eta1, eff.eta2)
        g = np.empty(n)
        truncations = _pump_scales(rng, _pump_sds(src.kind, cfg.pump_x, eff)[0], g)
        g *= rng.standard_gamma(src.mu, n) if bose else src.mu
        z = rng.poisson(g * c) if c > 0 else 0
        counts = (rng.poisson(g * share) + z for share in (a - c, b - c))  # X_j, plus Z
    for o, conv in zip(out, cfg.conv):  # no name keeps a stored channel while the next is drawn
        o[:] = next(counts) * conv if cfg.volts else next(counts)
    for o, noise_var in zip(out, cfg.instrument_noise_var):
        if noise_var > 0:  # sd * z is rng.normal(0.0, sd) bit for bit
            o += rng.standard_normal(n) * math.sqrt(noise_var)
    return truncations


def _pump_scales(rng, sd, u):
    """Fill u with pump scales N(1, sd**2) truncated at zero; returns the number truncated."""
    if sd == 0:
        u.fill(1.0)
        return 0
    rng.standard_normal(out=u)  # u * sd + 1.0 is rng.normal(1.0, sd) bit for bit
    u *= sd
    u += 1.0
    truncations = int(np.count_nonzero(u < 0))
    np.clip(u, 0.0, None, out=u)
    return truncations


def _pumped_twin_beam(rng, cfg, totals):
    """Photon totals (n1, n2) of a pump-noisy twin beam, summed mode by mode into
    totals, a (2, n) int64 array; returns the number of truncated pump scales.

    Per mode pair, one Exp(1) variate E is shared by both beams and beam j
    counts floor(E / log1p(1 / a_j)) photons, a geometric law of mean a_j
    (the inverse cdf at the uniform 1 - exp(-E)).  a_j = sinh(G sqrt(u_j))**2
    with its own pump scale u_j per mode and beam.  The rounds work in place
    in e, x and draws, allocated once; a zero mean gives log1p(inf) = inf and
    a draw of 0.
    """
    gain = math.asinh(math.sqrt(cfg.source.per_mode_mean))
    sds = _pump_sds(TWIN_BEAM, cfg.pump_x, cfg.eff)
    n = totals.shape[1]
    e, x = np.empty((2, n))
    draws = np.empty(n, dtype=np.int64)
    totals.fill(0)
    truncations = 0
    for _ in range(cfg.source.mu):
        rng.standard_exponential(out=e)
        for total, sd in zip(totals, sds):
            truncations += _pump_scales(rng, sd, x)
            np.sqrt(x, out=x)
            x *= gain
            np.sinh(x, out=x)
            x *= x  # the mean a_j
            np.divide(1.0, x, out=x)
            np.log1p(x, out=x)
            np.divide(e, x, out=x)
            np.floor(x, out=x)
            draws[:] = x
            total += draws
    return truncations
