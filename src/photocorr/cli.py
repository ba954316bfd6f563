"""Command-line front end.

Subcommands: analytic, simulate, analyze, fit, noise-budget, sweep.  Every
command reads a JSON config (--config), writes machine-readable tables
(TSV) and reports (JSON) into --out, and is deterministic given its config,
seeds included.  Reports embed the fully resolved config for provenance.

Exit codes, all set by main(): 0 success, 2 validation error, 3 data error (a
path that cannot be read or written too), 4 numerical tolerance error.

Only errors, sources and detection load with this module; each command
imports the modules it uses, so that a process loads what its command
needs.  run() is the process entry of ``python -m photocorr`` and of the
console script.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import sources
from .detection import EfficiencyPair, source_joint
from .errors import (
    DataError,
    PhotocorrError,
    TailToleranceError,
    UndefinedMarkerError,
    ValidationError,
)
from .sources import COHERENT_PAIR, SPLIT_THERMAL, TWIN_BEAM, SourceSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_TOLERANCE = 4


def _load_config(path):
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"config: no such file: {path}") from None
    except (OSError, ValueError) as exc:  # a directory, a file it may not read, a NUL in the name
        raise ValidationError(f"config: cannot read {path}: "
                              f"{getattr(exc, 'strerror', exc)}") from None
    try:
        with fh:
            cfg = json.load(fh)
    # not UTF-8, an integer past Python's digit limit, nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise DataError(f"config {path}: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"config: expected a JSON object, got {type(cfg).__name__}")
    return cfg


_REQUIRED = object()
_JSON_TYPES = {bool: "true or false", str: "a string", dict: "an object with lo, hi and points"}


def _config_value(cfg, key, read=None, default=_REQUIRED):
    """cfg[key], or default when the key is absent or null, read by a domain rule of
    sources._checked, a type of _JSON_TYPES (the value as it is) or a function; without
    read, a number goes to the library as parsed.  A missing required key, or a value
    that read rejects, raises ValidationError naming the key, so a wrong-typed config
    exits with 2."""
    value = cfg.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValidationError(f"config: missing required key {key!r}")
        return default
    if read is None:
        return value
    if isinstance(read, str):
        return sources._checked(key, value, read)
    if read in _JSON_TYPES:
        if not isinstance(value, read):
            raise ValidationError(f"config: {key!r}: expected {_JSON_TYPES[read]}, got {value!r}")
        return value
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"config: {key!r}: {exc}") from None


def _number_list(value):
    # as parsed: np.asarray would read a bool in it as 0 or 1, which the entry checks refuse
    if np.ndim(value) != 1:
        raise ValueError(f"expected a list of numbers, got {value!r}")
    return value


def _source(cfg, kind, n_mean) -> SourceSpec:
    """SourceSpec(kind, n_mean) with the config's mu and tau."""
    return SourceSpec(kind, n_mean, _config_value(cfg, "mu", default=1),
                      _config_value(cfg, "tau", default=0.5))


def _eff_from(cfg) -> EfficiencyPair:
    return EfficiencyPair(*sources._checked_pair("eta", _config_value(cfg, "eta"), "[0, 1]"))


def _write_report(out_dir, name, payload, resolved_config):
    payload = dict(payload, config=resolved_config)
    with open(Path(out_dir) / name, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def cmd_analytic(cfg, out_dir, fmt="tsv"):
    """Difference distributions, correlation coefficients, variances, threshold."""
    from . import markers, seriesio

    eff = _eff_from(cfg)
    n_mean = _config_value(cfg, "n_mean", default=1.0)
    with_joint = _config_value(cfg, "joint", bool, False)
    report = {"sources": {}}
    for kind in (TWIN_BEAM, COHERENT_PAIR, SPLIT_THERMAL):
        src = _source(cfg, kind, n_mean)
        dd = markers.difference_analytic(src, eff)
        seriesio.write_table(Path(out_dir) / f"diff_{kind}.tsv",
                             {"d": dd.d_values, "p": dd.probs}, fmt)
        if with_joint:
            joint = source_joint(src, eff)
            n1, n2 = np.indices(joint.probs.shape)
            seriesio.write_table(Path(out_dir) / f"joint_{kind}.tsv",
                                 {"n1": n1.ravel(), "n2": n2.ravel(), "p": joint.probs.ravel()},
                                 fmt)
        rep = markers.difference_variance(src, eff)
        try:
            correlation = markers.correlation_coefficient(src, eff)
        except UndefinedMarkerError:
            correlation = "undefined"  # a beam has zero variance
        report["sources"][kind] = {
            "correlation": correlation,
            "sigma2_d": rep.sigma2_d,
            "shot_noise_level": rep.shot_noise_level,
            "below_shot_noise": rep.below_shot_noise,
        }
    thr = markers.variance_threshold(eff)  # per mode pair; the report's N is the total
    report["threshold_n"] = ("unbounded" if thr is None
                             else sources._checked("threshold_n", src.mu * thr, "finite"))
    _write_report(out_dir, "analytic.json", report, cfg)


_SWEEP_KINDS = (("coherent", COHERENT_PAIR), ("twin_beam", TWIN_BEAM), ("thermal", SPLIT_THERMAL))


def cmd_sweep(cfg, out_dir, fmt="tsv"):
    """Variance-versus-intensity and variance-versus-efficiency tables.

    Each grid is checked in one call and each column is one call of the
    broadcasting closed form, markers._variances.
    """
    from . import markers, seriesio

    eff = _eff_from(cfg)
    n_grid = _config_value(cfg, "n_grid", _number_list, None)
    if n_grid is None:
        n_points = _config_value(cfg, "n_points", "integer >= 1", 101)
        sources._check_table(n_points, f"a sweep of {n_points} points")
        n_grid = np.linspace(_config_value(cfg, "n_min", ">= 0", 0.0),
                             _config_value(cfg, "n_max", ">= 0", 25.0), n_points)
    n = sources._checked_array("n_grid", n_grid, ">= 0")
    # mu and tau as analytic and simulate read them; the eta table is at N = n_ref
    src = _source(cfg, TWIN_BEAM, _config_value(cfg, "n_ref", "> 0", 1.0))
    mu, tau, n_ref = src.mu, src.tau, src.n_mean
    table = {"n_mean": np.asarray(n_grid)}
    for name, kind in _SWEEP_KINDS:
        table[f"sigma2_{name}"] = markers._variances(kind, n, mu, tau, eff.eta1, eff.eta2)[0]
    seriesio.write_table(Path(out_dir) / "sweep_n.tsv", table, fmt)
    eta_grid = _config_value(cfg, "eta_grid", _number_list, None)
    if eta_grid is None:
        eta_grid = np.linspace(0.05, 1.0, 20)
    eta = sources._checked_array("eta_grid", eta_grid, "[0, 1]")
    table = {"eta": np.asarray(eta_grid)}
    for name, kind in _SWEEP_KINDS:
        table[f"ratio_{name}"] = markers._variances(kind, n_ref, mu, tau, eta, eta)[0] / n_ref
    seriesio.write_table(Path(out_dir) / "sweep_eta.tsv", table, fmt)
    _write_report(out_dir, "sweep.json", {"tables": ["sweep_n.tsv", "sweep_eta.tsv"]}, cfg)


def cmd_simulate(cfg, out_dir, fmt="tsv"):
    """Generate a shot series and write it as CSV plus JSON sidecar."""
    from . import montecarlo, seriesio

    sim = montecarlo.SimulationConfig(
        source=_source(cfg, _config_value(cfg, "source", str), _config_value(cfg, "n_mean")),
        eff=_eff_from(cfg),
        shots=_config_value(cfg, "shots", default=10000),
        seed=_config_value(cfg, "seed", default=0),
        pump_x=_config_value(cfg, "pump_x", default=0.0),
        volts=_config_value(cfg, "volts", bool, False),
        conv=_config_value(cfg, "conv", default=(1.0, 1.0)),
        instrument_noise_var=_config_value(cfg, "instrument_noise_var", default=(0.0, 0.0)),
    )
    name = _config_value(cfg, "name", str, "shots.csv")
    series = montecarlo.sample_series(sim)
    seriesio.write_series(series, Path(out_dir) / name,
                          extra_meta={"config": dict(cfg, seed=sim.seed)})


def cmd_analyze(cfg, out_dir, fmt="tsv"):
    """Reduce a CSV shot record to correlation, difference and fit statistics."""
    from . import analysis, seriesio

    input_path = _config_value(cfg, "input", str)
    lags = [sources._checked("lags", lag, "integer")
            for lag in _config_value(cfg, "lags", _number_list, (0, 1, 2, 5))]
    fit = _config_value(cfg, "fit", bool, False)
    integer_mu = _config_value(cfg, "integer_mu", bool, True)
    name = _config_value(cfg, "name", str, "analysis.json")
    series, meta = seriesio.read_series(input_path)
    gamma = {str(lag): analysis.correlation_function(series, lag) for lag in lags}
    report = {
        "shots": len(series),
        "correlation_function": gamma,
        "correlation_raw": analysis.correlation_function(series, 0),
        "correlation_noise_corrected": analysis.measured_correlation(series),
        "sigma2_difference": analysis.measured_difference_variance(series),
        "input_metadata": meta,
    }
    counts, edges = analysis._fd_histogram(np.subtract(*series.counts()), series.unit == "counts")
    report["difference_histogram"] = {"edges": edges, "counts": counts}
    if fit:
        for channel, values in enumerate(series.counts(), start=1):
            report[f"multithermal_fit_channel{channel}"] = _fit_entry(values, integer_mu)
    _write_report(out_dir, name, report, cfg)


def _fit_entry(values, integer_mu):
    from . import analysis

    fit = analysis.fit_multithermal(values, integer_mu=integer_mu)
    # goodness is nan when no Freedman-Diaconis bin is usable; strict JSON has no NaN
    chi2 = fit.goodness if math.isfinite(fit.goodness) else None
    return {"mu": fit.mu_hat, "v_mean": fit.v_mean_hat, "chi2_per_bin": chi2,
            "n_clipped": fit.n_clipped}


def cmd_fit(cfg, out_dir, fmt="tsv"):
    """Multithermal fit of one channel of a CSV record."""
    from . import seriesio

    input_path = _config_value(cfg, "input", str)
    channel = _config_value(cfg, "channel", "integer", 1)
    if channel not in (1, 2):
        raise ValidationError(f"channel: must be 1 or 2, got {channel}")
    integer_mu = _config_value(cfg, "integer_mu", bool, True)
    name = _config_value(cfg, "name", str, "fit.json")
    series, _ = seriesio.read_series(input_path)
    entry = _fit_entry(series.counts()[channel - 1], integer_mu)
    _write_report(out_dir, name, dict(entry, channel=channel), cfg)


def cmd_noise_budget(cfg, out_dir, fmt="tsv"):
    """Pump-noise surface over an efficiency grid plus imbalance interval."""
    from . import analysis, seriesio

    measured = [_config_value(cfg, key) for key in ("sigma2_measured", "m1", "m2", "mu")]
    kind = _config_value(cfg, "source", str, TWIN_BEAM)
    grid_cfg = _config_value(cfg, "eta_grid", dict, {})
    points = _config_value(grid_cfg, "points", "integer >= 1", 12)
    sources._check_table(points, f"an efficiency grid of {points} points")
    grid = np.linspace(_config_value(grid_cfg, "lo", "(0, 1]", 0.4),
                       _config_value(grid_cfg, "hi", "(0, 1]", 0.95), points)
    budget = analysis.noise_surface(*measured, grid, grid, kind=kind,
                                    eta_nominal=_config_value(cfg, "eta_nominal", "(0, 1]", None))
    eta1, eta2 = np.meshgrid(budget.eta1, budget.eta2, indexing="ij")
    seriesio.write_table(Path(out_dir) / "noise_surface.tsv", {
        "eta1": eta1.ravel(),
        "eta2": eta2.ravel(),
        "x": budget.x.ravel(),
        "corrected_sigma2": budget.corrected_sigma2.ravel(),
        "shot_noise_plane": np.full(budget.x.size, budget.shot_noise_plane),
    }, fmt)
    summary = {
        "shot_noise_plane": budget.shot_noise_plane,
        "imbalance_interval": list(budget.imbalance_interval),
        "x_at_nominal": budget.nominal.x,
        "x_at_nominal_at_floor": budget.nominal.at_floor,
        "x_grid_min": float(budget.x.min()),
        "x_grid_max": float(budget.x.max()),
    }
    _write_report(out_dir, "noise_budget.json", summary, cfg)


_COMMANDS = {
    "analytic": cmd_analytic,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "fit": cmd_fit,
    "noise-budget": cmd_noise_budget,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="photocorr",
        description="Joint photodetection statistics of correlated light beams.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON parameter file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("tsv", "csv", "json"), default="tsv",
                        help="container for tabular outputs (reports are always JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.seed is not None:
            cfg = dict(cfg, seed=args.seed)
        _COMMANDS[args.command](cfg, out_dir, args.format)
        return EXIT_OK
    except (PhotocorrError, OSError) as exc:  # an OSError: a path that cannot be read or written
        code, label = ((EXIT_VALIDATION, "validation") if isinstance(exc, ValidationError) else
                       (EXIT_TOLERANCE, "tolerance") if isinstance(exc, TailToleranceError) else
                       (EXIT_DATA, "data"))
        print(f"photocorr {args.command}: {label} error: {exc}", file=sys.stderr)
        return code


def run():
    """main() as a process: exit with its code.

    Everything on the heap lives until the process ends, so it is frozen
    first and the interpreter's final collections skip it.  main() itself
    never freezes: tests and the benchmark call it in-process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
