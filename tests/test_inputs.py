"""Every input ends in a typed exit.

Two sweeps over the same adversarial values:

* every key of a small valid config of each of the six commands takes each
  value in turn, and cli.main runs in-process: the exit code is 0, 2, 3 or
  4, nothing escapes as a traceback, and where the key holds a number, a
  value that is not a number exits 2 with a message that names the key;
* the public functions take the values as arguments (drawn by Hypothesis,
  mixed with valid ones) and return a finite result or raise a
  PhotocorrError.

The table budget is cut to 64 KiB, so that no size is run for real, and
every case runs under an alarm, so that a hang fails instead of stalling.
"""

import dataclasses
import json
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import photocorr as pc
from photocorr import sources
from photocorr.cli import EXIT_DATA, EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main

RAGGED = [[1.0, 2.0], [3.0]]  # nested sequences of unequal lengths
ADVERSARIAL = [math.nan, math.inf, -math.inf, -1, 0, 0.5, 1.5, True, False, "1", "x", [], [1],
               [True, 1], RAGGED, {}, 1e308, 10**400, -10**400, 2**63]
SMALL_BUDGET = 1 << 17  # bytes: 16384 float64 entries, a joint table of cutoff 127
CASE_SECONDS = 20


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(sources, "_TABLE_BYTES", SMALL_BUDGET)


# ------------------------------------------------------------------ the CLI

GRID = {"lo": 0.5, "hi": 0.9, "points": 3}
RECORD = "record.csv"  # written once per module by the record fixture
CONFIGS = {  # command: small valid configs; each of their keys takes every value
    "analytic": [{"n_mean": 2.0, "mu": 2, "tau": 0.4, "eta": [0.6, 0.7], "joint": True}],
    "sweep": [
        {"eta": [0.6, 0.7], "mu": 2, "tau": 0.4, "n_min": 0.0, "n_max": 10.0, "n_points": 5,
         "n_ref": 2.0, "eta_grid": [0.5, 0.9]},
        {"eta": [0.6, 0.7], "n_grid": [0.0, 1.0, 25.0]},
    ],
    "simulate": [
        {"source": "twin_beam", "n_mean": 2.0, "mu": 2, "eta": [0.6, 0.7], "shots": 50,
         "seed": 3, "pump_x": 0.1, "volts": False, "conv": [1.0, 1.0],
         "instrument_noise_var": [0.0, 0.0], "name": "shots.csv"},
        {"source": "split_thermal", "n_mean": 2.0, "mu": 2, "tau": 0.4, "eta": [0.6, 0.7],
         "shots": 50, "pump_x": 0.1, "volts": True, "conv": [0.5, 0.25],
         "instrument_noise_var": [0.01, 0.02]},
    ],
    "analyze": [{"input": RECORD, "lags": [0, 1], "fit": False, "integer_mu": True,
                 "name": "analysis.json"}],
    "fit": [{"input": RECORD, "channel": 2, "integer_mu": True, "name": "fit.json"}],
    "noise-budget": [{"sigma2_measured": 2.124e11, "m1": 7.225e6, "m2": 7.212e6, "mu": 14,
                      "source": "twin_beam", "eta_nominal": 0.67, "reference_x": 0.02,
                      "eta_grid": GRID}],
}
NUMBER_KEYS = {"n_mean", "mu", "tau", "n_min", "n_max", "n_points", "n_ref", "shots", "seed",
               "pump_x", "channel", "sigma2_measured", "m1", "m2", "eta_nominal", "reference_x",
               "lo", "hi", "points"}


def _cases():
    for command, configs in CONFIGS.items():
        for index, cfg in enumerate(configs):
            for key, value in cfg.items():
                yield command, index, (key,)
                if isinstance(value, dict):
                    for inner in value:
                        yield command, index, (key, inner)


def _with(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    *outer, key = path
    target = cfg
    for name in outer:
        target = target[name]
    target[key] = value
    return cfg


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """A 1200-shot split-thermal counts record, enough for a multithermal fit."""
    out = tmp_path_factory.mktemp("record")
    cfg = out / "sim.json"
    cfg.write_text(json.dumps({"source": "split_thermal", "n_mean": 50.0, "mu": 3,
                               "eta": [0.7, 0.7], "shots": 1200, "seed": 4, "name": RECORD}))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return str(out / RECORD)


@pytest.mark.parametrize("command, index, path", list(_cases()),
                         ids=lambda v: ".".join(v) if isinstance(v, tuple) else str(v))
def test_every_config_value_ends_in_a_typed_exit(tmp_path, capsys, small_budget, record,
                                                 command, index, path):
    base = dict(CONFIGS[command][index])
    if "input" in base:
        base["input"] = record
    assert main([command, "--config", _write(tmp_path / "valid.json", base),
                 "--out", str(tmp_path / "valid")]) == EXIT_OK
    capsys.readouterr()
    failures = []
    for i, value in enumerate(ADVERSARIAL):
        cfg = _write(tmp_path / f"{i}.json", _with(base, path, value))
        with deadline(CASE_SECONDS):
            code = main([command, "--config", cfg, "--out", str(tmp_path / str(i))])
        err = capsys.readouterr().err
        if code not in (EXIT_OK, EXIT_VALIDATION, EXIT_DATA, EXIT_TOLERANCE) or "Traceback" in err:
            failures.append(f"{value!r}: exit {code}, {err!r}")
        elif path[-1] in NUMBER_KEYS and not _is_number(value) and (
                code != EXIT_VALIDATION or path[-1] not in err):
            failures.append(f"{value!r} is not a number, but gave exit {code}, {err!r}")
    assert not failures, f"{command} {'.'.join(path)}:\n" + "\n".join(failures)


def _write(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("mu, shots, ok", [(14, 2**24, True), (15, 2**24, True), (16, 2**24, False),
                                           (1000, 267923, True), (1000, 267924, False),
                                           (10**12, 1, False)])
def test_pumped_twin_beam_modes_are_budgeted(mu, shots, ok):
    # drawn mode by mode: mu * (shots + 512) shot draws against a budget of 2**28; the
    # configs are only built, never drawn
    def config():
        return pc.SimulationConfig(pc.SourceSpec.twin_beam(2.0, mu), pc.EfficiencyPair(0.6, 0.7),
                                   shots, pump_x=0.1)
    if ok:
        config()
    else:
        with pytest.raises(pc.TailToleranceError, match="shot draws"):
            config()


def test_a_pumped_twin_beam_of_1e12_modes_exits_4(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {"source": "twin_beam", "n_mean": 2.0, "mu": 1e12,
                                         "eta": [0.6, 0.7], "shots": 1000, "pump_x": 0.1})
    with deadline(CASE_SECONDS):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_TOLERANCE
    assert "shot draws" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["twin_beam", "split_thermal"])
def test_a_mean_beyond_every_table_is_refused(kind):
    # the Chernoff bound of so bright a beam is inf on the whole grid (the split thermal
    # beam's 2n overflows at 1e308), so its edge is the table budget in points
    for mean in (1e17, 1e308):
        with pytest.raises(pc.TailToleranceError, match="table budget") as err:
            pc.source_joint(pc.SourceSpec(kind, mean))
        assert err.value.required_cutoff == sources._TABLE_BYTES // 8


@pytest.mark.parametrize("call", [
    lambda: pc.multithermal_pdf(RAGGED, 2, 1.0),
    lambda: pc.noise_surface(2.124e11, 7.225e6, 7.212e6, 14, RAGGED, [0.6]),
    lambda: pc.solve_pump_noise(2.124e11, RAGGED, 0.68, 7.225e6, 7.212e6, 14),
    lambda: sources._checked_array("grid", RAGGED, "finite"),
], ids=["multithermal_pdf", "noise_surface", "solve_pump_noise", "_checked_array"])
def test_a_ragged_sequence_is_refused_naming_the_argument(call):
    with pytest.raises(pc.ValidationError, match="unequal lengths"):
        call()


def test_a_table_of_nan_is_refused():
    # the normalization check refuses a table whose sum is nan, as an overflowing law gives
    with pytest.raises(pc.ValidationError, match="sum to nan"):
        pc.JointCountDistribution(np.full((4, 4), np.nan))


def test_counts_refuse_instrument_noise(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {"source": "coherent_pair", "n_mean": 1000.0,
                                         "eta": [0.5, 0.5], "shots": 100,
                                         "instrument_noise_var": [300.0, 300.0]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "instrument_noise_var" in capsys.readouterr().err
    assert not (tmp_path / "shots.csv").exists()


@pytest.mark.parametrize("command", ["analytic", "sweep"])
def test_tau_reaches_every_split_thermal_spec(tmp_path, command):
    # tau = 1/2 and tau = 0.2 must give different split-thermal tables
    outputs = []
    for tau in (0.5, 0.2):
        cfg = _write(tmp_path / f"{tau}.json", {"eta": [0.6, 0.7], "n_mean": 3.0, "mu": 2,
                                                "tau": tau, "joint": True, "n_points": 3})
        assert main([command, "--config", cfg, "--out", str(tmp_path / str(tau))]) == EXIT_OK
        outputs.append(tmp_path / str(tau))
    names = (["diff_split_thermal.tsv", "joint_split_thermal.tsv"] if command == "analytic"
             else ["sweep_n.tsv", "sweep_eta.tsv"])
    for name in names:
        assert (outputs[0] / name).read_bytes() != (outputs[1] / name).read_bytes()


# ------------------------------------------------------- public functions

def _finite(result):
    if result is None or isinstance(result, (bool, str, np.bool_)):
        return True
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return all(_finite(v) for v in result)
    return bool(np.all(np.isfinite(result)))


def _arg(valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(ADVERSARIAL))


KINDS = ["twin_beam", "coherent_pair", "split_thermal"]
MEANS = [0.0, 0.3, 2.0, 1e7]
ETAS = [0.0, 0.5, 0.67, 1.0]
MODES = [1, 3, 14]
SERIES = pc.ShotSeries(np.arange(20) % 7, np.arange(20) % 5, "counts")
JOINT = pc.source_joint(pc.SourceSpec.twin_beam(0.5), tail_tol=1e-3)  # cutoff 10


# channels of 20 shots, and the faults that ShotSeries refuses: empty, nan, 0-d
COUNTS = np.arange(20) % 7
VOLTS = (np.arange(20) % 5) * 0.5 + 1.0
WITH_NAN = np.where(np.arange(20) == 3, math.nan, VOLTS)


def _series(d):
    return pc.ShotSeries(
        d.draw(_arg([COUNTS, WITH_NAN, np.array([], dtype=np.int64), np.array(4)])),
        d.draw(_arg([VOLTS, np.array([]), np.array(2.0)])),
        d.draw(st.sampled_from(["counts", "volts"])),
        d.draw(_arg([(1.0, 1.0), (0.0, 1.0), (2.0, 0.5)])),
        d.draw(_arg([(0.0, 0.0), (0.1, 0.2), (-1.0, 0.0), (math.nan, 0.0)])))


def _source(d):
    return pc.SourceSpec(d.draw(st.sampled_from(KINDS)), d.draw(_arg(MEANS)),
                         d.draw(_arg(MODES)), d.draw(_arg([0.5, 0.2, 1.0])))


def _eff(d):
    return pc.EfficiencyPair(d.draw(_arg(ETAS)), d.draw(_arg(ETAS)))


CALLS = {  # name: function of a Hypothesis draw that makes the call
    "source_joint": lambda d: pc.source_joint(_source(d), _eff(d), d.draw(_arg([1e-10, 0.5]))),
    "twin_beam_joint": lambda d: pc.twin_beam_joint(d.draw(_arg(MEANS))),
    "multithermal_pdf": lambda d: pc.multithermal_pdf(
        np.linspace(0.0, 5.0, 6), d.draw(_arg([1, 2.5, 14])), d.draw(_arg([0.5, 3.0]))),
    "multithermal_pdf_points": lambda d: pc.multithermal_pdf(
        d.draw(_arg([np.linspace(0.0, 5.0, 6), 2.0])), d.draw(_arg([1, 14])), 3.0),
    "loss_matrix": lambda d: pc.detection.loss_matrix(d.draw(_arg(ETAS)), d.draw(_arg([0, 6]))),
    "multimode_convolve": lambda d: pc.multimode_convolve(
        JOINT, d.draw(_arg(MODES)), d.draw(_arg([1e-10, 0.5]))),
    "difference_analytic": lambda d: pc.difference_analytic(
        _source(d), _eff(d), d.draw(_arg([1e-10, 1e-3]))),
    "difference_variance": lambda d: pc.difference_variance(_source(d), _eff(d)),
    "correlation_coefficient": lambda d: pc.correlation_coefficient(_source(d), _eff(d)),
    "analytic_moments": lambda d: pc.analytic_moments(_source(d), _eff(d)),
    "variance_threshold": lambda d: pc.variance_threshold(_eff(d)),
    "variance_threshold_subnormal": lambda d: pc.variance_threshold(pc.EfficiencyPair(
        *(d.draw(st.sampled_from([0.0, 5e-324, 1e-300, 1e-200, 2e-200, 1e-160])) for _ in "12"))),
    "DifferenceDistribution.prob": lambda d: pc.DifferenceDistribution(
        np.array([0.25, 0.5, 0.25]), -1).prob(d.draw(_arg([0, 1, -5, 2.0]))),
    "predicted_beam_variance": lambda d: pc.predicted_beam_variance(
        _source(d), d.draw(_arg([0.0, 0.02]))),
    "solve_pump_noise": lambda d: pc.solve_pump_noise(
        d.draw(_arg([2.124e11, 1.0])), d.draw(_arg([0.66, 1.0])), d.draw(_arg([0.68])),
        d.draw(_arg([7.225e6, 3.0])), d.draw(_arg([7.212e6])), d.draw(_arg(MODES)),
        d.draw(st.sampled_from(["twin_beam", "split_thermal"]))),
    "imbalance_bounds": lambda d: pc.imbalance_bounds(
        d.draw(_arg([2.124e11, 1.0])), d.draw(_arg([7.225e6, 3.0])), d.draw(_arg([7.212e6])),
        d.draw(_arg(MODES)), d.draw(_arg([0.67, 1.0])),
        d.draw(st.sampled_from(["twin_beam", "split_thermal"]))),
    "noise_surface": lambda d: pc.noise_surface(
        d.draw(_arg([2.124e11])), d.draw(_arg([7.225e6])), d.draw(_arg([7.212e6])),
        d.draw(_arg([14])), d.draw(_arg([[0.5, 0.9], [0.5, [0.6]]])), d.draw(_arg([[0.6]])),
        eta_nominal=d.draw(_arg([None, 0.67]))),
    "correlation_function": lambda d: pc.correlation_function(SERIES, d.draw(_arg([0, 1, -2]))),
    "correlation_function_of_a_series": lambda d: pc.correlation_function(
        _series(d), d.draw(st.sampled_from([0, 1]))),
    "measured_correlation": lambda d: pc.measured_correlation(_series(d)),
    "measured_difference_variance": lambda d: pc.measured_difference_variance(_series(d)),
    "ShotSeries.counts": lambda d: _series(d).counts(),
    "ShotSeries_of_counts": lambda d: pc.ShotSeries(
        COUNTS, COUNTS, "counts", d.draw(_arg([(1.0, 1.0), (0.0, 2.0)])), (0.0, 0.0),
        d.draw(_arg([0, 3]))),
    "sample_series": lambda d: pc.sample_series(pc.SimulationConfig(
        _source(d), _eff(d), d.draw(_arg([10, 100])), d.draw(_arg([0, 7])),
        d.draw(_arg([0.0, 0.1])), d.draw(st.booleans()), (d.draw(_arg([1.0, 0.5])), 1.0),
        (d.draw(_arg([0.0, 0.01])), 0.0))),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_public_functions_return_finite_values_or_raise_typed_errors(small_budget, name, data):
    with deadline(CASE_SECONDS):
        try:
            result = CALLS[name](data)
        except pc.PhotocorrError:
            return
    assert _finite(result), f"{name} returned {result!r}"
