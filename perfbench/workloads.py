"""The three benchmark workloads as sequences of steps with generated configs.

Each workload is a closed loop: one step starts after the previous one has
ended.  A step is either a ``photocorr`` CLI call or the library step in
``libstep.py``.  Configs are made from the workload seed and written as JSON
files; the program sees only those files (and ``simulate --seed``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("shots", "exact", "budget")

# "full" is what the benchmark measures; "reduced" keeps every step and
# check but shrinks the inputs, for the benchmark's own tests.
SIZES = {
    "full": {"shots": 200_000, "n_exact": 10.0, "n_lib": 1.0, "mu_lib": 14,
             "grid": 300, "sweep_points": 2001},
    "reduced": {"shots": 20_000, "n_exact": 1.0, "n_lib": 0.3, "mu_lib": 3,
                "grid": 20, "sweep_points": 101},
}


@dataclass(frozen=True)
class Step:
    name: str
    program: str          # "cli": photocorr.cli.main(argv); "lib": libstep.main(argv)
    argv: tuple


def _write_config(out: Path, name: str, cfg: dict) -> str:
    path = out / f"{name}.config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return str(path)


def _cli(out, name, command, cfg, *extra):
    cfg_path = _write_config(out, name, cfg)
    return Step(name, "cli", (command, "--config", cfg_path, "--out", str(out / name), *extra))


def shot_records(size):
    """Configs of the two simulated bright records."""
    shots = SIZES[size]["shots"]
    twb = {"source": "twin_beam", "n_mean": 1.0e6, "mu": 14, "eta": [0.66, 0.68],
           "shots": shots, "pump_x": 0.02, "name": "twb_shots.csv"}
    # instrument noise of 1e5 counts^2 per channel, below sigma2(d) = 1.42e6
    conv = [2.0e-6, 2.1e-6]
    thermal = {"source": "split_thermal", "n_mean": 1.0e6, "mu": 15, "eta": [0.71, 0.71],
               "shots": shots, "pump_x": 0.01, "volts": True, "conv": conv,
               "instrument_noise_var": [1.0e5 * c * c for c in conv],
               "name": "thermal_shots.csv"}
    return {"twb": twb, "thermal": thermal}


def plan(workload: str, seed: int, size: str, out: Path):
    """Steps of one iteration and the configs the output checks need."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out.mkdir(parents=True, exist_ok=True)
    sz = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    steps, configs = [], {}
    if workload == "shots":
        for tag, sim in shot_records(size).items():
            csv = str(out / f"simulate_{tag}" / sim["name"])
            analyze = {"input": csv, "lags": [0, 1, 2], "fit": True}
            fit = {"input": csv, "channel": 1}
            steps += [
                _cli(out, f"simulate_{tag}", "simulate", sim, "--seed", str(seed)),
                _cli(out, f"analyze_{tag}", "analyze", analyze),
                _cli(out, f"fit_{tag}", "fit", fit),
            ]
            configs[tag] = sim
    elif workload == "exact":
        # efficiencies drawn within 0.005 of (0.6, 0.7); the cost does not depend on them
        eta = [round(0.6 + rng.uniform(-0.005, 0.005), 4),
               round(0.7 + rng.uniform(-0.005, 0.005), 4)]
        n = sz["n_exact"]
        configs = {
            "analytic_mu1": {"n_mean": n, "mu": 1, "eta": eta, "joint": True},
            "analytic_mu14": {"n_mean": n, "mu": 14, "eta": eta},
            "library": {"n_mean": sz["n_lib"], "mu": sz["mu_lib"], "eta": eta},
        }
        steps = [_cli(out, name, "analytic", configs[name])
                 for name in ("analytic_mu1", "analytic_mu14")]
        lib_out = out / "library"
        lib_out.mkdir(exist_ok=True)
        steps.append(Step("library", "lib", ("--config", _write_config(out, "library", configs["library"]),
                                             "--out", str(lib_out))))
    else:
        grid = {"lo": 0.5, "hi": 0.9, "points": sz["grid"]}

        def jitter(value, rel):
            return value * (1.0 + rng.uniform(-rel, rel))

        # the paper's two bright records, the measured values perturbed by the seed
        configs = {
            "budget_twin_beam": {"sigma2_measured": jitter(2.124e11, 0.02),
                                 "m1": jitter(7.225e6, 0.002), "m2": jitter(7.212e6, 0.002),
                                 "mu": 14, "source": "twin_beam", "eta_nominal": 0.67,
                                 "eta_grid": grid},
            "budget_split_thermal": {"sigma2_measured": jitter(4.097e13, 0.02),
                                     "m1": jitter(2.22e8, 0.002), "m2": jitter(2.22e8, 0.002),
                                     "mu": 15, "source": "split_thermal", "eta_nominal": 0.71,
                                     "eta_grid": grid},
            "sweep": {"eta": [0.66, 0.68], "mu": 14, "n_min": 0.0, "n_max": 1.0e7,
                      "n_points": sz["sweep_points"], "n_ref": 1.0e6},
        }
        steps = [_cli(out, name, "noise-budget", configs[name])
                 for name in ("budget_twin_beam", "budget_split_thermal")]
        steps.append(_cli(out, "sweep", "sweep", configs["sweep"]))
    return steps, configs
