"""What a process loads: the lazy package namespace and the per-command imports.

Each check runs in a fresh interpreter, so that nothing imported by the test
session hides a module that the code under test would load.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from photocorr import ShotSeries, write_series


def fresh(code, *args):
    """Run code in a new interpreter; returns the JSON it prints last."""
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


LOADED = ("sorted(m for m in sys.modules "
          "if m.startswith('photocorr.') or m in ('numpy', 'numpy.ma'))")


def test_import_loads_no_submodule_and_not_numpy():
    assert fresh(f"import json, sys, photocorr; print(json.dumps({LOADED}))") == []


def test_every_public_name_resolves_to_its_defining_module():
    code = """
import importlib, json, photocorr
bad = []
for name in photocorr.__all__:
    value = getattr(photocorr, name)
    module = importlib.import_module(f"photocorr.{photocorr._MODULE_OF[name]}")
    defined_in = getattr(value, "__module__", module.__name__)  # a constant has none
    if (getattr(module, name) is not value or defined_in != module.__name__
            or name not in dir(photocorr) or name in vars(photocorr)):
        bad.append(name)
print(json.dumps(bad))
"""
    assert fresh(code) == []


@pytest.mark.parametrize("name", ["correlation_from_joint", "detected_moments"])
def test_test_oracles_are_not_public_names(name):
    # the joint-table moments and correlation are test references (tests/oracles.py)
    code = (f"import json, photocorr; "
            f"print(json.dumps([hasattr(photocorr, {name!r}), {name!r} in dir(photocorr)]))")
    assert fresh(code) == [False, False]


def test_the_library_step_loads_sources_and_detection_only():
    code = ("import json, sys; from photocorr import EfficiencyPair, multimode_convolve, "
            f"thin_joint, twin_beam_joint; print(json.dumps({LOADED}))")
    assert fresh(code) == ["numpy", "photocorr.detection", "photocorr.errors",
                           "photocorr.sources"]


# python -m photocorr, run in-process by runpy so that sys.modules can be read at exit
AS_MAIN = f"""
import gc, json, runpy, sys
sys.argv = ["photocorr", *sys.argv[1:]]
try:
    runpy.run_module("photocorr", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.get_freeze_count() > 0, {LOADED}]))
"""

COMMANDS = {  # command: (config, modules it must not load)
    "analytic": ({"n_mean": 2.0, "mu": 2, "eta": [0.6, 0.7], "joint": True},
                 {"analysis", "montecarlo"}),
    "sweep": ({"eta": [0.6, 0.7], "n_points": 5}, {"analysis", "montecarlo"}),
    "simulate": ({"source": "twin_beam", "n_mean": 50.0, "mu": 3, "eta": [0.6, 0.7],
                  "shots": 100, "pump_x": 0.1}, {"analysis", "markers"}),
    "analyze": ({"input": "record.csv", "fit": True}, {"markers", "montecarlo"}),
    "fit": ({"input": "record.csv"}, {"markers", "montecarlo"}),
    "noise-budget": ({"sigma2_measured": 2.124e11, "m1": 7.225e6, "m2": 7.212e6, "mu": 14,
                      "eta_grid": {"points": 3}}, {"markers", "montecarlo"}),
}


def write_record(path):
    """A 1200-shot counts record, enough for a multithermal fit."""
    counts = np.random.default_rng(0).poisson(50.0, (2, 1200))
    write_series(ShotSeries(counts[0], counts[1], "counts"), path)
    return str(path)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_loads_only_its_modules_and_freezes_at_exit(tmp_path, command):
    cfg, unused = COMMANDS[command]
    if "input" in cfg:
        cfg = dict(cfg, input=write_record(tmp_path / cfg["input"]))
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code, frozen, loaded = fresh(AS_MAIN, command, "--config", str(tmp_path / "cfg.json"),
                                 "--out", str(tmp_path / "out"))
    assert code == 0 and frozen
    assert not {f"photocorr.{m}" for m in unused} & set(loaded), loaded
    # numpy.ma costs about 13 ms to import; np.percentile would load it
    assert "numpy.ma" not in loaded


def test_main_in_process_never_freezes(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(COMMANDS["sweep"][0]))
    code = ("import gc, json, sys; from photocorr.cli import main; "
            "code = main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2]]); "
            "print(json.dumps([code, gc.get_freeze_count()]))")
    assert fresh(code, str(tmp_path / "cfg.json"), str(tmp_path / "out")) == [0, 0]
