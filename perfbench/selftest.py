"""Tests of the benchmark itself, run at reduced size.

    PYTHONPATH=src python -m pytest perfbench/selftest.py

The file name keeps these tests out of the package's default test run.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import libstep  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from photocorr import (  # noqa: E402
    EfficiencyPair,
    SourceSpec,
    correlation_coefficient,
    difference_variance,
)
from photocorr.cli import main as cli_main  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "reduced"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def _declared(key):
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == dict(tracing.LAYER_METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_reduced_run_is_correct_and_emits_declared_metrics(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _exact_outputs(tmp_path):
    out = tmp_path / "exact"
    steps, configs = workloads.plan("exact", 5, "reduced", out)
    for step in steps:
        entry = cli_main if step.program == "cli" else libstep.main
        assert entry(list(step.argv)) == 0
    return out, configs


def test_perturbed_pd_table_is_a_failure(tmp_path):
    out, configs = _exact_outputs(tmp_path)
    assert all(ok for _, ok, _ in checks.run_checks("exact", out, configs, 5))
    table = out / "analytic_mu1" / "diff_twin_beam.tsv"
    lines = table.read_text().splitlines()
    mid = len(lines) // 2
    d, p = lines[mid].split("\t")
    lines[mid] = f"{d}\t{float(p) * (1 + 1e-6):.12e}"
    table.write_text("\n".join(lines) + "\n")
    failed = [name for name, ok, _ in checks.run_checks("exact", out, configs, 5) if not ok]
    assert failed == ["analytic_mu1.twin_beam.pd"]


def test_nonzero_exit_is_a_failure(monkeypatch, capsys):
    plan = workloads.plan

    def plan_with_bad_step(workload, seed, size, out):
        steps, configs = plan(workload, seed, size, out)
        bad = workloads.Step("bad", "cli", ("analytic", "--config", str(out / "missing.json"),
                                            "--out", str(out / "bad")))
        return steps + [bad], configs

    monkeypatch.setattr(workloads, "plan", plan_with_bad_step)
    assert run.main(["--workload", "budget", "--seed", "1", "--seconds", "1",
                     "--size", "reduced"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == 1 and not result["correct"]
    log = json.loads((run.WORK / "budget" / "result.json").read_text())["operations"]
    assert [(o["name"], o["exit_code"]) for o in log if not o["ok"]] == [("bad", 2)]


@pytest.mark.parametrize("tag", ("twb", "thermal"))
def test_record_model_without_pump_noise_is_the_closed_form(tag):
    cfg = dict(workloads.shot_records("reduced")[tag], pump_x=0.0)
    src = SourceSpec(cfg["source"], cfg["n_mean"], cfg["mu"])
    eff = EfficiencyPair(*cfg["eta"])
    var_d, corr = checks.record_model(cfg)
    assert math.isclose(var_d, difference_variance(src, eff).sigma2_d, rel_tol=1e-9)
    assert math.isclose(corr, correlation_coefficient(src, eff), rel_tol=1e-9)


def test_tracer_restores_the_package(tmp_path):
    import photocorr.analysis
    import photocorr.markers

    before = (photocorr.markers.thin_joint, photocorr.analysis.solve_pump_noise)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert photocorr.markers.thin_joint is not before[0]
        photocorr.analysis.noise_surface(2.124e11, 7.225e6, 7.212e6, 14, [0.6, 0.7], [0.6, 0.7])
    finally:
        tracer.uninstall()
    assert (photocorr.markers.thin_joint, photocorr.analysis.solve_pump_noise) == before
    assert tracer.calls["analysis.solve_pump_noise"] == 4   # one per grid point
    selfs = tracer.self_times()
    span = tracer.spans[0]
    assert span[0] == "analysis.noise_surface"
    assert sum(selfs.values()) == pytest.approx(span[2] - span[1])
