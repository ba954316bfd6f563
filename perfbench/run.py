"""Benchmark of the photocorr CLI on three workloads.

Untraced (``--trace 0``): every step is a fresh ``python -m photocorr ...``
subprocess, run one after another, and the end-to-end metrics are reported:

  wall_s       wall time of one iteration's steps, each counted from process start
  setup_s      wall time of a fresh interpreter that only runs ``import photocorr``
  peak_rss_mb  the largest max-RSS of any step, from the child's own rusage

Traced (``--trace 1``): the same steps run in this process, once with the
span wrappers of ``tracing.py`` off and once on, and the per-layer metrics
are reported.

Every step's outputs are checked (``checks.py``).  An operation is one step
or one check; ``failed / attempted`` is the error rate.  The last line of
standard output is a JSON object with the keys correct, attempted, failed
and metrics.  Run from the root of a checkout:

    python3 perfbench/run.py --workload shots --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import libstep
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_SAMPLES = 3
RUN_LIMIT_S = 165.0       # every run ends well inside the 180 s a run may take

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def step_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def step_command(step):
    if step.program == "cli":
        return [sys.executable, "-m", "photocorr", *step.argv]
    return [sys.executable, str(HERE / "libstep.py"), *step.argv]


def run_process(cmd, log_path, timeout):
    """Run cmd to completion; returns (wall seconds, child max RSS in MB, exit code)."""
    start = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=step_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(samples, units):
    """Median, quartiles and sample count of each metric."""
    out = {}
    for name, unit in units:
        vals = samples[name]
        q1, q3 = quartiles(vals)
        out[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                     "n": len(vals), "unit": unit}
    return out


# --- environment record ------------------------------------------------------

def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads OpenBLAS uses in this process, as numpy's bundled library reports, or None."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment():
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
        "blas_threads_within_nproc": None if threads is None else threads <= nproc,
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


# --- the two modes -----------------------------------------------------------

class Run:
    """Operation counts and check results of one benchmark invocation."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.log = []          # per-step and per-check records for the result file
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.dir = WORK / args.workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def count(self, kind, name, ok, **info):
        self.attempted += 1
        self.failed += not ok
        self.log.append({"kind": kind, "name": name, "ok": ok, **info})

    def check_outputs(self, out, configs):
        import checks

        for name, ok, detail in checks.run_checks(self.args.workload, out, configs, self.args.seed):
            self.count("check", name, ok, detail=detail)

    def plan(self, tag):
        out = self.dir / tag
        shutil.rmtree(out, ignore_errors=True)
        return out, *workloads.plan(self.args.workload, self.args.seed, self.args.size, out)


def measure_untraced(run):
    """End-to-end metrics from fresh subprocesses."""
    import_cmd = [sys.executable, "-c", "import photocorr"]
    logs = run.dir / "logs"
    logs.mkdir()
    setup = []
    for i in range(SETUP_SAMPLES):
        wall, _, code = run_process(import_cmd, logs / f"setup{i}.log", 60.0)
        if code != 0:
            raise SystemExit(f"import photocorr failed with exit code {code}; see {logs}")
        setup.append(wall)

    walls, rss = [], []
    begin = time.perf_counter()
    while True:
        out, steps, configs = run.plan("iteration")
        wall, peak = 0.0, 0.0
        for step in steps:
            remaining = run.deadline - time.perf_counter()
            if remaining <= 0:
                run.count("step", step.name, False, detail="run time limit reached")
                continue
            s_wall, s_rss, code = run_process(step_command(step), logs / f"{step.name}.log", remaining)
            wall += s_wall
            peak = max(peak, s_rss)
            run.count("step", step.name, code == 0, exit_code=code, wall_s=s_wall, max_rss_mb=s_rss)
        run.check_outputs(out, configs)
        walls.append(wall)
        rss.append(peak)
        per_iter = (time.perf_counter() - begin) / len(walls)
        now = time.perf_counter()
        if now - begin + per_iter > run.args.seconds or now + per_iter > run.deadline:
            break
    return {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}, END_TO_END


def measure_traced(run):
    """Per-layer metrics from in-process passes with the span wrappers off and on."""
    start = time.perf_counter()
    import photocorr.cli  # noqa: F401  (imports all seven modules)
    import_s = time.perf_counter() - start

    def on_alarm(signum, frame):
        raise TimeoutError("run time limit reached")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(int(RUN_LIMIT_S))

    def one_pass(tag, tracer):
        out, steps, configs = run.plan(tag)
        if tracer is not None:
            tracer.install()
        wall = 0.0
        try:
            for step in steps:
                entry = photocorr.cli.main if step.program == "cli" else libstep.main
                t0 = time.perf_counter()
                try:
                    code = entry(list(step.argv))
                except TimeoutError:
                    raise
                except (Exception, SystemExit) as exc:
                    code = f"{type(exc).__name__}: {exc}"
                wall += time.perf_counter() - t0
                run.count("step", f"{tag}.{step.name}", code == 0, exit_code=code)
        finally:
            if tracer is not None:
                tracer.uninstall()
        run.check_outputs(out, configs)
        return wall

    # first-touch costs (heap growth, lazy imports) stay out of both timed passes
    one_pass("warmup", None)
    samples = {name: [] for name, _ in tracing.LAYER_METRICS}
    tracers = []
    begin = time.perf_counter()
    while True:
        off = one_pass("untraced", None)
        tracer = tracing.Tracer(run_id=len(tracers))
        on = one_pass("traced", tracer)
        tracers.append(tracer)
        metrics = tracer.metrics(on)
        self_sum = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
        run.count("check", f"traced{tracer.run_id}.self_within_wall", self_sum <= on,
                  detail=f"self times {self_sum:.4f} s, traced wall {on:.4f} s")
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_s"] = on - off
        for name in samples:
            samples[name].append(metrics[name])
        per_pair = (time.perf_counter() - begin) / len(tracers)
        now = time.perf_counter()
        if now - begin + per_pair > run.args.seconds or now + per_pair > run.deadline:
            break
    signal.alarm(0)
    with open(run.dir / "spans.tsv", "w") as fh:
        fh.write("run_id\tspan\tparent\tname\tstart\tend\n")
        for tracer in tracers:
            tracer.write_spans(fh)
    return samples, tracing.LAYER_METRICS


def main(argv=None):
    parser = argparse.ArgumentParser(description="photocorr benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="start no iteration that would end after this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "reduced"), default="full",
                        help="reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "photocorr" / "__init__.py").is_file():
        print(f"photocorr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args)
    samples, units = (measure_traced if args.trace else measure_untraced)(run)
    stats = summarize(samples, units)
    env = environment()
    error_rate = run.failed / run.attempted
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "error_rate": error_rate, "attempted": run.attempted, "failed": run.failed,
              "metrics": stats, "operations": run.log}
    (run.dir / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"environment {json.dumps(env)}")
    for entry in run.log:
        if not entry["ok"]:
            print(f"FAILED {entry['kind']} {entry['name']}: {entry.get('detail', entry.get('exit_code'))}")
    for name, st in stats.items():
        print(f"{args.workload} {name} median {st['median']:.6g} {st['unit']} "
              f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']})")
    print(f"{args.workload} error_rate {error_rate:.6g} ratio ({run.failed} of {run.attempted} operations failed)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": st["median"], "unit": st["unit"]} for name, st in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
