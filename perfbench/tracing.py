"""Spans and counters around the public functions of the photocorr modules.

The tracer replaces every public function of the seven modules with a
wrapper, on every ``photocorr`` module attribute bound to that function
object (``markers`` and ``cli`` import some functions by name, and
``noise_surface`` reaches ``solve_pump_noise`` through module globals, so
wrapping only the defining module would miss calls).  Nothing under
``src/`` is modified; ``uninstall`` puts the original objects back.

In ``cli`` only ``main`` is wrapped: the ``cmd_*`` handlers are reached
through the ``_COMMANDS`` table, so their work counts as ``cli.main`` self
time, together with config parsing, row lists, the histogram and the JSON
reports.

A span is (name, start, end, parent index, run id).  A function's self
time is its span time minus the time of its child spans.  Shape counters
and ``<module>.errors`` are taken only at calls that enter a module from
outside it, so nested calls inside one module are not counted twice;
``.calls`` counts every call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

MODULES = ("sources", "detection", "markers", "montecarlo", "seriesio", "analysis", "cli")

# (metric, unit) reported by a traced run, in the order they are printed.
FUNCTION_METRICS = (
    ("sources.source_joint.self_s", "s"),
    ("sources.source_joint.calls", "count"),
    ("sources.twin_beam_joint.self_s", "s"),
    ("detection.thin_joint.self_s", "s"),
    ("detection.thin_joint.calls", "count"),
    ("detection.multimode_convolve.self_s", "s"),
    ("markers.difference_analytic.self_s", "s"),
    ("markers.difference_analytic.calls", "count"),
    ("markers.multimode_difference.self_s", "s"),
    ("markers.difference_from_joint.self_s", "s"),
    ("markers.correlation_coefficient.self_s", "s"),
    ("markers.difference_variance.self_s", "s"),
    ("markers.difference_variance.calls", "count"),
    ("montecarlo.sample_series.self_s", "s"),
    ("seriesio.write_series.self_s", "s"),
    ("seriesio.read_series.self_s", "s"),
    ("seriesio.write_table.self_s", "s"),
    ("analysis.correlation_function.self_s", "s"),
    ("analysis.measured_correlation.self_s", "s"),
    ("analysis.measured_difference_variance.self_s", "s"),
    ("analysis.fit_multithermal.self_s", "s"),
    ("analysis.noise_surface.self_s", "s"),
    ("analysis.solve_pump_noise.calls", "count"),
    ("analysis.imbalance_bounds.self_s", "s"),
    ("cli.main.self_s", "s"),
)

# Counters computed from the shapes of arguments and results, not from
# hardware counters.
SHAPE_METRICS = (
    ("sources.joint_cells", "count"),
    ("detection.thin_joint.flops", "flop"),
    ("detection.multimode_convolve.out_cells", "count"),
    ("markers.pd_points", "count"),
    ("montecarlo.shots", "count"),
    ("montecarlo.pump_truncations", "count"),
    ("seriesio.rows_read", "count"),
    ("seriesio.rows_written", "count"),
    ("seriesio.bytes_written", "B"),
)

LAYER_METRICS = (
    FUNCTION_METRICS
    + SHAPE_METRICS
    + (("montecarlo.shots_per_s", "1/s"), ("cli.import_s", "s"))
    + tuple((f"{m}.self_s", "s") for m in MODULES)
    + tuple((f"{m}.errors", "count") for m in MODULES)
    + (("trace.wall_s", "s"), ("trace.overhead_s", "s"))
)


def _joint_cells(counts, result, args):
    counts["sources.joint_cells"] += result.probs.size


def _thin_flops(counts, result, args):
    # two dense (C+1)^3 products, a multiply and an add per term
    side = result.probs.shape[0]
    counts["detection.thin_joint.flops"] += 4 * side**3


def _convolve_cells(counts, result, args):
    counts["detection.multimode_convolve.out_cells"] += result.probs.size


def _pd_points(counts, result, args):
    counts["markers.pd_points"] += len(result.probs)


def _shots(counts, result, args):
    counts["montecarlo.shots"] += len(result)
    counts["montecarlo.pump_truncations"] += result.pump_truncations


def _rows_read(counts, result, args):
    counts["seriesio.rows_read"] += len(result[0])


def _series_written(counts, result, args):
    counts["seriesio.rows_written"] += len(args[0])
    counts["seriesio.bytes_written"] += Path(result).stat().st_size


def _table_written(counts, result, args):
    data = Path(result).read_bytes()
    counts["seriesio.rows_written"] += max(data.count(b"\n") - 1, 0)
    counts["seriesio.bytes_written"] += len(data)


_HOOKS = {
    "sources.twin_beam_joint": _joint_cells,
    "sources.coherent_pair_joint": _joint_cells,
    "sources.split_thermal_joint": _joint_cells,
    "sources.source_joint": _joint_cells,
    "detection.thin_joint": _thin_flops,
    "detection.multimode_convolve": _convolve_cells,
    "markers.difference_analytic": _pd_points,
    "markers.multimode_difference": _pd_points,
    "markers.difference_from_joint": _pd_points,
    "montecarlo.sample_series": _shots,
    "seriesio.read_series": _rows_read,
    "seriesio.write_series": _series_written,
    "seriesio.write_table": _table_written,
}


def public_functions():
    """(module short name, function name, function) for every wrapped function."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"photocorr.{short}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and (short != "cli" or name == "main")):
                out.append((short, name, obj))
    return out


class Tracer:
    """Records spans and counters while installed; one instance per traced pass."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self.errors = Counter()
        self._stack = []      # (span index, module) of the open spans
        self._patched = []    # (module object, attribute, original)

    def install(self):
        wrappers = {id(fn): self._wrap(short, name, fn) for short, name, fn in public_functions()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "photocorr" or modname.startswith("photocorr.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, module, name, fn):
        qual = f"{module}.{name}"
        hook = _HOOKS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            entering = not stack or stack[-1][1] != module
            parent = stack[-1][0] if stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            stack.append((idx, module))
            self.calls[qual] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.spans[idx] = (qual, start, time.perf_counter(), parent, self.run_id)
                stack.pop()
                if entering:
                    self.errors[module] += 1
                raise
            self.spans[idx] = (qual, start, time.perf_counter(), parent, self.run_id)
            stack.pop()
            if hook is not None and entering:
                hook(self.counts, result, args)
            return result

        return wrapper

    def self_times(self):
        """Self time per function: span time minus the time of its children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (qual, start, end, _, _), inner in zip(self.spans, child):
            out[qual] += (end - start) - inner
        return out

    def metrics(self, wall_s):
        """Per-layer metrics of this pass, except cli.import_s and trace.overhead_s."""
        selfs = self.self_times()
        out = {}
        for name, _ in FUNCTION_METRICS:
            qual, kind = name.rsplit(".", 1)
            out[name] = float(selfs[qual]) if kind == "self_s" else self.calls[qual]
        for name, _ in SHAPE_METRICS:
            out[name] = self.counts[name]
        sample_s = selfs["montecarlo.sample_series"]
        out["montecarlo.shots_per_s"] = self.counts["montecarlo.shots"] / sample_s if sample_s > 0 else 0.0
        for m in MODULES:
            out[f"{m}.self_s"] = float(sum(v for q, v in selfs.items() if q.split(".")[0] == m))
            out[f"{m}.errors"] = self.errors[m]
        out["trace.wall_s"] = wall_s
        return out

    def write_spans(self, fh):
        for i, (qual, start, end, parent, run_id) in enumerate(self.spans):
            fh.write(f"{run_id}\t{i}\t{parent}\t{qual}\t{start:.9f}\t{end:.9f}\n")
