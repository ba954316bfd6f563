"""Joint photodetection statistics of correlated light beams.

Exact joint count distributions for twin-beam, coherent-pair and
split-thermal sources, their detection with finite quantum efficiency,
discrimination markers (correlation coefficient, difference-photocurrent
distribution and variance), seeded Monte Carlo shot simulation, and the
estimators and noise-budget inversions used to analyze shot records.

The public names are resolved on first use (PEP 562): ``import photocorr``
loads no submodule and not numpy, and ``from photocorr import thin_joint``
loads only the modules that define it.  A resolved name is not stored in
this namespace, so every lookup returns what its defining module holds now.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Defining module of each public name.
_EXPORTS = {
    "analysis": ("MultithermalFit", "NoiseBudget", "PumpFit", "correlation_function",
                 "fit_multithermal", "imbalance_bounds", "measured_correlation",
                 "measured_difference_variance", "noise_surface", "solve_pump_noise"),
    "detection": ("EfficiencyPair", "MomentSet", "analytic_moments", "multimode_convolve",
                  "source_joint", "thin_joint", "twin_beam_joint"),
    "errors": ("DataError", "InconsistentDataError", "NoiseDominatedError", "PhotocorrError",
               "TailToleranceError", "UndefinedMarkerError", "ValidationError"),
    "markers": ("DifferenceDistribution", "VarianceReport", "correlation_coefficient",
                "difference_analytic", "difference_from_joint", "difference_variance",
                "variance_threshold"),
    "montecarlo": ("SimulationConfig", "predicted_beam_variance", "sample_series"),
    "seriesio": ("ShotSeries", "read_series", "write_series"),
    "sources": ("COHERENT_PAIR", "SPLIT_THERMAL", "TWIN_BEAM", "JointCountDistribution",
                "SourceSpec", "multithermal_pdf"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS:  # a submodule not imported yet
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
