"""Joint photodetection statistics of correlated light beams.

Exact joint count distributions for twin-beam, coherent-pair and
split-thermal sources, their detection with finite quantum efficiency,
discrimination markers (correlation coefficient, difference-photocurrent
distribution and variance), seeded Monte Carlo shot simulation, and the
estimators and noise-budget inversions used to analyze shot records.
"""

from .analysis import (
    MultithermalFit,
    NoiseBudget,
    PumpFit,
    correlation_function,
    fit_multithermal,
    imbalance_bounds,
    measured_correlation,
    measured_difference_variance,
    noise_surface,
    solve_pump_noise,
)
from .detection import (
    EfficiencyPair,
    MomentSet,
    analytic_moments,
    detected_moments,
    multimode_convolve,
    thin_joint,
)
from .errors import (
    DataError,
    InconsistentDataError,
    NoiseDominatedError,
    PhotocorrError,
    TailToleranceError,
    UndefinedMarkerError,
    ValidationError,
)
from .markers import (
    DifferenceDistribution,
    VarianceReport,
    correlation_coefficient,
    correlation_from_joint,
    difference_analytic,
    difference_from_joint,
    difference_variance,
    variance_threshold,
)
from .montecarlo import (
    ShotSeries,
    SimulationConfig,
    predicted_beam_variance,
    sample_series,
)
from .seriesio import read_series, write_series
from .sources import (
    COHERENT_PAIR,
    SPLIT_THERMAL,
    TWIN_BEAM,
    JointCountDistribution,
    SourceSpec,
    coherent_pair_joint,
    multithermal_pdf,
    source_joint,
    split_thermal_joint,
    thermal_pmf,
    twin_beam_joint,
)

__version__ = "0.1.0"

__all__ = [
    "COHERENT_PAIR",
    "SPLIT_THERMAL",
    "TWIN_BEAM",
    "DataError",
    "DifferenceDistribution",
    "EfficiencyPair",
    "InconsistentDataError",
    "JointCountDistribution",
    "MomentSet",
    "MultithermalFit",
    "NoiseBudget",
    "NoiseDominatedError",
    "PhotocorrError",
    "PumpFit",
    "ShotSeries",
    "SimulationConfig",
    "SourceSpec",
    "TailToleranceError",
    "UndefinedMarkerError",
    "ValidationError",
    "VarianceReport",
    "analytic_moments",
    "coherent_pair_joint",
    "correlation_coefficient",
    "correlation_from_joint",
    "correlation_function",
    "detected_moments",
    "difference_analytic",
    "difference_from_joint",
    "difference_variance",
    "fit_multithermal",
    "imbalance_bounds",
    "measured_correlation",
    "measured_difference_variance",
    "multimode_convolve",
    "multithermal_pdf",
    "noise_surface",
    "predicted_beam_variance",
    "read_series",
    "sample_series",
    "solve_pump_noise",
    "source_joint",
    "split_thermal_joint",
    "thermal_pmf",
    "thin_joint",
    "twin_beam_joint",
    "variance_threshold",
    "write_series",
]
