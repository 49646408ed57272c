"""Correlation estimation under two-phase sampling with auxiliary data.

The package estimates a finite population's correlation between a study
variable y and an auxiliary x from a two-phase sample: a large first
phase observing (x, z) and a nested second phase also observing y, with
the population mean and variance of z known in advance. It provides
the estimator family, their first-order variance theory and optimal
adjustment weights, exact enumeration over all samples, and a
deterministic Monte Carlo driver with vectorized numpy kernels.
"""

from .errors import (
    AllSamplesDegenerate,
    Corr2PhaseError,
    DegenerateSample,
    DegenerateVariable,
    ExcessiveSkips,
    HeaderMismatch,
    InvalidDesign,
    InvalidParameter,
    MissingParameter,
    NonFiniteEstimate,
    NonPositiveRatio,
    NonPositiveVariance,
    ParseError,
    SingularDenominator,
    TooManySamples,
    ZeroCorrelation,
    ZeroMean,
)
from .moments import (
    DELTA_TRIPLES,
    MomentSet,
    PopulationFrame,
    moments_from_params,
    moments_to_params,
    normal_theory_moments,
    population_moments,
)
from .sampling import (
    DesignSpec,
    KnownAux,
    SampleStatistics,
    TwoPhaseSample,
    draw_two_phase,
    sample_statistics,
)
from .analytics import (
    OptimumConstants,
    VarianceReport,
    efficiency_report,
    min_var_hd,
    min_var_td,
    optimum_constants,
    pre,
    var_difference_class,
    var_h_class,
    var_r,
    var_t_class,
    variance_gap,
)
from .estimators import (
    ESTIMATOR_KINDS,
    PARAMETER_FREE_KINDS,
    EstimatorSpec,
    estimate,
    estimated_optimum_constants,
    optimal_estimator,
    parse_estimator,
)
from .montecarlo import (
    EnumerationResult,
    SimulationResult,
    enumerate_exact,
    random_population,
    simulate,
    synthetic_population,
)

__version__ = "0.1.0"

__all__ = [
    "AllSamplesDegenerate",
    "Corr2PhaseError",
    "DELTA_TRIPLES",
    "DegenerateSample",
    "DegenerateVariable",
    "DesignSpec",
    "ESTIMATOR_KINDS",
    "EnumerationResult",
    "EstimatorSpec",
    "ExcessiveSkips",
    "HeaderMismatch",
    "InvalidDesign",
    "InvalidParameter",
    "KnownAux",
    "MissingParameter",
    "MomentSet",
    "NonFiniteEstimate",
    "NonPositiveRatio",
    "NonPositiveVariance",
    "OptimumConstants",
    "PARAMETER_FREE_KINDS",
    "ParseError",
    "PopulationFrame",
    "SampleStatistics",
    "SimulationResult",
    "SingularDenominator",
    "TooManySamples",
    "TwoPhaseSample",
    "VarianceReport",
    "ZeroCorrelation",
    "ZeroMean",
    "draw_two_phase",
    "efficiency_report",
    "enumerate_exact",
    "estimate",
    "estimated_optimum_constants",
    "min_var_hd",
    "min_var_td",
    "moments_from_params",
    "moments_to_params",
    "normal_theory_moments",
    "optimal_estimator",
    "optimum_constants",
    "parse_estimator",
    "population_moments",
    "pre",
    "random_population",
    "sample_statistics",
    "simulate",
    "synthetic_population",
    "var_difference_class",
    "var_h_class",
    "var_r",
    "var_t_class",
    "variance_gap",
]
