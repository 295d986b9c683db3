"""Boundary limits of sandwiched resolvents for spectral-data operators.

Evaluates weighted Cauchy transforms of catalog spectral measures off the
real axis, their Plemelj boundary values in the Holder-regular case, finite
matrix models of the compressed resolvent, and y -> 0 probes that classify
convergence against the 1/y eigenvalue divergence.
"""

from .errors import (
    AtomAtProbe,
    ConfigError,
    DegenerateFit,
    DegenerateSamples,
    EvaluatorFailure,
    InvalidExponent,
    NoAtomAtLambda,
    NonrealRequired,
    NotHolder,
    ResolventLimitsError,
    TooFewNodes,
)
from .spectral_model import (
    Atom,
    DensityFamily,
    HolderEstimate,
    SpectralMeasure,
    WeightFunction,
    estimate_holder,
    geometric_radii,
    holder_increments,
)
from .cauchy_transform import (
    SplitMeasure,
    TransformValue,
    evaluate_offaxis,
    far_bound,
    near_far_split,
    plemelj_boundary,
    principal_value,
    weighted_mass,
)
from .matrix_oracle import (
    SAME,
    MatrixModel,
    OperatorSample,
    discretize,
    eigen_contribution,
    operator_norm,
    quadratic_form,
    regularized_resolvent,
    resolution_floor,
    sandwiched_resolvent,
)
from .limit_analysis import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    CompactnessReport,
    LimitReport,
    ProbeSample,
    StoneDensityResult,
    YSchedule,
    compactness_probe,
    fit_divergence_rate,
    limit_probe,
    stone_density,
)

__version__ = "0.1.0"
