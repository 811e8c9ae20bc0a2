"""Aggregate flexibility sets for EV charging populations.

Exact aggregation of interval-constrained charging jobs, distributionally
robust variants under transport-distance ambiguity, and a Monte Carlo
harness that certifies the resulting tracking guarantees.
"""

from .aggregate import (
    AggregateFlexSet,
    Decomposition,
    Infeasible,
    Population,
    batch_contains,
    contains,
    decompose,
    find_subset_violation,
    is_nested,
    is_subset_exact,
    is_subset_fast,
    nu_bounds,
    sorted_vertices,
)
from .ambiguity import (
    ConcentrationConstants,
    DiscreteDistribution,
    RobustSetResult,
    beta_from_epsilon,
    epsilon_from_beta,
    project_to_n_points,
    push_lower,
    push_upper,
    robust_set,
    wasserstein1,
)
from .core import (
    DEFAULT_ATOL,
    fastest_profile,
    is_individually_feasible,
)
from .errors import (
    BudgetInfeasible,
    DimensionMismatch,
    DomainError,
    EnergyOutOfRange,
    EVFlexError,
    InsufficientData,
    NegativeBudget,
    NegativeEntry,
    NotAnInteger,
    NotMonotone,
    NumericalFailure,
    ParseError,
    RangeWarning,
    ValidationError,
)
from .harness import (
    FitResult,
    TrialConfig,
    ViolationStats,
    clopper_pearson,
    fit_constants,
    run_trials,
    sample_population,
    trial_rng,
)
from .majorization import (
    minkowski_sum_permutahedra,
    permutahedron_contains,
    permutahedron_subset,
    prefix_dominates,
    strong_majorizes,
)

__version__ = "0.1.0"
