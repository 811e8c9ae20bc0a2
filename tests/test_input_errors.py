"""Every public entry point rejects a broken input with the class of its rule.

One row per (entry point, broken input): NaN, infinity, float and boolean
counts, wrong shapes, out-of-domain energies and non-numeric or ragged
entries. Each must raise exactly
the listed EVFlexError subclass, with no warning on the way. Entry points
that only take objects already checked by a constructor here (nu_bounds,
sorted_vertices, run_trials) and plain result records (Decomposition,
Infeasible, RobustSetResult, ViolationStats, FitResult) have no row.
"""

import math

import numpy as np
import pytest

import evflex
from evflex import (
    AggregateFlexSet,
    ConcentrationConstants,
    DimensionMismatch,
    DiscreteDistribution,
    DomainError,
    EnergyOutOfRange,
    InsufficientData,
    NegativeBudget,
    NegativeEntry,
    NotAnInteger,
    NotMonotone,
    Population,
    TrialConfig,
    batch_contains,
    beta_from_epsilon,
    clopper_pearson,
    contains,
    decompose,
    epsilon_from_beta,
    fastest_profile,
    find_subset_violation,
    fit_constants,
    is_individually_feasible,
    is_nested,
    is_subset_exact,
    is_subset_fast,
    minkowski_sum_permutahedra,
    permutahedron_contains,
    permutahedron_subset,
    prefix_dominates,
    project_to_n_points,
    push_lower,
    push_upper,
    robust_set,
    sample_population,
    strong_majorizes,
    trial_rng,
    wasserstein1,
)
from evflex.transport import min_cost_transport

nan, inf = math.nan, math.inf
POP = Population([0.5, 1.0], [2.0, 3.0], 4)
FLEX = AggregateFlexSet.from_population(POP)
EMPTY = AggregateFlexSet([1.0] * 4, [0.5] * 4, 1.0)  # lower total 4 above upper total 2
DIST = DiscreteDistribution([[0.5, 2.0], [1.0, 3.0]], [0.5, 0.5], 4)
CONSTANTS = ConcentrationConstants(2.0, 1.0)
U = [1.0, 1.0, 0.5, 0.5]


def _distribution(horizon, power=1.0):
    return DiscreteDistribution([[0.5, 1.0]], [1.0], horizon, power)


def _trial_config(**change):
    args = dict(distribution=DIST, population_size=3, epsilons=(0.5, 1.0), trials=10, seed=0)
    return TrialConfig(**{**args, **change})


# id -> (call, the class it must raise)
CASES = {
    # counts: a float or boolean is NotAnInteger, an int below the minimum DomainError
    "DiscreteDistribution-float-horizon": (lambda: _distribution(4.0), NotAnInteger),
    "DiscreteDistribution-bool-horizon": (lambda: _distribution(True), NotAnInteger),
    "DiscreteDistribution-nan-horizon": (lambda: _distribution(nan), NotAnInteger),
    "DiscreteDistribution-zero-horizon": (lambda: _distribution(0), DomainError),
    "Population-float-horizon": (lambda: Population([0.5], [1.0], 4.0), NotAnInteger),
    "Population-bool-horizon": (lambda: Population([0.5], [1.0], True), NotAnInteger),
    "Population-zero-horizon": (lambda: Population([0.5], [1.0], 0), DomainError),
    "fastest_profile-float-steps": (lambda: fastest_profile(1.0, 1.0, 4.0), NotAnInteger),
    "fastest_profile-bool-steps": (lambda: fastest_profile(1.0, 1.0, True), NotAnInteger),
    "fastest_profile-zero-steps": (lambda: fastest_profile(0.0, 1.0, 0), DomainError),
    # a horizon whose energy cap m*T is beyond the float range
    "DiscreteDistribution-beyond-float-horizon": (lambda: _distribution(10**400), DomainError),
    "DiscreteDistribution-overflowing-cap": (lambda: _distribution(10**300, 1e10), DomainError),
    "Population-beyond-float-horizon": (lambda: Population([0.5], [1.0], 10**400), DomainError),
    "Population-overflowing-cap": (lambda: Population([0.5], [1.0], 10**300, 1e10), DomainError),
    # the horizon rule of Population([1e308], [1e308], 2, 1e308): m*T is not finite
    "batch_contains-overflowing-cap": (
        lambda: batch_contains([[1e308]], [[1e308]], [[1.0, 1.0]], 1e308),
        DomainError,
    ),
    "fastest_profile-beyond-float-steps": (lambda: fastest_profile(0.0, 1.0, 10**400), DomainError),
    "project_to_n_points-float-n": (lambda: project_to_n_points(DIST, 2.0), NotAnInteger),
    "project_to_n_points-zero-n": (lambda: project_to_n_points(DIST, 0), DomainError),
    "robust_set-bool-n": (lambda: robust_set(DIST, True, 0.5), NotAnInteger),
    "sample_population-float-n": (
        lambda: sample_population(DIST, 3.0, trial_rng(0, 3)),
        NotAnInteger,
    ),
    "beta_from_epsilon-float-n": (lambda: beta_from_epsilon(0.5, 2.0, CONSTANTS), NotAnInteger),
    "epsilon_from_beta-bool-n": (lambda: epsilon_from_beta(0.5, True, CONSTANTS), NotAnInteger),
    "TrialConfig-float-trials": (lambda: _trial_config(trials=10.0), NotAnInteger),
    "TrialConfig-bool-size": (lambda: _trial_config(population_size=True), NotAnInteger),
    "TrialConfig-float-seed": (lambda: _trial_config(seed=1.5), NotAnInteger),
    "TrialConfig-zero-trials": (lambda: _trial_config(trials=0), DomainError),
    "TrialConfig-64-bit-seed": (lambda: _trial_config(seed=2**64), DomainError),
    "trial_rng-64-bit-seed": (lambda: trial_rng(2**64, 5), DomainError),
    "trial_rng-float-seed": (lambda: trial_rng(1.5, 3), NotAnInteger),
    "trial_rng-negative-seed": (lambda: trial_rng(-1, 3), DomainError),
    "trial_rng-bool-size": (lambda: trial_rng(0, True), NotAnInteger),
    "clopper_pearson-float-k": (lambda: clopper_pearson(2.5, 10), NotAnInteger),
    "clopper_pearson-bool-n": (lambda: clopper_pearson(0, True), NotAnInteger),
    "clopper_pearson-k-above-n": (lambda: clopper_pearson(11, 10), DomainError),
    # non-finite or out-of-range scalars
    "Population-nan-power": (lambda: Population([0.5], [1.0], 4, nan), DomainError),
    "Population-zero-power": (lambda: Population([0.5], [1.0], 4, 0.0), DomainError),
    "fastest_profile-inf-power": (lambda: fastest_profile(1.0, inf, 4), DomainError),
    "AggregateFlexSet-nan-power": (lambda: AggregateFlexSet([1.0], [1.0], nan), DomainError),
    "AggregateFlexSet-nan-bound": (lambda: AggregateFlexSet([nan], [1.0], 1.0), DomainError),
    "AggregateFlexSet-inf-bound": (lambda: AggregateFlexSet([1.0], [inf], 1.0), DomainError),
    "ConcentrationConstants-nan": (lambda: ConcentrationConstants(nan, 1.0), DomainError),
    "ConcentrationConstants-zero": (lambda: ConcentrationConstants(1.0, 0.0), DomainError),
    "beta_from_epsilon-nan": (lambda: beta_from_epsilon(nan, 2, CONSTANTS), DomainError),
    "epsilon_from_beta-inf": (lambda: epsilon_from_beta(inf, 2, CONSTANTS), DomainError),
    "robust_set-nan-eps": (lambda: robust_set(DIST, 2, nan), DomainError),
    "DiscreteDistribution-inf-power": (lambda: _distribution(4, inf), DomainError),
    "robust_set-nan-atol": (lambda: robust_set(DIST, 2, 0.5, atol=nan), DomainError),
    "DiscreteDistribution-inf-weight": (
        lambda: DiscreteDistribution([[0.5, 1.0], [1.0, 2.0]], [inf, 0.5], 4),
        DomainError,
    ),
    "DiscreteDistribution-nan-cap": (lambda: _distribution(4, nan), DomainError),  # nan power
    "DiscreteDistribution-weights-sum": (
        lambda: DiscreteDistribution([[0.5, 1.0]], [0.5], 4),
        DomainError,
    ),
    "wasserstein1-other-domain": (
        lambda: wasserstein1(DIST, DiscreteDistribution([[0.5, 1.0]], [1.0], 5)),
        DomainError,
    ),
    # the same cap m*T = 6 on another (T, m): the domains still differ
    "wasserstein1-same-cap-other-domain": (
        lambda: wasserstein1(
            DiscreteDistribution([[0.5, 1.0]], [1.0], 6),
            DiscreteDistribution([[0.5, 1.0]], [1.0], 4, 1.5),
        ),
        DomainError,
    ),
    "push_lower-nan-budget": (lambda: push_lower([0.5, 1.0], nan, 4.0), DomainError),
    "push_lower-inf-ceiling": (lambda: push_lower([0.5, 1.0], 0.1, inf), DomainError),
    "push_upper-nan-value": (lambda: push_upper([nan, 1.0], 0.1), DomainError),
    "push_upper-negative-budget": (lambda: push_upper([0.5, 1.0], -0.1), NegativeBudget),
    "TrialConfig-nan-epsilon": (lambda: _trial_config(epsilons=(nan,)), DomainError),
    "TrialConfig-negative-epsilon": (lambda: _trial_config(epsilons=(-0.5, 0.5)), DomainError),
    "TrialConfig-inf-atol": (lambda: _trial_config(atol=inf), DomainError),
    "clopper_pearson-nan-alpha": (lambda: clopper_pearson(1, 10, nan), DomainError),
    "contains-nan-profile": (lambda: contains(POP, [nan, 1.0, 1.0, 0.0]), DomainError),
    "contains-inf-profile": (lambda: contains(POP, [inf, 1.0, 1.0, 0.0]), DomainError),
    "contains-nan-atol": (lambda: contains(POP, U, atol=nan), DomainError),
    "decompose-nan-profile": (lambda: decompose(POP, [1.0, nan, 1.0, 0.0]), DomainError),
    # a non-finite entry is reported before a negative one, whatever the sort puts first
    "contains-nan-and-negative": (lambda: contains(POP, [nan, -1.0, 1.0, 0.0]), DomainError),
    "contains-inf-and-negative": (lambda: contains(POP, [inf, -1.0, 1.0, 0.0]), DomainError),
    "contains--inf-profile": (lambda: contains(POP, [-inf, 1.0, 1.0, 0.0]), DomainError),
    "decompose-nan-and-negative": (lambda: decompose(POP, [nan, -1.0, 1.0, 0.0]), DomainError),
    "decompose-inf-and-negative": (lambda: decompose(POP, [inf, -1.0, 1.0, 0.0]), DomainError),
    "decompose--inf-profile": (lambda: decompose(POP, [-inf, 1.0, 1.0, 0.0]), DomainError),
    "contains_profile-nan-and-negative": (
        lambda: FLEX.contains_profile([nan, -1.0, 1.0, 0.0]),
        DomainError,
    ),
    "contains_profile-inf-and-negative": (
        lambda: FLEX.contains_profile([inf, -1.0, 1.0, 0.0]),
        DomainError,
    ),
    "contains_profile--inf-profile": (lambda: FLEX.contains_profile([-inf, 1.0, 1.0, 0.0]), DomainError),
    "contains_profile-inf-profile": (
        lambda: FLEX.contains_profile([1.0, 1.0, inf, 0.0]),
        DomainError,
    ),
    "batch_contains-nan-profile": (
        lambda: batch_contains([[0.5]], [[2.0]], [[nan, 1.0, 0.0, 0.0]], 1.0),
        DomainError,
    ),
    "batch_contains-inf-power": (lambda: batch_contains([[0.5]], [[2.0]], [U], inf), DomainError),
    "is_subset_exact-nan-atol": (lambda: is_subset_exact(FLEX, POP, atol=nan), DomainError),
    "is_subset_fast-inf-atol": (lambda: is_subset_fast(FLEX, POP, atol=inf), DomainError),
    "is_nested-negative-atol": (lambda: is_nested(FLEX, FLEX, atol=-1.0), DomainError),
    "find_subset_violation-nan-atol": (
        lambda: find_subset_violation(FLEX, POP, atol=nan),
        DomainError,
    ),
    "vertices_are_members-nan-atol": (lambda: FLEX.vertices_are_members(nan), DomainError),
    # an empty set answers without comparing, after the atol rule
    "vertices_are_members-empty-nan-atol": (lambda: EMPTY.vertices_are_members(nan), DomainError),
    "is_subset_exact-empty-nan-atol": (lambda: is_subset_exact(EMPTY, POP, atol=nan), DomainError),
    "find_subset_violation-empty-nan-atol": (
        lambda: find_subset_violation(EMPTY, POP, atol=nan),
        DomainError,
    ),
    "is_nested-empty-nan-atol": (lambda: is_nested(EMPTY, EMPTY, atol=nan), DomainError),
    "is_individually_feasible-nan-profile": (
        lambda: is_individually_feasible([nan, 0.5], 0.5, 1.5, 1.0),
        DomainError,
    ),
    "is_individually_feasible-nan-power": (
        lambda: is_individually_feasible([0.5, 0.5], 0.5, 1.5, nan),
        DomainError,
    ),
    "strong_majorizes-nan": (lambda: strong_majorizes([nan, 0.0], [1.0, 0.0]), DomainError),
    "prefix_dominates-inf": (lambda: prefix_dominates([1.0, 0.0], [inf, 0.0]), DomainError),
    "permutahedron_contains-nan": (
        lambda: permutahedron_contains([1.0, 0.0], [0.5, nan]),
        DomainError,
    ),
    "permutahedron_subset-nan": (lambda: permutahedron_subset([nan, 0.0], [1.0, 0.0]), DomainError),
    "minkowski_sum_permutahedra-nan": (
        lambda: minkowski_sum_permutahedra([nan, 0.0], [1.0, 0.0]),
        DomainError,
    ),
    "strong_majorizes-nan-atol": (
        lambda: strong_majorizes([1.0, 0.0], [1.0, 0.0], atol=nan),
        DomainError,
    ),
    "fit_constants-no-rows": (lambda: fit_constants([]), InsufficientData),
    # energies outside their domain
    "Population-nan-energy": (lambda: Population([nan], [1.0], 4), EnergyOutOfRange),
    "Population-inf-energy": (lambda: Population([0.5], [inf], 4), EnergyOutOfRange),
    "Population-inverted-pair": (lambda: Population([2.0], [1.0], 4), EnergyOutOfRange),
    "Population-above-cap": (lambda: Population([0.0], [5.0], 4), EnergyOutOfRange),
    "Population-negative-energy": (lambda: Population([-0.5], [1.0], 4), EnergyOutOfRange),
    "DiscreteDistribution-nan-atom": (
        lambda: DiscreteDistribution([[nan, 1.0]], [1.0], 4),
        EnergyOutOfRange,
    ),
    "DiscreteDistribution-inf-atom": (
        lambda: DiscreteDistribution([[0.5, inf]], [1.0], 4),
        EnergyOutOfRange,
    ),
    "batch_contains-nan-energy": (
        lambda: batch_contains([[nan]], [[2.0]], [U], 1.0),
        EnergyOutOfRange,
    ),
    "DiscreteDistribution-above-cap": (
        lambda: DiscreteDistribution([[0.5, 5.0]], [1.0], 4),
        EnergyOutOfRange,
    ),
    "batch_contains-inverted-pair": (
        lambda: batch_contains([[2.0]], [[1.0]], [U], 1.0),
        EnergyOutOfRange,
    ),
    "fastest_profile-nan-energy": (lambda: fastest_profile(nan, 1.0, 4), EnergyOutOfRange),
    "fastest_profile-inf-energy": (lambda: fastest_profile(inf, 1.0, 4), EnergyOutOfRange),
    "fastest_profile-above-cap": (lambda: fastest_profile(4.5, 1.0, 4), EnergyOutOfRange),
    "is_individually_feasible-nan-e_lo": (
        lambda: is_individually_feasible([0.5, 0.5], nan, 1.5, 1.0),
        EnergyOutOfRange,
    ),
    "is_individually_feasible-nan-e_hi": (
        lambda: is_individually_feasible([0.5, 0.5], 0.5, nan, 1.0),
        EnergyOutOfRange,
    ),
    "push_lower-above-ceiling": (lambda: push_lower([0.5, 5.0], 0.1, 4.0), EnergyOutOfRange),
    "push_upper-negative-value": (lambda: push_upper([-0.5, 1.0], 0.1), EnergyOutOfRange),
    # wrong shapes
    "Population-lengths-differ": (lambda: Population([0.5, 0.5], [1.0], 4), DimensionMismatch),
    "Population-empty": (lambda: Population([], [], 4), DimensionMismatch),
    "Population-2d": (lambda: Population([[0.5]], [[1.0]], 4), DimensionMismatch),
    "from_energy_pairs-not-rows": (
        lambda: Population.from_energy_pairs([0.5, 1.0], 4),
        DimensionMismatch,
    ),
    "AggregateFlexSet-empty": (lambda: AggregateFlexSet([], [], 1.0), DimensionMismatch),
    "AggregateFlexSet-lengths-differ": (
        lambda: AggregateFlexSet([1.0], [1.0, 0.5], 1.0),
        DimensionMismatch,
    ),
    "contains-wrong-length": (lambda: contains(POP, [1.0, 1.0]), DimensionMismatch),
    "decompose-2d": (lambda: decompose(POP, [U]), DimensionMismatch),
    "batch_contains-1d-profiles": (lambda: batch_contains([[0.5]], [[2.0]], U, 1.0), DimensionMismatch),
    "batch_contains-1d-energies": (lambda: batch_contains([0.5], [2.0], [U], 1.0), DimensionMismatch),
    "is_subset_exact-other-horizon": (
        lambda: is_subset_exact(FLEX, Population([0.5], [1.0], 3)),
        DimensionMismatch,
    ),
    "is_nested-other-power": (
        lambda: is_nested(FLEX, AggregateFlexSet.from_population(Population([0.5], [1.0], 4, 2.0))),
        DimensionMismatch,
    ),
    "is_individually_feasible-2d": (
        lambda: is_individually_feasible([[0.5]], 0.5, 1.5, 1.0),
        DimensionMismatch,
    ),
    # a profile of no steps, like every profile, is a shape error, not a verdict
    "is_individually_feasible-empty": (
        lambda: is_individually_feasible([], 0.0, 1.5, 1.0),
        DimensionMismatch,
    ),
    "DiscreteDistribution-no-atoms": (
        lambda: DiscreteDistribution(np.empty((0, 2)), [], 4),
        DimensionMismatch,
    ),
    "DiscreteDistribution-atom-width": (
        lambda: DiscreteDistribution([[0.5, 1.0, 2.0]], [1.0], 4),
        DimensionMismatch,
    ),
    "DiscreteDistribution-weights-length": (
        lambda: DiscreteDistribution([[0.5, 1.0]], [0.5, 0.5], 4),
        DimensionMismatch,
    ),
    "push_lower-empty": (lambda: push_lower([], 0.1, 4.0), DimensionMismatch),
    "equal_weights-scalar": (
        lambda: DiscreteDistribution.equal_weights(0.5, 4),
        DimensionMismatch,
    ),
    "min_cost_transport-1d-cost": (
        lambda: min_cost_transport([1.0], [1.0], [1.0]),
        DimensionMismatch,
    ),
    "TrialConfig-scalar-epsilons": (lambda: _trial_config(epsilons=0.5), DimensionMismatch),
    "strong_majorizes-lengths-differ": (
        lambda: strong_majorizes([1.0, 0.0], [1.0]),
        DimensionMismatch,
    ),
    "strong_majorizes-empty": (lambda: strong_majorizes([], []), DimensionMismatch),
    "minkowski_sum_permutahedra-2d": (
        lambda: minkowski_sum_permutahedra([[1.0]], [[1.0]]),
        DimensionMismatch,
    ),
    # unsorted input and negative entries
    "AggregateFlexSet-unsorted": (lambda: AggregateFlexSet([0.5, 1.0], [1.0, 1.0], 1.0), NotMonotone),
    "push_upper-unsorted": (lambda: push_upper([1.0, 0.5], 0.1), NotMonotone),
    "minkowski_sum_permutahedra-unsorted": (
        lambda: minkowski_sum_permutahedra([0.0, 1.0], [1.0, 0.0]),
        NotMonotone,
    ),
    "TrialConfig-unsorted-epsilons": (lambda: _trial_config(epsilons=(1.0, 0.5)), NotMonotone),
    "contains-negative-entry": (lambda: contains(POP, [-1.0, 1.0, 1.0, 0.0]), NegativeEntry),
    # non-numeric scalars and entries are out of their domain
    "robust_set-atol-none": (lambda: robust_set(DIST, 3, 0.5, atol=None), DomainError),
    "Population-power-str": (lambda: Population([0.5], [1.0], 4, "x"), DomainError),
    "beta_from_epsilon-eps-str": (lambda: beta_from_epsilon("a", 2, CONSTANTS), DomainError),
    "epsilon_from_beta-beta-str": (lambda: epsilon_from_beta("a", 2, CONSTANTS), DomainError),
    "AggregateFlexSet-power-str": (lambda: AggregateFlexSet([1.0], [1.0], "x"), DomainError),
    "contains-str-entry": (lambda: contains(POP, [1.0, "a", 0.5, 0.5]), DomainError),
    "decompose-str-entry": (lambda: decompose(POP, [1.0, "a", 0.5, 0.5]), DomainError),
    "Population-str-energy": (lambda: Population([0.5], ["a"], 4), DomainError),
    "from_energy_pairs-str-entry": (
        lambda: Population.from_energy_pairs([[0.5, "a"]], 4),
        DomainError,
    ),
    "from_energy_pairs-ragged": (
        lambda: Population.from_energy_pairs([[0.5, 1.0], [0.5]], 4),
        DomainError,
    ),
    "AggregateFlexSet-str-bound": (lambda: AggregateFlexSet(["a"], [1.0], 1.0), DomainError),
    "batch_contains-str-profile": (
        lambda: batch_contains([[0.5]], [[2.0]], [["a", 1.0, 0.0, 0.0]], 1.0),
        DomainError,
    ),
    "batch_contains-str-energy": (lambda: batch_contains([["a"]], [[2.0]], [U], 1.0), DomainError),
    "DiscreteDistribution-str-atom": (
        lambda: DiscreteDistribution([[0.5, "a"]], [1.0], 4),
        DomainError,
    ),
    "DiscreteDistribution-str-weight": (
        lambda: DiscreteDistribution([[0.5, 1.0]], ["a"], 4),
        DomainError,
    ),
    "DiscreteDistribution-str-cap": (lambda: _distribution(4, "a"), DomainError),  # str power
    "equal_weights-str-pair": (
        lambda: DiscreteDistribution.equal_weights([[0.5, "a"]], 4),
        DomainError,
    ),
    "point_mass-str-energy": (lambda: DiscreteDistribution.point_mass("a", 1.0, 4), DomainError),
    "ConcentrationConstants-str": (lambda: ConcentrationConstants("a", 1.0), DomainError),
    "push_lower-str-budget": (lambda: push_lower([1.0], "a", 4.0), DomainError),
    "push_lower-str-ceiling": (lambda: push_lower([1.0], 0.1, "a"), DomainError),
    "push_upper-str-value": (lambda: push_upper(["a"], 0.1), DomainError),
    "fastest_profile-str-energy": (lambda: fastest_profile("a", 1.0, 4), DomainError),
    "is_individually_feasible-str-profile": (
        lambda: is_individually_feasible(["a", 0.5], 0.5, 1.5, 1.0),
        DomainError,
    ),
    "is_individually_feasible-str-e_lo": (
        lambda: is_individually_feasible([0.5, 0.5], "a", 1.5, 1.0),
        DomainError,
    ),
    "strong_majorizes-str": (lambda: strong_majorizes(["a", 0.0], [1.0, 0.0]), DomainError),
    "prefix_dominates-str": (lambda: prefix_dominates([1.0, 0.0], ["a", 0.0]), DomainError),
    "permutahedron_contains-str": (
        lambda: permutahedron_contains([1.0, 0.0], ["a", 0.0]),
        DomainError,
    ),
    "permutahedron_subset-str": (lambda: permutahedron_subset(["a", 0.0], [1.0, 0.0]), DomainError),
    "minkowski_sum_permutahedra-str": (
        lambda: minkowski_sum_permutahedra([1.0, 0.0], ["a", 0.0]),
        DomainError,
    ),
    "min_cost_transport-str": (lambda: min_cost_transport(["a"], [1.0], [[1.0]]), DomainError),
    "TrialConfig-str-epsilon": (lambda: _trial_config(epsilons=("a",)), DomainError),
    # numpy would parse a numeric string and read None as NaN; neither is a number
    "Population-numeric-str-energies": (lambda: Population(["0.5"], ["1.0"], 4), DomainError),
    "Population-none-energy": (lambda: Population([None], [1.0], 4), DomainError),
    "Population-bytes-energy": (lambda: Population([b"0.5"], [1.0], 4), DomainError),
    "from_energy_pairs-none-entry": (
        lambda: Population.from_energy_pairs([[0.5, None]], 4),
        DomainError,
    ),
    "DiscreteDistribution-numeric-str-weight": (
        lambda: DiscreteDistribution([[0.5, 1.0]], ["1.0"], 4),
        DomainError,
    ),
    "contains-none-entry": (lambda: contains(POP, [1.0, None, 0.5, 0.5]), DomainError),
    "batch_contains-numeric-str-profile": (
        lambda: batch_contains([[0.5]], [[2.0]], [["1.0", 1.0, 0.0, 0.0]], 1.0),
        DomainError,
    ),
    "fastest_profile-none-energy": (lambda: fastest_profile(None, 1.0, 4), DomainError),
    "TrialConfig-none-epsilon": (lambda: _trial_config(epsilons=(None,)), DomainError),
    "clopper_pearson-str-alpha": (lambda: clopper_pearson(1, 10, "a"), DomainError),
}

# the float and boolean counts that code written against TypeError still catches
TYPE_ERROR_CASES = sorted(
    case
    for case in CASES
    if case.split("-")[0] in ("DiscreteDistribution", "Population", "fastest_profile")
    and CASES[case][1] is NotAnInteger
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(CASES))
def test_broken_input_raises_the_class_of_its_rule(case):
    # caught as a ValueError, as code written before the classes existed catches it
    call, expected = CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is expected, (info.type, info.value)


@pytest.mark.parametrize("case", TYPE_ERROR_CASES)
def test_float_and_boolean_counts_are_type_errors(case):
    call, _ = CASES[case]
    with pytest.raises(TypeError, match="must be an integer"):
        call()


# a scalar rule prints the value it rejected with repr, so a string is not read as a number
REPR_CASES = {
    "Population-str-power": (lambda: Population([0.5], [1.0], 4, "1.0"), "'1.0'"),
    "contains-str-atol": (lambda: contains(POP, U, atol="0"), "'0'"),
    "DiscreteDistribution-str-horizon": (lambda: _distribution("4"), "'4'"),
    "ConcentrationConstants-str": (lambda: ConcentrationConstants("2", 1.0), "'2'"),
    "beta_from_epsilon-str-eps": (lambda: beta_from_epsilon("0.5", 2, CONSTANTS), "'0.5'"),
    "epsilon_from_beta-str-beta": (lambda: epsilon_from_beta("0.1", 2, CONSTANTS), "'0.1'"),
    "push_lower-str-ceiling": (lambda: push_lower([1.0], 0.1, "4"), "'4'"),
    "push_upper-str-budget": (lambda: push_upper([1.0], "0.1"), "'0.1'"),
}


@pytest.mark.parametrize("case", sorted(REPR_CASES))
def test_scalar_errors_print_the_value_repr(case):
    call, shown = REPR_CASES[case]
    with pytest.raises(DomainError) as info:
        call()
    assert shown in str(info.value)


def test_every_error_class_is_a_value_error():
    classes = [
        cls
        for cls in vars(evflex.errors).values()
        if isinstance(cls, type) and issubclass(cls, evflex.EVFlexError)
    ]
    assert all(issubclass(cls, ValueError) for cls in classes)
    assert issubclass(NotAnInteger, DomainError) and issubclass(NotAnInteger, TypeError)
    assert {expected for _, expected in CASES.values()} <= set(classes)
