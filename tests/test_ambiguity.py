import math

import numpy as np
import pytest

from evflex import (
    BudgetInfeasible,
    ConcentrationConstants,
    DiscreteDistribution,
    DomainError,
    NegativeBudget,
    RangeWarning,
    TimeGrid,
    beta_from_epsilon,
    epsilon_from_beta,
    fastest_profile,
    is_nested,
    nu_bounds,
    project_to_n_points,
    push_lower,
    push_upper,
    robust_set,
    wasserstein1,
)
from evflex.transport import min_cost_transport

from oracles import best_equal_weight_quantization_1d, transport_lp, w1_1d


def random_distribution(rng, cap=6.0, max_atoms=6):
    k = int(rng.integers(1, max_atoms + 1))
    lo = rng.uniform(0, cap, size=k)
    hi = lo + rng.uniform(0, cap - lo)
    weights = rng.dirichlet(np.ones(k))
    return DiscreteDistribution(np.column_stack([lo, hi]), weights, cap)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[1, 2]]), np.array([0.9]), 6.0)
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[2, 1]]), np.array([1.0]), 6.0)
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[1, 7]]), np.array([1.0]), 6.0)
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[1, 2], [0, 1]]), np.array([1.0, 0.0]), 6.0)
    dist = DiscreteDistribution(np.array([[3, 4], [0, 1]]), np.array([0.5, 0.5]), 6.0)
    np.testing.assert_allclose(dist.atoms, [[0, 1], [3, 4]])  # lex sorted


def test_distribution_rejects_non_finite_atoms():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[np.nan, 1], [1, 2]]), np.array([0.5, 0.5]), 6.0)


def test_distribution_rejects_non_finite_weights():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[0, 1], [1, 2]]), np.array([np.nan, 0.5]), 6.0)


@pytest.mark.parametrize("cap", [np.inf, np.nan])
def test_distribution_rejects_non_finite_energy_cap(cap):
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[0, 1], [1, 2]]), np.array([0.5, 0.5]), cap)


def test_wasserstein_examples():
    cap = 6.0
    p = DiscreteDistribution(np.array([[1, 2], [3, 4]]), np.array([0.5, 0.5]), cap)
    assert wasserstein1(p, p) == 0.0
    point = DiscreteDistribution.point_mass(2, 3, cap)
    assert abs(wasserstein1(DiscreteDistribution.point_mass(1, 2, cap), point) - 2) < 1e-12
    assert abs(wasserstein1(p, point) - 2) < 1e-12


def test_wasserstein_matches_lp_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        p = random_distribution(rng)
        q = random_distribution(rng)
        cost = np.abs(p.atoms[:, None, 0] - q.atoms[None, :, 0]) + np.abs(
            p.atoms[:, None, 1] - q.atoms[None, :, 1]
        )
        expected = transport_lp(p.weights, q.weights, cost)
        assert abs(wasserstein1(p, q) - expected) < 1e-8


def test_wasserstein_rejects_mismatched_domains():
    p = DiscreteDistribution.point_mass(1, 2, 6.0)
    q = DiscreteDistribution.point_mass(1, 2, 8.0)
    with pytest.raises(DomainError):
        wasserstein1(p, q)


def test_wasserstein_symmetry_and_triangle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        p, q, r = (random_distribution(rng) for _ in range(3))
        d_pq = wasserstein1(p, q)
        assert abs(d_pq - wasserstein1(q, p)) < 1e-9
        assert d_pq <= wasserstein1(p, r) + wasserstein1(r, q) + 1e-9


def test_chain_fast_path_matches_full_solver():
    rng = np.random.default_rng(2)
    for _ in range(40):
        cap = 6.0
        k = int(rng.integers(1, 6))
        lo = np.sort(rng.uniform(0, cap, size=k))
        hi = np.sort(rng.uniform(0, cap, size=k))
        hi = np.maximum(lo, hi)  # chain with lo <= hi
        p = DiscreteDistribution(np.column_stack([lo, hi]), rng.dirichlet(np.ones(k)), cap)
        q = DiscreteDistribution.point_mass(*rng.uniform(0, cap / 2, size=1).repeat(2), cap)
        cost = np.abs(p.atoms[:, None, 0] - q.atoms[None, :, 0]) + np.abs(
            p.atoms[:, None, 1] - q.atoms[None, :, 1]
        )
        value, _ = min_cost_transport(p.weights, q.weights, cost)
        assert abs(wasserstein1(p, q) - value) < 1e-9


def test_projection_identity():
    cap = 6.0
    atoms = np.array([[0.7, 1.0], [2.7, 3.3], [3.8, 4.6], [5.0, 5.3]])
    p = DiscreteDistribution(atoms, np.full(4, 0.25), cap)
    support, cost = project_to_n_points(p, 4)
    np.testing.assert_allclose(support, atoms)
    assert cost < 1e-12


def test_projection_two_atom_collapse():
    p = DiscreteDistribution(np.array([[0, 1], [2, 3]]), np.array([0.5, 0.5]), 6.0)
    support, cost = project_to_n_points(p, 1)
    np.testing.assert_allclose(support, [[0, 1]])
    assert abs(cost - 2.0) < 1e-12
    # brute force over candidate placements confirms optimality of the cost
    best_lo = best_equal_weight_quantization_1d([0, 2], [0.5, 0.5], 1, [0, 1, 2])
    best_hi = best_equal_weight_quantization_1d([1, 3], [0.5, 0.5], 1, [1, 2, 3])
    assert cost <= best_lo + best_hi + 1e-12


def test_projection_lower_median_convention():
    cap = 6.0
    hi = 5.0
    atoms = np.array([[0, hi], [1, hi], [2, hi], [3, hi]])
    p = DiscreteDistribution(atoms, np.full(4, 0.25), cap)
    support, cost = project_to_n_points(p, 2)
    np.testing.assert_allclose(support[:, 0], [0, 2])
    np.testing.assert_allclose(support[:, 1], [hi, hi])
    # e_hi is constant, so the cost is a pure 1-D quantization cost
    expected = w1_1d(
        np.array([0.0, 1, 2, 3]), np.full(4, 0.25), np.array([0.0, 2]), np.array([0.5, 0.5])
    )
    assert abs(cost - expected) < 1e-12
    best = best_equal_weight_quantization_1d(
        [0, 1, 2, 3], np.full(4, 0.25), 2, [0, 0.5, 1, 1.5, 2, 2.5, 3]
    )
    assert cost <= best + 1e-12


def test_projection_splits_atoms_across_chunks():
    p = DiscreteDistribution(np.array([[1, 2]]), np.array([1.0]), 6.0)
    support, cost = project_to_n_points(p, 3)
    np.testing.assert_allclose(support, [[1, 2]] * 3)
    assert cost < 1e-12


def test_push_lower_reference_case():
    pushed, i_c, kappa = push_lower([0.7, 2.7, 3.8, 5.0], 1.175, 6.0)
    np.testing.assert_allclose(pushed, [0.7, 4.2, 6.0, 6.0])
    assert i_c == 2
    assert abs(kappa - 1.5) < 1e-12
    # cost bookkeeping: (6-5)/4 + (6-3.8)/4 + 1.5/4 = 1.175
    assert abs((6 - 5.0) / 4 + (6 - 3.8) / 4 + kappa / 4 - 1.175) < 1e-12


def test_push_lower_sentinels():
    values = [0.5, 1.0, 2.0]
    pushed, i_c, kappa = push_lower(values, 0.0, 4.0)
    np.testing.assert_allclose(pushed, values)
    assert (i_c, kappa) == (4, 0.0)
    total = sum((4.0 - v) / 3 for v in values)
    pushed, i_c, kappa = push_lower(values, total + 1.0, 4.0)
    np.testing.assert_allclose(pushed, [4.0, 4.0, 4.0])
    assert (i_c, kappa) == (0, 0.0)
    with pytest.raises(NegativeBudget):
        push_lower(values, -0.1, 4.0)


def test_push_upper_mirror_bookkeeping():
    # budget matching the documented arithmetic 1/4 + 1.5/4
    pushed, i_c, kappa = push_upper([1.0, 3.3, 4.6, 5.3], 0.625)
    np.testing.assert_allclose(pushed, [0.0, 1.8, 4.6, 5.3])
    assert i_c == 2
    assert abs(kappa - 1.5) < 1e-12
    # a larger budget keeps pushing greedily
    pushed, i_c, kappa = push_upper([1.0, 3.3, 4.6, 5.3], 1.175)
    np.testing.assert_allclose(pushed, [0.0, 0.0, 4.2, 5.3])
    assert i_c == 3
    assert abs(kappa - 0.4) < 1e-9


def test_push_upper_sentinels():
    values = [0.5, 1.0, 2.0]
    pushed, i_c, kappa = push_upper(values, 0.0)
    np.testing.assert_allclose(pushed, values)
    assert (i_c, kappa) == (0, 0.0)
    pushed, i_c, kappa = push_upper(values, 10.0)
    np.testing.assert_allclose(pushed, [0.0, 0.0, 0.0])
    assert (i_c, kappa) == (4, 0.0)


def test_beta_epsilon_examples():
    c = ConcentrationConstants(3.0, 2.0)
    beta = beta_from_epsilon(0.3, 50, c)
    assert abs(beta - 3 * math.exp(-9)) < 1e-12
    assert abs(epsilon_from_beta(beta, 50, c) - 0.3) < 1e-12
    with pytest.warns(RangeWarning):
        beta_from_epsilon(1.5, 50, c)
    with pytest.raises(DomainError):
        beta_from_epsilon(0.0, 50, c)
    with pytest.raises(DomainError):
        epsilon_from_beta(0.0, 50, c)
    with pytest.raises(DomainError):
        epsilon_from_beta(3.5, 50, c)


def test_epsilon_from_beta_warns_outside_validity():
    c = ConcentrationConstants(3.0, 2.0)
    with pytest.warns(RangeWarning):
        eps = epsilon_from_beta(3e-3, 1, c)
    assert eps > 1


def test_beta_strictly_decreasing():
    c = ConcentrationConstants(2.0, 1.0)
    eps = np.linspace(0.05, 1.0, 12)
    betas = [beta_from_epsilon(e, 10, c) for e in eps]
    assert np.all(np.diff(betas) < 0)
    assert beta_from_epsilon(0.5, 20, c) < beta_from_epsilon(0.5, 10, c)


FIG_ATOMS = np.array([[0.7, 1.0], [2.7, 3.3], [3.8, 4.6], [5.0, 5.3]])


def fig_distribution():
    return DiscreteDistribution(FIG_ATOMS, np.full(4, 0.25), 6.0)


def test_robust_set_zero_residual():
    p = fig_distribution()
    result = robust_set(p, 4, 0.0, TimeGrid(6), 1.0)
    np.testing.assert_allclose(result.worst_lo.e_lo, FIG_ATOMS[:, 0])
    np.testing.assert_allclose(result.worst_hi.e_hi, FIG_ATOMS[:, 1])
    assert result.i_c_lo == 5 and result.i_c_hi == 0
    assert not result.empty


# Worst cases at the parent of the single push walk, one radius per branch:
# nothing moved, a partial push, a push with repairs, every atom moved.
# Per radius: (worst_lo pairs, i_c_lo, kappa_lo, budget_lo, repaired_lo) and
# the same for the upper side.
FIG_PINNED = {
    0.0: (
        (FIG_ATOMS.tolist(), 5, 0.0, 0.0, 0),
        (FIG_ATOMS.tolist(), 0, 0.0, 0.0, 0),
    ),
    0.05: (
        ([[0.7, 1.0], [2.7, 3.3], [3.8, 4.6], [5.2, 5.3]], 4, 0.20000000000000018, 0.05, 0),
        ([[0.7, 0.8], [2.7, 3.3], [3.8, 4.6], [5.0, 5.3]], 1, 0.19999999999999996, 0.05, 0),
    ),
    0.9: (
        (
            [[0.7, 1.0], [2.7, 3.3], [5.1499999999999995, 5.1499999999999995], [6.0, 6.0]],
            3, 1.3499999999999996, 0.9, 2,
        ),
        ([[0.0, 0.0], [2.05, 2.05], [3.8, 4.6], [5.0, 5.3]], 2, 1.25, 0.9, 2),
    ),
    50.0: (
        ([[6.0, 6.0]] * 4, 0, 0.0, 5.4, 4),
        ([[0.0, 0.0]] * 4, 5, 0.0, 6.6, 4),
    ),
}


@pytest.mark.parametrize("eps", sorted(FIG_PINNED))
def test_robust_set_pinned_on_figure_distribution(eps):
    result = robust_set(fig_distribution(), 4, eps, TimeGrid(6), 1.0)
    sides = (
        (result.worst_lo, result.i_c_lo, result.kappa_lo, result.budget_lo, result.repaired_lo),
        (result.worst_hi, result.i_c_hi, result.kappa_hi, result.budget_hi, result.repaired_hi),
    )
    for (pop, i_c, kappa, budget, repaired), expected in zip(sides, FIG_PINNED[eps]):
        pairs, want_i_c, want_kappa, want_budget, want_repaired = expected
        np.testing.assert_array_equal(np.column_stack([pop.e_lo, pop.e_hi]), pairs)
        assert (i_c, kappa, budget, repaired) == (
            want_i_c, want_kappa, want_budget, want_repaired
        )


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_robust_set_rejects_non_finite_radius(eps):
    with pytest.raises(DomainError, match="finite"):
        robust_set(fig_distribution(), 4, eps, TimeGrid(6), 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tail_bound_rejects_non_finite_radius(value):
    c = ConcentrationConstants(2.0, 1.0)
    with pytest.raises(DomainError):
        beta_from_epsilon(value, 10, c)
    with pytest.raises(DomainError):
        epsilon_from_beta(value, 10, c)


def test_robust_set_budget_infeasible():
    p = fig_distribution()
    with pytest.raises(BudgetInfeasible):
        robust_set(p, 3, 0.0, TimeGrid(6), 1.0)


def test_robust_set_saturation_empty():
    p = fig_distribution()
    result = robust_set(p, 4, 50.0, TimeGrid(6), 1.0)
    assert result.empty
    assert result.flex.nu_lo.sum() > result.flex.nu_hi.sum()
    np.testing.assert_allclose(result.flex.nu_hi, 0.0)
    np.testing.assert_allclose(result.flex.nu_lo, 4.0)  # N*m at every step


def test_robust_set_nu_recomputation():
    p = fig_distribution()
    result = robust_set(p, 4, 0.9, TimeGrid(6), 1.0)
    lo_ref, _ = nu_bounds(result.worst_lo)
    _, hi_ref = nu_bounds(result.worst_hi)
    np.testing.assert_allclose(result.flex.nu_lo, lo_ref)
    np.testing.assert_allclose(result.flex.nu_hi, hi_ref)
    assert abs(result.flex.nu_lo.sum() - result.worst_lo.e_lo.sum()) < 1e-9
    assert abs(result.flex.nu_hi.sum() - result.worst_hi.e_hi.sum()) < 1e-9


def test_robust_set_nonunit_power_short_horizon():
    # the same support works on a 4-step horizon at a 1.5 power rating
    p = fig_distribution()
    result = robust_set(p, 4, 1.175, TimeGrid(4), 1.5)
    lo_ref = sum(
        fastest_profile(e, 1.5, 4) for e in result.worst_lo.e_lo
    )
    hi_ref = sum(
        fastest_profile(e, 1.5, 4) for e in result.worst_hi.e_hi
    )
    np.testing.assert_allclose(result.flex.nu_lo, lo_ref, atol=1e-12)
    np.testing.assert_allclose(result.flex.nu_hi, hi_ref, atol=1e-12)
    assert result.w1_lo <= 1.175 + 1e-9 and result.w1_hi <= 1.175 + 1e-9


def test_robust_set_budget_soundness_randomized():
    rng = np.random.default_rng(3)
    grid = TimeGrid(5)
    for _ in range(100):
        p = random_distribution(rng, cap=5.0)
        n = int(rng.integers(1, 7))
        _, eps0 = project_to_n_points(p, n)
        eps = eps0 + rng.uniform(0, 3)
        result = robust_set(p, n, eps, grid, 1.0)
        assert result.w1_lo <= eps + 1e-9
        assert result.w1_hi <= eps + 1e-9


def test_robust_set_prefix_growth():
    rng = np.random.default_rng(4)
    grid = TimeGrid(5)
    for _ in range(50):
        p = random_distribution(rng, cap=5.0)
        n = int(rng.integers(1, 6))
        _, eps0 = project_to_n_points(p, n)
        result = robust_set(p, n, eps0 + rng.uniform(0, 2), grid, 1.0)
        proj = result.projected_support
        from evflex import Population

        proj_pop = Population.from_energy_pairs(proj, grid.steps, 1.0)
        proj_lo, proj_hi = nu_bounds(proj_pop)
        assert np.all(
            np.cumsum(result.flex.nu_lo) >= np.cumsum(proj_lo) - 1e-9
        )
        assert np.all(
            np.cumsum(result.flex.nu_hi) <= np.cumsum(proj_hi) + 1e-9
        )


def test_robust_set_nested_in_epsilon():
    p = fig_distribution()
    grid = TimeGrid(6)
    results = [robust_set(p, 4, eps, grid, 1.0) for eps in (0.0, 0.2, 0.5, 0.9)]
    for outer, inner in zip(results, results[1:]):
        assert is_nested(inner.flex, outer.flex)


def test_robust_set_normalization_equivalence():
    p = fig_distribution()
    grid = TimeGrid(6)
    raw = robust_set(p, 4, 0.9, grid, 1.0)
    norm = robust_set(p, 4, 0.9 / 6.0, grid, 1.0, normalize=True)
    np.testing.assert_allclose(norm.flex.nu_lo, raw.flex.nu_lo, atol=1e-12)
    np.testing.assert_allclose(norm.flex.nu_hi, raw.flex.nu_hi, atol=1e-12)
    assert abs(norm.projection_cost * 6.0 - raw.projection_cost) < 1e-12
    assert norm.normalization == 6.0
    assert abs(norm.w1_lo * 6.0 - raw.w1_lo) < 1e-12


def test_robust_set_reports_beta():
    p = fig_distribution()
    c = ConcentrationConstants(2.0, 1.5)
    result = robust_set(p, 4, 0.5, TimeGrid(6), 1.0, constants=c)
    assert abs(result.beta - beta_from_epsilon(0.5, 4, c)) < 1e-15
    assert robust_set(p, 4, 0.5, TimeGrid(6), 1.0).beta is None


def test_robust_set_repair_is_flagged_and_consistent():
    # pushing the largest lower bounds to the cap forces their e_hi up too
    p = fig_distribution()
    result = robust_set(p, 4, 0.9, TimeGrid(6), 1.0)
    assert result.repaired_lo >= 1
    pop = result.worst_lo
    assert np.all(pop.e_lo <= pop.e_hi + 1e-12)
    pop = result.worst_hi
    assert np.all(pop.e_lo <= pop.e_hi + 1e-12)
