import math

import numpy as np
import pytest

from evflex import (
    AggregateFlexSet,
    BudgetInfeasible,
    ConcentrationConstants,
    DimensionMismatch,
    DiscreteDistribution,
    DomainError,
    NegativeBudget,
    NumericalFailure,
    Population,
    RangeWarning,
    beta_from_epsilon,
    contains,
    decompose,
    epsilon_from_beta,
    fastest_profile,
    is_nested,
    nu_bounds,
    project_to_n_points,
    push_lower,
    push_upper,
    robust_set,
    sorted_vertices,
    wasserstein1,
)
from evflex.transport import min_cost_transport

from oracles import best_equal_weight_quantization_1d, project_by_pieces, transport_lp, w1_1d


def random_distribution(rng, horizon=6, power=1.0, max_atoms=6):
    cap = power * horizon
    k = int(rng.integers(1, max_atoms + 1))
    lo = rng.uniform(0, cap, size=k)
    hi = lo + rng.uniform(0, cap - lo)
    weights = rng.dirichlet(np.ones(k))
    return DiscreteDistribution(np.column_stack([lo, hi]), weights, horizon, power)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[1, 2]]), np.array([0.9]), 6)
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[2, 1]]), np.array([1.0]), 6)
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[1, 7]]), np.array([1.0]), 6)
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[1, 2], [0, 1]]), np.array([1.0, 0.0]), 6)
    # the Population domain exactly: no rounding slack below zero or across e_hi
    for atom in ([-1e-13, 1.0], [1.0 + 1e-13, 1.0]):
        with pytest.raises(ValueError, match="e_lo <= e_hi"):
            DiscreteDistribution(np.array([atom]), np.array([1.0]), 6)
    DiscreteDistribution(np.array([[0.0, 6.0 + 1e-13]]), np.array([1.0]), 6)
    dist = DiscreteDistribution(np.array([[3, 4], [0, 1]]), np.array([0.5, 0.5]), 6)
    np.testing.assert_allclose(dist.atoms, [[0, 1], [3, 4]])  # lex sorted


def test_distribution_rejects_non_finite_atoms():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[np.nan, 1], [1, 2]]), np.array([0.5, 0.5]), 6)


def test_distribution_rejects_non_finite_weights():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[0, 1], [1, 2]]), np.array([np.nan, 0.5]), 6)


@pytest.mark.parametrize("cap", [np.inf, np.nan])
def test_distribution_rejects_non_finite_energy_cap(cap):
    # the cap m*T is not finite when the power is not, or when T overflows it
    atoms, weights = np.array([[0, 1], [1, 2]]), np.array([0.5, 0.5])
    with pytest.raises(DomainError, match="power"):
        DiscreteDistribution(atoms, weights, 6, cap)
    with pytest.raises(DomainError, match="not finite"):
        DiscreteDistribution(atoms, weights, 10**300, 1e10)


def test_wasserstein_examples():
    horizon = 6
    p = DiscreteDistribution(np.array([[1, 2], [3, 4]]), np.array([0.5, 0.5]), horizon)
    assert wasserstein1(p, p) == 0.0
    point = DiscreteDistribution.point_mass(2, 3, horizon)
    assert abs(wasserstein1(DiscreteDistribution.point_mass(1, 2, horizon), point) - 2) < 1e-12
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


def _l1_cost(p, q):
    return np.abs(p.atoms[:, None, 0] - q.atoms[None, :, 0]) + np.abs(
        p.atoms[:, None, 1] - q.atoms[None, :, 1]
    )


def _with_duplicates(rng, atoms, horizon):
    """An uncanonicalised distribution: every atom repeated 2-4 times, unequal weights."""
    repeats = rng.integers(2, 5, size=len(atoms))
    atoms = np.repeat(atoms, repeats, axis=0)
    return DiscreteDistribution(atoms, rng.dirichlet(np.ones(len(atoms))), horizon)


@pytest.mark.parametrize("chain", [True, False])
def test_wasserstein_with_duplicated_atoms_matches_lp(chain):
    rng = np.random.default_rng(40 + chain)
    horizon = 6
    chains = 0
    for _ in range(40):
        sides = []
        for _ in range(2):
            k = int(rng.integers(2, 6))
            lo = rng.integers(0, 13, size=k) / 2.0
            hi = np.minimum(lo + rng.integers(0, 13, size=k) / 2.0, horizon)
            atoms = np.column_stack([lo, hi])
            if chain:
                atoms = np.column_stack([np.sort(lo), np.maximum(np.sort(hi), np.sort(lo))])
            else:  # two atoms neither of which dominates the other
                atoms = np.vstack([atoms, [[0.0, 5.0], [1.0, 1.5]]])
            sides.append(_with_duplicates(rng, atoms, horizon))
        p, q = sides
        assert p.n_atoms > len(np.unique(p.atoms, axis=0))
        expected = transport_lp(p.weights, q.weights, _l1_cost(p, q))
        assert abs(wasserstein1(p, q) - expected) <= 1e-12
        assert abs(wasserstein1(q, p) - expected) <= 1e-12
        chains += all(
            (np.diff(d.atoms[:, 0]) >= 0).all() and (np.diff(d.atoms[:, 1]) >= 0).all()
            for d in (p, q)
        )
    assert chains == (40 if chain else 0)


def test_robust_set_transport_sees_distinct_atoms_only(monkeypatch):
    # no timing: every cost matrix handed to the solver is at most
    # distinct(p) x distinct(q), although the supports hold N = 1000 points
    import evflex.ambiguity as ambiguity

    rng = np.random.default_rng(42)
    horizon = 24
    lo = rng.uniform(0, 12, size=8)
    hi = np.minimum(lo + rng.uniform(0, 12, size=8), horizon)
    p = DiscreteDistribution(np.column_stack([lo, hi]), rng.dirichlet(np.ones(8)), horizon)
    real_w1, real_solve = ambiguity.wasserstein1, ambiguity.min_cost_transport
    pairs, shapes = [], []

    def w1(a, b):
        pairs.append((a.n_atoms, b.n_atoms, len(np.unique(a.atoms, axis=0)),
                      len(np.unique(b.atoms, axis=0))))
        return real_w1(a, b)

    def solve(supply, demand, cost):
        shapes.append((np.shape(cost), pairs[-1]))
        return real_solve(supply, demand, cost)

    monkeypatch.setattr(ambiguity, "wasserstein1", w1)
    monkeypatch.setattr(ambiguity, "min_cost_transport", solve)
    result = robust_set(p, 1000, 0.5)
    result.w1_lo, result.w1_hi  # the exact distances are solved on first read
    assert len(pairs) == 3 and all(q_atoms == 1000 for _, q_atoms, _, _ in pairs)
    assert shapes, "every W1 runs the solver"
    for (rows, cols), (_, _, distinct_p, distinct_q) in shapes:
        assert rows <= distinct_p and cols <= distinct_q < 1000


def test_wasserstein_rejects_mismatched_domains():
    p = DiscreteDistribution.point_mass(1, 2, 6)
    q = DiscreteDistribution.point_mass(1, 2, 8)
    with pytest.raises(DimensionMismatch):
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
        horizon = 6
        k = int(rng.integers(1, 6))
        lo = np.sort(rng.uniform(0, horizon, size=k))
        hi = np.sort(rng.uniform(0, horizon, size=k))
        hi = np.maximum(lo, hi)  # chain with lo <= hi
        p = DiscreteDistribution(np.column_stack([lo, hi]), rng.dirichlet(np.ones(k)), horizon)
        q = DiscreteDistribution.point_mass(*rng.uniform(0, horizon / 2, size=1).repeat(2), horizon)
        cost = np.abs(p.atoms[:, None, 0] - q.atoms[None, :, 0]) + np.abs(
            p.atoms[:, None, 1] - q.atoms[None, :, 1]
        )
        value, _ = min_cost_transport(p.weights, q.weights, cost)
        assert abs(wasserstein1(p, q) - value) < 1e-9


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (5, 7), (24, 50)])
def test_min_cost_transport_matches_lp_oracle(shape):
    n, m = shape
    rng = np.random.default_rng(1000 * n + m)
    for case in range(4):
        supply = rng.dirichlet(np.ones(n))
        demand = rng.dirichlet(np.ones(m))
        if n > 1:  # a zero-mass row
            supply[rng.integers(n)] = 0.0
            supply /= supply.sum()
        if m > 1:  # a zero-mass column
            demand[rng.integers(m)] = 0.0
            demand /= demand.sum()
        if case % 2:  # a tiny total imbalance, left unshipped
            supply[rng.integers(n)] += 1e-14
        cost = rng.uniform(0, 10, size=shape)
        if case >= 2:  # half-integer costs: many equal path lengths
            cost = np.round(2 * cost) / 2
        value, plan = min_cost_transport(supply, demand, cost)
        assert abs(value - transport_lp(supply, demand, cost)) <= 1e-9
        assert plan.shape == shape and plan.min() >= 0.0
        assert np.abs(plan.sum(axis=1) - supply).max() <= 1e-12
        assert np.abs(plan.sum(axis=0) - demand).max() <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["supply", "demand", "cost"])
def test_min_cost_transport_rejects_non_finite_input(where, bad):
    args = {
        "supply": np.array([0.5, 0.5]),
        "demand": np.array([1.0]),
        "cost": np.array([[1.0], [2.0]]),
    }
    args[where].flat[-1] = bad
    with pytest.raises(DomainError, match="finite"):
        min_cost_transport(**args)


@pytest.mark.parametrize(
    "supply, demand, cost",
    [
        ([-0.5, 1.5], [1.0], [[1.0], [2.0]]),  # used to ship 1.0 and drop the -0.5
        ([0.5, 0.5], [1.5, -0.5], [[1.0, 2.0], [2.0, 1.0]]),
        ([0.5, 0.5], [1.0], [[1.0], [-2.0]]),
    ],
)
def test_min_cost_transport_rejects_negative_input(supply, demand, cost):
    with pytest.raises(ValueError, match="non-negative"):
        min_cost_transport(supply, demand, cost)


def test_projection_identity():
    horizon = 6
    atoms = np.array([[0.7, 1.0], [2.7, 3.3], [3.8, 4.6], [5.0, 5.3]])
    p = DiscreteDistribution(atoms, np.full(4, 0.25), horizon)
    support, cost = project_to_n_points(p, 4)
    np.testing.assert_allclose(support, atoms)
    assert cost < 1e-12


def test_projection_two_atom_collapse():
    p = DiscreteDistribution(np.array([[0, 1], [2, 3]]), np.array([0.5, 0.5]), 6)
    support, cost = project_to_n_points(p, 1)
    np.testing.assert_allclose(support, [[0, 1]])
    assert abs(cost - 2.0) < 1e-12
    # brute force over candidate placements confirms optimality of the cost
    best_lo = best_equal_weight_quantization_1d([0, 2], [0.5, 0.5], 1, [0, 1, 2])
    best_hi = best_equal_weight_quantization_1d([1, 3], [0.5, 0.5], 1, [1, 2, 3])
    assert cost <= best_lo + best_hi + 1e-12


def test_projection_lower_median_convention():
    horizon = 6
    hi = 5.0
    atoms = np.array([[0, hi], [1, hi], [2, hi], [3, hi]])
    p = DiscreteDistribution(atoms, np.full(4, 0.25), horizon)
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
    p = DiscreteDistribution(np.array([[1, 2]]), np.array([1.0]), 6)
    support, cost = project_to_n_points(p, 3)
    np.testing.assert_allclose(support, [[1, 2]] * 3)
    assert cost < 1e-12


def _projection_case(rng, kind):
    """A distribution and N of one kind for the projection reference sweep."""
    horizon = 24
    if kind == "equal-weights":  # atom ends fall on chunk edges
        a = int(rng.integers(1, 13))
        n = a * int(rng.integers(1, 6)) if rng.random() < 0.5 else max(a // int(rng.integers(1, 4)), 1)
    elif kind == "atoms-over-n":
        a = int(rng.integers(20, 80))
        n = int(rng.integers(1, a // 2))
    else:  # n-over-atoms and duplicated
        a = int(rng.integers(1, 9))
        n = int(rng.integers(100, 1001))
    lo = rng.integers(0, 25, size=a) * 1.0
    atoms = np.column_stack([lo, np.minimum(lo + rng.integers(0, 25, size=a), horizon)])
    if kind == "equal-weights":
        weights = np.full(a, 1.0 / a)
    elif kind == "duplicated":  # repeated rows with integer weights, unmerged
        atoms = atoms[rng.integers(0, a, size=3 * a)]
        counts = rng.integers(1, 10, size=3 * a).astype(float)
        weights = counts / counts.sum()
    else:
        weights = rng.dirichlet(np.ones(a))
    return DiscreteDistribution(atoms, weights, horizon), n


@pytest.mark.parametrize(
    "seed, kind", enumerate(["equal-weights", "duplicated", "atoms-over-n", "n-over-atoms"])
)
def test_projection_equals_piece_walk(seed, kind):
    # the vectorised projection picks the same medians as the walk over
    # atom pieces, so support and cost agree exactly
    rng = np.random.default_rng(seed)
    for _ in range(40):
        p, n = _projection_case(rng, kind)
        support, cost = project_to_n_points(p, n)
        expected_support, expected_cost = project_by_pieces(p, n)
        assert np.array_equal(support, expected_support)
        assert cost == expected_cost


def test_projection_equals_piece_walk_at_fleet_scale():
    rng = np.random.default_rng(288)
    horizon = 288
    lo = rng.uniform(0, horizon / 2, size=24)
    atoms = np.column_stack([lo, lo + rng.uniform(0, horizon / 2, size=24)])
    p = DiscreteDistribution(atoms, rng.dirichlet(np.ones(24)), horizon)
    support, cost = project_to_n_points(p, 10_000)
    expected_support, expected_cost = project_by_pieces(p, 10_000)
    assert np.array_equal(support, expected_support)
    assert cost == expected_cost


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
    return DiscreteDistribution(FIG_ATOMS, np.full(4, 0.25), 6)


def test_robust_set_zero_residual():
    p = fig_distribution()
    result = robust_set(p, 4, 0.0)
    np.testing.assert_allclose(result.worst_lo.e_lo, FIG_ATOMS[:, 0])
    np.testing.assert_allclose(result.worst_hi.e_hi, FIG_ATOMS[:, 1])
    assert result.i_c_lo == 5 and result.i_c_hi == 0
    assert not result.flex.is_empty


def test_array_dataclasses_compare_by_identity():
    # ndarray fields make field-wise == ambiguous; these compare by identity
    dist = fig_distribution()
    result = robust_set(dist, 4, 0.05)
    again = robust_set(dist, 4, 0.05)
    own = AggregateFlexSet.from_population(result.worst_hi)
    u = sorted_vertices(own)[2]  # a member: a vertex of the population's own set
    pairs = [
        (dist, fig_distribution()),
        (result, again),
        (result.flex, own),
        (decompose(result.worst_hi, u), decompose(result.worst_hi, u)),
    ]
    for obj, twin in pairs:
        assert obj == obj and not (obj != obj)
        assert (obj == twin) is False
        assert len({obj, twin}) == 2


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
    result = robust_set(fig_distribution(), 4, eps)
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


@pytest.mark.parametrize("n", [2.5, 4.0, True, np.bool_(True), "4", None])
def test_population_size_must_be_an_integer(n):
    p = fig_distribution()
    with pytest.raises(DomainError, match="integer"):
        robust_set(p, n, 1.0)
    with pytest.raises(DomainError, match="integer"):
        project_to_n_points(p, n)


def test_population_size_accepts_numpy_integers():
    p = fig_distribution()
    support, cost = project_to_n_points(p, np.int64(4))
    np.testing.assert_array_equal(support, project_to_n_points(p, 4)[0])
    assert robust_set(p, np.int32(4), 1.0).worst_lo.n == 4


@pytest.mark.parametrize(
    "values, budget, ceiling",
    [
        ([1.0, 2.0, 3.0], math.nan, 6.0),
        ([1.0, 2.0, 3.0], math.inf, 6.0),
        ([1.0, 2.0, math.nan], 1.0, 6.0),
        ([-math.inf, 2.0, 3.0], 1.0, 6.0),
        ([1.0, 2.0, 3.0], 1.0, math.nan),
        ([1.0, 2.0, 3.0], 1.0, math.inf),
    ],
)
def test_pushes_reject_non_finite_arguments(values, budget, ceiling):
    with pytest.raises(DomainError):
        push_lower(values, budget, ceiling)
    if math.isfinite(ceiling):
        with pytest.raises(DomainError):
            push_upper(values, budget)


def test_equal_weights_on_zero_pairs_is_the_constructor_error():
    with pytest.raises(ValueError, match="non-empty"):
        DiscreteDistribution.equal_weights(np.empty((0, 2)), 6)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_robust_set_rejects_non_finite_radius(eps):
    with pytest.raises(DomainError, match="finite"):
        robust_set(fig_distribution(), 4, eps)


@pytest.mark.parametrize("atol", [math.nan, math.inf, -1.0])
def test_robust_set_rejects_bad_atol(atol):
    # rejected at entry, before the W1 re-verification compares with it
    with pytest.raises(DomainError, match="atol"):
        robust_set(fig_distribution(), 4, 1.0, atol=atol)


@pytest.mark.parametrize("power", [math.nan, math.inf, 0.0, -1.0])
def test_robust_set_rejects_bad_power(power):
    # robust_set reads the power of its distribution, which checks it
    with pytest.raises(DomainError, match="power"):
        robust_set(DiscreteDistribution(FIG_ATOMS, np.full(4, 0.25), 6, power), 4, 1.0)


def _result_fields(result):
    """Every field of a RobustSetResult as plain values, the sets as their bound pair."""
    fields = {"w1_lo": result.w1_lo, "w1_hi": result.w1_hi}
    for name, value in vars(result).items():
        if name == "flex":
            value = (value.nu_lo.tolist(), value.nu_hi.tolist())
        elif name in ("worst_lo", "worst_hi"):
            value = (value.e_lo.tolist(), value.e_hi.tolist())
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        fields[name] = value
    return fields


def test_projection_cache_leaves_robust_sets_unchanged():
    # no projection is kept between calls: two calls give identical fields
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = random_distribution(rng)
        n = int(rng.integers(1, 12))
        eps0 = project_to_n_points(p, n)[1]
        for eps in eps0 + np.array([0.0, 0.3, 1.1, 4.0]):
            first = robust_set(p, n, eps)
            again = robust_set(p, n, eps)
            assert _result_fields(first) == _result_fields(again)


def test_projection_cache_hands_out_copies():
    # each call returns its own writable support
    p = fig_distribution()
    support, cost = project_to_n_points(p, 4)
    kept = support.copy()
    assert support.flags.writeable
    support[:] = -1.0
    again, again_cost = project_to_n_points(p, 4)
    np.testing.assert_array_equal(again, kept)
    assert again_cost == cost and again.flags.writeable
    result = robust_set(p, 4, 1.0)
    assert not np.shares_memory(result.projected_support, again)


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
        robust_set(p, 3, 0.0)


def test_robust_set_saturation_empty():
    p = fig_distribution()
    result = robust_set(p, 4, 50.0)
    assert result.flex.is_empty
    assert result.flex.nu_lo.sum() > result.flex.nu_hi.sum()
    np.testing.assert_allclose(result.flex.nu_hi, 0.0)
    np.testing.assert_allclose(result.flex.nu_lo, 4.0)  # N*m at every step


def test_robust_set_nu_recomputation():
    p = fig_distribution()
    result = robust_set(p, 4, 0.9)
    lo_ref, _ = nu_bounds(result.worst_lo)
    _, hi_ref = nu_bounds(result.worst_hi)
    np.testing.assert_allclose(result.flex.nu_lo, lo_ref)
    np.testing.assert_allclose(result.flex.nu_hi, hi_ref)
    assert abs(result.flex.nu_lo.sum() - result.worst_lo.e_lo.sum()) < 1e-9
    assert abs(result.flex.nu_hi.sum() - result.worst_hi.e_hi.sum()) < 1e-9


def test_robust_set_nonunit_power_short_horizon():
    # the same support works on a 4-step horizon at a 1.5 power rating
    p = DiscreteDistribution(FIG_ATOMS, np.full(4, 0.25), 4, 1.5)
    result = robust_set(p, 4, 1.175)
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
    for _ in range(100):
        p = random_distribution(rng, 5)
        n = int(rng.integers(1, 7))
        _, eps0 = project_to_n_points(p, n)
        eps = eps0 + rng.uniform(0, 3)
        result = robust_set(p, n, eps)
        assert result.w1_lo <= eps + 1e-9
        assert result.w1_hi <= eps + 1e-9


def test_robust_set_prefix_growth():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = random_distribution(rng, 5)
        n = int(rng.integers(1, 6))
        _, eps0 = project_to_n_points(p, n)
        result = robust_set(p, n, eps0 + rng.uniform(0, 2))
        proj = result.projected_support
        from evflex import Population

        proj_pop = Population.from_energy_pairs(proj, p.horizon, p.power)
        proj_lo, proj_hi = nu_bounds(proj_pop)
        assert np.all(
            np.cumsum(result.flex.nu_lo) >= np.cumsum(proj_lo) - 1e-9
        )
        assert np.all(
            np.cumsum(result.flex.nu_hi) <= np.cumsum(proj_hi) + 1e-9
        )


def test_robust_set_nested_in_epsilon():
    p = fig_distribution()
    results = [robust_set(p, 4, eps) for eps in (0.0, 0.2, 0.5, 0.9)]
    for outer, inner in zip(results, results[1:]):
        assert is_nested(inner.flex, outer.flex)


def test_robust_set_repair_is_flagged_and_consistent():
    # pushing the largest lower bounds to the cap forces their e_hi up too
    p = fig_distribution()
    result = robust_set(p, 4, 0.9)
    assert result.repaired_lo >= 1
    pop = result.worst_lo
    assert np.all(pop.e_lo <= pop.e_hi + 1e-12)
    pop = result.worst_hi
    assert np.all(pop.e_lo <= pop.e_hi + 1e-12)


def _certificates(p, result):
    """The triangle bound of each worst case, rebuilt from the arrays."""
    support, proj_cost = project_to_n_points(p, result.projected_support.shape[0])
    upper_order = np.argsort(support[:, 1], kind="stable")
    out = []
    for worst, start in ((result.worst_lo, support), (result.worst_hi, support[upper_order])):
        moved = np.abs(worst.e_lo - start[:, 0]) + np.abs(worst.e_hi - start[:, 1])
        out.append(proj_cost + moved.mean())
    return out


def _exact_w1(p, worst):
    pairs = np.column_stack([worst.e_lo, worst.e_hi])
    return wasserstein1(p, DiscreteDistribution.equal_weights(pairs, worst.horizon, worst.power))


def test_budget_certificate_bounds_exact_w1_and_holds_at_zero_atol():
    # seeded sweep over horizons, atom counts, N, power ratings and radii
    # from the projection cost up to saturation; at atol=0 only the fixed
    # rounding allowance separates the certificate from the radius
    rng = np.random.default_rng(20240817)
    for _ in range(600):
        steps = int(rng.integers(1, 30))
        power = float(rng.choice([0.7, 1.0, 2.5]))
        cap = power * steps
        p = random_distribution(rng, steps, power, max_atoms=8)
        n = int(rng.integers(1, 60))
        eps0 = project_to_n_points(p, n)[1]
        eps = eps0 + (0.0 if rng.random() < 0.2 else rng.uniform(0, cap))
        rng.random()  # one more draw per case keeps the seeded sequence of cases
        result = robust_set(p, n, eps, atol=0.0)
        allowed = eps + 1e-12 + 1e-12 * max(1.0, cap)
        for bound, worst in zip(_certificates(p, result), (result.worst_lo, result.worst_hi)):
            assert bound >= _exact_w1(p, worst) - 1e-12
            assert bound <= allowed


def test_paper_cells_hold_at_zero_atol():
    # every cell of scenarios/concentration_experiment.json, where the
    # certificate of a fully spent budget lands on the radius up to rounding
    p = DiscreteDistribution(
        np.array([[1, 12], [2, 15], [4, 14], [5, 17], [7, 19]]), np.full(5, 0.2), 24
    )
    for n in (5, 10, 20):
        for eps in (0.4, 0.7, 1.0, 1.3, 1.6, 1.9):
            try:
                robust_set(p, n, eps, atol=0.0)
            except BudgetInfeasible:
                assert project_to_n_points(p, n)[1] > eps


def test_lazy_w1_equals_wasserstein1_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = random_distribution(rng)
        n = int(rng.integers(1, 12))
        result = robust_set(p, n, project_to_n_points(p, n)[1] + rng.uniform(0, 3))
        assert result.w1_lo == _exact_w1(p, result.worst_lo)
        assert result.w1_hi == _exact_w1(p, result.worst_hi)


def test_robust_set_solves_no_transport_until_w1_is_read(monkeypatch):
    import evflex.ambiguity as ambiguity

    calls = []
    real = ambiguity.wasserstein1

    def counting(a, b):
        calls.append(b.n_atoms)
        return real(a, b)

    monkeypatch.setattr(ambiguity, "wasserstein1", counting)
    p = fig_distribution()
    result = robust_set(p, 4, 0.9)
    assert calls == [4]  # the projection's own distance
    result.w1_lo, result.w1_hi, result.w1_lo
    assert calls == [4, 4, 4]  # each worst case once, then kept


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_overshooting_push_raises_at_zero_atol(monkeypatch, side):
    # a critical atom moved 1e-6 * cap further than the walk reports is a
    # bookkeeping defect the certificate sees, with no tolerance to hide in
    import evflex.ambiguity as ambiguity

    real = ambiguity._push_walk
    moved = []

    def overshooting(values, partners, budget, target, sign):
        p, q, k, kappa, spent, repaired = real(values, partners, budget, target, sign)
        if sign == side and 0 <= k < p.size:
            p[k] += sign * 1e-6 * 6.0
            moved.append(k)
        return p, q, k, kappa, spent, repaired

    dist = fig_distribution()
    robust_set(dist, 4, 0.9, atol=0.0)  # holds unaltered
    monkeypatch.setattr(ambiguity, "_push_walk", overshooting)
    with pytest.raises(NumericalFailure, match="budget accounting violated"):
        robust_set(dist, 4, 0.9, atol=0.0)
    assert moved


# ROADMAP item 2: a robust set is certified only for its two worst cases, not
# for the whole W1 ball. The multiset of N=5 draws with atom counts [2, 3, 0]
# lies inside the ball, yet the set offers a profile that population cannot
# track: the set's upper total is 22.6175 and the population's 22.5, because
# the projection rounds the 0.153 mass at e_hi=6 up to a whole EV.
BALL_ATOMS = [[1, 4.5], [2, 4.5], [3, 6]]
BALL_WEIGHTS = [0.304, 0.543, 0.153]
BALL_PROFILE = [2.5, 1, 5, 5, 4.1175, 5]


def _ball_counterexample():
    p = DiscreteDistribution(BALL_ATOMS, BALL_WEIGHTS, 6)
    pop = Population.from_energy_pairs(np.repeat(p.atoms, [2, 3, 0], axis=0), 6)
    return p, pop, robust_set(p, 5, 0.49)


def test_ball_counterexample_population_is_in_the_ball():
    p, pop, result = _ball_counterexample()
    sample = DiscreteDistribution.equal_weights(np.column_stack([pop.e_lo, pop.e_hi]), 6)
    distance = wasserstein1(p, sample)
    assert abs(distance - 0.4785) < 1e-12 and distance <= result.epsilon
    assert abs(result.projection_cost - 0.2135) < 1e-12
    assert result.flex.contains_profile(BALL_PROFILE)


@pytest.mark.xfail(
    strict=True, reason="robust sets are not yet ball-sound (ROADMAP item 2)"
)
def test_every_in_ball_population_tracks_the_robust_set():
    _, pop, result = _ball_counterexample()
    assert result.flex.contains_profile(BALL_PROFILE)
    assert contains(pop, BALL_PROFILE)
