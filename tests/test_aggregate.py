import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from evflex import (
    AggregateFlexSet,
    Decomposition,
    DimensionMismatch,
    DomainError,
    EnergyOutOfRange,
    Infeasible,
    NegativeEntry,
    Population,
    batch_contains,
    contains,
    decompose,
    fastest_profile,
    find_subset_violation,
    is_individually_feasible,
    is_nested,
    is_subset_exact,
    is_subset_fast,
    nu_bounds,
    sorted_vertices,
    strong_majorizes,
)

from evflex.aggregate import _check_profile, _fleet, _generating_vectors
from oracles import (
    clip_level,
    flex_distance,
    flex_member,
    flex_set_vertices,
    flow_decompose,
    generating_vectors,
    hull_member,
    mixing_matrix_by_union,
)


def two_ev_pop(horizon=4):
    return Population.from_energy_pairs([(1.5, 2.5), (0.5, 3.5)], horizon, 1.0)


def random_population(rng, horizon=None, n=None, power=1.0):
    horizon = horizon or rng.integers(2, 5)
    n = n or rng.integers(1, 4)
    cap = power * horizon
    lo = rng.uniform(0, cap, size=n)
    hi = lo + rng.uniform(0, cap - lo)
    return Population.from_energy_pairs(np.column_stack([lo, hi]), int(horizon), power)


def test_nu_bounds_examples():
    nu_lo, nu_hi = nu_bounds(two_ev_pop())
    np.testing.assert_allclose(nu_lo, [1.5, 0.5, 0, 0])
    np.testing.assert_allclose(nu_hi, [2, 2, 1.5, 0.5])

    single = Population.from_energy_pairs([(2.0, 2.0)], 4, 1.0)
    nu_lo, nu_hi = nu_bounds(single)
    np.testing.assert_allclose(nu_lo, nu_hi)
    np.testing.assert_allclose(nu_lo, fastest_profile(2.0, 1.0, 4))

    zero = Population.from_energy_pairs([(0, 0), (0, 0)], 3, 1.0)
    nu_lo, nu_hi = nu_bounds(zero)
    assert nu_lo.sum() == nu_hi.sum() == 0


def test_nu_bounds_match_fastest_profile_sums():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pop = random_population(rng)
        nu_lo, nu_hi = nu_bounds(pop)
        ref_lo = sum(fastest_profile(e, pop.power, pop.horizon) for e in pop.e_lo)
        ref_hi = sum(fastest_profile(e, pop.power, pop.horizon) for e in pop.e_hi)
        np.testing.assert_allclose(nu_lo, ref_lo, atol=1e-12)
        np.testing.assert_allclose(nu_hi, ref_hi, atol=1e-12)


def test_sum_identities():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pop = random_population(rng)
        nu_lo, nu_hi = nu_bounds(pop)
        assert abs(nu_lo.sum() - pop.e_lo.sum()) < 1e-9
        assert abs(nu_hi.sum() - pop.e_hi.sum()) < 1e-9


def test_sorted_vertices_examples():
    aset = AggregateFlexSet.from_population(two_ev_pop())
    verts = sorted_vertices(aset)
    np.testing.assert_allclose(verts[0], [1.5, 0.5, 0, 0])
    np.testing.assert_allclose(verts[2], [2, 2, 0, 0])
    np.testing.assert_allclose(verts[4], [2, 2, 1.5, 0.5])


def test_sorted_vertices_match_row_definition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        aset = AggregateFlexSet.from_population(random_population(rng, int(rng.integers(1, 9))))
        rows = sorted_vertices(aset)
        assert rows.shape == (aset.horizon + 1, aset.horizon)
        for t, row in enumerate(rows):
            np.testing.assert_array_equal(row, np.concatenate([aset.nu_hi[:t], aset.nu_lo[t:]]))


def test_sorted_vertices_monotone_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        aset = AggregateFlexSet.from_population(random_population(rng))
        for row in sorted_vertices(aset):
            assert np.all(np.diff(row) <= 1e-12)


def _member_by_flow(pop, u):
    return flow_decompose(pop, u) is not None


# "flow" answers membership through the circulation network of the flow
# oracle, "prefix" through the two-vector prefix-sum kernel of contains.
@pytest.mark.parametrize("member", [_member_by_flow, contains], ids=["flow", "prefix"])
def test_contains_examples(member):
    pop = two_ev_pop()
    assert member(pop, [1.5, 0.5, 0, 0])
    assert not member(pop, [3, 0, 0, 0])
    assert member(pop, [1, 1, 1, 1])
    with pytest.raises(DimensionMismatch):
        member(pop, [1, 1, 1])
    with pytest.raises(NegativeEntry):
        member(pop, [1, 1, 1, -1])


# a non-finite entry is reported before a negative one
@pytest.mark.parametrize(
    "u",
    [[np.nan, 1, 1, 1], [np.inf, 1, 1, 1], [-np.inf, 1, 1, 1],
     [np.nan, -1, 1, 1], [np.inf, -1, 1, 1]],
    ids=["nan", "inf", "-inf", "nan-and-negative", "inf-and-negative"],
)
def test_non_finite_profiles_rejected(u):
    pop = two_ev_pop()
    with pytest.raises(DomainError):
        contains(pop, u)
    with pytest.raises(DomainError):
        decompose(pop, u)
    with pytest.raises(DomainError):
        AggregateFlexSet.from_population(pop).contains_profile(u)


@pytest.mark.parametrize("atol", [np.nan, np.inf, -np.inf, -1.0])
def test_bad_atol_rejected(atol):
    pop = Population([1, 2], [3, 4], 4)
    u = [1, 1, 1, 1]
    with pytest.raises(DomainError):
        contains(pop, u, atol=atol)
    with pytest.raises(DomainError):
        decompose(pop, u, atol=atol)
    with pytest.raises(DomainError):
        AggregateFlexSet.from_population(pop).contains_profile(u, atol=atol)
    with pytest.raises(DomainError):
        batch_contains(pop.e_lo[None], pop.e_hi[None], [u], pop.power, atol=atol)
    aset = AggregateFlexSet.from_population(pop)
    for check in (aset.vertices_are_members, lambda atol: is_nested(aset, aset, atol),
                  lambda atol: is_subset_exact(aset, pop, atol),
                  lambda atol: is_subset_fast(aset, pop, atol)):
        with pytest.raises(DomainError):
            check(atol=atol)
    assert isinstance(decompose(pop, u, atol=0.0), Decomposition)


@pytest.mark.parametrize(
    "bad, error",
    [(np.nan, DomainError), (np.inf, DomainError), (-np.inf, DomainError), (-5.0, NegativeEntry)],
)
def test_batch_contains_checks_profile_rows(bad, error):
    pop = two_ev_pop()
    profiles = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, bad, 1.0, 1.0]])
    with pytest.raises(error):
        batch_contains(pop.e_lo[None], pop.e_hi[None], profiles, pop.power)


def test_batch_contains_checks_shapes():
    pop = two_ev_pop()
    e_lo, e_hi = pop.e_lo[None], pop.e_hi[None]
    for profiles in ([1.0, 1.0, 1.0, 1.0], np.ones((1, 2, 4)), np.ones((2, 0))):
        with pytest.raises(DimensionMismatch):
            batch_contains(e_lo, e_hi, profiles, pop.power)
    with pytest.raises(DimensionMismatch):
        batch_contains(e_lo, e_hi[:, :1], np.ones((1, 4)), pop.power)
    # a negative entry within atol counts as zero, as in contains and decompose
    u = np.array([1.5, 0.5, 0.0, -1e-12])
    assert contains(pop, u)
    assert batch_contains(e_lo, e_hi, u[None], pop.power)[0, 0]
    result = decompose(pop, u)
    assert isinstance(result, Decomposition)
    clipped = np.maximum(u, 0.0)
    np.testing.assert_allclose(result.per_ev.sum(axis=0), clipped, rtol=0, atol=1e-12)
    # the checked profile is a new array: the caller's is never clipped or aliased
    np.testing.assert_array_equal(u, [1.5, 0.5, 0.0, -1e-12])
    for profile in (u, clipped):
        assert not np.shares_memory(_check_profile(profile, (4,), 1e-9), profile)


@pytest.mark.parametrize(
    "m, e_lo, e_hi, error",
    [
        (0.0, 1.0, 2.0, DomainError),
        (-1.0, 1.0, 2.0, DomainError),
        (np.nan, 1.0, 2.0, DomainError),
        (np.inf, 1.0, 2.0, DomainError),
        (1.0, np.nan, 2.0, DomainError),
        (1.0, 1.0, np.inf, DomainError),
        (1.0, -0.5, 2.0, EnergyOutOfRange),
        (1.0, 3.0, 2.0, EnergyOutOfRange),
        (1.0, 1.0, 20.0, EnergyOutOfRange),
        (1.0, 1.0, 6.0 + 1e-9, EnergyOutOfRange),
    ],
)
def test_batch_contains_checks_populations(m, e_lo, e_hi, error):
    # T = 6: the second population breaks the domain a Population enforces
    e_lo_rows = np.array([[0.0, 1.0], [e_lo, 1.0]])
    e_hi_rows = np.array([[6.0, 2.0], [e_hi, 2.0]])
    with pytest.raises(error):
        batch_contains(e_lo_rows, e_hi_rows, np.ones((1, 6)), m)


def test_batch_contains_accepts_the_population_domain():
    # the bounds a Population accepts, cap rounding included, pass unchanged
    e_lo = np.array([[0.0, 6.0], [0.0, 0.0]])
    e_hi = np.array([[6.0 + 1e-13, 6.0], [0.0, 3.0]])
    profiles = np.array([[1.0] * 6, [2.0] * 6, [2.5] * 6])
    got = batch_contains(e_lo, e_hi, profiles, 1.0)
    want = [[contains(Population(lo, hi, 6), u) for u in profiles] for lo, hi in zip(e_lo, e_hi)]
    np.testing.assert_array_equal(got, want)
    assert got.any() and not got.all()
    with pytest.raises(DimensionMismatch):
        batch_contains(np.zeros((1, 0)), np.zeros((1, 0)), np.ones((1, 6)), 1.0)


def test_generating_vectors_equal_clip_sum_on_half_integers():
    # m = 1 and half-integer energies: every partial sum is exact in both forms
    rng = np.random.default_rng(30)
    for horizon in (1, 2, 5, 24):
        energies = rng.integers(0, 2 * horizon + 1, size=(40, 9)) / 2.0
        np.testing.assert_array_equal(
            _generating_vectors(energies, 1.0, horizon), generating_vectors(energies, 1.0, horizon)
        )
        np.testing.assert_array_equal(
            _generating_vectors(energies[0], 1.0, horizon),
            generating_vectors(energies[0], 1.0, horizon),
        )


@pytest.mark.parametrize("power", [0.7, 1.3])
@pytest.mark.parametrize("horizon", [1, 3, 24])
def test_generating_vectors_match_clip_sum(power, horizon):
    rng = np.random.default_rng(31 + horizon)
    n = 12
    cap = power * horizon
    energies = rng.uniform(0.0, cap, size=(60, n))
    # exact step boundaries: zero, whole multiples of m and the full horizon
    ends = power * rng.integers(0, horizon + 1, size=(60, n))
    energies = np.where(rng.random((60, n)) < 0.5, ends, energies)
    energies[:, 0], energies[:, 1] = 0.0, cap
    got = _generating_vectors(energies, power, horizon)
    want = generating_vectors(energies, power, horizon)
    assert got.shape == want.shape == (60, horizon)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * power * n)
    np.testing.assert_allclose(got.sum(axis=1), energies.sum(axis=1), rtol=0, atol=1e-12 * cap * n)


def test_contains_derived_decomposition_case():
    # (1,1,1,1) = (1,1,0,0) + (0,0,1,1): totals 2 and 2 inside both intervals
    pop = two_ev_pop()
    u = np.array([1.0, 1, 1, 1])
    result = decompose(pop, u)
    assert isinstance(result, Decomposition)
    np.testing.assert_allclose(result.per_ev.sum(axis=0), u, atol=1e-9)
    for profile, lo, hi in zip(result.per_ev, pop.e_lo, pop.e_hi):
        assert is_individually_feasible(profile, lo, hi, pop.power)


def test_methods_agree_randomized():
    rng = np.random.default_rng(3)
    for _ in range(300):
        pop = random_population(rng)
        horizon = pop.horizon
        kind = rng.random()
        if kind < 0.4:
            u = rng.uniform(0, pop.n * pop.power, size=horizon)
        elif kind < 0.7:
            verts = sorted_vertices(AggregateFlexSet.from_population(pop))
            lam = rng.dirichlet(np.ones(len(verts)))
            u = lam @ verts
        else:
            verts = sorted_vertices(AggregateFlexSet.from_population(pop))
            u = verts[rng.integers(len(verts))]
        expected = flex_member(pop, u)
        assert contains(pop, u) == expected
        assert isinstance(decompose(pop, u), Decomposition) == expected


def test_own_vertices_are_members():
    rng = np.random.default_rng(4)
    for _ in range(100):
        pop = random_population(rng)
        for vertex in sorted_vertices(AggregateFlexSet.from_population(pop)):
            assert contains(pop, vertex)
            assert flex_member(pop, vertex)


def test_contains_matches_hull_oracle_small():
    rng = np.random.default_rng(5)
    for _ in range(60):
        pop = random_population(rng, horizon=int(rng.integers(2, 4)), n=int(rng.integers(1, 3)))
        nu_lo, nu_hi = nu_bounds(pop)
        verts = flex_set_vertices(nu_lo, nu_hi)
        if rng.random() < 0.5:
            u = rng.dirichlet(np.ones(len(verts))) @ verts
        else:
            u = rng.uniform(0, pop.n * pop.power, size=pop.horizon)
        assert contains(pop, u) == hull_member(verts, u)


def test_contains_permutation_invariance():
    rng = np.random.default_rng(6)
    for _ in range(50):
        pop = random_population(rng)
        u = rng.uniform(0, pop.n * pop.power, size=pop.horizon)
        expected = contains(pop, u)
        assert contains(pop, rng.permutation(u)) == expected


def test_contains_convexity_spot_check():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 30:
        pop = random_population(rng)
        verts = sorted_vertices(AggregateFlexSet.from_population(pop))
        u = rng.dirichlet(np.ones(len(verts))) @ verts
        w = rng.dirichlet(np.ones(len(verts))) @ verts
        assert contains(pop, u) and contains(pop, w)
        lam = rng.uniform()
        assert contains(pop, lam * u + (1 - lam) * w)
        checked += 1


def test_minkowski_additivity_of_populations():
    rng = np.random.default_rng(8)
    for _ in range(30):
        horizon = 3
        p1 = random_population(rng, horizon=horizon)
        p2 = random_population(rng, horizon=horizon)
        v1 = sorted_vertices(AggregateFlexSet.from_population(p1))
        v2 = sorted_vertices(AggregateFlexSet.from_population(p2))
        u1 = rng.dirichlet(np.ones(len(v1))) @ v1
        u2 = rng.dirichlet(np.ones(len(v2))) @ v2
        merged = Population(
            np.concatenate([p1.e_lo, p2.e_lo]), np.concatenate([p1.e_hi, p2.e_hi]), horizon
        )
        assert contains(merged, u1 + u2)


def test_robin_hood_ordering():
    rng = np.random.default_rng(9)
    horizon, power = 6, 1.0
    cap = horizon * power
    for _ in range(300):
        e_i, e_j = np.sort(rng.uniform(0, cap, size=2))
        iota = rng.uniform(0, cap - e_j)
        if iota <= 0:
            continue
        concentrated = fastest_profile(e_i + iota, power, horizon) + fastest_profile(
            e_j, power, horizon
        )
        spread = fastest_profile(e_i, power, horizon) + fastest_profile(
            e_j + iota, power, horizon
        )
        assert strong_majorizes(concentrated, spread)


def test_decompose_infeasible_capacity_cut():
    result = decompose(two_ev_pop(), [3, 0, 0, 0])
    assert isinstance(result, Infeasible)
    assert result.deficient_steps == (1,)
    assert result.shortfall > 0


def test_decompose_infeasible_low_total_has_empty_cut():
    result = decompose(two_ev_pop(), [0.5, 0, 0, 0])  # total below 2.0 minimum
    assert isinstance(result, Infeasible)
    assert result.deficient_steps == ()


def test_decompose_at_lower_generator():
    pop = two_ev_pop()
    nu_lo, _ = nu_bounds(pop)
    result = decompose(pop, nu_lo)
    assert isinstance(result, Decomposition)
    np.testing.assert_allclose(result.per_ev.sum(axis=0), nu_lo, atol=1e-9)
    # totals are forced to the lower energy bounds here
    np.testing.assert_allclose(result.per_ev.sum(axis=1), pop.e_lo, atol=1e-9)
    for profile, lo, hi in zip(result.per_ev, pop.e_lo, pop.e_hi):
        assert is_individually_feasible(profile, lo, hi, pop.power)


def test_decompose_random_feasible_profiles():
    rng = np.random.default_rng(10)
    for _ in range(50):
        pop = random_population(rng)
        verts = sorted_vertices(AggregateFlexSet.from_population(pop))
        u = rng.dirichlet(np.ones(len(verts))) @ verts
        result = decompose(pop, u)
        assert isinstance(result, Decomposition)
        np.testing.assert_allclose(result.per_ev.sum(axis=0), u, atol=1e-9)
        for profile, lo, hi in zip(result.per_ev, pop.e_lo, pop.e_hi):
            assert is_individually_feasible(profile, lo, hi, pop.power, atol=1e-8)


def test_is_subset_exact_identity_and_violation():
    pop = two_ev_pop()
    own = AggregateFlexSet.from_population(pop)
    assert is_subset_exact(own, pop)

    bigger = AggregateFlexSet.from_population(
        Population.from_energy_pairs([(1.5, 4.0), (0.5, 4.0)], 4, 1.0)
    )
    assert not is_subset_exact(bigger, pop)  # upper total 8 > 6
    witness = find_subset_violation(bigger, pop)
    assert witness is not None
    assert not contains(pop, witness)


def test_is_subset_exact_checks_only_sorted_vertices():
    pop = two_ev_pop()
    sub = AggregateFlexSet.from_population(
        Population.from_energy_pairs([(1.6, 2.2), (0.9, 3.0)], 4, 1.0)
    )
    expected = all(contains(pop, v) for v in sorted_vertices(sub))
    assert is_subset_exact(sub, pop) == expected


def test_is_subset_fast_examples():
    pop = two_ev_pop()
    own = AggregateFlexSet.from_population(pop)
    assert is_subset_fast(own, pop)
    bigger = AggregateFlexSet.from_population(
        Population.from_energy_pairs([(1.5, 4.0), (0.5, 4.0)], 4, 1.0)
    )
    assert not is_subset_fast(bigger, pop)


def test_is_subset_fast_dominates_reading_false_positive_case():
    # equal totals, but aset's lower tail sums fall below the population's
    pop = Population.from_energy_pairs([(2, 2), (0, 2)], 2, 1.0)
    aset = AggregateFlexSet.from_population(
        Population.from_energy_pairs([(1, 1), (1, 1)], 2, 1.0)
    )
    assert not is_subset_exact(aset, pop)
    assert not is_subset_fast(aset, pop)


def test_batch_contains_matches_contains():
    rng = np.random.default_rng(11)
    for _ in range(20):
        horizon = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        pops = [random_population(rng, horizon=horizon, n=n) for _ in range(4)]
        e_lo = np.stack([p.e_lo for p in pops])
        e_hi = np.stack([p.e_hi for p in pops])
        profiles = rng.uniform(0, n, size=(6, horizon))
        got = batch_contains(e_lo, e_hi, profiles, 1.0)
        for r, pop in enumerate(pops):
            for v in range(profiles.shape[0]):
                assert got[r, v] == contains(pop, profiles[v])
                assert got[r, v] == flex_member(pop, profiles[v])


def test_is_nested_basics():
    pop = two_ev_pop()
    own = AggregateFlexSet.from_population(pop)
    inner = AggregateFlexSet.from_population(
        Population.from_energy_pairs([(1.8, 2.2), (1.0, 3.0)], 4, 1.0)
    )
    assert is_nested(inner, own) == all(
        own.contains_profile(v) for v in sorted_vertices(inner)
    )
    assert is_nested(own, own)


def test_empty_set_membership_and_subset():
    lo_pop = Population.from_energy_pairs([(4.0, 4.0)], 4, 1.0)
    hi_pop = Population.from_energy_pairs([(0.0, 1.0)], 4, 1.0)
    aset = AggregateFlexSet.from_bound_populations(lo_pop, hi_pop)
    assert aset.is_empty
    assert not aset.contains_profile([1, 1, 1, 1])
    assert is_subset_exact(aset, two_ev_pop())  # empty set is trivially contained


def test_mismatched_set_and_population():
    aset = AggregateFlexSet.from_population(two_ev_pop())
    with pytest.raises(DimensionMismatch):
        is_subset_exact(aset, Population.from_energy_pairs([(0.5, 1.0)], 5, 1.0))
    with pytest.raises(DimensionMismatch):
        is_subset_exact(aset, Population.from_energy_pairs([(0.5, 1.0)], 4, 2.0))


def test_single_population_sets_have_member_vertices():
    rng = np.random.default_rng(12)
    for _ in range(50):
        aset = AggregateFlexSet.from_population(random_population(rng))
        assert aset.vertices_are_members()


def test_prefix_consistent_robust_set_can_have_outside_vertices():
    # Prefix sums of nu_lo below nu_hi's do not make the vertex test exact:
    # a splice vertex of this robust set lies outside the lower worst case's
    # set, so is_subset_exact wrongly rejects a worst case that contains it,
    # while the bound-vector comparison of is_subset_fast accepts it.
    from evflex import DiscreteDistribution, TimeGrid, robust_set

    atoms = [[0.3, 2.7], [3.2, 3.4], [2.7, 3.1], [2.0, 3.0]]
    p = DiscreteDistribution(np.array(atoms), np.full(4, 0.25), 4.0)
    result = robust_set(p, 4, 0.14, TimeGrid(4), 1.0)
    aset = result.flex
    assert not aset.is_empty
    assert np.all(np.cumsum(aset.nu_lo) <= np.cumsum(aset.nu_hi))
    assert not aset.vertices_are_members()
    for gen in (result.worst_lo, result.worst_hi):
        assert is_subset_fast(aset, gen)
    gen = result.worst_lo
    outside = find_subset_violation(aset, gen)
    assert outside is not None
    assert flex_distance(gen.e_lo, gen.e_hi, gen.power, outside) > 0.05


def test_vertex_certificate_conservative_on_inconsistent_sets():
    # Intersection sets can lose the product-form identity (splice vertices
    # are no longer members of the set); the vertex-based subset test must
    # then stay conservative: whenever it certifies containment, every true
    # member (conjunction of the two worst cases) is contained as well.
    from evflex import DiscreteDistribution, TimeGrid, project_to_n_points, robust_set

    rng = np.random.default_rng(99)
    grid = TimeGrid(8)
    cap = 8.0
    inconsistent = 0
    certified = 0
    escapes = 0
    trials = 0
    while inconsistent < 25 and trials < 2000:
        trials += 1
        k = int(rng.integers(1, 5))
        lo = rng.uniform(1.0, 2.5, size=k)
        hi = lo + rng.uniform(2.0, 4.5, size=k)
        p = DiscreteDistribution(
            np.column_stack([lo, hi]), rng.dirichlet(np.ones(k)), cap
        )
        n = int(rng.integers(2, 5))
        _, eps0 = project_to_n_points(p, n)
        result = robust_set(p, n, eps0 + rng.uniform(0.5, 2.2), grid, 1.0)
        aset = result.flex
        if aset.is_empty or aset.vertices_are_members():
            continue
        inconsistent += 1
        idx = rng.choice(k, size=n, p=p.weights)
        pop = Population.from_energy_pairs(p.atoms[idx], 8, 1.0)
        exact = is_subset_exact(aset, pop)
        assert exact == flex_member(pop, sorted_vertices(aset)).all()
        if not exact:
            continue
        certified += 1
        points = rng.uniform(0, n, size=(1500, 8)) * rng.random((1500, 1)) ** 0.5
        lo, hi = result.worst_lo, result.worst_hi
        in_lo = batch_contains(lo.e_lo[None], lo.e_hi[None], points, 1.0)[0]
        in_hi = batch_contains(hi.e_lo[None], hi.e_hi[None], points, 1.0)[0]
        members = points[in_lo & in_hi]
        if len(members):
            in_pop = batch_contains(pop.e_lo[None], pop.e_hi[None], members, 1.0)[0]
            escapes += int((~in_pop).sum())
    assert inconsistent >= 25
    assert certified >= 5
    assert escapes == 0


def _paramodular_pair(pop):
    """p(k) = sum_i min(mk, e_hi[i]) and b(k) = sum_i max(0, e_lo[i] - m(T-k)), k = 0..T."""
    nu_lo, nu_hi = nu_bounds(pop)
    return (
        np.concatenate([[0.0], np.cumsum(nu_hi)]),
        np.concatenate([[0.0], np.cumsum(nu_lo[::-1])]),
    )


def test_robust_set_pair_is_intersection_of_worst_cases():
    # The set's own pair (nu_lo of L, nu_hi of U) answers membership exactly
    # like the conjunction over the two worst-case populations, also on
    # sets whose splice vertices leave the set. The worst cases' atoms are
    # summed in different orders, hence the 1e-12 on the dominance checks.
    from evflex import DiscreteDistribution, TimeGrid, project_to_n_points, robust_set

    rng = np.random.default_rng(2024)
    outside_vertices = 0
    probes = 0
    sets = 0
    while outside_vertices < 25 and sets < 3000:
        horizon = int(rng.integers(1, 7))
        power = float(rng.choice([0.7, 1.0, 1.5]))
        cap = power * horizon
        k = int(rng.integers(1, 6))
        lo = rng.uniform(0, cap, size=k)
        hi = lo + rng.uniform(0, cap - lo)
        dist = DiscreteDistribution(np.column_stack([lo, hi]), rng.dirichlet(np.ones(k)), cap)
        n = int(rng.integers(1, 9))
        _, eps0 = project_to_n_points(dist, n)
        eps = eps0 + rng.uniform(0, 0.5 * cap) * rng.random()
        result = robust_set(dist, n, eps, TimeGrid(horizon), power)
        aset, low, high = result.flex, result.worst_lo, result.worst_hi
        if aset.is_empty:
            continue
        sets += 1
        outside_vertices += not aset.vertices_are_members()
        p_low, b_low = _paramodular_pair(low)
        p_high, b_high = _paramodular_pair(high)
        assert np.all(p_high <= p_low + 1e-12)
        assert np.all(b_low >= b_high - 1e-12)

        vertices = np.vstack(
            [sorted_vertices(s) for s in (aset, *map(AggregateFlexSet.from_population, (low, high)))]
        )
        mixtures = rng.dirichlet(np.ones(len(vertices)), size=10) @ vertices
        shuffled = rng.permuted(np.vstack([vertices, mixtures]), axis=1)
        bumped = shuffled + rng.normal(0, 0.05 * power, size=shuffled.shape)
        for u in np.clip(np.vstack([vertices, mixtures, shuffled, bumped]), 0.0, None):
            expected = contains(low, u) and contains(high, u)
            assert aset.contains_profile(u) == expected
            probes += 1
    assert outside_vertices >= 25
    assert probes > 1000


# Boundary tolerance of the agreement tests below, fixed before the cases:
# the library decides with atol = 1e-9 on every prefix-sum constraint, and
# the LP oracle measures the L-infinity distance to the set. An instance at
# distance <= MEMBER_DIST is a member, one at distance >= OUTSIDE_DIST is
# not; anything in between depends on the tolerance and is discarded.
MEMBER_DIST = 1e-12
OUTSIDE_DIST = 1e-6

fraction = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def energy_pairs(draw, n, horizon, power):
    """n (e_lo, e_hi) pairs, covering e_lo = e_hi and e_hi = m*T throughout."""
    cap = power * horizon
    mode = draw(st.sampled_from(["mixed", "tight", "full"]))
    pairs = []
    for _ in range(n):
        lo = draw(fraction) * cap
        hi = lo + draw(fraction) * (cap - lo)
        pairs.append((lo, lo if mode == "tight" else cap if mode == "full" else hi))
    return pairs


@st.composite
def probe_profile(draw, vertices):
    """A convex combination of permuted vertices, or a point near or far from it."""
    rows, horizon = vertices.shape
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows)))
    if weights.sum() == 0:
        weights[0] = 1.0
    vertex_mix = weights / weights.sum() @ vertices
    u = vertex_mix[draw(st.permutations(range(horizon)))]
    kind = draw(st.sampled_from(["inside", "scaled", "bumped", "uniform"]))
    if kind == "scaled":
        u = u * (1.0 + draw(st.floats(-0.2, 0.2)))
    elif kind == "bumped":
        u = u.copy()
        u[draw(st.integers(0, horizon - 1))] += draw(st.floats(-0.5, 0.5))
    elif kind == "uniform":
        top = max(float(vertices.max()), 1.0)
        u = np.array(draw(st.lists(st.floats(0.0, top), min_size=horizon, max_size=horizon)))
    return np.clip(u, 0.0, None)


def lp_verdict(pop, u):
    distance = flex_distance(pop.e_lo, pop.e_hi, pop.power, u)
    assume(distance <= MEMBER_DIST or distance >= OUTSIDE_DIST)
    event("member" if distance <= MEMBER_DIST else "outside")
    return distance <= MEMBER_DIST


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_membership_routes_agree_with_lp_oracle(data):
    horizon = data.draw(st.integers(1, 5), label="T")
    n = data.draw(st.integers(1, 4), label="N")
    power = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="m")
    pop = Population.from_energy_pairs(
        data.draw(energy_pairs(n, horizon, power), label="pairs"), horizon, power
    )
    u = data.draw(probe_profile(sorted_vertices(AggregateFlexSet.from_population(pop))))
    expected = lp_verdict(pop, u)
    assert contains(pop, u) == expected
    assert batch_contains(pop.e_lo[None], pop.e_hi[None], u[None], power)[0, 0] == expected
    assert isinstance(decompose(pop, u), Decomposition) == expected
    assert AggregateFlexSet.from_population(pop).contains_profile(u) == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_robust_set_membership_agrees_with_lp_oracle(data):
    from evflex import DiscreteDistribution, TimeGrid, project_to_n_points, robust_set

    horizon = data.draw(st.integers(1, 5), label="T")
    atoms = data.draw(energy_pairs(data.draw(st.integers(1, 3)), horizon, 1.0), label="atoms")
    weights = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(atoms), max_size=len(atoms))))
    dist = DiscreteDistribution(np.array(atoms), weights / weights.sum(), float(horizon))
    n = data.draw(st.integers(1, 4), label="N")
    _, eps0 = project_to_n_points(dist, n)
    result = robust_set(dist, n, eps0 + data.draw(st.floats(0.0, 2.0)), TimeGrid(horizon), 1.0)
    aset = result.flex
    u = data.draw(probe_profile(sorted_vertices(aset)))
    expected = lp_verdict(result.worst_lo, u) & lp_verdict(result.worst_hi, u)
    assert aset.contains_profile(u) == expected


def assert_valid_decompose_result(pop, u, result, tol=1e-9):
    """A witness has entries in [0, m], columns summing to u and totals in
    [e_lo, e_hi]; an Infeasible cut S has u(S) > min(p(|S|), E - b(T - |S|)),
    with p the prefix sums of nu_hi and b the tail sums of nu_lo, exceeded by
    exactly its shortfall."""
    if isinstance(result, Decomposition):
        x = result.per_ev
        assert x.shape == (pop.n, pop.horizon)
        assert x.min() >= -tol and x.max() <= pop.power + tol
        assert np.max(np.abs(x.sum(axis=0) - u)) <= tol
        totals = x.sum(axis=1)
        assert np.all(totals >= pop.e_lo - tol) and np.all(totals <= pop.e_hi + tol)
        return
    assert isinstance(result, Infeasible)
    steps = list(result.deficient_steps)
    assert steps == sorted(set(steps)) and all(1 <= t <= pop.horizon for t in steps)
    nu_lo, nu_hi = nu_bounds(pop)
    k = len(steps)
    cap = min(nu_hi[:k].sum(), u.sum() - nu_lo[k:].sum())
    violation = u[np.array(steps, dtype=int) - 1].sum() - cap
    assert violation > 0
    assert result.shortfall == pytest.approx(violation, rel=0, abs=1e-10)


def check_decompose_against_oracles(pop, u, expected):
    result = decompose(pop, u)
    assert isinstance(result, Decomposition) == expected
    assert (flow_decompose(pop, u) is not None) == expected
    assert_valid_decompose_result(pop, u, result)
    return result


def test_decompose_agrees_with_flow_and_lp_oracles():
    rng = np.random.default_rng(11)
    seen = {"T=1": 0, "N=1": 0, "tight": 0, "full": 0, "zero step": 0,
            "member": 0, "empty cut": 0, "cut": 0}
    while min(seen.values()) < 15:
        horizon, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        power = float(rng.choice([0.5, 1.0, 1.5]))
        cap = power * horizon
        lo = rng.uniform(0, cap, n) * (rng.random(n) < 0.8)
        hi = lo + rng.uniform(0, cap - lo)
        mode = rng.choice(["mixed", "tight", "full"])
        hi = lo.copy() if mode == "tight" else np.full(n, cap) if mode == "full" else hi
        pop = Population(lo, hi, horizon, power)
        rows = sorted_vertices(AggregateFlexSet.from_population(pop))
        kind = rng.integers(4)
        if kind == 0:
            u = rows[rng.integers(len(rows))][rng.permutation(horizon)]
        elif kind == 1:
            u = rng.dirichlet(np.ones(len(rows))) @ rows[:, rng.permutation(horizon)]
        elif kind == 2:
            u = rows[rng.integers(len(rows))][rng.permutation(horizon)] * rng.uniform(0.8, 1.2)
        else:
            u = rng.uniform(0, n * power, size=horizon)
        if rng.random() < 0.3:
            u[rng.integers(horizon)] = 0.0
        distance = flex_distance(pop.e_lo, pop.e_hi, pop.power, u)
        if MEMBER_DIST < distance < OUTSIDE_DIST:
            continue
        result = check_decompose_against_oracles(pop, u, distance <= MEMBER_DIST)
        seen["T=1"] += horizon == 1
        seen["N=1"] += n == 1
        seen["tight"] += mode == "tight"
        seen["full"] += mode == "full"
        seen["zero step"] += bool(np.any(u == 0.0))
        if isinstance(result, Decomposition):
            seen["member"] += 1
        else:
            seen["cut" if result.deficient_steps else "empty cut"] += 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_decompose_witnesses_agree_with_oracles(data):
    horizon = data.draw(st.integers(1, 5), label="T")
    n = data.draw(st.integers(1, 4), label="N")
    power = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="m")
    pop = Population.from_energy_pairs(
        data.draw(energy_pairs(n, horizon, power), label="pairs"), horizon, power
    )
    u = data.draw(probe_profile(sorted_vertices(AggregateFlexSet.from_population(pop))))
    if data.draw(st.booleans(), label="zero step"):
        u[data.draw(st.integers(0, horizon - 1))] = 0.0
    result = check_decompose_against_oracles(pop, u, lp_verdict(pop, u))
    event(type(result).__name__)


def member_probes(pop, rng, count):
    """Profiles near pop's set: permuted vertex rows (the generators too), rows
    scaled by 1 +- 1e-11, mixtures of permuted rows, some with a zeroed step."""
    horizon = pop.horizon
    rows = sorted_vertices(AggregateFlexSet.from_population(pop))
    # the generators, and the generators scaled into the set
    probes = [row[rng.permutation(horizon)] for row in
              (rows[0], rows[-1], rows[0] * (1 + 1e-11), rows[-1] * (1 - 1e-11))]
    while len(probes) < count:
        kind = rng.integers(3)
        if kind == 2:
            picks = rows[rng.integers(0, horizon + 1, 3)]
            u = rng.dirichlet(np.ones(3)) @ np.array([row[rng.permutation(horizon)] for row in picks])
        else:
            u = rows[rng.integers(horizon + 1)][rng.permutation(horizon)]
            u = u * (1.0 + (1e-11 if kind else -1e-11))
        if rng.random() < 0.2:
            u[rng.integers(horizon)] = 0.0
        probes.append(u)
    return probes


def probe_population(rng, n, horizon, power=1.0):
    """Random energies; one population in three has integral ones, so that its
    fastest-charge profiles, vertex rows and their sums tie."""
    pop = random_population(rng, horizon, n, power)
    if rng.random() < 1 / 3:
        lo, hi = np.round(pop.e_lo), np.round(pop.e_hi)
        pop = Population(lo, np.maximum(lo, hi), horizon, power)
    return pop


def criterion_excess(pop, u):
    """How far u breaks the two-vector criterion; 0 inside the set."""
    nu_lo, nu_hi = nu_bounds(pop)
    tail = np.append(np.cumsum(nu_lo[::-1])[-2::-1], 0.0)  # sum_{t>k} nu_lo[t]
    caps = np.minimum(np.cumsum(nu_hi), u.sum() - tail)
    top = np.cumsum(np.sort(u)[::-1])
    return max(0.0, np.max(top - caps), nu_lo.sum() - u.sum())


def test_mixing_matrix_is_symmetric_doubly_stochastic():
    from evflex.aggregate import _fleet, _generating_vectors, _mixing_matrix

    def check(nu, target, tol):
        mix = _mixing_matrix(nu, target)
        np.testing.assert_array_equal(mix, mixing_matrix_by_union(nu, target))
        assert mix.min() >= 0.0
        np.testing.assert_array_equal(mix, mix.T)
        np.testing.assert_allclose(mix.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mix @ nu, target, rtol=0, atol=tol)

    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(300):
        horizon, n = int(rng.integers(1, 12)), int(rng.integers(1, 8))
        power = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        pop = probe_population(rng, n, horizon, power)
        for u in member_probes(pop, rng, 6):
            if not contains(pop, u):
                continue
            energies = _fleet(pop).balanced_energies(u.sum())
            nu = _generating_vectors(energies, power, horizon)
            # a member may lie up to atol outside the set, and D @ nu may
            # then miss the target by that much, besides rounding noise
            check(nu, np.sort(u)[::-1], criterion_excess(pop, u) + 1e-10)
            checked += 1
    assert checked > 1000
    # integer lattice: nu from target by unit moves to larger entries, so nu
    # majorizes target and the excess and deficit curves share ends
    shared = 0
    for _ in range(300):
        target = np.sort(rng.integers(0, 4, int(rng.integers(2, 9))))[::-1].astype(float)
        nu = target.copy()
        for _ in range(int(rng.integers(1, 6))):
            i, j = np.sort(rng.choice(nu.size, 2, replace=False))
            if nu[j] >= 1:
                nu[i] += 1
                nu[j] -= 1
                nu = np.sort(nu)[::-1]
        check(nu, target, 1e-12)
        d = nu - target
        reach_ex, reach_de = np.cumsum(np.maximum(d, 0)), np.cumsum(np.maximum(-d, 0))
        common = np.intersect1d(reach_ex, reach_de)
        shared += np.any((common > 0) & (common < reach_ex[-1]))
    assert shared > 40


@pytest.mark.parametrize("n, horizon", [(10, 24), (50, 24), (200, 24), (50, 96), (200, 96),
                                        (10, 96), (1, 24), (50, 1), (1, 1)])
def test_decompose_witnesses_at_dispatch_sizes(n, horizon):
    rng = np.random.default_rng(13 + n * horizon)
    members = 0
    for _ in range(4):
        pop = probe_population(rng, n, horizon)
        for u in member_probes(pop, rng, 30):
            result = decompose(pop, u)
            assert isinstance(result, Decomposition) == contains(pop, u)
            # a member may lie up to atol outside the set; the witness may
            # miss u by that much, and by rounding noise
            assert_valid_decompose_result(pop, u, result, tol=criterion_excess(pop, u) + 1e-10)
            members += isinstance(result, Decomposition)
    assert members >= 30


# ---------------------------------------------------------------------------
# the per-population cache


def _answer(result):
    """A query's answer as comparable data, down to the bits of floats."""
    if isinstance(result, Decomposition):
        return ("split", result.per_ev.tobytes())
    if isinstance(result, Infeasible):
        return ("cut", result.deficient_steps, result.shortfall.hex())
    return ("verdict", result)


def cache_probes(pop, rng, count):
    """Members and near members, and profiles 5% above or below them."""
    probes = []
    for u in member_probes(pop, rng, count):
        probes += [u, u * 1.05, u * 0.95]
    return probes


def test_reused_populations_answer_like_fresh_copies():
    rng = np.random.default_rng(21)
    pops = [probe_population(rng, int(rng.integers(1, 30)), int(rng.integers(1, 25)))
            for _ in range(6)]
    queries = [(pop, u) for pop in pops for u in cache_probes(pop, rng, 15)]
    kinds = set()
    for j in rng.permutation(len(queries)):  # interleaves the populations
        pop, u = queries[j]
        fresh = Population(pop.e_lo, pop.e_hi, pop.horizon, pop.power)
        steps = [contains, decompose] if j % 2 else [decompose, contains]
        for query in steps:
            answer = _answer(query(pop, u))
            assert answer == _answer(query(fresh, u))
            kinds.add(answer[0] if query is decompose else answer)
    assert kinds == {"split", "cut", ("verdict", True), ("verdict", False)}


def test_nu_bounds_are_read_only():
    pop = two_ev_pop()
    for vec in nu_bounds(pop):
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 0.0
    np.testing.assert_array_equal(nu_bounds(pop)[0], [1.5, 0.5, 0, 0])


def test_prepared_data_does_not_keep_population_alive():
    pop = two_ev_pop()
    assert contains(pop, [1, 1, 1, 1])
    assert isinstance(decompose(pop, [1, 1, 1, 1]), Decomposition)
    aset = AggregateFlexSet.from_population(pop)
    ref = weakref.ref(pop)
    del pop
    gc.collect()
    assert ref() is None
    assert aset.contains_profile([1, 1, 1, 1])


def test_threads_share_a_fresh_population():
    rng = np.random.default_rng(22)
    first = probe_population(rng, 50, 24)
    probes = cache_probes(Population(first.e_lo, first.e_hi, 24), rng, 30)
    expected = [(_answer(contains(first, u)), _answer(decompose(first, u))) for u in probes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the first preparation too
    try:
        for _ in range(5):
            pop = Population(first.e_lo, first.e_hi, 24)  # no query has seen it yet
            barrier = threading.Barrier(4)
            results = [None] * 4

            def work(slot):
                barrier.wait()
                results[slot] = [(_answer(contains(pop, u)), _answer(decompose(pop, u)))
                                 for u in probes]

            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


@st.composite
def split_instance(draw):
    """Energy intervals and a total: ties, e_lo = e_hi, totals past either end."""
    horizon = draw(st.integers(1, 6), label="T")
    n = draw(st.integers(1, 6), label="N")
    if draw(st.booleans(), label="integral"):
        value = st.integers(0, horizon).map(float)  # ties among the bounds
    else:
        value = st.floats(0.0, float(horizon))
    pairs = [sorted(draw(st.tuples(value, value))) for _ in range(n)]
    lo, hi = np.array(pairs).T
    if draw(st.booleans(), label="some tight"):
        tight = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        hi = np.where(tight, lo, hi)
    where = draw(st.sampled_from(["below", "inside", "level", "above"]), label="total")
    if where == "below":
        total = lo.sum() - draw(st.floats(0.0, 5.0))
    elif where == "above":
        total = hi.sum() + draw(st.floats(0.0, 5.0))
    elif where == "level":  # the sum at one of the bounds
        point = draw(st.sampled_from(sorted({*lo, *hi})))
        total = np.clip(point, lo, hi).sum()
    else:
        total = lo.sum() + draw(st.floats(0.0, 1.0)) * (hi.sum() - lo.sum())
    event(where)
    return Population(lo, hi, horizon), float(total)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(split_instance())
def test_balanced_split_table_matches_level_search(instance):
    pop, total = instance
    energies = _fleet(pop).balanced_energies(total)
    scale = max(1.0, pop.e_hi.sum())
    assert np.all(energies >= pop.e_lo) and np.all(energies <= pop.e_hi)
    reached = min(max(total, pop.e_lo.sum()), pop.e_hi.sum())
    assert abs(energies.sum() - reached) <= 1e-9 * scale
    reference = np.clip(clip_level(np.sort(pop.e_lo), np.sort(pop.e_hi), total), pop.e_lo, pop.e_hi)
    np.testing.assert_allclose(energies, reference, rtol=0, atol=1e-9 * scale)
