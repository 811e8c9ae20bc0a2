import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from evflex import (
    AggregateFlexSet,
    Decomposition,
    DimensionMismatch,
    DomainError,
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

from oracles import flex_distance, flex_member, flex_set_vertices, hull_member


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


def test_sorted_vertices_monotone_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        aset = AggregateFlexSet.from_population(random_population(rng))
        for row in sorted_vertices(aset):
            assert np.all(np.diff(row) <= 1e-12)


def _member_by_flow(pop, u):
    return isinstance(decompose(pop, u), Decomposition)


# "flow" answers membership through the circulation network of decompose,
# "prefix" through the two-vector prefix-sum kernel of contains.
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_profiles_rejected(bad):
    pop = two_ev_pop()
    u = [bad, 1, 1, 1]
    with pytest.raises(DomainError):
        contains(pop, u)
    with pytest.raises(DomainError):
        decompose(pop, u)
    with pytest.raises(DomainError):
        AggregateFlexSet.from_population(pop).contains_profile(u)


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
