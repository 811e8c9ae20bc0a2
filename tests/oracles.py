"""Independent reference computations used by the test suite.

Everything here deliberately avoids the library's own code paths: hull
membership is an LP over explicitly enumerated vertices, transport costs
come from scipy's LP solver, 1-D distances from the CDF integral,
flow decomposition from a circulation network that the runtime no longer
builds, the mixing matrix of a decomposition from a np.union1d merge of
its breakpoints, the balanced-split level from a per-call breakpoint search,
generating vectors from a sum of explicit fastest-charge profiles,
sampling probabilities from an enumeration of every multiset, the
N-point projection from a walk over atom pieces, one chunk at a time, and
the grouping of drawn count rows from a lexsort over every atom column.
"""

from itertools import combinations, permutations

import numpy as np
from scipy.optimize import linprog
from scipy.special import gammaln

from evflex import DimensionMismatch, DiscreteDistribution, NegativeEntry, wasserstein1
from evflex.flows import feasible_circulation


def hull_distance(points, x):
    """Smallest L-infinity distance from x to the convex hull of points."""
    pts = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    n, dim = pts.shape
    # variables: lambda (n), t
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * dim, n + 1))
    a_ub[:dim, :n] = pts.T
    a_ub[:dim, -1] = -1.0
    a_ub[dim:, :n] = -pts.T
    a_ub[dim:, -1] = -1.0
    b_ub = np.concatenate([x, -x])
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(0, None)],
        method="highs",
    )
    assert res.status == 0, f"hull LP failed: {res.message}"
    return float(res.fun)


def hull_member(points, x, tol=1e-9):
    return hull_distance(points, x) <= tol


def permutahedron_vertices(v):
    """All coordinate permutations of v, deduplicated."""
    return np.array(sorted({tuple(p) for p in permutations(tuple(float(a) for a in v))}))


def flex_set_vertices(nu_lo, nu_hi):
    """All permutations of every sorted splice vertex, deduplicated."""
    nu_lo = np.asarray(nu_lo, dtype=float)
    nu_hi = np.asarray(nu_hi, dtype=float)
    horizon = nu_lo.shape[0]
    seen = set()
    for t in range(horizon + 1):
        base = tuple(np.concatenate([nu_hi[:t], nu_lo[t:]]))
        seen.update(permutations(base))
    return np.array(sorted(seen))


def transport_lp(p_weights, q_weights, cost):
    """Optimal transport value via scipy's LP solver."""
    p_weights = np.asarray(p_weights, dtype=float)
    q_weights = np.asarray(q_weights, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    a_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(m):
        row = np.zeros((n, m))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
    a_eq = np.array(a_eq)[:-1]  # drop one redundant balance row
    b_eq = np.concatenate([p_weights, q_weights])[:-1]
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    assert res.status == 0, f"transport LP failed: {res.message}"
    return float(res.fun)


def w1_1d(values_p, weights_p, values_q, weights_q):
    """1-D Wasserstein-1 distance via the CDF-difference integral."""
    grid = np.unique(np.concatenate([values_p, values_q]))
    cdf_p = np.array([np.sum(weights_p * (values_p <= g)) for g in grid])
    cdf_q = np.array([np.sum(weights_q * (values_q <= g)) for g in grid])
    return float(np.sum(np.abs(cdf_p - cdf_q)[:-1] * np.diff(grid)))


def best_equal_weight_quantization_1d(values, weights, n, candidates):
    """Brute-force optimal equal-weight n-point 1-D quantization cost."""
    from itertools import combinations_with_replacement

    best = np.inf
    q_weights = np.full(n, 1.0 / n)
    for support in combinations_with_replacement(candidates, n):
        cost = w1_1d(np.asarray(values, float), np.asarray(weights, float),
                     np.asarray(support, float), q_weights)
        best = min(best, cost)
    return best


def clip_level(lo, hi, target):
    """A level lam with sum(clip(lam, lo, hi)) = target; lo <= hi, each sorted.

    The reference for the balanced split of decompose(), searched per call:
    the sum is piecewise linear and non-decreasing in lam with breakpoints
    at the 2N bounds. It is read off sorted prefix sums at every breakpoint
    and is linear between the largest breakpoint where it is <= target and
    the smallest one where it is above; outside [sum(lo), sum(hi)] the
    nearest end is returned.
    """
    points = np.concatenate([lo, hi])
    below_lo = np.searchsorted(lo, points)  # bounds lo_i < point
    below_hi = np.searchsorted(hi, points)
    lo_sums = np.concatenate([[0.0], np.cumsum(lo)])
    hi_sums = np.concatenate([[0.0], np.cumsum(hi)])
    # sum(lo) + sum_i max(point - lo_i, 0) - sum_i max(point - hi_i, 0)
    level = lo_sums[-1] + points * (below_lo - below_hi) - lo_sums[below_lo] + hi_sums[below_hi]
    under = level <= target
    a = np.argmax(np.where(under, points, -np.inf))
    b = np.argmin(np.where(under, np.inf, points))
    if not under[a]:  # target below sum(lo)
        return points[b]
    if under[b]:  # target at or above sum(hi)
        return points[a]
    return points[a] + (target - level[a]) / (level[b] - level[a]) * (points[b] - points[a])


def generating_vectors(energies, power, horizon):
    """Sums of fastest-charge profiles clip(e - m*k, 0, m) over the N axis.

    The reference for the runtime's histogram form: it builds the whole
    (..., N, T) array of per-EV profiles and adds it up.
    """
    energies = np.asarray(energies, dtype=float)
    steps = power * np.arange(horizon, dtype=float)
    return (energies[..., None] - steps).clip(0.0, power).sum(axis=-2)


def flex_distance(e_lo, e_hi, power, u):
    """L-infinity distance from u to a population's aggregate set, by LP.

    Variables are the per-EV profiles x_{i,t} in [0, power] with per-EV
    totals in [e_lo_i, e_hi_i], plus a slack s bounding |sum_i x_{i,t} - u_t|
    for every t; the optimum of min s is the distance. u may be one profile
    or a (V, T) stack: the stack is solved as one block-diagonal LP whose
    optimal slacks are the V distances. Solver feasibility tolerances are
    tightened so that boundary members read as 0 to within about 1e-12.
    """
    e_lo = np.asarray(e_lo, dtype=float)
    e_hi = np.asarray(e_hi, dtype=float)
    profiles = np.atleast_2d(np.asarray(u, dtype=float))
    count, horizon = profiles.shape
    n = e_lo.shape[0]
    # one block: x (n*horizon, EV-major) then s; rows are the two energy
    # bounds per EV, then sum_i x_{i,t} - s <= u_t and -sum_i x_{i,t} - s <= -u_t
    per_ev = np.kron(np.eye(n), np.ones(horizon))
    per_step = np.tile(np.eye(horizon), n)
    slack = -np.ones((horizon, 1))
    block = np.block(
        [
            [per_ev, np.zeros((n, 1))],
            [-per_ev, np.zeros((n, 1))],
            [per_step, slack],
            [-per_step, slack],
        ]
    )
    rhs = np.column_stack(
        [np.tile(e_hi, (count, 1)), np.tile(-e_lo, (count, 1)), profiles, -profiles]
    )
    width = n * horizon + 1
    c = np.zeros(count * width)
    c[width - 1 :: width] = 1.0
    res = linprog(
        c,
        A_ub=np.kron(np.eye(count), block),
        b_ub=rhs.ravel(),
        bounds=([(0.0, power)] * (n * horizon) + [(0.0, None)]) * count,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, f"membership LP failed: {res.message}"
    distances = np.maximum(res.x[width - 1 :: width], 0.0)
    return distances if np.ndim(u) == 2 else float(distances[0])


def flex_member(pop, u, tol=1e-9):
    """LP membership oracle: u (or each row of a stack) is within tol
    (L-infinity) of pop's aggregate set."""
    return flex_distance(pop.e_lo, pop.e_hi, pop.power, u) <= tol


def _membership_network(pop, u):
    """Nodes: 0 source, 1..N EVs, N+1..N+T steps, N+T+1 sink.

    Source -> EV arcs carry the energy interval, EV -> step arcs are capped
    at the power rating, and step -> sink arcs are pinned to the profile.
    """
    n, horizon, m = pop.n, pop.horizon, pop.power
    src, snk = 0, n + horizon + 1
    arcs = []
    for i in range(n):
        arcs.append((src, 1 + i, float(pop.e_lo[i]), float(pop.e_hi[i])))
    for i in range(n):
        for t in range(horizon):
            arcs.append((1 + i, 1 + n + t, 0.0, m))
    for t in range(horizon):
        arcs.append((1 + n + t, snk, float(u[t]), float(u[t])))
    big = float(pop.e_hi.sum() + u.sum() + 1.0)
    arcs.append((snk, src, 0.0, big))
    return n + horizon + 2, arcs


def flow_decompose(pop, u, atol=1e-9):
    """Per-EV profiles (N, T) from a feasible transportation circulation,
    or None when the circulation is infeasible. Raises the library's
    DimensionMismatch/NegativeEntry on a malformed profile."""
    u = np.asarray(u, dtype=float)
    if u.shape != (pop.horizon,):
        raise DimensionMismatch(f"profile length {u.shape} != horizon {pop.horizon}")
    if np.any(u < -atol):
        raise NegativeEntry("aggregate profile has a negative entry")
    u = np.clip(u, 0.0, None)
    num_nodes, arcs = _membership_network(pop, u)
    feasible, flows, _ = feasible_circulation(num_nodes, arcs, atol=atol)
    if not feasible:
        return None
    n = pop.n
    return np.array(flows[n : n + n * pop.horizon]).reshape(n, pop.horizon)


def mixing_matrix_by_union(nu, target):
    """A symmetric doubly stochastic D with D @ nu = target, by np.union1d.

    The reference for aggregate._mixing_matrix: the cumulative excess and
    deficit ends are merged by np.union1d, which drops the ends the two
    curves share, and each piece between consecutive ends is one
    north-west-corner pair (j, k) carrying mass delta; pairs with j > k are
    left out.
    """
    d = nu - target
    excess = np.maximum(d, 0.0)
    deficit = np.maximum(-d, 0.0)
    reach_ex = np.cumsum(excess)
    reach_de = np.cumsum(deficit)
    ends = np.union1d(reach_ex, reach_de)
    ends = ends[(ends > 0.0) & (ends <= min(reach_ex[-1], reach_de[-1]))]
    j = np.searchsorted(reach_ex, ends)  # the excess whose stretch holds the piece
    k = np.searchsorted(reach_de, ends)
    forward = j < k
    j, k = j[forward], k[forward]
    # nu_j > target_j >= target_k > nu_k, so every gap is positive
    alpha = np.diff(ends, prepend=0.0)[forward] / (nu[j] - nu[k])
    mix = np.zeros((nu.size, nu.size))
    mix[j, k] = alpha
    mix[k, j] = alpha
    # rounding can lift a row's weights past 1 by an ulp; D stays non-negative
    np.fill_diagonal(mix, np.maximum(1.0 - mix.sum(axis=1), 0.0))
    return mix


def multisets_with_pmf(n, weights):
    """Every multiset of n i.i.d. draws from len(weights) atoms, with its probability.

    Returns the C(n+A-1, A-1) atom-count rows, enumerated by stars and bars
    (the A-1 bars take distinct places among n+A-1 slots), and the
    multinomial probability of each, computed in logs so large n cannot
    overflow a factorial.
    """
    weights = np.asarray(weights, dtype=float)
    a = len(weights)
    places = list(combinations(range(n + a - 1), a - 1))
    bars = np.array(places, dtype=int).reshape(len(places), a - 1)
    ends = np.full((len(places), 1), -1)
    counts = np.diff(np.hstack([ends, bars, ends + n + a]), axis=1) - 1
    log_pmf = gammaln(n + 1) - gammaln(counts + 1).sum(axis=1) + counts @ np.log(weights)
    return counts, np.exp(log_pmf)


def distinct_populations_by_lexsort(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group (R, A) atom-count rows by the multiset they hold.

    Returns the (U, A) rows of the U distinct multisets and, for every
    row, the index of its group.
    """
    rows = counts.shape[0]
    order = np.lexsort(counts.T)
    ranked = counts[order]
    first = np.ones(rows, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(rows, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return ranked[first], group


_TINY = 1e-15  # pieces of at most this mass are dropped, as in the runtime


def _weighted_lower_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    half = cum[-1] / 2.0
    idx = int(np.searchsorted(cum, half - 1e-12))
    return float(values[order][min(idx, len(values) - 1)])


def project_by_pieces(p, n):
    """The N-point projection by a walk over atom pieces, chunk by chunk.

    The reference for project_to_n_points: the lex-sorted atoms are walked
    in order, each cut into pieces at the chunk boundaries k/N by a running
    cumulative mass, and each chunk's pieces get two weighted lower medians
    of their own. Returns the sorted support and its W1 cost.
    """
    chunks: list[list[tuple[float, float, float]]] = [[] for _ in range(n)]
    k = 0
    cum = 0.0
    for (lo, hi), w in zip(p.atoms, p.weights):
        rem = float(w)
        while rem > _TINY:
            boundary = (k + 1) / n
            room = boundary - cum if k < n - 1 else float("inf")
            take = min(rem, room)
            if take > _TINY:
                chunks[k].append((float(lo), float(hi), take))
                cum += take
                rem -= take
            if k < n - 1 and boundary - cum <= _TINY:
                k += 1
    support = np.empty((n, 2))
    for k, chunk in enumerate(chunks):
        vals = np.array(chunk)
        support[k, 0] = _weighted_lower_median(vals[:, 0], vals[:, 2])
        support[k, 1] = _weighted_lower_median(vals[:, 1], vals[:, 2])
    projected = DiscreteDistribution.equal_weights(support, p.energy_cap)
    cost = wasserstein1(p, projected)
    # the projection is canonical up to atom order; report it sorted
    return projected.atoms, cost
