"""Exact aggregate flexibility sets.

The aggregate flexibility set of a homogeneous population is fully
parameterised by two monotone vectors: nu_lo and nu_hi, the sums of the
fastest-charge profiles at the lower and upper energy bounds.

Each EV's set {x in [0, m]^T : e_lo <= sum(x) <= e_hi} is a generalized
polymatroid with the paramodular pair p(S) = min(m|S|, e_hi) and
b(S) = max(0, e_lo - m(T - |S|)), and a Minkowski sum of generalized
polymatroids is the one of the summed pairs (Frank). Summed over the
population, both functions depend on |S| only:
p(S) = sum_{t<=|S|} nu_hi[t] and b(S) = sum_{t>T-|S|} nu_lo[t]. The
conditions b(S) <= u(S) <= p(S) for every S therefore reduce to the sorted
prefix sums of u, so a profile u with total E is a member iff

    sum(nu_lo) <= E, and for k = 1..T:
    top_k(u) <= min(sum_{t<=k} nu_hi[t], E - sum_{t>k} nu_lo[t])

where top_k(u) is the sum of the k largest entries (k = T gives
E <= sum(nu_hi)). One vectorised kernel evaluates this criterion for many
profiles against many populations; single-profile membership, batch
membership, subset and nesting tests all use it. Only decompose() builds a
transportation network (source -> EV arcs with the energy-interval bounds,
EV -> timestep arcs capped at the power rating, timestep -> sink arcs
pinned to the profile), because it returns per-EV profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DEFAULT_ATOL, Population
from .errors import DimensionMismatch, DomainError, NegativeEntry
from .flows import feasible_circulation


def _generating_vectors(energies: np.ndarray, m: float, horizon: int) -> np.ndarray:
    """Sums of fastest-charge profiles over the last axis: (..., N) -> (..., T)."""
    steps = m * np.arange(horizon, dtype=float)
    return np.clip(energies[..., None] - steps, 0.0, m).sum(axis=-2)


def nu_bounds(pop: Population) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper generating vectors: sums of fastest-charge profiles."""
    return (
        _generating_vectors(pop.e_lo, pop.power, pop.horizon),
        _generating_vectors(pop.e_hi, pop.power, pop.horizon),
    )


@dataclass(frozen=True)
class AggregateFlexSet:
    """Aggregate flexibility set, held as its bound pair (nu_lo, nu_hi).

    The set is {u : b(S) <= u(S) <= p(S) for every S}, with p the prefix
    sums of nu_hi and b the tail sums of nu_lo, and the two-vector
    criterion decides membership from the pair alone. A set built from one
    population carries that population's pair; a robust set carries the
    lower worst case's nu_lo and the upper worst case's nu_hi (see
    ambiguity.robust_set for why that is the intersection of their sets).
    """

    nu_lo: np.ndarray
    nu_hi: np.ndarray
    power: float

    def __post_init__(self):
        nu_lo = np.array(self.nu_lo, dtype=float)
        nu_hi = np.array(self.nu_hi, dtype=float)
        nu_lo.flags.writeable = False
        nu_hi.flags.writeable = False
        object.__setattr__(self, "nu_lo", nu_lo)
        object.__setattr__(self, "nu_hi", nu_hi)
        object.__setattr__(self, "power", float(self.power))
        if nu_lo.shape != nu_hi.shape or nu_lo.ndim != 1:
            raise DimensionMismatch("nu_lo and nu_hi must be 1-D of equal length")
        for name, vec in (("nu_lo", nu_lo), ("nu_hi", nu_hi)):
            if np.any(np.diff(vec) > DEFAULT_ATOL):
                raise ValueError(f"{name} must be sorted non-increasing")

    @classmethod
    def from_population(cls, pop: Population) -> "AggregateFlexSet":
        return cls(*nu_bounds(pop), pop.power)

    @classmethod
    def from_bound_populations(cls, gen_lo: Population, gen_hi: Population) -> "AggregateFlexSet":
        """Set parameterised by gen_lo's lower vector and gen_hi's upper vector."""
        if gen_lo.horizon != gen_hi.horizon or gen_lo.power != gen_hi.power:
            raise DimensionMismatch("bound populations must share horizon and power")
        nu_lo = _generating_vectors(gen_lo.e_lo, gen_lo.power, gen_lo.horizon)
        nu_hi = _generating_vectors(gen_hi.e_hi, gen_hi.power, gen_hi.horizon)
        return cls(nu_lo, nu_hi, gen_lo.power)

    @property
    def horizon(self) -> int:
        return int(self.nu_lo.shape[0])

    @cached_property
    def is_empty(self) -> bool:
        # Large transport budgets can push the lower total past the upper one.
        return bool(self.nu_lo.sum() > self.nu_hi.sum() + DEFAULT_ATOL)

    def _members(self, profiles: np.ndarray, atol: float) -> np.ndarray:
        """Membership of each row of a (V, T) stack in this set."""
        return _pair_members(self.nu_lo, self.nu_hi, profiles, atol)

    def contains_profile(self, u, atol: float = DEFAULT_ATOL) -> bool:
        """Membership of an aggregate profile in this set."""
        u = _check_profile(u, self.horizon, atol)
        return not self.is_empty and bool(self._members(u[None], atol)[0])

    def vertices_are_members(self, atol: float = DEFAULT_ATOL) -> bool:
        """Whether every splice vertex belongs to the set itself.

        Sets built from one population always pass. A robust set's pair
        comes from two different populations, and when this fails its
        splice vertices describe an outer family: vertex-based subset and
        nesting checks are then conservative rather than exact.
        """
        if self.is_empty:
            return False
        return bool(self._members(sorted_vertices(self), atol).all())


def sorted_vertices(aset: AggregateFlexSet) -> np.ndarray:
    """The T+1 sorted vertex representatives, one per energy level.

    Row t is nu_hi on the first t coordinates and nu_lo on the rest; rows 0
    and T are the two generating vectors themselves. Every vertex of the set
    is a coordinate permutation of one of these rows.
    """
    horizon = aset.horizon
    rows = np.empty((horizon + 1, horizon))
    for t in range(horizon + 1):
        rows[t, :t] = aset.nu_hi[:t]
        rows[t, t:] = aset.nu_lo[t:]
    return rows


# ---------------------------------------------------------------------------
# membership: the two-vector criterion


def _check_profile(u, horizon: int, atol: float) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (horizon,):
        raise DimensionMismatch(f"profile length {u.shape} != horizon {horizon}")
    if not np.all(np.isfinite(u)):
        raise DomainError("aggregate profile has a non-finite entry")
    if np.any(u < -atol):
        raise NegativeEntry("aggregate profile has a negative entry")
    return np.clip(u, 0.0, None)


def _member_matrix(
    nu_lo: np.ndarray, nu_hi: np.ndarray, profiles: np.ndarray, atol: float
) -> np.ndarray:
    """Membership of V profiles in R sets given by their generating vectors.

    nu_lo, nu_hi: (R, T); profiles: (V, T) non-negative rows. Returns a
    boolean (R, V) matrix: the total is at least sum(nu_lo) and, for every
    k, top_k(u) <= min(sum_{t<=k} nu_hi[t], E - sum_{t>k} nu_lo[t]) (k = T
    is the upper total).
    """
    total = profiles.sum(axis=1)
    top = np.cumsum(-np.sort(-profiles, axis=1), axis=1)
    reach = np.cumsum(nu_hi, axis=1)
    tail = np.zeros_like(nu_lo)  # sum_{t>k} nu_lo[t], zero at k = T
    tail[:, :-1] = np.cumsum(nu_lo[:, :0:-1], axis=1)[:, ::-1]
    bound = np.minimum(reach[:, None, :], total[None, :, None] - tail[:, None, :])
    bound += atol
    inside = (top[None] <= bound).all(axis=2)
    return inside & (total[None, :] >= nu_lo.sum(axis=1)[:, None] - atol)


def _pair_members(
    nu_lo: np.ndarray, nu_hi: np.ndarray, profiles: np.ndarray, atol: float
) -> np.ndarray:
    """Membership of each row of a (V, T) stack in the set of one pair."""
    return _member_matrix(nu_lo[None], nu_hi[None], profiles, atol)[0]


def batch_contains(
    e_lo: np.ndarray,
    e_hi: np.ndarray,
    profiles: np.ndarray,
    m: float,
    atol: float = DEFAULT_ATOL,
) -> np.ndarray:
    """Membership of V profiles against R populations in one pass.

    e_lo, e_hi: (R, N) energy bounds; profiles: (V, T) non-negative rows.
    Builds every population's (nu_lo, nu_hi) at once and applies the
    two-vector criterion; returns a boolean (R, V) matrix with the same
    decisions as contains().
    """
    profiles = np.asarray(profiles, dtype=float)
    horizon = profiles.shape[1]
    nu_lo = _generating_vectors(np.asarray(e_lo, dtype=float), m, horizon)
    nu_hi = _generating_vectors(np.asarray(e_hi, dtype=float), m, horizon)
    return _member_matrix(nu_lo, nu_hi, profiles, atol)


# ---------------------------------------------------------------------------
# public membership / decomposition


def contains(pop: Population, u, atol: float = DEFAULT_ATOL) -> bool:
    """True iff the population can jointly track the aggregate profile u."""
    u = _check_profile(u, pop.horizon, atol)
    return bool(_pair_members(*nu_bounds(pop), u[None], atol)[0])


def _membership_network(pop: Population, u: np.ndarray):
    """Nodes: 0 source, 1..N EVs, N+1..N+T steps, N+T+1 sink."""
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


@dataclass(frozen=True)
class Decomposition:
    """Per-EV profiles summing to a target aggregate profile."""

    per_ev: np.ndarray  # (N, T)


@dataclass(frozen=True)
class Infeasible:
    """Witness of infeasibility: steps whose demand exceeds reachable supply."""

    deficient_steps: tuple[int, ...]  # 1-indexed
    shortfall: float


def decompose(pop: Population, u, atol: float = DEFAULT_ATOL):
    """Split an aggregate profile into per-EV profiles, or explain failure.

    Returns a Decomposition extracted from the feasible transportation flow,
    or an Infeasible record listing the undersupplied timesteps.
    """
    u = _check_profile(u, pop.horizon, atol)
    num_nodes, arcs = _membership_network(pop, u)
    feasible, flows, deficits = feasible_circulation(num_nodes, arcs, atol=atol)
    n, horizon = pop.n, pop.horizon
    if not feasible:
        steps = tuple(
            t + 1
            for t in range(horizon)
            if deficits.get(1 + n + t, 0.0) > atol
        )
        shortfall = float(sum(d for d in deficits.values() if d > atol))
        return Infeasible(steps, shortfall)
    per_ev = np.array(flows[n : n + n * horizon]).reshape(n, horizon)
    return Decomposition(per_ev)


# ---------------------------------------------------------------------------
# subset tests


def _check_compatible(aset: AggregateFlexSet, pop: Population):
    if aset.horizon != pop.horizon:
        raise DimensionMismatch(
            f"horizon mismatch: set {aset.horizon} vs population {pop.horizon}"
        )
    if aset.power != pop.power:
        raise DimensionMismatch(
            f"power mismatch: set {aset.power} vs population {pop.power}"
        )


def find_subset_violation(aset: AggregateFlexSet, pop: Population, atol: float = DEFAULT_ATOL):
    """First sorted vertex of aset outside the population's set, or None.

    Checking the T+1 sorted representatives is exact when
    aset.vertices_are_members() holds (always true for single-population
    sets): the population's aggregate set is convex and permutation
    symmetric, and every vertex of aset is a coordinate permutation of a
    sorted representative, so aset is contained iff each representative is
    a member. Otherwise the representatives describe an outer family, even
    when the prefix sums of nu_lo stay below nu_hi's, and the test is
    conservative (a pass still certifies containment of the true set).
    """
    _check_compatible(aset, pop)
    if aset.is_empty:
        return None
    vertices = sorted_vertices(aset)
    outside = np.flatnonzero(~_pair_members(*nu_bounds(pop), vertices, atol))
    return vertices[outside[0]] if outside.size else None


def is_subset_exact(aset: AggregateFlexSet, pop: Population, atol: float = DEFAULT_ATOL) -> bool:
    """Exact test of aset being contained in the population's aggregate set."""
    return find_subset_violation(aset, pop, atol=atol) is None


def is_subset_fast(aset: AggregateFlexSet, pop: Population, atol: float = DEFAULT_ATOL) -> bool:
    """Subset test from the two bound vectors alone.

    Compares the paramodular pairs: aset lies in the g-polymatroid
    b(S) <= u(S) <= p(S) with p the prefix sums of aset.nu_hi and b the
    tail sums of aset.nu_lo, so p <= p_pop and b >= b_pop imply containment
    for every set, robust intersections included. For single-population
    sets the pair is tight and the test agrees with is_subset_exact.
    """
    _check_compatible(aset, pop)
    if aset.is_empty:
        return True
    pop_lo, pop_hi = nu_bounds(pop)
    return bool(
        np.all(np.cumsum(aset.nu_hi) <= np.cumsum(pop_hi) + atol)
        and np.all(np.cumsum(aset.nu_lo[::-1]) >= np.cumsum(pop_lo[::-1]) - atol)
    )


def is_nested(inner: AggregateFlexSet, outer: AggregateFlexSet, atol: float = DEFAULT_ATOL) -> bool:
    """True iff inner's vertex family lies inside outer.

    Exact containment test when inner.vertices_are_members() holds;
    otherwise the vertex family overstates inner, so False may be returned
    for sets that are in fact nested (never the other way around).
    """
    if inner.horizon != outer.horizon or inner.power != outer.power:
        raise DimensionMismatch("sets must share horizon and power")
    if inner.is_empty:
        return True
    return not outer.is_empty and bool(outer._members(sorted_vertices(inner), atol).all())
