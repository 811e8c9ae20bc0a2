"""Exact aggregate flexibility sets.

The aggregate flexibility set of a homogeneous population is fully
parameterised by two monotone vectors: nu_lo and nu_hi, the sums of the
fastest-charge profiles at the lower and upper energy bounds.

Each EV's set {x in [0, m]^T : e_lo <= sum(x) <= e_hi} is a generalized
polymatroid with the paramodular pair p(S) = min(m|S|, e_hi) and
b(S) = max(0, e_lo - m(T - |S|)), and a Minkowski sum of generalized
polymatroids is the one of the summed pairs (Frank). Summed over the
population, both functions depend on |S| only:
p(k) = sum_{t<=k} nu_hi[t] and b(k) = sum_{t>T-k} nu_lo[t] for |S| = k.
Over the sets of size k, u(S) ranges from bottom_k(u), the sum of the k
smallest entries, to top_k(u), the sum of the k largest, so a profile u is
a member iff for k = 1..T:

    b(k) <= bottom_k(u)  and  top_k(u) <= p(k)

(k = T gives sum(nu_lo) <= sum(u) <= sum(nu_hi)). A set holds its caps as
one row [p(1..T), -b(1..T)] and a profile gives one row of cut sums
[top_k(u), -bottom_k(u)]; membership is the one comparison sums <= caps,
entry by entry, as fl(s - atol) <= c. One kernel (_member_matrix) makes it
for many profiles against many populations; single-profile and batch
membership, decomposition's verdict, emptiness (on a set's two totals),
the subset and nesting tests, the Monte Carlo harness, single-EV
feasibility (on the one-EV pair) and majorization (on the pair (v sorted,
v sorted)) all use it. The subset, nesting and vertex-membership tests
and the harness give it a set's T+1 sorted vertices as one row, their
vertex envelope (the largest cut sums over the vertices); only the
witness of find_subset_violation scans the vertices one by one.
decompose() then builds its per-EV profiles constructively: the most
balanced split of the total into per-EV energies, then one doubly
stochastic mixing of the columns of their fastest-charge profiles. A
non-member gets the most violated cut of its row as its certificate. No
flow or LP solver runs.

The generating vectors themselves are a histogram of whole steps: an EV
with energy e fills floor(e/m) steps with m and puts the remainder on the
next one, so nu[t] is m times the number of EVs with more than t full
steps plus the remainders landing on t. Building them costs O(N + T) per
population, with no N x T array of fastest-charge profiles; only
decompose() forms that matrix, for its witness.

A Population is two energy vectors, and everything that depends on it
alone is computed on its first query and kept on the population itself:
its set (the bound pair and the cap row) and, from the first member
decompose() on, the table of the balanced split. A later query does only
per-profile work, in a few small numpy calls read off one sort of the
profile: its two ends validate it, one cumsum gives its cut sums and one
comparison the verdict. In decompose() the sort is a stable argsort that
also gives the certificate's steps and the column order the mixing
matrix is written in, so a member costs one interpolation in that table
and the mixing; there is no per-query level search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DEFAULT_ATOL, _check_atol, _check_horizon, _check_power, _floats, _is_finite
from .core import _check_same_grid, _generating_vectors, check_energy_domain
from .errors import DomainError, EnergyOutOfRange, NegativeEntry, NotMonotone
from .flows import feasible_circulation  # noqa: F401  (perfbench/tracing.py wraps this name)


def _fastest_profiles(energies: np.ndarray, m: float, horizon: int) -> np.ndarray:
    """Fastest-charge profiles clip(e - m*k, 0, m): (..., N) -> (..., N, T).

    Kept beside _generating_vectors' floor form, which it can differ from in
    last bits, because it is about 3x faster on decompose's path and a witness
    mixes these rows by their own column sums, so the difference costs nothing."""
    profiles = energies[..., None] - m * np.arange(horizon, dtype=float)
    np.maximum(profiles, 0.0, out=profiles)
    return np.minimum(profiles, m, out=profiles)


@dataclass(frozen=True, eq=False)
class Population:
    """Homogeneous population of N charging jobs, held as two energy vectors.

    Every EV connects at step 1, departs after the horizon T and charges at
    most `power` per step; EV i needs between e_lo[i] and e_hi[i] energy.
    The vectors are stored as read-only float arrays. Its set and split
    table are built on first use and kept; a copy or pickle is rebuilt by
    the constructor.
    """

    e_lo: np.ndarray
    e_hi: np.ndarray
    horizon: int
    power: float = 1.0

    def __post_init__(self):
        e_lo = _floats(self.e_lo, "e_lo", (None,))
        e_hi = _floats(self.e_hi, "e_hi", e_lo.shape)
        _check_power(self.power)
        power = float(self.power)
        horizon = _check_horizon(self.horizon, "horizon", power)
        check_energy_domain(e_lo, e_hi, power * horizon)
        e_lo.flags.writeable = False
        e_hi.flags.writeable = False
        object.__setattr__(self, "e_lo", e_lo)
        object.__setattr__(self, "e_hi", e_hi)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "power", power)

    def __reduce__(self):
        return type(self), (self.e_lo, self.e_hi, self.horizon, self.power)

    @classmethod
    def from_energy_pairs(cls, pairs, horizon: int, power: float = 1.0) -> "Population":
        """Population from (e_lo, e_hi) rows."""
        pairs = _floats(pairs, "pairs", (None, 2))
        return cls(pairs[:, 0], pairs[:, 1], horizon, power)

    @property
    def n(self) -> int:
        return int(self.e_lo.size)

    @cached_property
    def _flex(self) -> "AggregateFlexSet":
        """The set of the population's two generating vectors, built on first use."""
        return AggregateFlexSet(
            _generating_vectors(self.e_lo, self.power, self.horizon),
            _generating_vectors(self.e_hi, self.power, self.horizon),
            self.power,
        )

    @cached_property
    def _split_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted breakpoints of sum(clip(lam, e_lo, e_hi)) and its level at each.

        The sum is piecewise linear and non-decreasing in lam with
        breakpoints at the 2N bounds. At a breakpoint it is sum(e_lo) plus
        sum_i max(lam - e_lo_i, 0) - sum_i max(lam - e_hi_i, 0), read off
        sorted prefix sums; a running maximum removes the rounding dips, so
        the level is non-decreasing as np.interp needs.
        """
        lo, hi = np.sort(self.e_lo), np.sort(self.e_hi)
        points = np.sort(np.concatenate([lo, hi]))
        below_lo = np.searchsorted(lo, points)  # bounds lo_i < point
        below_hi = np.searchsorted(hi, points)
        lo_sums = np.concatenate([[0.0], np.cumsum(lo)])
        hi_sums = np.concatenate([[0.0], np.cumsum(hi)])
        level = lo_sums[-1] + points * (below_lo - below_hi) - lo_sums[below_lo] + hi_sums[below_hi]
        return points, np.maximum.accumulate(level)

    def _balanced_energies(self, total: float) -> np.ndarray:
        """Per-EV energies clip(lam, e_lo, e_hi) summing to total.

        Outside [sum(e_lo), sum(e_hi)] this is the nearest end: e_lo or e_hi.
        """
        points, level = self._split_table
        return np.minimum(np.maximum(np.interp(total, level, points), self.e_lo), self.e_hi)


def nu_bounds(pop: Population) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper generating vectors: sums of fastest-charge profiles.

    The pair is computed once per population and returned read-only.
    """
    return pop._flex.nu_lo, pop._flex.nu_hi


@dataclass(frozen=True, eq=False)
class AggregateFlexSet:
    """Aggregate flexibility set, held as its bound pair (nu_lo, nu_hi).

    The set is {u : b(S) <= u(S) <= p(S) for every S}, with p the prefix
    sums of nu_hi and b the tail sums of nu_lo, and the two-vector
    criterion decides membership from the pair alone, held as the cap row
    [p(1..T), -b(1..T)]. A set built from one population carries that
    population's pair; a robust set carries the lower worst case's nu_lo
    and the upper worst case's nu_hi (see ambiguity.robust_set for why
    that is the intersection of their sets).
    """

    nu_lo: np.ndarray
    nu_hi: np.ndarray
    power: float

    def __post_init__(self):
        nu_lo = _floats(self.nu_lo, "nu_lo", (None,))
        nu_hi = _floats(self.nu_hi, "nu_hi", nu_lo.shape)
        nu_lo.flags.writeable = False
        nu_hi.flags.writeable = False
        object.__setattr__(self, "nu_lo", nu_lo)
        object.__setattr__(self, "nu_hi", nu_hi)
        _check_power(self.power)
        object.__setattr__(self, "power", float(self.power))
        _check_pair(nu_lo, nu_hi)

    def __reduce__(self):
        return type(self), (self.nu_lo, self.nu_hi, self.power)

    @classmethod
    def from_population(cls, pop: Population) -> "AggregateFlexSet":
        """The population's set, built once and shared by its later queries."""
        return pop._flex

    @property
    def horizon(self) -> int:
        return int(self.nu_lo.shape[0])

    @cached_property
    def is_empty(self) -> bool:
        """Emptiness at DEFAULT_ATOL (_is_empty); every verdict that takes an atol reads its own."""
        return bool(_is_empty(self.nu_lo, self.nu_hi, DEFAULT_ATOL))

    @cached_property
    def _caps(self) -> np.ndarray:
        """The cap row [p(1..T), -b(1..T)] of the criterion, computed on first use."""
        return _cap_row(self.nu_lo, self.nu_hi)

    @cached_property
    def _vertex_envelope(self) -> np.ndarray:
        """The set's vertex envelope (_vertex_envelope), computed on first use."""
        return _vertex_envelope(self.nu_lo, self.nu_hi)

    def contains_profile(self, u, atol: float = DEFAULT_ATOL) -> bool:
        """Membership of an aggregate profile in this set."""
        sums = _profile_cut_row(u, self.horizon, atol)
        empty = _is_empty(self.nu_lo, self.nu_hi, atol)
        return not empty and bool(_member_matrix(self._caps, sums, atol))

    def vertices_are_members(self, atol: float = DEFAULT_ATOL) -> bool:
        """Whether the set is non-empty at atol and nested in itself (is_nested).

        Sets built from one population always pass. When a robust set
        fails, its splice vertices describe an outer family and the
        vertex-based verdicts are conservative (see is_nested).
        """
        return is_nested(self, self, atol) and not _is_empty(self.nu_lo, self.nu_hi, atol)


def _check_pair(nu_lo: np.ndarray, nu_hi: np.ndarray) -> None:
    """Check bound pairs (..., T) of one shape: finite, each non-increasing."""
    if not (np.isfinite(nu_lo).all() and np.isfinite(nu_hi).all()):
        raise DomainError("nu_lo and nu_hi must be finite")
    for name, vec in (("nu_lo", nu_lo), ("nu_hi", nu_hi)):
        if (vec[..., 1:] - vec[..., :-1] > DEFAULT_ATOL).any():
            raise NotMonotone(f"{name} must be sorted non-increasing")


def _is_empty(nu_lo: np.ndarray, nu_hi: np.ndarray, atol: float) -> np.ndarray:
    """Whether each pair (..., T) is empty at atol: fl(sum(nu_lo) - atol) > sum(nu_hi).

    Large budgets can push a robust set's lower total past its upper one.
    Both totals are summed in one order; the cap row's b(T) and p(T) are
    not, and can put a fixed-energy population's b(T) an ulp above p(T).
    """
    return ~_member_matrix(nu_hi.sum(axis=-1)[..., None], nu_lo.sum(axis=-1)[..., None], atol)


def _vertices(nu_lo: np.ndarray, nu_hi: np.ndarray) -> np.ndarray:
    """The T+1 sorted vertex representatives of pairs: (..., T) -> (..., T+1, T)."""
    horizon = nu_lo.shape[-1]
    hi_part = np.tri(horizon + 1, horizon, k=-1, dtype=bool)  # row t: columns < t
    return np.where(hi_part, nu_hi[..., None, :], nu_lo[..., None, :])


def _vertex_envelope(nu_lo: np.ndarray, nu_hi: np.ndarray) -> np.ndarray:
    """The largest cut sums over the T+1 sorted vertices of pairs: (..., T) -> (..., 2T).

    Entry k < T is max_v top_k(v) and entry T + k - 1 is -min_v bottom_k(v),
    the max over the vertices of their cut-sum rows (_cut_sums): negation is
    exact, so the max of the negated bottoms is the negated min. A
    population or set holds every vertex iff its cap row clears this one
    row: float subtraction rounds monotonically, so fl(max_v s_v - atol) <= c
    holds iff fl(s_v - atol) <= c holds for every vertex v, and the verdict
    is the one _member_matrix gives vertex by vertex.
    """
    ascending = np.sort(_vertices(nu_lo, nu_hi), axis=-1)
    top = ascending[..., ::-1].cumsum(axis=-1).max(axis=-2)
    bottom = ascending.cumsum(axis=-1).min(axis=-2)
    return np.concatenate((top, -bottom), axis=-1)


def sorted_vertices(aset: AggregateFlexSet) -> np.ndarray:
    """The T+1 sorted vertex representatives, one per energy level.

    Row t is nu_hi on the first t coordinates and nu_lo on the rest; rows 0
    and T are the two generating vectors themselves. Every vertex of the set
    is a coordinate permutation of one of these rows.
    """
    return _vertices(aset.nu_lo, aset.nu_hi)


# ---------------------------------------------------------------------------
# membership: the two-vector criterion


def _needs_clip(u: np.ndarray, lowest, highest, atol: float) -> bool:
    """The value rule of a checked profile: whether u has entries in [-atol, 0) to clip.

    lowest and highest are u's extreme entries (a sort's ends; NaN sorts
    last, so it fails a test). Any other u goes through the full checks: a
    non-finite entry raises DomainError before one below -atol NegativeEntry.
    """
    if lowest >= 0.0 and math.isfinite(highest):
        return False
    if not np.isfinite(u).all():
        raise DomainError("aggregate profile has a non-finite entry")
    if (u < -atol).any():
        raise NegativeEntry("aggregate profile has a negative entry")
    return True


def _profile_cut_row(u, horizon: int | None, atol: float) -> np.ndarray:
    """Cut sums of a profile (T,), any T for horizon None, from one in-place sort."""
    _check_atol(atol)
    u = _floats(u, "aggregate profile", (horizon,))
    u.sort()
    if _needs_clip(u, u[0], u[-1], atol):
        u = np.maximum(u, 0.0)
    return _cut_row(u[::-1])


def _cap_row(nu_lo: np.ndarray, nu_hi: np.ndarray) -> np.ndarray:
    """The caps [p(1..T), -b(1..T)] of a pair: (..., T) vectors -> (..., 2T).

    p(k) = sum_{t<=k} nu_hi[t] bounds u(S) above and
    b(k) = sum_{t>T-k} nu_lo[t] below, over the sets S of size k. For a
    profile v sorted non-increasing, _cap_row(v, v) is its row of cut sums
    [top_k(v), -bottom_k(v)], the extremes of v(S) over |S| = k.
    """
    return np.concatenate((nu_hi.cumsum(axis=-1), -nu_lo[..., ::-1].cumsum(axis=-1)), axis=-1)


def _cut_sums(profiles: np.ndarray) -> np.ndarray:
    """Cut sums [top_k(u), -bottom_k(u)] of profiles: (..., T) -> (..., 2T)."""
    ordered = np.sort(profiles, axis=-1)[..., ::-1]
    return _cap_row(ordered, ordered)


def _cut_row(ordered: np.ndarray) -> np.ndarray:
    """Cut sums [top_k(v), -bottom_k(v)] of a profile v sorted non-increasing: (T,) -> (2T,).

    One cumsum along the rows [v, -v[::-1]] is _cap_row(v, v) entry for entry:
    negation is exact and cumsum adds in order.
    """
    rows = np.empty((2, ordered.size))
    rows[0] = ordered
    np.negative(ordered[::-1], out=rows[1])
    return np.add.accumulate(rows, axis=1).ravel()


def _member_matrix(caps: np.ndarray, sums: np.ndarray, atol: float, axis: int = -1) -> np.ndarray:
    """Membership b(k) <= bottom_k(u) and top_k(u) <= p(k), k = 1..T, within atol.

    caps: cap rows of sets and sums: cut sums of profiles (or cap rows of
    sets to nest), both from _cap_row with their 2T entries on `axis` and
    shaped by the caller so that the two broadcast. Returns the broadcast
    boolean verdicts, one per (caps, sums) pair.
    """
    return (sums - atol <= caps).all(axis=axis)


def batch_contains(
    e_lo: np.ndarray,
    e_hi: np.ndarray,
    profiles: np.ndarray,
    m: float,
    atol: float = DEFAULT_ATOL,
) -> np.ndarray:
    """Membership of V profiles against R populations in one pass.

    e_lo, e_hi: (R, N) energy bounds, each row checked like a Population's
    (0 <= e_lo <= e_hi <= m*T); profiles: (V, T) rows, each checked like
    contains()' profile. Builds every population's (nu_lo, nu_hi) at once
    and applies the two-vector criterion; returns a boolean (R, V) matrix
    with the same decisions as contains().
    """
    _check_atol(atol)
    profiles = _floats(profiles, "profiles", (None, None))
    if _needs_clip(profiles, profiles.min(), profiles.max(), atol):
        profiles = np.maximum(profiles, 0.0)
    e_lo = _floats(e_lo, "e_lo", (None, None))
    e_hi = _floats(e_hi, "e_hi", e_lo.shape)
    _check_power(m)
    horizon = _check_horizon(profiles.shape[1], "horizon", m)
    check_energy_domain(e_lo, e_hi, m * horizon)
    caps = _cap_row(_generating_vectors(e_lo, m, horizon), _generating_vectors(e_hi, m, horizon))
    return _member_matrix(caps[:, None], _cut_sums(profiles), atol)  # (R, 1, 2T) against (V, 2T)


# ---------------------------------------------------------------------------
# public membership / decomposition


def contains(pop: Population, u, atol: float = DEFAULT_ATOL) -> bool:
    """True iff the population can jointly track the aggregate profile u."""
    sums = _profile_cut_row(u, pop.horizon, atol)
    return bool(_member_matrix(pop._flex._caps, sums, atol))


def is_individually_feasible(
    profile: np.ndarray, e_lo: float, e_hi: float, power: float, atol: float = DEFAULT_ATOL
) -> bool:
    """True when one EV can track `profile`: entries in [0, power], total in [e_lo, e_hi].

    That set is the g-polymatroid of p(k) = min(m*k, e_hi) and
    b(k) = max(0, e_lo - m(T - k)), and the kernel decides on its cap row, built
    from the energies as given: they are not clipped into [0, m*T] as a
    population's are, so e_lo > m*T or e_lo > e_hi leaves no member.
    """
    _check_power(power)
    sums = _profile_cut_row(profile, None, atol)  # read as contains() reads a profile
    if not (_is_finite(e_lo) and _is_finite(e_hi)):
        _floats((e_lo, e_hi), "e_lo and e_hi")  # a non-number is a DomainError
        raise EnergyOutOfRange(f"e_lo and e_hi must be finite, got ({e_lo}, {e_hi})")
    steps = np.arange(1, sums.size // 2 + 1)
    caps = np.concatenate(
        (np.minimum(power * steps, e_hi), -np.maximum(e_lo - power * (steps.size - steps), 0.0))
    )
    return bool(_member_matrix(caps, sums, atol))


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Per-EV profiles summing to a target aggregate profile."""

    per_ev: np.ndarray  # (N, T)


@dataclass(frozen=True)
class Infeasible:
    """Witness of infeasibility: a set of steps S whose demand exceeds its cap.

    u(S) > min(p(|S|), E - b(T - |S|)) with p the prefix sums of nu_hi, b
    the tail sums of nu_lo and E the profile total. shortfall is the excess
    as the membership test computes it: u(S) - p(|S|), or b(T - |S|) - u(S')
    with S' the complement of S, which is u(S) - (E - b(T - |S|)) in exact
    arithmetic. It is always positive, and S is empty when it is b(T) - E.
    """

    deficient_steps: tuple[int, ...]  # 1-indexed
    shortfall: float


def _mixing_matrix(nu: np.ndarray, target: np.ndarray, order: np.ndarray) -> np.ndarray:
    """A symmetric doubly stochastic D with D @ nu = target, its columns in u's order.

    nu and target = u[order] are non-increasing, with equal totals, and nu
    majorizes target (decompose() has the construction and why it works).
    The cumulative excess and deficit curves of d = nu - target are
    merged, and each piece between consecutive breakpoints is one
    north-west-corner pair (j, k) carrying mass delta. Zero-length pieces
    (an end shared by both curves, or a step with no excess or deficit)
    carry nothing. Pairs with j > k arise only from rounding or a violation
    within tolerance, carry no more mass than that, and are left out.
    Column k of D is written as column order[k], so result[:, order] is D.
    """
    d = nu - target
    excess = np.maximum(d, 0.0)
    # the deficit max(-d, 0) is excess - d exactly; one cumsum gives both reach curves
    reach = np.add.accumulate(np.concatenate((excess, excess - d)).reshape(2, -1), axis=1)
    reach_ex, reach_de = reach[0], reach[1]
    ends = reach.flatten()
    ends.sort()
    piece = ends.copy()
    piece[1:] -= ends[:-1]
    j = reach_ex.searchsorted(ends)  # the excess whose stretch holds the piece
    k = reach_de.searchsorted(ends)
    keep = (piece > 0.0) & (ends <= min(reach_ex[-1], reach_de[-1])) & (j < k)
    j, k = j[keep], k[keep]
    # nu_j > target_j >= target_k > nu_k, so every gap is positive
    alpha = piece[keep] / (nu[j] - nu[k])
    size = nu.size
    # D is symmetric, so with its row k as row order[k] of `rows`, rows.T has
    # D's column k at column order[k]; each row keeps D's layout, so its sum
    # rounds as D's does
    rows = np.zeros((size, size))
    rows[order[j], k] = alpha
    rows[order[k], j] = alpha
    # rounding can lift a row's weights past 1 by an ulp; D stays non-negative
    rows[order, np.arange(size)] = np.maximum(1.0 - rows.sum(axis=1), 0.0)[order]
    return rows.T


def _mix_fastest_profiles(energies: np.ndarray, target: np.ndarray, order: np.ndarray, m: float):
    """Per-EV profiles with totals `energies` and columns summing to u.

    target = u[order] is u sorted non-increasing. Row i of F is the
    fastest-charge profile of e_i, and F's column sums are nu. Mixing F's
    columns by the doubly stochastic D of _mixing_matrix keeps every entry
    a convex combination of its row of F (so in [0, m]) and every row
    total, and turns the column sums into D @ nu = target; D's columns
    sit in u's order, so the product is already in it. Returns the (N, T)
    profiles in the order of `energies`.
    """
    fastest = _fastest_profiles(energies, m, target.size)
    return fastest @ _mixing_matrix(fastest.sum(axis=0), target, order)


def decompose(pop: Population, u, atol: float = DEFAULT_ATOL):
    """Split an aggregate profile into per-EV profiles, or explain failure.

    The verdict is the two-vector criterion of contains(), so the two always
    agree. A member u with total E is split in two stages:

    1. Per-EV energies e = clip(lam, e_lo, e_hi) with sum(e) = E. Every
       other split of E inside the intervals majorizes e, so e maximises
       every sum_i min(e_i, m*k) at once; those sums are the Gale-Ryser
       capacities of the transportation problem with row sums e, column
       sums u and entries in [0, m], which is feasible iff
       top_k(u) <= sum_i min(e_i, m*k) for every k. Since some split
       satisfies this (u is a member), e does too.
    2. One mixing of fastest-charge profiles (_mix_fastest_profiles).
       F[i, k] = clip(e_i - m*k, 0, m) has row totals e and non-increasing
       column sums nu, and the capacities of stage 1 are the prefix sums
       of nu: u sorted non-increasing, written v, is majorized by nu. So
       d = nu - v has non-negative prefix sums, and the north-west-corner
       rule moves each excess d_j > 0 to deficits d_k < 0 with k > j, in
       pieces delta_jk (at most 2T of them). Because v is sorted,
       nu_j - nu_k = d_j - d_k + (v_j - v_k) >= excess_j + deficit_k, so
       the T-transform weights alpha_jk = delta_jk / (nu_j - nu_k) of a
       row sum to at most 1 (delta_jk sums to excess_j along a row and to
       deficit_k down a column). Placed at (j, k) and (k, j), with the
       rest of each row on the diagonal, they give a symmetric doubly
       stochastic D with D @ nu = v. D's columns are written in u's
       order, so F @ D is the witness as it stands: its entries are convex
       combinations of a row of F (in [0, m]), its row totals are e and
       its column sums are nu^T D = v, in u's order.

    Returns a Decomposition (rows in [0, m]^T with totals in
    [e_lo, e_hi], columns summing to u). A non-member gets an Infeasible
    certificate that anyone can check from (nu_lo, nu_hi): the most
    violated entry of the cut-sum row the verdict compared, the first on a
    tie, as the steps of u's k largest entries. Its shortfall is positive
    because fl(s - atol) > c implies s > c. Any valid split or violated cut
    is correct; these are the ones chosen.
    """
    _check_atol(atol)
    u = _floats(u, "aggregate profile", (pop.horizon,))
    # one stable sort serves the value rule, the verdict, the witness's
    # column order and the cut; a clip sorts again, so ties keep index order
    order = (-u).argsort(kind="stable")
    if _needs_clip(u, u[order[-1]], u[order[0]], atol):
        u = np.maximum(u, 0.0)
        order = (-u).argsort(kind="stable")
    target = u[order]
    sums = _cut_row(target)
    caps = pop._flex._caps
    if _member_matrix(caps, sums, atol):
        energies = pop._balanced_energies(u.sum())
        return Decomposition(_mix_fastest_profiles(energies, target, order, pop.power))
    # entry i < T is top_k(u) - p(k) with k = i + 1; entry T + j - 1 is
    # b(j) - bottom_j(u), the cut of u's k = T - j largest entries
    gap = sums - caps
    i = int(gap.argmax())
    k = i + 1 if i < u.size else 2 * u.size - 1 - i
    return Infeasible(tuple(sorted([t + 1 for t in order[:k].tolist()])), float(gap[i]))


# ---------------------------------------------------------------------------
# subset tests


def find_subset_violation(aset: AggregateFlexSet, pop: Population, atol: float = DEFAULT_ATOL):
    """First sorted vertex of aset outside the population's set, or None.

    The verdict is is_subset_exact's; only a violation pays for the scan
    of the T+1 sorted vertices that names the first one outside.
    """
    if is_subset_exact(aset, pop, atol):
        return None
    vertices = sorted_vertices(aset)
    return vertices[np.argmin(_member_matrix(pop._flex._caps, _cut_sums(vertices), atol))]


def is_subset_exact(aset: AggregateFlexSet, pop: Population, atol: float = DEFAULT_ATOL) -> bool:
    """Whether every sorted vertex of aset lies in the population's aggregate set.

    This is is_nested(aset, the population's set), exact or conservative
    as that is.
    """
    return is_nested(aset, pop._flex, atol)


def is_subset_fast(aset: AggregateFlexSet, pop: Population, atol: float = DEFAULT_ATOL) -> bool:
    """Subset test from the two bound vectors alone.

    Compares the paramodular pairs: aset lies in the g-polymatroid
    b(S) <= u(S) <= p(S) with p the prefix sums of aset.nu_hi and b the
    tail sums of aset.nu_lo, so p <= p_pop and b >= b_pop imply containment
    for every set, robust intersections included. It is is_nested's test,
    emptiness at atol included, on aset's cap row in place of its vertex
    envelope. That envelope is at least the cap row, and equal to it when
    nu_lo <= nu_hi entry by entry (every single-population set), so this
    test accepts whatever is_subset_exact accepts and agrees with it there.
    """
    return _set_in_set(aset, pop._flex, aset._caps, atol)


def is_nested(inner: AggregateFlexSet, outer: AggregateFlexSet, atol: float = DEFAULT_ATOL) -> bool:
    """True iff inner's vertex family lies inside outer.

    Every vertex of inner is a coordinate permutation of a sorted
    representative and outer is convex and permutation symmetric, so this
    is outer's cap row clearing inner's vertex envelope. Emptiness is read
    at atol (_is_empty): an empty inner set is nested in every set, and no
    other set in an empty one. It is exact when inner.vertices_are_members()
    holds (always for single-population sets); otherwise the representatives
    describe an outer family, and False may be returned for sets that are
    in fact nested (never the other way around).
    """
    return _set_in_set(inner, outer, inner._vertex_envelope, atol)


def _set_in_set(inner: AggregateFlexSet, outer: AggregateFlexSet, row, atol: float) -> bool:
    """is_nested's and is_subset_fast's guarded body, on inner's envelope or cap row as `row`."""
    _check_same_grid(inner, outer)
    _check_atol(atol)
    if _is_empty(inner.nu_lo, inner.nu_hi, atol):
        return True
    empty = _is_empty(outer.nu_lo, outer.nu_hi, atol)
    return not empty and bool(_member_matrix(outer._caps, row, atol))
