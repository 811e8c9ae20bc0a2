"""Wasserstein ambiguity machinery and robust-set assembly.

Distributions over charging requirements are discrete, with atoms on the
(e_lo, e_hi) plane of one horizon T and power m, which each distribution
carries as a Population does; the ground metric is L1 on that plane, so
every cost (radius, projection cost, budget, distance) is in energy units.
Worst-case populations are built in two steps: project the distribution
onto an equal-weight N-point support, then spend the remaining transport
budget pushing that support toward the relevant boundary of the energy
domain. Budget accounting is conservative: every push is charged its true
per-atom transport cost (including the cost of keeping e_lo <= e_hi
valid). Each worst case is checked against the requested radius by a
displacement certificate, the triangle bound through the projection,
which needs no transport solve; its exact distance is computed only when
it is read.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .aggregate import AggregateFlexSet, Population
from .core import DEFAULT_ATOL, _generating_vectors, check_energy_domain
from .core import _check_atol, _check_horizon, _check_integer, _check_power, _floats, _is_finite
from .errors import (
    BudgetInfeasible,
    DimensionMismatch,
    DomainError,
    EnergyOutOfRange,
    NegativeBudget,
    NotMonotone,
    NumericalFailure,
    RangeWarning,
)
from .transport import min_cost_transport

_TINY = 1e-15


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Weighted atoms over (e_lo, e_hi) pairs, each in the domain of a Population
    with the same horizon and power; atoms kept lex-sorted."""

    atoms: np.ndarray  # (n, 2)
    weights: np.ndarray  # (n,)
    horizon: int
    power: float = 1.0

    def __post_init__(self):
        atoms = _floats(self.atoms, "atoms")
        weights = _floats(self.weights, "weights")
        if atoms.ndim != 2 or atoms.shape[1] != 2 or atoms.shape[0] == 0:
            raise DimensionMismatch("atoms must be a non-empty (n, 2) array")
        if weights.shape != (atoms.shape[0],):
            raise DimensionMismatch("weights must match the number of atoms")
        # NaN passes both weight tests below; a non-finite atom is an
        # energy outside its domain, which check_energy_domain reports
        if not np.isfinite(weights).all():
            raise DomainError("weights must be finite")
        _check_power(self.power)
        power = float(self.power)
        horizon = _check_horizon(self.horizon, "horizon", power)
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError(f"weights sum to {weights.sum()!r}, expected 1")
        # the domain of a Population, so every atom can be a population's EV
        check_energy_domain(atoms[:, 0], atoms[:, 1], power * horizon)
        order = np.lexsort((atoms[:, 1], atoms[:, 0]))
        atoms = atoms[order]
        weights = weights[order]
        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "power", power)

    def __reduce__(self):
        return type(self), (self.atoms, self.weights, self.horizon, self.power)

    @classmethod
    def point_mass(cls, e_lo, e_hi, horizon: int, power: float = 1.0) -> "DiscreteDistribution":
        return cls([[e_lo, e_hi]], [1.0], horizon, power)

    @classmethod
    def equal_weights(cls, pairs, horizon: int, power: float = 1.0) -> "DiscreteDistribution":
        pairs = _floats(pairs, "pairs")
        n = pairs.shape[0] if pairs.ndim else 0
        # zero pairs or a scalar reach the constructor, which rejects the shape
        return cls(pairs, np.full(n, 1.0 / max(n, 1)), horizon, power)

    @property
    def energy_cap(self) -> float:
        """m*T, the upper end of the domain [0, m*T] of each coordinate."""
        return self.power * self.horizon

    @property
    def n_atoms(self) -> int:
        return int(self.atoms.shape[0])


@dataclass(frozen=True)
class ConcentrationConstants:
    """Positive constants of the finite-sample tail bound."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (_is_finite(self.c1) and _is_finite(self.c2) and self.c1 > 0 and self.c2 > 0):
            raise DomainError(
                f"concentration constants must be positive and finite, got {self.c1!r}, {self.c2!r}"
            )


# ---------------------------------------------------------------------------
# Wasserstein-1 distance


def _merged_atoms(p: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The distinct atoms of p and their summed weights.

    The atoms are lex-sorted, so equal ones are adjacent: one compare of
    neighbouring rows finds the runs and np.add.reduceat sums each run.
    """
    atoms = p.atoms
    starts = np.flatnonzero(np.concatenate(([True], (atoms[1:] != atoms[:-1]).any(axis=1))))
    return atoms[starts], np.add.reduceat(p.weights, starts)


def wasserstein1(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Exact W1 between two discrete distributions under the L1 ground metric.

    Equal atoms of each side are merged first (their weights summed), so
    the work scales with the distinct atoms, not with N: an equal-weight
    N-point support from project_to_n_points holds only a few. Both
    distributions must share one horizon and power.
    """
    if (p.horizon, p.power) != (q.horizon, q.power):
        raise DomainError(f"distributions' (T, m) differ: {p.horizon, p.power} vs {q.horizon, q.power}")
    p_atoms, p_weights = _merged_atoms(p)
    q_atoms, q_weights = _merged_atoms(q)
    cost = np.abs(p_atoms[:, None, 0] - q_atoms[None, :, 0]) + np.abs(
        p_atoms[:, None, 1] - q_atoms[None, :, 1]
    )
    value, _ = min_cost_transport(p_weights, q_weights, cost)
    return value


# ---------------------------------------------------------------------------
# N-point projection


def project_to_n_points(
    p: DiscreteDistribution, n: int
) -> tuple[np.ndarray, float]:
    """Equal-weight N-point support plus its exact transport cost.

    Construction: cut the lex-sorted atoms' cumulative mass into N
    consecutive chunks of 1/N (an atom straddling a chunk edge is split)
    and place each output atom at the per-coordinate weighted lower median
    of its chunk. All chunks are done in one pass: the pieces lie between
    consecutive points of the union of the atoms' cumulative-weight ends
    and the edges k/N (pieces of mass at most 1e-15 are dropped), and a
    chunk's lower median is its first piece, in value order, whose
    in-chunk cumulative mass reaches half the chunk's less 1e-12. The
    construction is a heuristic; the returned cost is the exact distance
    to the result, which is all downstream guarantees rely on. The
    support comes back lex-sorted, in a new writable array.
    """
    n = _check_integer(n, "n", minimum=1)
    ends = np.cumsum(p.weights)
    edges = np.arange(1, n) / n
    cuts = np.union1d(ends, edges)
    starts = np.concatenate(([0.0], cuts[:-1]))
    mass = cuts - starts
    keep = mass > _TINY
    mass = mass[keep]
    mid = (starts[keep] + cuts[keep]) / 2
    atom = np.searchsorted(ends, mid)
    # non-decreasing, so sorting by (chunk, value) keeps each chunk's pieces
    # in its own slots first[k]..last[k]
    chunk = np.searchsorted(edges, mid, side="right")
    first = np.searchsorted(chunk, np.arange(n))
    last = np.concatenate((first[1:], [chunk.size])) - 1
    support = np.empty((n, 2))
    for c in range(2):
        values = p.atoms[atom, c]
        order = np.lexsort((values, chunk))  # equal values keep atom order
        cum = np.cumsum(mass[order])
        before = np.concatenate(([0.0], cum))[first]
        # the pieces below the median: in-chunk mass short of half, less 1e-12
        short = cum - before[chunk] < (cum[last] - before)[chunk] / 2.0 - 1e-12
        support[:, c] = values[order][first + np.bincount(chunk[short], minlength=n)]
    projected = DiscreteDistribution.equal_weights(support, p.horizon, p.power)
    cost = wasserstein1(p, projected)
    # the projection is canonical up to atom order; report it sorted
    return projected.atoms.copy(), cost


# ---------------------------------------------------------------------------
# boundary pushes
#
# Both worst cases come from one walk. The lower case pushes e_lo up toward
# the energy cap (sign +1); the upper case is its mirror image, pushing e_hi
# down toward zero (sign -1). The walk works in signed distance
# sign * (target - x), so every step is the same arithmetic on either side.
# The public push_lower/push_upper report the paper's 1-based critical index
# i_c: push_lower gives N+1 when nothing moved and 0 when every atom reached
# the ceiling; push_upper mirrors this (0 nothing moved, N+1 everything at
# the floor).


def _push_walk(values, partners, budget, target, sign):
    """Budget-true push of values toward target, nearest atom first.

    values/partners are ordered nearest to the target first; a partner is
    the other energy bound of the same atom, dragged along whenever the
    push would cross it, and that drag is charged to the budget too, so the
    plan's full cost never exceeds it. Returns (values, partners, k, kappa,
    spent, repaired) where k is the position of the critical atom: -1 when
    nothing moved, n when every atom reached the target.
    """
    p = values.copy()
    q = partners.copy()
    n = p.size
    b = float(budget)
    if b <= _TINY:
        return p, q, -1, 0.0, 0.0, 0
    spent = 0.0
    repaired = 0
    for k in range(n):
        full = (sign * (target - p[k]) + sign * (target - q[k])) / n
        if full <= b + _TINY:
            b = max(b - full, 0.0)
            spent += full
            if sign * target > sign * q[k] + _TINY:
                repaired += 1
            p[k] = q[k] = target
            continue
        gap = sign * (q[k] - p[k])
        if b * n <= gap:
            y = p[k] + sign * (b * n)
        else:
            y = q[k] + sign * ((b - gap / n) * n / 2.0)
            repaired += 1
        spent += b
        kappa = abs(y - p[k])
        p[k] = y
        if sign * y > sign * q[k]:
            q[k] = y
        return p, q, k, kappa, spent, repaired
    return p, q, n, 0.0, spent, repaired


def _validate_push_args(values, budget):
    values = _floats(values, "values")
    if values.ndim != 1 or values.size == 0:
        raise DimensionMismatch("values must be a non-empty 1-D array")
    if not (np.isfinite(values).all() and _is_finite(budget)):
        raise DomainError(f"values and budget must be finite, got budget {budget!r}")
    if np.any(np.diff(values) < -1e-12):
        raise NotMonotone("values must be sorted non-decreasing")
    if budget < 0:
        raise NegativeBudget(f"budget must be non-negative, got {budget!r}")
    return values


def push_lower(values, budget: float, ceiling: float):
    """Push point masses toward the ceiling, largest first, until the budget
    is spent.

    Moving atom i of n to the ceiling costs (ceiling - v_i)/n; the first atom
    that cannot move fully moves by kappa = remaining_budget * n and is
    recorded as the critical index (1-based). Returns (pushed, i_c, kappa).
    """
    values = _validate_push_args(values, budget)
    if not _is_finite(ceiling):
        raise DomainError(f"ceiling must be finite, got {ceiling!r}")
    if np.any(values > ceiling + 1e-12):
        raise EnergyOutOfRange("values must not exceed the ceiling")
    pinned = np.full(values.size, float(ceiling))
    out, _, k, kappa, _, _ = _push_walk(values[::-1], pinned, budget, ceiling, 1.0)
    return out[::-1], values.size - k, kappa


def push_upper(values, budget: float):
    """Mirror of push_lower: masses move toward zero, smallest first."""
    values = _validate_push_args(values, budget)
    if np.any(values < -1e-12):
        raise EnergyOutOfRange("values must be non-negative")
    out, _, k, kappa, _, _ = _push_walk(values, np.zeros(values.size), budget, 0.0, -1.0)
    return out, k + 1, kappa


# ---------------------------------------------------------------------------
# tail bound


def beta_from_epsilon(eps: float, n: int, constants: ConcentrationConstants) -> float:
    """Confidence complement for a ball radius: c1 * exp(-c2 * n * eps^2)."""
    _check_epsilon(eps)
    n = _check_integer(n, "n", minimum=1)
    if eps > 1:
        warnings.warn(
            f"eps={eps} is outside the (0, 1] validity range of the tail bound",
            RangeWarning,
            stacklevel=2,
        )
    return constants.c1 * math.exp(-constants.c2 * n * eps * eps)


def _check_epsilon(eps) -> None:
    """A radius the tail bound can read: positive and finite."""
    if not (_is_finite(eps) and eps > 0):
        raise DomainError(f"eps must be positive and finite, got {eps!r}")


def _check_beta(beta, constants: ConcentrationConstants) -> None:
    """A confidence complement the tail bound can invert: 0 < beta < c1."""
    if not (_is_finite(beta) and 0 < beta < constants.c1):
        raise DomainError(f"beta must lie in (0, c1), got {beta!r}")


def epsilon_from_beta(beta: float, n: int, constants: ConcentrationConstants) -> float:
    """Inverse of beta_from_epsilon."""
    _check_beta(beta, constants)
    n = _check_integer(n, "n", minimum=1)
    eps = math.sqrt(math.log(constants.c1 / beta) / (constants.c2 * n))
    if eps > 1:
        warnings.warn(
            f"implied eps={eps} is outside the (0, 1] validity range of the tail bound",
            RangeWarning,
            stacklevel=2,
        )
    return eps


# ---------------------------------------------------------------------------
# robust set assembly


@dataclass(frozen=True, eq=False)
class RobustSetResult:
    """Robust aggregate flexibility set plus plan bookkeeping.

    Every field is in energy units: costs (epsilon, projection_cost, budgets,
    w1 distances) are L1 transport costs, populations and kappa energies; an
    empty set has flex.is_empty. robust_set has checked both worst cases
    against the radius by their displacement certificate; w1_lo and w1_hi
    are their exact distances to the distribution, solved on first read.
    """

    flex: AggregateFlexSet
    distribution: DiscreteDistribution  # the input, for the exact distances
    worst_lo: Population  # lower-bound energies pushed up
    worst_hi: Population  # upper-bound energies pushed down
    epsilon: float
    projection_cost: float
    projected_support: np.ndarray  # (N, 2)
    budget_lo: float  # spent pushing the lower-bound energies up
    budget_hi: float  # spent pushing the upper-bound energies down
    i_c_lo: int
    kappa_lo: float
    i_c_hi: int
    kappa_hi: float
    repaired_lo: int  # atoms whose e_hi had to be lifted to keep e_lo <= e_hi
    repaired_hi: int

    @functools.cached_property
    def w1_lo(self) -> float:
        """Exact distance from the distribution to the lower worst case."""
        return self._w1(self.worst_lo)

    @functools.cached_property
    def w1_hi(self) -> float:
        """Exact distance from the distribution to the upper worst case."""
        return self._w1(self.worst_hi)

    def _w1(self, worst: Population) -> float:
        pairs = np.column_stack([worst.e_lo, worst.e_hi])
        support = DiscreteDistribution.equal_weights(pairs, worst.horizon, worst.power)
        return wasserstein1(self.distribution, support)


def _certified_distances(proj_cost, starts, e_lo, e_hi) -> np.ndarray:
    """Upper bounds on W1(p, worst case) by the triangle inequality.

    W1(p, worst) <= W1(p, projection) + W1(projection, worst), and moving
    each projected atom start[k] (weight 1/N) to (e_lo[k], e_hi[k]) is one
    coupling of the last two, so its cost bounds their distance. starts
    holds one (N, 2) support per side, e_lo and e_hi one (R, N) stack of
    worst cases per side; the (side, R) bounds are read off the arrays, not
    taken from the walks' own bookkeeping.
    """
    moved = np.abs(e_lo - starts[:, None, :, 0]) + np.abs(e_hi - starts[:, None, :, 1])
    return proj_cost + moved.sum(axis=-1) / starts.shape[1]


def _check_radii(epsilons) -> np.ndarray:
    """Ball radii as a new float array: a non-empty 1-D sequence of finite,
    non-negative and strictly increasing numbers (one radius is a grid of one)."""
    radii = _floats(epsilons, "epsilons")
    if radii.ndim != 1:
        raise DimensionMismatch(f"epsilons must be a 1-D sequence, got shape {radii.shape}")
    if not (np.isfinite(radii).all() and (radii >= 0).all()):
        raise DomainError(f"epsilons must be finite and non-negative, got {radii.tolist()}")
    if radii.size == 0 or (np.diff(radii) <= 0).any():
        raise NotMonotone(f"epsilons must be strictly increasing, got {radii.tolist()}")
    return radii


@dataclass(frozen=True, eq=False)
class _WorstCases:
    """The two worst cases of one (distribution, N) at each feasible radius.

    Radius r is feasible when it covers the projection cost; worst, nu_lo
    and nu_hi hold the R' feasible radii in their given order. Costs are in
    energy units.
    """

    support: np.ndarray  # (N, 2) projected support
    projection_cost: float
    feasible: np.ndarray  # (R,) bool
    worst: np.ndarray  # (2, 2, R', N): [lower, upper case][e_lo, e_hi][radius]
    nu_lo: np.ndarray  # (R', T): the lower worst cases' lower generating vectors
    nu_hi: np.ndarray  # (R', T): the upper worst cases' upper generating vectors
    walks: list  # per feasible radius: (i_c, kappa, spent, repaired) of the lower and upper walk


def _worst_cases(
    p: DiscreteDistribution, n: int, epsilons, atol: float = DEFAULT_ATOL
) -> _WorstCases:
    """Both worst cases and the bound pair of robust_set for every radius at once.

    The arguments are checked and the projection made once; each
    feasible radius runs its own two walks, and their stacked worst cases
    get one certificate check, one domain check and one generating-vector
    pass per side, on p's own horizon and power. Each radius's arrays
    are those robust_set(p, n, eps, ...) builds alone, bit for bit.
    """
    radii = _check_radii(epsilons)
    _check_atol(atol)
    n = _check_integer(n, "n", minimum=1)
    cap = p.energy_cap

    support, proj_cost = project_to_n_points(p, n)
    residuals = radii - proj_cost
    feasible = residuals >= -1e-12
    radii = radii[feasible]
    residuals = np.maximum(residuals[feasible], 0.0)

    # lower worst case: support is lex-sorted, so the largest e_lo comes last;
    # upper worst case: the smallest e_hi comes first
    rev = support[::-1]
    ordered = support[np.argsort(support[:, 1], kind="stable")]
    worst = np.empty((2, 2, residuals.size, n))
    walks = []
    for r, residual in enumerate(residuals.tolist()):
        l_lo, l_hi, k_lo, kappa_lo, spent_lo, repaired_lo = _push_walk(
            rev[:, 0], rev[:, 1], residual, cap, 1.0
        )
        worst[0, 0, r], worst[0, 1, r] = l_lo[::-1], l_hi[::-1]
        u_hi, u_lo, k_hi, kappa_hi, spent_hi, repaired_hi = _push_walk(
            ordered[:, 1], ordered[:, 0], residual, 0.0, -1.0
        )
        worst[1, 0, r], worst[1, 1, r] = u_lo, u_hi
        lower = (n - k_lo, kappa_lo, spent_lo, repaired_lo)
        walks.append((lower, (k_hi + 1, kappa_hi, spent_hi, repaired_hi)))

    # the certificate may pass the radius by rounding alone: by the 1e-12
    # the residual was granted above, and by a few ulps of displacement
    # sums over energies up to the cap; atol comes on top
    allowed = radii + atol + 1e-12 + 1e-12 * max(1.0, cap)
    bounds = _certified_distances(
        proj_cost, np.stack((support, ordered)), worst[:, 0], worst[:, 1]
    )
    over = bounds > allowed
    if over.any():
        r = int(over.any(axis=0).argmax())  # the first radius, lower side first
        side = 0 if over[0, r] else 1
        raise NumericalFailure(
            f"budget accounting violated: {('lower', 'upper')[side]} worst case certified at "
            f"distance {float(bounds[side, r])} > eps {float(radii[r])}"
        )
    check_energy_domain(worst[:, 0], worst[:, 1], cap)
    return _WorstCases(
        support=support,
        projection_cost=proj_cost,
        feasible=feasible,
        worst=worst,
        nu_lo=_generating_vectors(worst[0, 0], p.power, p.horizon),
        nu_hi=_generating_vectors(worst[1, 1], p.power, p.horizon),
        walks=walks,
    )


def robust_set(
    p: DiscreteDistribution,
    n: int,
    eps: float,
    atol: float = DEFAULT_ATOL,
) -> RobustSetResult:
    """Distributionally robust aggregate flexibility set for N sampled jobs.

    The set is fixed by the distribution p, which carries the horizon T and
    power m, the population size N and the radius eps. It projects the
    distribution onto N equal-weight atoms, spends the remaining radius
    pushing lower-bound energies toward the energy cap m*T and upper-bound
    energies toward zero, certifies both resulting empirical distributions
    are within eps of the input, and assembles the set
    parameterised by the two pushed populations: nu_lo of the lower worst
    case L and nu_hi of the upper worst case U. This is the one-radius case
    of _worst_cases, the core the Monte Carlo harness runs on all of a
    cell's radii at once, wrapped as populations, a set and a result.

    The certificate is the projection cost plus the 1/N-weighted L1
    displacement of every atom from the projected support, an upper bound
    on the exact W1, so no transport problem is solved for it. It may
    exceed eps by atol plus a fixed rounding allowance of
    1e-12 + 1e-12 * max(1, m*T), so atol=0 holds; beyond that it raises
    NumericalFailure. The exact distances w1_lo/w1_hi are solved when first
    read.

    That pair describes exactly the intersection of the two worst cases'
    sets. Each walk moves every projected atom one way only: the lower walk
    raises e_lo and can only drag e_hi up, the upper walk lowers e_hi and
    can only drag e_lo down, so atom by atom e^U <= e^proj <= e^L in both
    coordinates. The paramodular pair p(S) = sum_i min(m|S|, e_hi[i]) and
    b(S) = sum_i max(0, e_lo[i] - m(T - |S|)) is monotone in every energy,
    hence p_U <= p_L and b_L >= b_U, and the intersection
    {b_L <= u(S) <= p_L} & {b_U <= u(S) <= p_U} is {b_L <= u(S) <= p_U}.
    """
    cell = _worst_cases(p, n, (eps,), atol)
    if not cell.feasible[0]:
        raise BudgetInfeasible(float(eps), float(cell.projection_cost))
    lower, upper = cell.walks[0]
    worst_lo = Population(cell.worst[0, 0, 0], cell.worst[0, 1, 0], p.horizon, p.power)
    worst_hi = Population(cell.worst[1, 0, 0], cell.worst[1, 1, 0], p.horizon, p.power)
    return RobustSetResult(
        flex=AggregateFlexSet(cell.nu_lo[0], cell.nu_hi[0], p.power),
        distribution=p,
        worst_lo=worst_lo,
        worst_hi=worst_hi,
        epsilon=eps,
        projection_cost=cell.projection_cost,
        projected_support=cell.support,
        budget_lo=lower[2],
        budget_hi=upper[2],
        i_c_lo=lower[0],
        kappa_lo=lower[1],
        i_c_hi=upper[0],
        kappa_hi=upper[1],
        repaired_lo=lower[3],
        repaired_hi=upper[3],
    )
