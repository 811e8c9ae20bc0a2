"""Monte Carlo certification of the tracking guarantee.

A cell is one population size with all its ball radii. Its trials are
grouped by the population (multiset of atoms) they drew, and the work
its radii share is done once. The check works in atom space: a
population's cap row is a sum over its EVs, so it is its atom counts
times a per-atom cap table. The cap rows of the cell's distinct
populations are built once, as the columns of one (2T, U) array. Each
radius builds its robust set and that set's vertex envelope (one row of
cut sums) and compares the envelope with every cap column. No array on
that path has a population-size or a T x T axis.

Randomness comes from one counter-based Philox stream per (master seed,
population size), defined by ``trial_rng``. A cell draws all of its
trials from it at once as multinomial atom counts, and every radius of
the cell scores that same draw (common random numbers). The samples of
different population sizes are independent, and results do not depend
on execution order. The CSV records this as stream version 2
(``STREAM_VERSION``).

Each cell's violation rate carries a 95% Clopper-Pearson interval
(``clopper_pearson``). Its bounds are beta quantiles from
``scipy.special.betaincinv``, the Boost routine behind
``scipy.stats.beta.ppf``, called directly: the values are the same.
``scipy.special`` is imported on the first call, so importing the package
loads neither ``scipy.stats`` nor ``scipy.special``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .aggregate import _cap_row, _check_atol, _fastest_profiles, _member_matrix
from .aggregate import batch_contains  # noqa: F401  (perfbench/tracing.py wraps this name)
from .ambiguity import (
    ConcentrationConstants,
    DiscreteDistribution,
    _check_count,
    _check_power,
    robust_set,
)
from .core import DEFAULT_ATOL, Population, TimeGrid
from .errors import BudgetInfeasible, InsufficientData

SEED_LIMIT = 2**64  # master seeds are 64-bit
# an input bound on trials per cell; at 2**32 trials a cell's (trials,
# atoms) count matrix already needs 32 GiB per atom
TRIAL_LIMIT = 2**32
STREAM_VERSION = 2  # written as "# stream=2" in the results CSV


@dataclass(frozen=True)
class TrialConfig:
    distribution: DiscreteDistribution
    population_size: int
    epsilons: tuple[float, ...]
    trials: int
    seed: int
    grid: TimeGrid
    power: float = 1.0
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        if not 1 <= self.trials <= TRIAL_LIMIT:
            raise ValueError(f"trials must be in [1, {TRIAL_LIMIT}], got {self.trials}")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if not all(map(math.isfinite, self.epsilons)):
            raise ValueError(f"epsilons must be finite, got {self.epsilons!r}")
        if len(self.epsilons) == 0 or np.any(np.diff(self.epsilons) <= 0):
            raise ValueError("epsilons must be strictly increasing")
        if not (0 <= self.seed < SEED_LIMIT):
            raise ValueError("seed must fit in 64 bits")
        _check_power(self.power)
        _check_atol(self.atol)


@dataclass(frozen=True)
class ViolationStats:
    """Violation counts for one (epsilon, N) cell.

    degenerate marks cells without evidential value: the robust set was
    empty (trivially tracked, violations stay 0) or the radius was below
    the projection cost (no set exists; trials stays 0 and the estimates
    are NaN).
    """

    epsilon: float
    population_size: int
    horizon: int
    trials: int
    violations: int
    beta_hat: float
    ci_lo: float
    ci_hi: float
    degenerate: bool


def clopper_pearson(k: int, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval at level 1 - alpha.

    The bounds equal ``scipy.stats.beta.ppf``'s bit for bit.
    """
    from scipy.special import betaincinv  # most of the import time of the package; only this needs it

    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    if not 0 < alpha < 1:
        raise ValueError(f"need 0 < alpha < 1, got alpha={alpha}")
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi


def trial_rng(seed: int, population_size: int) -> np.random.Generator:
    """The Philox stream of one (seed, N) cell, shared by all its radii."""
    seq = np.random.SeedSequence(seed, spawn_key=(population_size,))
    return np.random.Generator(np.random.Philox(seq))


def sample_population(
    dist: DiscreteDistribution,
    n: int,
    rng: np.random.Generator,
    grid: TimeGrid,
    power: float = 1.0,
) -> Population:
    """Draw n i.i.d. charging requirements from the distribution.

    The draw is the multinomial atom counts of the n jobs, so the t-th call
    on trial_rng(seed, n) gives row t of run_trials' count matrix.
    """
    counts = rng.multinomial(_check_count(n), dist.weights)
    return Population.from_energy_pairs(np.repeat(dist.atoms, counts, axis=0), grid.steps, power)


def _distinct_populations(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group (R, A) atom-count rows by the multiset they hold.

    Returns the (U, A) rows of the U distinct multisets and, for every
    row, the index of its group. Each row is packed into as few int64
    keys as hold it, 63 // c.bit_length() atoms per key for the largest
    count c (one key for the paper's 5 atoms), and the keys are sorted
    in place of the A columns. Later atoms sit in higher bits and in
    later keys, so the multisets come out in np.lexsort(counts.T) order.
    """
    rows, atoms = counts.shape
    bits = max(int(counts.max()), 1).bit_length()
    per_key = 63 // bits
    col = np.arange(atoms)
    packing = np.zeros((atoms, -(-atoms // per_key)), dtype=np.int64)
    packing[col, col // per_key] = np.left_shift(1, bits * (col % per_key))
    keys = counts @ packing  # disjoint bit fields: the sum is exact
    order = np.lexsort(keys.T)
    ranked = keys[order]
    first = np.ones(rows, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(rows, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return counts[order[first]], group


def _atom_cap_table(atoms: np.ndarray, m: float, horizon: int) -> np.ndarray:
    """(A, 2T) cap rows [p(1..T), -b(1..T)] of each atom as a single EV.

    Every cap of the criterion (_cap_row) is a sum over a population's
    EVs, so a population with atom counts c has the cap row c @ table.
    """
    lo = _fastest_profiles(atoms[:, 0], m, horizon)
    hi = _fastest_profiles(atoms[:, 1], m, horizon)
    return _cap_row(lo, hi)


def _cap_columns(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The cap rows of (U, A) atom counts, one per column: a contiguous (2T, U) array.

    BLAS may round a product of non-dyadic entries differently with its
    shape and orientation, so a cap row can move in its last bits with U;
    on half-integer atoms at power 1, as in the paper, every sum is exact.
    """
    return table.T @ counts.T


def _populations_clear(envelope: np.ndarray, caps: np.ndarray, atol: float) -> np.ndarray:
    """Whether each population, a column of (2T, U) caps, clears the (2T,)
    envelope row: the (U,) verdicts of _member_matrix, reduced over 2T."""
    return _member_matrix(caps, envelope[:, None], atol, axis=0)


def run_trials(cfg: TrialConfig) -> list[ViolationStats]:
    """Estimate the violation probability for every configured radius.

    Each trial draws a population (a multiset of atoms) and counts as a
    violation when the robust set is not inside the population's set: when
    one of the T+1 sorted vertices fails the membership criterion, the
    predicate of is_subset_exact and of batch_contains(...).all(axis=1).

    A cell (one population size, all its radii) shares its work:
    - All trials are drawn once, as a (trials, A) matrix of multinomial
      atom counts from trial_rng(seed, N), and every radius scores that
      same draw.
    - Small populations drawn from few atoms repeat, so the rows are
      grouped by multiset (_distinct_populations) and each distinct one
      is scored once per radius. A verdict is therefore a function of the
      multiset, not of the draw order.
    - Every cap of the criterion is a sum over the population's EVs, so a
      population's cap row is its atom counts times a per-atom table.
      The cap rows of the distinct multisets are built once per cell, as
      the columns of one (2T, U) array (_cap_columns).
    - robust_set runs once per radius, and each non-empty set's vertex
      envelope (the largest cut sums over its vertices) is compared with
      the cap columns by _populations_clear, reducing over the 2T axis:
      (2T, U) comparisons, with no (U, N) energy array and no (U, T+1, T)
      bound array.
    On atoms whose caps are not exact in binary (not the paper's
    half-integer ones) a cap can differ in its last bit from the one
    earlier releases computed, so at atol=0 a violation count can differ
    by one from theirs.
    """
    dist = cfg.distribution
    n = cfg.population_size
    table = _atom_cap_table(dist.atoms, cfg.power, cfg.grid.steps)
    rng = trial_rng(cfg.seed, n)
    distinct, group = _distinct_populations(rng.multinomial(n, dist.weights, size=cfg.trials))
    sizes = np.bincount(group)
    caps = _cap_columns(distinct, table)
    out = []
    for eps in cfg.epsilons:
        try:
            result = robust_set(dist, n, eps, cfg.grid, cfg.power, atol=cfg.atol)
        except BudgetInfeasible:
            out.append(
                ViolationStats(
                    epsilon=eps,
                    population_size=n,
                    horizon=cfg.grid.steps,
                    trials=0,
                    violations=0,
                    beta_hat=math.nan,
                    ci_lo=math.nan,
                    ci_hi=math.nan,
                    degenerate=True,
                )
            )
            continue
        if result.empty:
            violations = 0
        else:
            inside = _populations_clear(result.flex._vertex_envelope, caps, cfg.atol)
            violations = int(sizes[~inside].sum())
        ci_lo, ci_hi = clopper_pearson(violations, cfg.trials)
        out.append(
            ViolationStats(
                epsilon=eps,
                population_size=n,
                horizon=cfg.grid.steps,
                trials=cfg.trials,
                violations=violations,
                beta_hat=violations / cfg.trials,
                ci_lo=ci_lo,
                ci_hi=ci_hi,
                degenerate=result.empty,
            )
        )
    return out


@dataclass(frozen=True)
class FitResult:
    constants: ConcentrationConstants
    r_squared: float
    n_used: int
    n_excluded: int


@dataclass(frozen=True)
class PerNFit:
    """Log-linear fit of one population size's violation rates against eps^2."""

    population_size: int
    rows: int
    slope: float  # nan when fewer than 3 rows are usable
    r_squared: float


def _positive_rows(stats: list[ViolationStats]) -> list[ViolationStats]:
    """Rows whose violation estimate carries log information."""
    return [
        s
        for s in stats
        if s.trials > 0 and not math.isnan(s.beta_hat) and s.beta_hat > 0
    ]


def _log_linear_fit(x: np.ndarray, rates: list[float]) -> tuple[float, float, float]:
    """Least-squares line through (x, log rate): slope, intercept, R^2."""
    y = np.log(rates)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - float((resid**2).sum()) / ss_tot
    return float(slope), float(intercept), r_squared


def fit_constants(stats: list[ViolationStats]) -> FitResult:
    """Least-squares fit of log violation rates against N * eps^2.

    Rows with a zero (or undefined) violation estimate carry no log
    information and are excluded with a warning.
    """
    rows = _positive_rows(stats)
    excluded = len(stats) - len(rows)
    if excluded:
        warnings.warn(
            f"excluded {excluded} rows with zero or undefined violation estimates",
            stacklevel=2,
        )
    if len(rows) < 3:
        raise InsufficientData(
            f"need at least 3 rows with positive violation estimates, got {len(rows)}"
        )
    x = np.array([s.population_size * s.epsilon**2 for s in rows])
    slope, intercept, r_squared = _log_linear_fit(x, [s.beta_hat for s in rows])
    if slope >= 0:
        raise InsufficientData("violation rates do not decay; cannot fit positive constants")
    return FitResult(
        constants=ConcentrationConstants(c1=float(np.exp(intercept)), c2=-slope),
        r_squared=r_squared,
        n_used=len(rows),
        n_excluded=excluded,
    )


def fit_per_n(stats: list[ViolationStats]) -> list[PerNFit]:
    """Per population size, fit log violation rates against eps^2.

    The tail bound predicts a slope of -c2 * N for each size. Sizes with
    fewer than 3 positive rows report a nan slope and R^2.
    """
    usable = _positive_rows(stats)
    fits = []
    for size in sorted({s.population_size for s in stats}):
        rows = [s for s in usable if s.population_size == size]
        slope = r_squared = math.nan
        if len(rows) >= 3:
            x = np.array([s.epsilon**2 for s in rows])
            slope, _, r_squared = _log_linear_fit(x, [s.beta_hat for s in rows])
        fits.append(PerNFit(size, len(rows), slope, r_squared))
    return fits
