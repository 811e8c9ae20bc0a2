"""Monte Carlo certification of the tracking guarantee.

A cell is one population size with all its ball radii. Its trials are
grouped by the population (multiset of atoms) they drew, and the work
its radii share is done once. The check works in atom space: a
population's cap row is a sum over its EVs, so it is its atom counts
times a per-atom cap table. The cap rows of the cell's distinct
populations are built once, as the columns of one (2T, U) array. The
robust sets of all the cell's radii come from one worst-case pass, and
their vertex envelopes (one row of cut sums per non-empty set) are
compared with every cap column in one (R', U) comparison. No array on
that path has a population-size axis, and the only T x T one is the
envelope's (R', T+1, T) vertex stack.

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

from .aggregate import _cap_row, _check_pair, _is_empty, _member_matrix
from .aggregate import Population, _vertex_envelope
from .aggregate import batch_contains  # noqa: F401  (perfbench/tracing.py wraps this name)
from .ambiguity import ConcentrationConstants, DiscreteDistribution, _check_radii, _worst_cases
from .ambiguity import robust_set  # noqa: F401  (perfbench/tracing.py wraps this name)
from .core import DEFAULT_ATOL, _check_atol, _check_integer, _generating_vectors, _is_finite
from .errors import DomainError, InsufficientData

SEED_LIMIT = 2**64  # master seeds are 64-bit
# an input bound on trials per cell; at 2**32 trials a cell's (trials,
# atoms) count matrix already needs 32 GiB per atom
TRIAL_LIMIT = 2**32
STREAM_VERSION = 2  # written as "# stream=2" in the results CSV


def _check_seed(seed, name: str = "seed") -> int:
    return _check_integer(seed, name, minimum=0, maximum=SEED_LIMIT - 1)


def _check_trials(trials) -> int:
    return _check_integer(trials, "trials", minimum=1, maximum=TRIAL_LIMIT)


@dataclass(frozen=True)
class TrialConfig:
    """One cell: a population size and its radii, on its distribution's horizon and power."""

    distribution: DiscreteDistribution
    population_size: int
    epsilons: tuple[float, ...]
    trials: int
    seed: int
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(_check_radii(self.epsilons).tolist()))
        size = _check_integer(self.population_size, "population_size", minimum=1)
        object.__setattr__(self, "population_size", size)
        object.__setattr__(self, "trials", _check_trials(self.trials))
        object.__setattr__(self, "seed", _check_seed(self.seed))
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

    n = _check_integer(n, "n", minimum=1)
    k = _check_integer(k, "k", minimum=0, maximum=n)
    if not (_is_finite(alpha) and 0 < alpha < 1):
        raise DomainError(f"need 0 < alpha < 1, got alpha={alpha}")
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi


def trial_rng(seed: int, population_size: int) -> np.random.Generator:
    """The Philox stream of one (seed, N) cell, shared by all its radii."""
    seed = _check_seed(seed)
    population_size = _check_integer(population_size, "population_size", minimum=0)
    seq = np.random.SeedSequence(seed, spawn_key=(population_size,))
    return np.random.Generator(np.random.Philox(seq))


def sample_population(dist: DiscreteDistribution, n: int, rng: np.random.Generator) -> Population:
    """Draw n i.i.d. charging requirements from the distribution, as a
    population on its horizon and power.

    The draw is the multinomial atom counts of the n jobs, so the t-th call
    on trial_rng(seed, n) gives row t of run_trials' count matrix.
    """
    n = _check_integer(n, "n", minimum=1)
    counts = rng.multinomial(n, dist.weights)
    pairs = np.repeat(dist.atoms, counts, axis=0)
    return Population.from_energy_pairs(pairs, dist.horizon, dist.power)


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
    Each row is the one-EV population's own cap row, bit for bit.
    """
    lo, hi = _generating_vectors(atoms.T[..., None], m, horizon)  # (2, A, 1) -> (2, A, T)
    return _cap_row(lo, hi)


def _cap_columns(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The cap rows of (U, A) atom counts, one per column: a contiguous (2T, U) array.

    BLAS may round a product of non-dyadic entries differently with its
    shape and orientation, so a cap row can move in its last bits with U;
    on half-integer atoms at power 1, as in the paper, every sum is exact.
    """
    return table.T @ counts.T


def _populations_clear(envelopes: np.ndarray, caps: np.ndarray, atol: float) -> np.ndarray:
    """Whether each population, a column of (2T, U) caps, clears each (..., 2T)
    envelope row: the (..., U) verdicts of _member_matrix, reduced over 2T."""
    return _member_matrix(caps, envelopes[..., None], atol, axis=-2)


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
      is scored once. A verdict is therefore a function of the multiset,
      not of the draw order.
    - Every cap of the criterion is a sum over the population's EVs, so a
      population's cap row is its atom counts times a per-atom table.
      The cap rows of the distinct multisets are built once per cell, as
      the columns of one (2T, U) array (_cap_columns).
    - The robust sets of all radii come from one worst-case pass
      (ambiguity._worst_cases, the core of robust_set): one argument check
      and projection, the two walks per radius, then one certificate,
      domain check and generating-vector pass over the stacked worst
      cases. Their (R, T) bound pairs get the checks of AggregateFlexSet
      at once.
    - The non-empty sets' vertex envelopes (the largest cut sums over
      their vertices) are built as one (R', 2T) array and compared with
      the cap columns in one _populations_clear call, reducing over the
      2T axis: (R', 2T, U) comparisons, with no (U, N) energy array and
      no (U, T+1, T) bound array.
    Every radius's set, verdicts and counts are those robust_set and a
    one-radius cell give it alone. A table row is its atom's one-EV cap row
    bit for bit, so only summation order differs: on caps not exact in
    binary (not the paper's half-integer atoms) counts @ table can round
    unlike the population's own sum over its EVs, and at atol=0 a verdict
    can then differ from is_subset_exact's.
    """
    dist = cfg.distribution
    n = cfg.population_size
    table = _atom_cap_table(dist.atoms, dist.power, dist.horizon)
    rng = trial_rng(cfg.seed, n)
    distinct, group = _distinct_populations(rng.multinomial(n, dist.weights, size=cfg.trials))
    sizes = np.bincount(group)
    caps = _cap_columns(distinct, table)
    cell = _worst_cases(dist, n, cfg.epsilons, atol=cfg.atol)
    _check_pair(cell.nu_lo, cell.nu_hi)
    empty = _is_empty(cell.nu_lo, cell.nu_hi)
    full = ~empty
    violations = np.zeros(empty.size, dtype=np.int64)
    if full.any():
        envelopes = _vertex_envelope(cell.nu_lo[full], cell.nu_hi[full])
        violations[full] = (~_populations_clear(envelopes, caps, cfg.atol) * sizes).sum(axis=1)
    out = []
    made = iter(zip(empty.tolist(), violations.tolist()))
    for eps, feasible in zip(cfg.epsilons, cell.feasible.tolist()):
        if feasible:
            degenerate, count = next(made)
            trials = cfg.trials
            beta_hat = count / trials
            ci_lo, ci_hi = clopper_pearson(count, trials)
        else:  # no set exists: no trials and no estimates
            trials = count = 0
            beta_hat = ci_lo = ci_hi = math.nan
            degenerate = True
        out.append(
            ViolationStats(
                epsilon=eps,
                population_size=n,
                horizon=dist.horizon,
                trials=trials,
                violations=count,
                beta_hat=beta_hat,
                ci_lo=ci_lo,
                ci_hi=ci_hi,
                degenerate=degenerate,
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
    slope: float  # nan when fewer than 3 rows or 2 distinct eps^2 are usable
    r_squared: float


def _positive_rows(stats: list[ViolationStats]) -> list[ViolationStats]:
    """Rows whose violation estimate carries log information at a finite N * eps^2."""
    return [
        s
        for s in stats
        if s.trials > 0 and 0 < s.beta_hat < math.inf
        and math.isfinite(s.population_size * (s.epsilon * s.epsilon))
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

    Rows with a zero or non-finite violation estimate carry no log
    information and rows whose N * eps^2 overflows have no place on the
    axis; both are excluded with a warning. Too few usable rows (3, at 2
    distinct N * eps^2, determine a line) or constants that are not
    positive and finite raise InsufficientData.
    """
    rows = _positive_rows(stats)
    excluded = len(stats) - len(rows)
    if excluded:
        warnings.warn(
            f"excluded {excluded} rows with zero or non-finite violation estimates or N * eps^2",
            stacklevel=2,
        )
    if len(rows) < 3:
        raise InsufficientData(
            f"need at least 3 rows with positive violation estimates, got {len(rows)}"
        )
    x = np.array([s.population_size * (s.epsilon * s.epsilon) for s in rows])
    if np.unique(x).size < 2:
        raise InsufficientData(f"all {len(rows)} usable rows share one N * eps^2; a line needs two")
    slope, intercept, r_squared = _log_linear_fit(x, [s.beta_hat for s in rows])
    if slope >= 0:
        raise InsufficientData("violation rates do not decay; cannot fit positive constants")
    with np.errstate(over="ignore"):  # an overflow gives c1 = inf, rejected below
        c1 = float(np.exp(intercept))
    try:
        constants = ConcentrationConstants(c1=c1, c2=-slope)
    except ValueError as exc:
        raise InsufficientData(f"cannot fit the constants: {exc}") from exc
    return FitResult(
        constants=constants,
        r_squared=r_squared,
        n_used=len(rows),
        n_excluded=excluded,
    )


def fit_per_n(stats: list[ViolationStats]) -> list[PerNFit]:
    """Per population size, fit log violation rates against eps^2.

    The tail bound predicts a slope of -c2 * N for each size. Sizes with
    fewer than 3 positive rows or 2 distinct eps^2 report a nan slope and R^2.
    """
    usable = _positive_rows(stats)
    fits = []
    for size in sorted({s.population_size for s in stats}):
        rows = [s for s in usable if s.population_size == size]
        x = np.array([s.epsilon * s.epsilon for s in rows])
        slope = r_squared = math.nan
        if len(rows) >= 3 and np.unique(x).size >= 2:
            slope, _, r_squared = _log_linear_fit(x, [s.beta_hat for s in rows])
        fits.append(PerNFit(size, len(rows), slope, r_squared))
    return fits
