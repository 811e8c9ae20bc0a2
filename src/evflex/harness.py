"""Monte Carlo certification of the tracking guarantee.

For each ball radius the robust set is built once; populations are then
sampled repeatedly and the subset check recorded, once per distinct
population (multiset of atoms) among the trials. The check works in atom
space: a population's caps are sums over its EVs, so they are its atom
counts times per-atom cap tables built once per run, and they are
compared with the robust set's vertex envelope, three vectors built once
per set. No array on that path has a population-size or a T x T axis.

Per-trial randomness comes from counter-based Philox streams keyed by
(master seed, radius index, trial index), so results are independent of
execution order and identical across serial or parallel schedules.
``trial_rng`` defines each stream; the harness computes all of a radius'
streams in one batch of array arithmetic that equals numpy's
``SeedSequence``/``Philox`` output bit for bit, so no per-trial generator
is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import beta as _beta_dist

from .aggregate import _cap_parts, _check_atol, _fastest_profiles
from .aggregate import batch_contains  # noqa: F401  (perfbench/tracing.py wraps this name)
from .ambiguity import (
    ConcentrationConstants,
    DiscreteDistribution,
    robust_set,
)
from .core import DEFAULT_ATOL, Population, TimeGrid
from .errors import BudgetInfeasible, InsufficientData

SEED_LIMIT = 2**64  # master seeds are 64-bit
TRIAL_LIMIT = 2**32  # trial indices must stay one 32-bit spawn-key word


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
    """Exact two-sided binomial confidence interval at level 1 - alpha."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    lo = 0.0 if k == 0 else float(_beta_dist.ppf(alpha / 2, k, n - k + 1))
    hi = 1.0 if k == n else float(_beta_dist.ppf(1 - alpha / 2, k + 1, n - k))
    return lo, hi


def trial_rng(seed: int, eps_index: int, trial_index: int) -> np.random.Generator:
    """Independent Philox stream for one trial; order-insensitive by design."""
    seq = np.random.SeedSequence(seed, spawn_key=(eps_index, trial_index))
    return np.random.Generator(np.random.Philox(seq))


def sample_population(
    dist: DiscreteDistribution,
    n: int,
    rng: np.random.Generator,
    grid: TimeGrid,
    power: float = 1.0,
) -> Population:
    """Draw n i.i.d. charging requirements from the distribution."""
    idx = rng.choice(dist.n_atoms, size=n, p=dist.weights)
    return Population.from_energy_pairs(dist.atoms[idx], grid.steps, power)


# Constants of numpy's SeedSequence (bit_generator.pyx) and of Random123's
# Philox4x64-10, which numpy's Philox runs.
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_U32_16, _U64_11, _U64_32 = np.uint32(16), np.uint64(11), np.uint64(32)
_U64_M32 = np.uint64(_M32)


def _u32_words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative int (0 -> [0])."""
    return [(value >> s) & _M32 for s in range(0, max(value.bit_length(), 1), 32)]


def _hashmix(value: np.ndarray, h: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix on uint32 words; returns them and the next hash constant."""
    value = value ^ np.uint32(h)
    h = h * mult & _M32
    value = value * np.uint32(h)
    return value ^ (value >> _U32_16), h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> _U32_16)


def _philox_keys(seed: int, eps_index: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Philox keys of SeedSequence(seed, spawn_key=(eps_index, t)) for every t < trials.

    The entropy is the seed's words zero-padded to the pool size, then the
    spawn-key words; every trial shares all but the last word.
    """
    run = _u32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    words = [np.full(trials, w, dtype=np.uint32) for w in run + _u32_words(eps_index)]
    words.append(np.arange(trials, dtype=np.uint32))
    h = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(2, uint64): four uint32 words, paired little-endian
    h = _INIT_B
    state = []
    for word in pool:
        value, h = _hashmix(word, h, _MULT_B)
        state.append(value.astype(np.uint64))
    return state[0] | state[1] << _U64_32, state[2] | state[3] << _U64_32


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of a * m, the high word from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _M32), np.uint64(m >> 32)
    a_lo, a_hi = a & _U64_M32, a >> _U64_32
    lh, hl = a_lo * m_hi, a_hi * m_lo
    mid = (a_lo * m_lo >> _U64_32) + (lh & _U64_M32) + (hl & _U64_M32)
    hi = a_hi * m_hi + (lh >> _U64_32) + (hl >> _U64_32) + (mid >> _U64_32)
    return hi, a * np.uint64(m)


def _philox_uniforms(k0: np.ndarray, k1: np.ndarray, n: int) -> np.ndarray:
    """First n doubles of each Philox4x64-10 stream with key (k0[i], k1[i]).

    numpy's Philox starts at counter 0 and increments before each block, so
    block b is the cipher of (b+1, 0, 0, 0); a double is (raw >> 11) * 2**-53.
    """
    blocks = -(-n // 4)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (k0.size, blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = k0[:, None], k1[:, None]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + np.uint64(_PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    raw = np.stack([c0, c1, c2, c3], axis=-1).reshape(k0.size, -1)[:, :n]
    return (raw >> _U64_11) * (1.0 / 9007199254740992.0)


def _trial_indices(
    seed: int, eps_index: int, trials: int, n: int, weights: np.ndarray
) -> np.ndarray:
    """(trials, n) atom indices; row t equals
    trial_rng(seed, eps_index, t).choice(len(weights), size=n, p=weights)."""
    u = _philox_uniforms(*_philox_keys(seed, eps_index, trials), n)
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def _distinct_populations(idx: np.ndarray, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Group (R, N) atom-index rows by the multiset they draw.

    Returns the (U, A) atom-count rows of the U distinct multisets and,
    for every row, the index of its group.
    """
    rows = idx.shape[0]
    offsets = n_atoms * np.arange(rows)[:, None]
    counts = np.bincount((idx + offsets).ravel(), minlength=rows * n_atoms)
    counts = counts.reshape(rows, n_atoms)
    order = np.lexsort(counts.T)
    ranked = counts[order]
    first = np.ones(rows, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(rows, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return ranked[first], group


def _atom_cap_table(atoms: np.ndarray, m: float, horizon: int) -> np.ndarray:
    """(A, 2T+1) caps of each atom as a single EV: reach | tail | lo_total.

    Every cap of the criterion (_cap_parts) is a sum over a population's
    EVs, so a population with atom counts c has caps c @ table.
    """
    lo = _fastest_profiles(atoms[:, 0], m, horizon)
    hi = _fastest_profiles(atoms[:, 1], m, horizon)
    return np.column_stack(_cap_parts(lo, hi))


def _populations_hold(flex, counts: np.ndarray, table: np.ndarray, atol: float) -> np.ndarray:
    """Whether each population, given by its (U, A) atom counts, holds every
    sorted vertex of flex: batch_contains(...).all(axis=1) in (U, T) checks."""
    caps = counts @ table
    horizon = flex.horizon
    return flex._vertices_inside(caps[:, :horizon], caps[:, horizon:-1], caps[:, -1], atol)


def run_trials(cfg: TrialConfig) -> list[ViolationStats]:
    """Estimate the violation probability for every configured radius.

    Each trial draws a population (a multiset of atoms) and counts as a
    violation when the robust set is not inside the population's set: when
    one of the T+1 sorted vertices fails the membership criterion, the
    predicate of is_subset_exact and of batch_contains(...).all(axis=1).
    Small populations drawn from few atoms repeat, so the trials of a
    radius are grouped by multiset and each distinct one is scored once,
    from its atom counts; a verdict is therefore a function of the
    multiset, not of the draw order. Every cap of the criterion is a sum
    over the population's EVs, so a population's caps are its atom counts
    times a per-atom table built once per call, and they are checked
    against the set's vertex envelope (AggregateFlexSet._vertices_inside):
    (U, T) comparisons, with no (U, N) energy array and no (U, T+1, T)
    bound array.
    """
    dist = cfg.distribution
    table = _atom_cap_table(dist.atoms, cfg.power, cfg.grid.steps)
    out = []
    for e_idx, eps in enumerate(cfg.epsilons):
        try:
            result = robust_set(
                cfg.distribution,
                cfg.population_size,
                eps,
                cfg.grid,
                cfg.power,
                atol=cfg.atol,
            )
        except BudgetInfeasible:
            out.append(
                ViolationStats(
                    epsilon=eps,
                    population_size=cfg.population_size,
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
            degenerate = True
        else:
            idx = _trial_indices(
                cfg.seed, e_idx, cfg.trials, cfg.population_size, dist.weights
            )
            counts, group = _distinct_populations(idx, dist.n_atoms)
            inside = _populations_hold(result.flex, counts, table, cfg.atol)
            violations = int((~inside)[group].sum())
            degenerate = False
        beta_hat = violations / cfg.trials
        ci_lo, ci_hi = clopper_pearson(violations, cfg.trials)
        out.append(
            ViolationStats(
                epsilon=eps,
                population_size=cfg.population_size,
                horizon=cfg.grid.steps,
                trials=cfg.trials,
                violations=violations,
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
