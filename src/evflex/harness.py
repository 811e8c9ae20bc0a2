"""Monte Carlo certification of the tracking guarantee.

For each ball radius the robust set is built once; populations are then
sampled repeatedly and the subset check recorded. Per-trial randomness
comes from counter-based Philox streams keyed by (master seed, radius
index, trial index), so results are independent of execution order and
identical across serial or parallel schedules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import beta as _beta_dist

from .aggregate import batch_contains, sorted_vertices
from .ambiguity import (
    ConcentrationConstants,
    DiscreteDistribution,
    robust_set,
)
from .core import DEFAULT_ATOL, Population, TimeGrid
from .errors import BudgetInfeasible, InsufficientData


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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if not all(map(math.isfinite, self.epsilons)):
            raise ValueError(f"epsilons must be finite, got {self.epsilons!r}")
        if len(self.epsilons) == 0 or np.any(np.diff(self.epsilons) <= 0):
            raise ValueError("epsilons must be strictly increasing")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")


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


def _sample_energy_batch(cfg: TrialConfig, eps_index: int):
    n = cfg.population_size
    e_lo = np.empty((cfg.trials, n))
    e_hi = np.empty((cfg.trials, n))
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, eps_index, t)
        idx = rng.choice(cfg.distribution.n_atoms, size=n, p=cfg.distribution.weights)
        e_lo[t] = cfg.distribution.atoms[idx, 0]
        e_hi[t] = cfg.distribution.atoms[idx, 1]
    return e_lo, e_hi


def run_trials(cfg: TrialConfig) -> list[ViolationStats]:
    """Estimate the violation probability for every configured radius.

    Each trial checks the robust set against a freshly sampled population
    with the vectorised membership criterion, which decides exactly the
    same predicate as is_subset_exact on the T+1 sorted vertices.
    """
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
            e_lo, e_hi = _sample_energy_batch(cfg, e_idx)
            member = batch_contains(
                e_lo, e_hi, sorted_vertices(result.flex), cfg.power, atol=cfg.atol
            )
            violations = int((~member.all(axis=1)).sum())
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


def fit_constants(stats: list[ViolationStats]) -> FitResult:
    """Least-squares fit of log violation rates against N * eps^2.

    Rows with a zero (or undefined) violation estimate carry no log
    information and are excluded with a warning.
    """
    rows = [
        s
        for s in stats
        if s.trials > 0 and not math.isnan(s.beta_hat) and s.beta_hat > 0
    ]
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
    y = np.log([s.beta_hat for s in rows])
    slope, intercept = np.polyfit(x, y, 1)
    if slope >= 0:
        raise InsufficientData("violation rates do not decay; cannot fit positive constants")
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - float((resid**2).sum()) / ss_tot
    return FitResult(
        constants=ConcentrationConstants(c1=float(np.exp(intercept)), c2=float(-slope)),
        r_squared=r_squared,
        n_used=len(rows),
        n_excluded=excluded,
    )
