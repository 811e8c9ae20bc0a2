import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import spearmanr

import evflex.harness
from evflex import (
    ConcentrationConstants,
    DiscreteDistribution,
    DomainError,
    InsufficientData,
    TimeGrid,
    TrialConfig,
    ViolationStats,
    batch_contains,
    beta_from_epsilon,
    clopper_pearson,
    fit_constants,
    is_subset_exact,
    project_to_n_points,
    robust_set,
    run_trials,
    sample_population,
    sorted_vertices,
    trial_rng,
)
from evflex.core import DEFAULT_ATOL
from evflex.harness import (
    _atom_cap_table,
    _distinct_populations,
    _philox_keys,
    _philox_uniforms,
    _populations_hold,
    _trial_indices,
)


def small_distribution(cap=4.0):
    return DiscreteDistribution(
        np.array([[0.5, 1.5], [1.0, 2.5], [2.0, 3.5]]),
        np.array([0.5, 0.3, 0.2]),
        cap,
    )


def test_sample_point_mass():
    grid = TimeGrid(4)
    p = DiscreteDistribution.point_mass(1.0, 2.0, 4.0)
    pop = sample_population(p, 5, trial_rng(0, 0, 0), grid, 1.0)
    assert pop.n == 5
    np.testing.assert_allclose(pop.e_lo, 1.0)
    np.testing.assert_allclose(pop.e_hi, 2.0)



@pytest.mark.parametrize("epsilons", [(np.nan,), (0.1, np.nan), (0.1, np.inf)])
def test_trial_config_rejects_non_finite_epsilons(epsilons):
    with pytest.raises(ValueError):
        TrialConfig(
            distribution=small_distribution(),
            population_size=3,
            epsilons=epsilons,
            trials=10,
            seed=5,
            grid=TimeGrid(4),
        )

def test_sampling_determinism():
    grid = TimeGrid(4)
    p = small_distribution()
    a = sample_population(p, 20, trial_rng(123, 2, 7), grid, 1.0)
    b = sample_population(p, 20, trial_rng(123, 2, 7), grid, 1.0)
    np.testing.assert_array_equal(a.e_lo, b.e_lo)
    np.testing.assert_array_equal(a.e_hi, b.e_hi)
    c = sample_population(p, 20, trial_rng(123, 2, 8), grid, 1.0)
    assert not (np.array_equal(a.e_lo, c.e_lo) and np.array_equal(a.e_hi, c.e_hi))


# One- and two-word seeds (SeedSequence pads both to four words) and one-
# and two-word radius indices; N is sometimes not a multiple of Philox's
# four-word block.
STREAM_SEEDS = [0, 1, 20240817, 2**32 - 1, 2**32, 2**64 - 1]
STREAM_RADII = [0, 5, 2**32 + 1]
STREAM_SIZES = [1, 3, 4, 5, 23]
STREAM_WEIGHTS = [np.full(4, 0.25), np.array([0.55, 0.25, 0.15, 0.05])]


@pytest.mark.parametrize("eps_index", STREAM_RADII)
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_batched_streams_equal_trial_rng(seed, eps_index):
    trials = 40
    for n in STREAM_SIZES:
        uniforms = _philox_uniforms(*_philox_keys(seed, eps_index, trials), n)
        want = np.array([trial_rng(seed, eps_index, t).random(n) for t in range(trials)])
        assert uniforms.tobytes() == want.tobytes()
        for weights in STREAM_WEIGHTS:
            got = _trial_indices(seed, eps_index, trials, n, weights)
            want = np.array(
                [
                    trial_rng(seed, eps_index, t).choice(len(weights), size=n, p=weights)
                    for t in range(trials)
                ]
            )
            np.testing.assert_array_equal(got, want)


def test_energy_batch_rows_equal_sample_population():
    grid = TimeGrid(4)
    p = small_distribution()
    cfg = TrialConfig(p, 7, (0.2, 0.6), 30, 2**40 + 3, grid)
    energies = p.atoms[_trial_indices(cfg.seed, 1, cfg.trials, 7, p.weights)]
    e_lo, e_hi = energies[..., 0], energies[..., 1]
    assert e_lo.shape == e_hi.shape == (30, 7)
    for t in range(cfg.trials):
        pop = sample_population(p, 7, trial_rng(cfg.seed, 1, t), grid, 1.0)
        np.testing.assert_array_equal(e_lo[t], pop.e_lo)
        np.testing.assert_array_equal(e_hi[t], pop.e_hi)


def test_sampling_frequencies_within_3_sigma():
    grid = TimeGrid(4)
    p = small_distribution()
    rng = trial_rng(7, 0, 0)
    draws = 100_000
    pop = sample_population(p, draws, rng, grid, 1.0)
    for atom, weight in zip(p.atoms, p.weights):
        count = int(np.sum((pop.e_lo == atom[0]) & (pop.e_hi == atom[1])))
        sigma = math.sqrt(draws * weight * (1 - weight))
        assert abs(count - draws * weight) < 3 * sigma


def test_clopper_pearson_closed_forms():
    lo, hi = clopper_pearson(0, 100, alpha=0.1)
    assert lo == 0.0
    assert abs(hi - (1 - 0.05 ** (1 / 100))) < 1e-12
    lo, hi = clopper_pearson(100, 100, alpha=0.1)
    assert hi == 1.0
    assert abs(lo - 0.05 ** (1 / 100)) < 1e-12
    lo, hi = clopper_pearson(7, 50)
    assert lo < 7 / 50 < hi
    with pytest.raises(ValueError):
        clopper_pearson(1, 0)


def test_run_trials_point_mass_never_violates():
    grid = TimeGrid(4)
    p = DiscreteDistribution.point_mass(1.0, 2.0, 4.0)
    cfg = TrialConfig(
        distribution=p,
        population_size=3,
        epsilons=(1e-9,),
        trials=50,
        seed=5,
        grid=grid,
    )
    (stats,) = run_trials(cfg)
    assert stats.violations == 0
    assert stats.beta_hat == 0.0
    assert not stats.degenerate


def test_run_trials_empty_set_is_degenerate_non_violation():
    grid = TimeGrid(4)
    p = small_distribution()
    cfg = TrialConfig(
        distribution=p,
        population_size=3,
        epsilons=(30.0,),
        trials=20,
        seed=5,
        grid=grid,
    )
    (stats,) = run_trials(cfg)
    assert stats.degenerate
    assert stats.violations == 0
    assert stats.trials == 20


def test_run_trials_budget_infeasible_reported_not_fatal():
    grid = TimeGrid(4)
    p = small_distribution()
    cfg = TrialConfig(
        distribution=p,
        population_size=2,  # 3 atoms cannot project to 2 points for free
        epsilons=(1e-12, 0.8),
        trials=10,
        seed=5,
        grid=grid,
    )
    stats = run_trials(cfg)
    assert stats[0].degenerate and stats[0].trials == 0
    assert math.isnan(stats[0].beta_hat)
    assert not stats[1].degenerate and stats[1].trials == 10


def test_run_trials_matches_is_subset_exact():
    grid = TimeGrid(4)
    p = small_distribution()
    cfg = TrialConfig(
        distribution=p,
        population_size=4,
        epsilons=(0.2, 0.6),
        trials=40,
        seed=11,
        grid=grid,
    )
    stats = run_trials(cfg)
    for e_idx, eps in enumerate(cfg.epsilons):
        result = robust_set(p, 4, eps, grid, 1.0)
        violations = 0
        for t in range(cfg.trials):
            pop = sample_population(p, 4, trial_rng(11, e_idx, t), grid, 1.0)
            if not is_subset_exact(result.flex, pop):  # per-population reference
                violations += 1
        assert stats[e_idx].violations == violations


def non_dyadic_distribution(power):
    # atoms 0.3 + k/7 are not exact binary fractions, so a sum over a
    # population rounds differently with the order of its terms
    lo = 0.3 + np.arange(4) / 7
    atoms = np.column_stack([lo, 2 * lo + 0.8])
    return DiscreteDistribution(atoms, np.array([0.4, 0.3, 0.2, 0.1]), power * 4)


def test_deduplicated_scoring_equals_per_trial_scoring():
    grid = TimeGrid(4)
    power = 0.7
    p = non_dyadic_distribution(power)
    cfg = TrialConfig(p, 4, (0.15, 0.2, 0.25, 0.3), 400, 2**40 + 9, grid, power=power)
    stats = run_trials(cfg)
    for e_idx, eps in enumerate(cfg.epsilons):
        idx = _trial_indices(cfg.seed, e_idx, cfg.trials, 4, p.weights)
        assert 5 * len(_distinct_populations(idx, p.n_atoms)[0]) < cfg.trials
        result = robust_set(p, 4, eps, grid, power)
        violations = sum(
            not is_subset_exact(
                result.flex, sample_population(p, 4, trial_rng(cfg.seed, e_idx, t), grid, power)
            )
            for t in range(cfg.trials)
        )
        assert stats[e_idx].violations == violations
    assert all(0 < s.violations < cfg.trials for s in stats)


def test_distinct_populations_groups_equal_multisets():
    idx = _trial_indices(3, 0, 500, 6, np.array([0.5, 0.2, 0.2, 0.1]))
    counts, group = _distinct_populations(idx, 4)
    assert group.shape == (500,)
    assert counts.shape[1] == 4 and (counts.sum(axis=1) == 6).all()
    # every trial draws the multiset of its group's count row
    drawn = np.array([np.bincount(row, minlength=4) for row in idx])
    np.testing.assert_array_equal(drawn, counts[group])
    # rows are pairwise distinct and every group is used
    assert len({tuple(row) for row in counts}) == len(counts)
    assert np.array_equal(np.unique(group), np.arange(len(counts)))
    assert 1 < len(counts) < 500


def _random_robust_case(seed):
    """A random robust set and 40 populations sampled from its distribution.

    T 2..30, 1..7 atoms, N 1..24, power 0.7, 1 or 2.5, and energies on a
    half-integer grid, on a k/7 grid (not binary fractions) or unrounded.
    Returns None when the radius leaves the set empty.
    """
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(2, 31))
    n_atoms = int(rng.integers(1, 8))
    n = int(rng.integers(1, 25))
    power = (0.7, 1.0, 2.5)[seed % 3]
    cap = power * horizon
    lo = rng.uniform(0, cap, n_atoms)
    hi = lo + rng.uniform(0, cap - lo)
    denominator = (2, 7, None)[seed // 3 % 3]
    if denominator:
        lo, hi = np.floor(lo * denominator) / denominator, np.floor(hi * denominator) / denominator
    p = DiscreteDistribution(np.column_stack([lo, hi]), rng.dirichlet(np.ones(n_atoms)), cap)
    eps = project_to_n_points(p, n)[1] + rng.uniform(0, 2) * power
    result = robust_set(p, n, eps, TimeGrid(horizon), power)
    idx = rng.choice(n_atoms, size=(40, n), p=p.weights)
    return None if result.empty else (p, result.flex, idx)


def test_vertex_envelope_equals_vertex_route():
    # run_trials' check on atom counts decides each sampled population as
    # batch_contains does on its energies and the T+1 sorted vertices
    verdicts = np.zeros(2, dtype=int)
    for seed in range(200):
        case = _random_robust_case(seed)
        if case is None:
            continue
        p, flex, idx = case
        counts, group = _distinct_populations(idx, p.n_atoms)
        table = _atom_cap_table(p.atoms, flex.power, flex.horizon)
        got = _populations_hold(flex, counts, table, DEFAULT_ATOL)[group]
        want = batch_contains(
            p.atoms[idx, 0], p.atoms[idx, 1], sorted_vertices(flex), flex.power
        ).all(axis=1)
        np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")
        verdicts += np.bincount(want, minlength=2)
    # both verdicts are common: about 45% of these populations violate
    assert verdicts.min() > 2000, verdicts


def fleet_distribution(horizon):
    rng = np.random.default_rng(5)
    e_lo = np.round(rng.uniform(12, 120, 24) * 2) / 2
    e_hi = np.minimum(np.round((e_lo + rng.uniform(24, 120, 24)) * 2) / 2, horizon)
    weights = rng.dirichlet(np.full(24, 4.0))
    return DiscreteDistribution(np.column_stack([e_lo, e_hi]), weights, horizon)


def test_run_trials_memory_at_fleet_scale(monkeypatch):
    # T=288, N=1000: a (trials, T+1, T) bound array alone would be 133 MB
    grid = TimeGrid(288)
    p = fleet_distribution(288.0)
    cfg = TrialConfig(p, 1000, (2.0, 4.0), 200, 3, grid)
    # the robust sets are built before tracing starts: robust_set's Python
    # loops run about 15x slower under tracemalloc, and its allocations are
    # not what this test bounds
    results = {eps: robust_set(p, 1000, eps, grid) for eps in cfg.epsilons}
    monkeypatch.setattr(evflex.harness, "robust_set", lambda dist, n, eps, *a, **k: results[eps])
    tracemalloc.start()
    try:
        stats = run_trials(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    for e_idx, s in enumerate(stats):
        flex = results[s.epsilon].flex
        violations = sum(
            not is_subset_exact(flex, sample_population(p, 1000, trial_rng(3, e_idx, t), grid))
            for t in range(cfg.trials)
        )
        assert s.violations == violations
    assert all(0 < s.violations < cfg.trials for s in stats)


def test_run_trials_reproducible():
    grid = TimeGrid(4)
    cfg = TrialConfig(
        distribution=small_distribution(),
        population_size=5,
        epsilons=(0.1, 0.4),
        trials=60,
        seed=99,
        grid=grid,
    )
    assert run_trials(cfg) == run_trials(cfg)


def test_monotone_trend_statistical():
    grid = TimeGrid(4)
    cfg = TrialConfig(
        distribution=small_distribution(),
        population_size=5,
        epsilons=(0.15, 0.3, 0.45, 0.6, 0.75, 0.9),
        trials=2000,
        seed=17,
        grid=grid,
    )
    stats = run_trials(cfg)
    rates = [s.beta_hat for s in stats]
    rho, pvalue = spearmanr(range(len(rates)), rates)
    assert rho <= 0
    assert pvalue < 0.05


def _stats_row(eps, n, beta_hat):
    return ViolationStats(
        epsilon=eps,
        population_size=n,
        horizon=24,
        trials=1000,
        violations=int(round(beta_hat * 1000)),
        beta_hat=beta_hat,
        ci_lo=0.0,
        ci_hi=1.0,
        degenerate=False,
    )


def test_fit_constants_recovers_exact_data():
    constants = ConcentrationConstants(2.0, 1.5)
    rows = []
    for n in (5, 10, 20):
        for eps in (0.05, 0.1, 0.2, 0.3):
            rows.append(_stats_row(eps, n, beta_from_epsilon(eps, n, constants)))
    fit = fit_constants(rows)
    assert abs(fit.constants.c1 - 2.0) < 1e-6
    assert abs(fit.constants.c2 - 1.5) < 1e-6
    assert fit.r_squared > 1 - 1e-12
    assert fit.n_excluded == 0


def test_fit_constants_excludes_zero_rows_with_warning():
    constants = ConcentrationConstants(2.0, 1.5)
    rows = [
        _stats_row(eps, 10, beta_from_epsilon(eps, 10, constants))
        for eps in (0.05, 0.1, 0.2, 0.3)
    ]
    rows.append(_stats_row(0.9, 10, 0.0))
    with pytest.warns(UserWarning, match="excluded 1 rows"):
        fit = fit_constants(rows)
    assert fit.n_excluded == 1
    assert abs(fit.constants.c2 - 1.5) < 1e-6


def test_fit_constants_insufficient_data():
    rows = [_stats_row(0.1, 10, 0.5), _stats_row(0.2, 10, 0.3)]
    with pytest.raises(InsufficientData):
        fit_constants(rows)
    growing = [_stats_row(eps, 10, beta) for eps, beta in ((0.1, 0.1), (0.2, 0.2), (0.3, 0.4))]
    with pytest.raises(InsufficientData):
        fit_constants(growing)


def test_trial_config_validation():
    grid = TimeGrid(4)
    with pytest.raises(ValueError):
        TrialConfig(small_distribution(), 3, (0.2, 0.1), 10, 0, grid)
    with pytest.raises(ValueError):
        TrialConfig(small_distribution(), 3, (0.1,), 0, 0, grid)
    with pytest.raises(ValueError):
        TrialConfig(small_distribution(), 0, (0.1,), 10, 0, grid)


@pytest.mark.parametrize("atol", [math.nan, math.inf, -1.0])
def test_trial_config_rejects_bad_atol(atol):
    # run_trials' check takes atol as given, so a nan would count every
    # trial as a violation
    with pytest.raises(DomainError, match="atol"):
        TrialConfig(small_distribution(), 3, (0.1,), 10, 0, TimeGrid(4), atol=atol)


def test_trial_config_bounds_trials():
    # a trial index of 2**32 would take two spawn-key words
    grid = TimeGrid(4)
    assert TrialConfig(small_distribution(), 3, (0.1,), 2**32, 0, grid).trials == 2**32
    with pytest.raises(ValueError):
        TrialConfig(small_distribution(), 3, (0.1,), 2**32 + 1, 0, grid)
