import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from evflex import (
    ConcentrationConstants,
    DiscreteDistribution,
    InsufficientData,
    TimeGrid,
    TrialConfig,
    ViolationStats,
    beta_from_epsilon,
    clopper_pearson,
    fit_constants,
    is_subset_exact,
    robust_set,
    run_trials,
    sample_population,
    trial_rng,
)
from evflex.harness import (
    _distinct_populations,
    _philox_keys,
    _philox_uniforms,
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
    distinct, group = _distinct_populations(idx, 4)
    assert group.shape == (500,)
    assert np.array_equal(np.sort(distinct, axis=1), distinct)
    # every trial draws the multiset of its group's representative
    np.testing.assert_array_equal(np.sort(idx, axis=1), distinct[group])
    # representatives are pairwise distinct and every group is used
    assert len({tuple(row) for row in distinct}) == len(distinct)
    assert np.array_equal(np.unique(group), np.arange(len(distinct)))
    assert 1 < len(distinct) < 500


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


def test_trial_config_bounds_trials():
    # a trial index of 2**32 would take two spawn-key words
    grid = TimeGrid(4)
    assert TrialConfig(small_distribution(), 3, (0.1,), 2**32, 0, grid).trials == 2**32
    with pytest.raises(ValueError):
        TrialConfig(small_distribution(), 3, (0.1,), 2**32 + 1, 0, grid)
