import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

import evflex.harness
from evflex import (
    AggregateFlexSet,
    BudgetInfeasible,
    ConcentrationConstants,
    DiscreteDistribution,
    DomainError,
    InsufficientData,
    Population,
    TrialConfig,
    ViolationStats,
    batch_contains,
    beta_from_epsilon,
    clopper_pearson,
    epsilon_from_beta,
    fit_constants,
    find_subset_violation,
    is_nested,
    is_subset_exact,
    project_to_n_points,
    robust_set,
    run_trials,
    sample_population,
    sorted_vertices,
    trial_rng,
)
from evflex.aggregate import _is_empty, _vertex_envelope
from evflex.ambiguity import _worst_cases
from evflex.core import DEFAULT_ATOL
from evflex.harness import (
    _atom_cap_table,
    _cap_columns,
    _distinct_populations,
    _populations_clear,
    fit_per_n,
)

from oracles import distinct_populations_by_lexsort


def small_distribution(power=1.0):
    return DiscreteDistribution(
        np.array([[0.5, 1.5], [1.0, 2.5], [2.0, 3.5]]),
        np.array([0.5, 0.3, 0.2]),
        4,
        power,
    )


def _nan_constants_epsilon():
    return epsilon_from_beta(0.1, 10, ConcentrationConstants(1.0, math.nan))


# inputs that would otherwise give a wrong answer (nan, or 2 EVs for 2.5)
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ConcentrationConstants(math.nan, 1.0), ValueError),
        (lambda: ConcentrationConstants(1.0, math.inf), ValueError),
        (lambda: ConcentrationConstants(math.inf, 1.0), ValueError),
        (_nan_constants_epsilon, ValueError),
        (lambda: beta_from_epsilon(0.1, 2.5, ConcentrationConstants(1.0, 1.0)), DomainError),
        (lambda: beta_from_epsilon(0.1, True, ConcentrationConstants(1.0, 1.0)), DomainError),
        (lambda: epsilon_from_beta(0.1, 2.5, ConcentrationConstants(1.0, 1.0)), DomainError),
        (lambda: epsilon_from_beta(0.1, True, ConcentrationConstants(1.0, 1.0)), DomainError),
        (lambda: sample_population(small_distribution(), 2.5, trial_rng(0, 2)),
         DomainError),
    ],
    ids=["c1-nan", "c2-inf", "c1-inf", "epsilon-nan-c2", "beta-n-float", "beta-n-bool",
         "epsilon-n-float", "epsilon-n-bool", "sample-n-float"],
)
def test_bad_constants_and_counts_rejected(call, error):
    with pytest.raises(error):
        call()


def test_sample_point_mass():
    p = DiscreteDistribution.point_mass(1.0, 2.0, 4)
    pop = sample_population(p, 5, trial_rng(0, 5))
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
        )

def test_sampling_determinism():
    p = small_distribution()
    a = sample_population(p, 20, trial_rng(123, 20))
    b = sample_population(p, 20, trial_rng(123, 20))
    np.testing.assert_array_equal(a.e_lo, b.e_lo)
    np.testing.assert_array_equal(a.e_hi, b.e_hi)
    c = sample_population(p, 20, trial_rng(124, 20))
    assert not (np.array_equal(a.e_lo, c.e_lo) and np.array_equal(a.e_hi, c.e_hi))


def test_population_sizes_draw_independent_streams():
    # the key holds N, so the samples of different sizes at one seed share
    # no draws and held-out cells of other sizes are independent of a fit
    for seed in (0, 7, 20240817, 2**64 - 1):
        small, large = trial_rng(seed, 5).random(64), trial_rng(seed, 20).random(64)
        assert not np.isin(small, large).any()


# One- and two-word seeds and stream keys: SeedSequence hashes the seed and
# the spawn key as 32-bit words, so a key's high word must reach the stream.
STREAM_SEEDS = [0, 1, 20240817, 2**32 - 1, 2**32, 2**64 - 1]
STREAM_KEYS = [0, 5, 2**32 + 1]
STREAM_SIZES = [1, 3, 4, 5, 23]
STREAM_WEIGHTS = [np.full(4, 0.25), np.array([0.55, 0.25, 0.15, 0.05])]


@pytest.mark.parametrize("key", STREAM_KEYS)
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_batched_streams_equal_trial_rng(seed, key):
    # one (trials, A) multinomial draw, as run_trials makes it, equals trials
    # successive single draws on the same stream
    trials = 40
    for n in STREAM_SIZES:
        for weights in STREAM_WEIGHTS:
            got = trial_rng(seed, key).multinomial(n, weights, size=trials)
            rng = trial_rng(seed, key)
            want = np.array([rng.multinomial(n, weights) for _ in range(trials)])
            np.testing.assert_array_equal(got, want)
            assert (got.sum(axis=1) == n).all()
    flipped = trial_rng(seed, key ^ 2**32).random(64)
    assert not np.isin(trial_rng(seed, key).random(64), flipped).any()


def test_energy_batch_rows_equal_sample_population():
    # run_trials' one (trials, A) draw equals trials successive draws of
    # sample_population on the same stream
    p = small_distribution()
    for n in (1, 5, 20, 1000):
        counts = trial_rng(2**40 + 3, n).multinomial(n, p.weights, size=30)
        rng = trial_rng(2**40 + 3, n)
        for row in counts:
            pop = sample_population(p, n, rng)
            energies = np.repeat(p.atoms, row, axis=0)
            np.testing.assert_array_equal(pop.e_lo, energies[:, 0])
            np.testing.assert_array_equal(pop.e_hi, energies[:, 1])


def test_sampling_frequencies_within_3_sigma():
    p = small_distribution()
    draws = 100_000
    rng = trial_rng(7, draws)
    pop = sample_population(p, draws, rng)
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


@pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.0, 1.5])
def test_clopper_pearson_rejects_bad_alpha(alpha):
    # alpha=1.5 used to return an inverted interval, alpha=nan a nan one
    with pytest.raises(ValueError, match="alpha"):
        clopper_pearson(3, 10, alpha=alpha)


def test_clopper_pearson_equals_beta_ppf():
    # scipy.stats stays the oracle here; the package calls the ufunc behind it
    from scipy.stats import beta

    alpha = 0.05
    for n in [*range(1, 401), 2000]:
        k = np.arange(n + 1)
        got = np.array([clopper_pearson(int(j), n, alpha) for j in k])
        assert got[0, 0] == 0.0 and got[n, 1] == 1.0
        lo = beta.ppf(alpha / 2, k[1:], n - k[1:] + 1)
        hi = beta.ppf(1 - alpha / 2, k[:-1] + 1, n - k[:-1])
        assert np.array_equal(got[1:, 0], lo), n
        assert np.array_equal(got[:-1, 1], hi), n


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.special"])
def test_import_leaves_scipy_unloaded(module):
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(evflex.harness.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, evflex; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_run_trials_point_mass_never_violates():
    p = DiscreteDistribution.point_mass(1.0, 2.0, 4)
    cfg = TrialConfig(
        distribution=p,
        population_size=3,
        epsilons=(1e-9,),
        trials=50,
        seed=5,
    )
    (stats,) = run_trials(cfg)
    assert stats.violations == 0
    assert stats.beta_hat == 0.0
    assert not stats.degenerate


def test_run_trials_empty_set_is_degenerate_non_violation():
    p = small_distribution()
    cfg = TrialConfig(
        distribution=p,
        population_size=3,
        epsilons=(30.0,),
        trials=20,
        seed=5,
    )
    (stats,) = run_trials(cfg)
    assert stats.degenerate
    assert stats.violations == 0
    assert stats.trials == 20


def test_run_trials_budget_infeasible_reported_not_fatal():
    p = small_distribution()
    cfg = TrialConfig(
        distribution=p,
        population_size=2,  # 3 atoms cannot project to 2 points for free
        epsilons=(1e-12, 0.8),
        trials=10,
        seed=5,
    )
    stats = run_trials(cfg)
    assert stats[0].degenerate and stats[0].trials == 0
    assert math.isnan(stats[0].beta_hat)
    assert not stats[1].degenerate and stats[1].trials == 10


def test_run_trials_matches_is_subset_exact():
    p = small_distribution()
    cfg = TrialConfig(
        distribution=p,
        population_size=4,
        epsilons=(0.2, 0.6),
        trials=40,
        seed=11,
    )
    stats = run_trials(cfg)
    rng = trial_rng(11, 4)
    pops = [sample_population(p, 4, rng) for _ in range(cfg.trials)]
    for e_idx, eps in enumerate(cfg.epsilons):
        result = robust_set(p, 4, eps)
        # per-population reference, on the draw every radius shares
        violations = sum(not is_subset_exact(result.flex, pop) for pop in pops)
        assert stats[e_idx].violations == violations


def test_run_trials_draws_one_stream_per_cell(monkeypatch):
    calls = []

    def recording_rng(seed, population_size):
        calls.append((seed, population_size))
        return trial_rng(seed, population_size)

    monkeypatch.setattr(evflex.harness, "trial_rng", recording_rng)
    cfg = TrialConfig(small_distribution(), 4, (0.2, 0.4, 0.6), 50, 2**40 + 1)
    run_trials(cfg)
    assert calls == [(2**40 + 1, 4)]


def test_monte_carlo_cell_solves_one_transport_problem(monkeypatch):
    # no timing: a paper cell's only transport solve is its projection's,
    # which every radius shares; the worst cases' W1 is never read
    import evflex.ambiguity as ambiguity

    solves, distances = [], []
    real_solve, real_w1 = ambiguity.min_cost_transport, ambiguity.wasserstein1

    def solve(supply, demand, cost):
        solves.append(np.shape(cost))
        return real_solve(supply, demand, cost)

    def w1(p, q):
        distances.append((p, q.n_atoms))
        return real_w1(p, q)

    monkeypatch.setattr(ambiguity, "min_cost_transport", solve)
    monkeypatch.setattr(ambiguity, "wasserstein1", w1)
    atoms = np.array([[1, 12], [2, 15], [4, 14], [5, 17], [7, 19]])
    p = DiscreteDistribution(atoms, np.full(5, 0.2), 24)
    cfg = TrialConfig(p, 5, (0.4, 0.7, 1.0, 1.3, 1.6, 1.9), 200, 20240817)
    stats = run_trials(cfg)
    assert sum(not s.degenerate for s in stats) >= 5
    assert len(solves) == 1 and distances == [(p, 5)]

    # robust_set alone: one distance per call, its projection's
    distances.clear()
    for n in (5, 10, 5):
        robust_set(p, n, 1.9)
    assert distances == [(p, 5), (p, 10), (p, 5)]


def test_atom_cap_table_rows_are_one_ev_sets_bit_for_bit():
    # half-integer multiples of a non-dyadic power put energies on the
    # step boundaries, where a clipped per-step form and the floor form of
    # a population's set round differently
    rng = np.random.default_rng(31)
    for _ in range(100):
        horizon = int(rng.integers(1, 30))
        power = float(rng.uniform(0.1, 3.0))
        atoms = power * np.sort(rng.integers(0, 2 * horizon + 1, (20, 2)), axis=1) / 2.0
        table = _atom_cap_table(atoms, power, horizon)
        for (e_lo, e_hi), row in zip(atoms, table):
            own = Population([e_lo], [e_hi], horizon, power)._flex._caps
            np.testing.assert_array_equal(row, own, err_msg=f"{e_lo, e_hi, horizon, power}")


def test_every_radius_scores_the_same_draw(monkeypatch):
    scored = []

    def recording_clear(envelopes, caps, atol):
        scored.append((envelopes.copy(), caps.copy()))
        return _populations_clear(envelopes, caps, atol)

    monkeypatch.setattr(evflex.harness, "_populations_clear", recording_clear)
    p = small_distribution()
    cfg = TrialConfig(p, 5, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9), 300, 17)
    stats = run_trials(cfg)
    # one comparison per cell: a row per non-empty set against the cap
    # columns of the cell's one draw
    ((envelopes, caps),) = scored
    assert len(envelopes) == sum(not s.degenerate for s in stats) >= 3
    distinct, _ = _distinct_populations(trial_rng(17, 5).multinomial(5, p.weights, size=300))
    np.testing.assert_array_equal(caps, _cap_columns(distinct, _atom_cap_table(p.atoms, 1.0, 4)))
    sets = [robust_set(p, 5, s.epsilon).flex for s in stats if not s.degenerate]
    np.testing.assert_array_equal(envelopes, [flex._vertex_envelope for flex in sets])
    # with one shared draw the counts of these nested sets fall with the
    # radius; independent draws per radius need not
    violations = [s.violations for s in stats]
    assert violations == sorted(violations, reverse=True), violations


def non_dyadic_distribution(power):
    # atoms 0.3 + k/7 are not exact binary fractions, so a sum over a
    # population rounds differently with the order of its terms
    lo = 0.3 + np.arange(4) / 7
    atoms = np.column_stack([lo, 2 * lo + 0.8])
    return DiscreteDistribution(atoms, np.array([0.4, 0.3, 0.2, 0.1]), 4, power)


def test_deduplicated_scoring_equals_per_trial_scoring():
    power = 0.7
    p = non_dyadic_distribution(power)
    cfg = TrialConfig(p, 4, (0.15, 0.2, 0.25, 0.3), 400, 2**40 + 9)
    stats = run_trials(cfg)
    counts = trial_rng(cfg.seed, 4).multinomial(4, p.weights, size=cfg.trials)
    assert 5 * len(_distinct_populations(counts)[0]) < cfg.trials
    rng = trial_rng(cfg.seed, 4)
    pops = [sample_population(p, 4, rng) for _ in range(cfg.trials)]
    for e_idx, eps in enumerate(cfg.epsilons):
        result = robust_set(p, 4, eps)
        violations = sum(not is_subset_exact(result.flex, pop) for pop in pops)
        assert stats[e_idx].violations == violations
    assert all(0 < s.violations < cfg.trials for s in stats)


def test_distinct_populations_groups_equal_multisets():
    drawn = trial_rng(3, 6).multinomial(6, [0.5, 0.2, 0.2, 0.1], size=500)
    counts, group = _distinct_populations(drawn)
    assert group.shape == (500,)
    assert counts.shape[1] == 4 and (counts.sum(axis=1) == 6).all()
    # every trial draws the multiset of its group's count row
    np.testing.assert_array_equal(drawn, counts[group])
    # rows are pairwise distinct and every group is used
    assert len({tuple(row) for row in counts}) == len(counts)
    assert np.array_equal(np.unique(group), np.arange(len(counts)))
    assert 1 < len(counts) < 500


@pytest.mark.parametrize("atoms", [1, 2, 5, 24, 64])
@pytest.mark.parametrize("n", [1, 5, 20, 200, 10**4])
def test_distinct_populations_matches_lexsort_oracle(atoms, n):
    # packed keys: one key for small A*bits, several (A=24 at N=200: 4)
    # and many (A=64 at N=10^4: 16); rows at the maximum count N fix the
    # key width, a matrix of one repeated row is one group, and shuffled
    # copies of the last atoms' maximum rows differ only in later keys
    rng = np.random.default_rng(atoms * 100_003 + n)
    drawn = rng.multinomial(n, rng.dirichlet(np.ones(atoms)), size=400)
    drawn[:atoms] = n * np.eye(atoms, dtype=drawn.dtype)
    last_atoms = drawn[max(atoms - 3, 0) : atoms]
    for counts in (
        drawn,
        np.repeat(drawn[:1], 150, axis=0),
        np.repeat(drawn[-1:], 150, axis=0),
        last_atoms[rng.integers(0, len(last_atoms), 300)],
    ):
        distinct, group = _distinct_populations(counts)
        want_distinct, want_group = distinct_populations_by_lexsort(counts)
        np.testing.assert_array_equal(distinct[group], counts)
        assert len({tuple(row) for row in distinct}) == len(distinct)
        got = dict(zip(map(tuple, distinct), np.bincount(group)))
        want = dict(zip(map(tuple, want_distinct), np.bincount(want_group)))
        assert got == want


def test_cell_scores_each_radius_as_alone():
    # one cell holding a BudgetInfeasible radius, three non-empty sets and
    # an empty one gives the rows of five one-radius cells
    p = small_distribution()
    epsilons = (1e-12, 0.5, 0.8, 1.0, 30.0)
    cfg = TrialConfig(p, 2, epsilons, 400, 11)
    stats = run_trials(cfg)
    alone = [run_trials(dataclasses.replace(cfg, epsilons=(eps,)))[0] for eps in epsilons]
    assert repr(stats) == repr(alone)
    assert stats[0].trials == 0 and stats[-1].degenerate and stats[-1].trials == 400
    assert all(0 < s.violations < s.trials for s in stats[1:-1])


def test_cell_core_equals_single_radius_robust_sets():
    # _worst_cases on a cell's radii gives, row for row, the bits of one
    # robust_set call per radius, and run_trials scores each set as the
    # per-radius route did: T 1..30, power 0.7, 1 or 2.5, atoms on a
    # half-integer grid, on a k/7 grid or unrounded, atol 0 or the default,
    # a radius below the projection cost and one that empties the set;
    # kinds counts the radii that are infeasible, empty, or violated by
    # some draws and not all
    kinds = np.zeros(3, dtype=int)
    for seed in range(60):
        rng = np.random.default_rng(seed + 7000)
        horizon = 1 + seed % 30
        power = (0.7, 1.0, 2.5)[seed % 3]
        cap = power * horizon
        n_atoms = int(rng.integers(2, 7))
        n = int(rng.integers(2, 13))
        lo = rng.uniform(0, cap, n_atoms)
        hi = lo + rng.uniform(0, cap - lo)
        denominator = (2, 7, None)[seed // 3 % 3]
        if denominator:
            lo, hi = (np.floor(e * denominator) / denominator for e in (lo, hi))
        p = DiscreteDistribution(
            np.column_stack([lo, hi]), rng.dirichlet(np.ones(n_atoms)), horizon, power
        )
        atol = (0.0, DEFAULT_ATOL)[seed % 2]
        cost = project_to_n_points(p, n)[1]
        epsilons = (cost / 2, cost + 0.1 * power, cost + 0.4 * power, cost + 2 * cap + 1)
        cfg = TrialConfig(p, n, epsilons, 200, seed, atol=atol)
        cell = _worst_cases(p, n, epsilons, atol=atol)
        envelopes = _vertex_envelope(cell.nu_lo, cell.nu_hi)
        distinct, group = _distinct_populations(
            trial_rng(seed, n).multinomial(n, p.weights, size=200)
        )
        caps = _cap_columns(distinct, _atom_cap_table(p.atoms, power, horizon))
        stats = run_trials(cfg)
        row = 0
        for eps, feasible, s in zip(epsilons, cell.feasible, stats):
            try:
                result = robust_set(p, n, eps, atol=atol)
            except BudgetInfeasible:
                assert not feasible and s.trials == 0, seed
                kinds[0] += 1
                continue
            assert feasible, seed
            flex = result.flex
            np.testing.assert_array_equal(cell.nu_lo[row], flex.nu_lo)
            np.testing.assert_array_equal(cell.nu_hi[row], flex.nu_hi)
            for side, worst in enumerate((result.worst_lo, result.worst_hi)):
                np.testing.assert_array_equal(cell.worst[side, 0, row], worst.e_lo)
                np.testing.assert_array_equal(cell.worst[side, 1, row], worst.e_hi)
            assert _is_empty(cell.nu_lo[row], cell.nu_hi[row]) == result.flex.is_empty == s.degenerate
            np.testing.assert_array_equal(envelopes[row], flex._vertex_envelope)
            violations = 0
            if not result.flex.is_empty:
                inside = _populations_clear(flex._vertex_envelope, caps, atol)
                violations = int(np.bincount(group)[~inside].sum())
            assert s.violations == violations, (seed, eps)
            kinds[1] += result.flex.is_empty
            kinds[2] += 0 < violations < 200
            row += 1
        assert row == len(cell.walks) == cell.feasible.sum()
        assert result.flex.is_empty, seed  # the largest radius pushes every atom to its bound
    assert kinds.min() >= 10, kinds


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
    p = DiscreteDistribution(
        np.column_stack([lo, hi]), rng.dirichlet(np.ones(n_atoms)), horizon, power
    )
    eps = project_to_n_points(p, n)[1] + rng.uniform(0, 2) * power
    result = robust_set(p, n, eps)
    idx = rng.choice(n_atoms, size=(40, n), p=p.weights)
    return None if result.flex.is_empty else (p, result.flex, idx)


def test_vertex_envelope_equals_vertex_route():
    # run_trials' check on atom counts decides each sampled population as
    # batch_contains does on its energies and the T+1 sorted vertices, and
    # as the vertex-based subset and nesting tests do on the population
    verdicts = np.zeros(2, dtype=int)
    for seed in range(200):
        case = _random_robust_case(seed)
        if case is None:
            continue
        p, flex, idx = case
        drawn = (idx[..., None] == np.arange(p.n_atoms)).sum(axis=1)
        counts, group = _distinct_populations(drawn)
        table = _atom_cap_table(p.atoms, flex.power, flex.horizon)
        caps = _cap_columns(counts, table)
        got = _populations_clear(flex._vertex_envelope, caps, DEFAULT_ATOL)[group]
        want = batch_contains(
            p.atoms[idx, 0], p.atoms[idx, 1], sorted_vertices(flex), flex.power
        ).all(axis=1)
        np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")
        for rows, verdict in zip(idx, want):
            pop = Population(p.atoms[rows, 0], p.atoms[rows, 1], flex.horizon, flex.power)
            assert is_subset_exact(flex, pop) == verdict, seed
            assert (find_subset_violation(flex, pop) is None) == verdict, seed
            assert is_nested(flex, AggregateFlexSet.from_population(pop)) == verdict, seed
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
    p = fleet_distribution(288)
    cfg = TrialConfig(p, 1000, (2.0, 4.0), 200, 3)
    # the worst cases are built before tracing starts: the walks' Python
    # loops run about 15x slower under tracemalloc, and their allocations
    # are not what this test bounds
    cell = _worst_cases(p, 1000, cfg.epsilons)
    results = {eps: robust_set(p, 1000, eps) for eps in cfg.epsilons}
    monkeypatch.setattr(evflex.harness, "_worst_cases", lambda *a, **k: cell)
    tracemalloc.start()
    try:
        stats = run_trials(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    rng = trial_rng(3, 1000)
    pops = [sample_population(p, 1000, rng) for _ in range(cfg.trials)]
    for s in stats:
        flex = results[s.epsilon].flex
        assert s.violations == sum(not is_subset_exact(flex, pop) for pop in pops)
    assert all(0 < s.violations < cfg.trials for s in stats)


def test_run_trials_reproducible():
    cfg = TrialConfig(
        distribution=small_distribution(),
        population_size=5,
        epsilons=(0.1, 0.4),
        trials=60,
        seed=99,
    )
    assert run_trials(cfg) == run_trials(cfg)


def test_monotone_trend_statistical():
    cfg = TrialConfig(
        distribution=small_distribution(),
        population_size=5,
        epsilons=(0.15, 0.3, 0.45, 0.6, 0.75, 0.9),
        trials=2000,
        seed=17,
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


def test_fit_constants_excludes_non_finite_rows_with_warning():
    constants = ConcentrationConstants(2.0, 1.5)
    rows = [
        _stats_row(eps, 10, beta_from_epsilon(eps, 10, constants))
        for eps in (0.05, 0.1, 0.2, 0.3)
    ]
    rows.append(dataclasses.replace(_stats_row(0.9, 10, 0.5), beta_hat=math.inf))
    with pytest.warns(UserWarning, match="excluded 1 rows"):
        fit = fit_constants(rows)
    assert fit.n_excluded == 1
    assert abs(fit.constants.c2 - 1.5) < 1e-6
    (per_n,) = fit_per_n(rows)
    assert per_n.rows == 4
    assert per_n.slope == pytest.approx(-15.0, abs=1e-6)


def test_fit_constants_rejects_non_finite_constants():
    # log-linear rates so steep that exp(intercept) overflows: c1 would be
    # inf. An overflow RuntimeWarning would fail the test.
    rates = ((10, 0.5), (10.0001, math.sqrt(0.5 * 1e-305)), (10.0002, 1e-305))
    rows = [_stats_row(eps, 1, beta) for eps, beta in rates]
    with pytest.raises(InsufficientData, match="positive and finite"):
        fit_constants(rows)


def test_fit_constants_insufficient_data():
    rows = [_stats_row(0.1, 10, 0.5), _stats_row(0.2, 10, 0.3)]
    with pytest.raises(InsufficientData):
        fit_constants(rows)
    growing = [_stats_row(eps, 10, beta) for eps, beta in ((0.1, 0.1), (0.2, 0.2), (0.3, 0.4))]
    with pytest.raises(InsufficientData):
        fit_constants(growing)


def test_fit_constants_needs_two_distinct_n_eps_sq():
    # rows at one N * eps^2 determine no line: polyfit would warn RankWarning
    # and return made-up constants; 10 * 0.5^2 = 40 * 0.25^2 = 2.5 exactly
    one_point = [_stats_row(0.5, 10, beta) for beta in (0.3, 0.2, 0.1)]
    across_sizes = [_stats_row(0.5, 10, 0.3), _stats_row(0.25, 40, 0.2), _stats_row(0.5, 10, 0.1)]
    for rows in (one_point, across_sizes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData, match=r"share one N \* eps\^2"):
                fit_constants(rows)
            fits = fit_per_n(rows)
        assert all(math.isnan(f.slope) and math.isnan(f.r_squared) for f in fits)
    assert [f.rows for f in fit_per_n(one_point)] == [3]


def test_fit_per_n_needs_two_distinct_eps_sq_per_size():
    # N=10 has three rows at one eps, N=20 three distinct ones: the overall
    # fit and N=20's line are determined, N=10's is not
    constants = ConcentrationConstants(2.0, 1.5)
    rows = [_stats_row(0.5, 10, beta) for beta in (0.3, 0.2, 0.1)]
    rows += [_stats_row(eps, 20, beta_from_epsilon(eps, 20, constants)) for eps in (0.1, 0.2, 0.3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_constants(rows)
        ten, twenty = fit_per_n(rows)
    assert (ten.rows, twenty.rows) == (3, 3)
    assert math.isnan(ten.slope) and math.isnan(ten.r_squared)
    assert twenty.slope == pytest.approx(-30.0, abs=1e-6)


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(small_distribution(), 3, (0.2, 0.1), 10, 0)
    with pytest.raises(ValueError):
        TrialConfig(small_distribution(), 3, (0.1,), 0, 0)
    with pytest.raises(ValueError):
        TrialConfig(small_distribution(), 0, (0.1,), 10, 0)


# population_size=2.5 and seed=1.5 would fail inside SeedSequence,
# trials=10.5 inside multinomial, and trials=True would run one trial
# and report trials=True
@pytest.mark.parametrize(
    "field, value",
    [
        ("population_size", 2.5),
        ("population_size", True),
        ("trials", 10.5),
        ("trials", True),
        ("trials", np.float64(10.0)),
        ("seed", 1.5),
        ("seed", False),
        ("seed", np.True_),
    ],
)
def test_trial_config_rejects_non_integer_counts(field, value):
    counts = dict(population_size=3, trials=10, seed=0)
    counts[field] = value
    with pytest.raises(ValueError, match=field):
        TrialConfig(small_distribution(), epsilons=(0.1,), **counts)


def test_trial_config_takes_numpy_integers():
    cfg = TrialConfig(small_distribution(), np.int64(3), (0.1, 0.4), np.int32(50), np.uint64(7))
    assert (cfg.population_size, cfg.trials, cfg.seed) == (3, 50, 7)
    assert all(type(v) is int for v in (cfg.population_size, cfg.trials, cfg.seed))
    assert run_trials(cfg) == run_trials(TrialConfig(small_distribution(), 3, (0.1, 0.4), 50, 7))


@pytest.mark.parametrize("atol", [math.nan, math.inf, -1.0])
def test_trial_config_rejects_bad_atol(atol):
    # run_trials' check takes atol as given, so a nan would count every
    # trial as a violation
    with pytest.raises(DomainError, match="atol"):
        TrialConfig(small_distribution(), 3, (0.1,), 10, 0, atol=atol)


@pytest.mark.parametrize("power", [math.nan, math.inf, 0.0, -1.0])
def test_trial_config_rejects_bad_power(power):
    # a cell reads the power of its distribution, which checks it
    with pytest.raises(DomainError, match="power"):
        TrialConfig(small_distribution(power), 3, (0.1,), 10, 0)


def test_trial_config_bounds_trials():
    # the input bound on trials per cell, shared with scenario parsing
    assert TrialConfig(small_distribution(), 3, (0.1,), 2**32, 0).trials == 2**32
    with pytest.raises(ValueError):
        TrialConfig(small_distribution(), 3, (0.1,), 2**32 + 1, 0)
