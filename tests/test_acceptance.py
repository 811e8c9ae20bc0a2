"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

The Monte Carlo experiment (criteria 8-10) uses a fixed synthetic
distribution over charging requirements at T=24 with population sizes
5/10/20, six shared radii, and 2000 trials per cell, all seed-pinned.
"""

import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from evflex import (
    AggregateFlexSet,
    DiscreteDistribution,
    Population,
    TrialConfig,
    batch_contains,
    beta_from_epsilon,
    contains,
    find_subset_violation,
    is_subset_exact,
    is_subset_fast,
    permutahedron_contains,
    project_to_n_points,
    push_lower,
    robust_set,
    run_trials,
    sorted_vertices,
    wasserstein1,
)
from evflex.core import DEFAULT_ATOL
from evflex.harness import (
    _atom_cap_table,
    _cap_columns,
    _populations_clear,
    fit_constants,
    fit_per_n,
)
from evflex.io import write_results_csv

from oracles import (
    flex_member,
    flex_set_vertices,
    hull_member,
    multisets_with_pmf,
    permutahedron_vertices,
)

HORIZON = 24
EXPERIMENT_ATOMS = np.array([[1, 12], [2, 15], [4, 14], [5, 17], [7, 19]], dtype=float)
EXPERIMENT_EPS = (0.4, 0.7, 1.0, 1.3, 1.6, 1.9)
EXPERIMENT_SIZES = (5, 10, 20)
EXPERIMENT_TRIALS = 2000
EXPERIMENT_SEED = 20240817
# violation counts of the experiment on sampling stream 1 (per radius and
# trial), which the benchmark's reference file still holds
REFERENCE_COUNTS = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
# [epsilon, N, trials, violations, degenerate] of the experiment on stream 2
# (multinomial atom counts from one Philox stream per (seed, N)), CSV order
STREAM2_CELLS = [
    [eps, n, EXPERIMENT_TRIALS, k, False]
    for n, counts in (
        (5, (1302, 994, 591, 423, 211, 136)),
        (10, (1082, 590, 285, 215, 112, 81)),
        (20, (870, 455, 278, 122, 27, 12)),
    )
    for eps, k in zip(EXPERIMENT_EPS, counts)
]


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def experiment_distribution():
    return DiscreteDistribution(
        EXPERIMENT_ATOMS, np.full(len(EXPERIMENT_ATOMS), 0.2), HORIZON
    )


def run_experiment():
    stats = []
    for size in EXPERIMENT_SIZES:
        cfg = TrialConfig(
            distribution=experiment_distribution(),
            population_size=size,
            epsilons=EXPERIMENT_EPS,
            trials=EXPERIMENT_TRIALS,
            seed=EXPERIMENT_SEED,
        )
        stats.extend(run_trials(cfg))
    return stats


def experiment_csv(stats):
    buf = io.StringIO()
    write_results_csv(buf, stats, {"seed": EXPERIMENT_SEED, "T": HORIZON})
    return buf.getvalue()


@pytest.fixture(scope="module")
def experiment():
    start = time.monotonic()
    stats = run_experiment()
    elapsed = time.monotonic() - start
    return stats, elapsed


def random_small_population(rng):
    horizon = int(rng.integers(2, 5))
    n = int(rng.integers(1, 4))
    lo = rng.uniform(0, horizon, size=n)
    hi = lo + rng.uniform(0, horizon - lo)
    return Population.from_energy_pairs(np.column_stack([lo, hi]), horizon, 1.0)


def test_criterion_1_membership_matches_hull_oracle():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    instances = 0
    members = 0
    while instances < 220:
        pop = random_small_population(rng)
        nu_lo, nu_hi = (
            AggregateFlexSet.from_population(pop).nu_lo,
            AggregateFlexSet.from_population(pop).nu_hi,
        )
        verts = flex_set_vertices(nu_lo, nu_hi)
        if rng.random() < 0.5:
            u = rng.dirichlet(np.ones(len(verts))) @ verts
        else:
            u = rng.uniform(0, pop.n, size=pop.horizon)
        expected = hull_member(verts, u, tol=1e-9)
        got = contains(pop, u, atol=1e-9)
        assert got == expected, f"mismatch on {u} for pop {pop}"
        members += got
        instances += 1
    elapsed = time.monotonic() - start
    report(
        1,
        elapsed < 60,
        f"{instances} instances, {members} members, contains == hull oracle, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_permutahedron_matches_hull_oracle():
    rng = np.random.default_rng(202)
    agree = 0
    for _ in range(520):
        dim = int(rng.integers(2, 5))
        v = np.sort(rng.uniform(0, 2, size=dim))[::-1]
        verts = permutahedron_vertices(v)
        if rng.random() < 0.5:
            x = rng.dirichlet(np.ones(len(verts))) @ verts
        else:
            x = rng.uniform(-0.3, 2.2, size=dim)
        assert permutahedron_contains(v, x) == hull_member(verts, x, tol=1e-9)
        agree += 1
    report(2, True, f"{agree} (v, x) pairs, permutahedron_contains == hull oracle")


def test_criterion_3_subset_test_soundness():
    rng = np.random.default_rng(303)
    true_cases = 0
    false_cases = 0
    pairs = 0
    while pairs < 210:
        pop = random_small_population(rng)
        if rng.random() < 0.5:
            # shrink each member's interval toward its middle: a guaranteed subset
            mid_lo = pop.e_lo + 0.3 * (pop.e_hi - pop.e_lo)
            mid_hi = pop.e_hi - 0.3 * (pop.e_hi - pop.e_lo)
            aset = AggregateFlexSet.from_population(
                Population.from_energy_pairs(
                    np.column_stack([mid_lo, mid_hi]), pop.horizon, 1.0
                )
            )
        else:
            other = random_small_population(rng)
            if other.horizon != pop.horizon:
                continue
            aset = AggregateFlexSet.from_population(other)
        pairs += 1
        verts = sorted_vertices(aset)
        certified = is_subset_exact(aset, pop)
        assert certified == flex_member(pop, verts).all(), "subset verdict != LP oracle"
        if certified:
            true_cases += 1
            lam = rng.dirichlet(np.ones(len(verts)), size=1000)
            points = lam @ verts
            inside = batch_contains(
                pop.e_lo[None, :], pop.e_hi[None, :], points, 1.0
            )[0]
            assert inside.all(), "convex combination escaped a certified subset"
        else:
            false_cases += 1
            witness = find_subset_violation(aset, pop)
            assert witness is not None
            assert not flex_member(pop, witness), "witness vertex is actually a member"
    report(
        3,
        True,
        f"{pairs} pairs ({true_cases} subsets x 1000 combinations, "
        f"{false_cases} violations with failing witness), zero counterexamples",
    )


def test_criterion_4_fast_test_no_false_positives():
    rng = np.random.default_rng(404)
    false_pos = 0
    false_neg = 0
    agree = 0
    total = 10_000
    for _ in range(total):
        pop = random_small_population(rng)
        if rng.random() < 0.5:
            shrink = rng.uniform(0.05, 0.45)
            mid_lo = pop.e_lo + shrink * (pop.e_hi - pop.e_lo)
            mid_hi = pop.e_hi - shrink * (pop.e_hi - pop.e_lo)
            aset = AggregateFlexSet.from_population(
                Population.from_energy_pairs(
                    np.column_stack([mid_lo, mid_hi]), pop.horizon, 1.0
                )
            )
        else:
            lo = rng.uniform(0, pop.horizon, size=pop.n)
            hi = lo + rng.uniform(0, pop.horizon - lo)
            aset = AggregateFlexSet.from_population(
                Population.from_energy_pairs(
                    np.column_stack([lo, hi]), pop.horizon, 1.0
                )
            )
        fast = is_subset_fast(aset, pop)
        exact = is_subset_exact(aset, pop)
        if fast and not exact:
            false_pos += 1
        elif exact and not fast:
            false_neg += 1
        else:
            agree += 1
    report(
        4,
        false_pos == 0 and false_neg == 0,
        f"{total} instances: 0 false positives and 0 false negatives required, "
        f"got {false_pos} and {false_neg}; agreement {agree / total:.1%}",
    )


def test_criterion_5_reference_push():
    pushed, i_c, kappa = push_lower([0.7, 2.7, 3.8, 5.0], 1.175, 6.0)
    ok = (
        np.allclose(pushed, [0.7, 4.2, 6.0, 6.0], atol=1e-12)
        and i_c == 2
        and abs(kappa - 1.5) < 1e-12
    )
    report(5, ok, f"push_lower -> {np.round(pushed, 12).tolist()}, i_c={i_c}, kappa={kappa}")


def test_criterion_6_budget_soundness():
    rng = np.random.default_rng(606)
    horizon = 5
    cap = 5.0
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        lo = rng.uniform(0, cap, size=k)
        hi = lo + rng.uniform(0, cap - lo)
        p = DiscreteDistribution(
            np.column_stack([lo, hi]), rng.dirichlet(np.ones(k)), horizon
        )
        n = int(rng.integers(1, 8))
        _, eps0 = project_to_n_points(p, n)
        eps = eps0 + rng.uniform(0, 2.5 * cap) * rng.random() ** 2
        result = robust_set(p, n, eps)
        for pop in (result.worst_lo, result.worst_hi):
            dist = wasserstein1(
                p,
                DiscreteDistribution.equal_weights(
                    np.column_stack([pop.e_lo, pop.e_hi]), horizon
                ),
            )
            if dist > eps + 1e-9:
                violations += 1
    report(6, violations == 0, f"1000 triples, recomputed W1 <= eps + 1e-9, {violations} violations")


def test_criterion_7_nestedness():
    # radius grids are drawn inside the regime where the splice vertices of
    # every set are members of the set itself (the regime of the
    # worst-case-pair identity); outside it the vertex family overstates
    # the inner set and a vertex check no longer witnesses non-nesting
    rng = np.random.default_rng(707)
    horizon = 6
    cap = 6.0
    violations = 0
    pairs = 0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        lo = rng.uniform(0, cap, size=k)
        hi = lo + rng.uniform(0, cap - lo)
        p = DiscreteDistribution(
            np.column_stack([lo, hi]), rng.dirichlet(np.ones(k)), horizon
        )
        n = int(rng.integers(1, 6))
        _, eps0 = project_to_n_points(p, n)
        offsets = np.sort(rng.uniform(0.0, 1.2 * cap, size=5))
        for _ in range(60):
            results = [robust_set(p, n, float(eps0 + o)) for o in offsets]
            if all(r.flex.vertices_are_members() for r in results):
                break
            offsets = offsets / 2.0
        for j in range(len(results)):
            for k2 in range(j + 1, len(results)):
                inner, outer = results[k2], results[j]
                if inner.empty:
                    continue
                pairs += 1
                vertices = sorted_vertices(inner.flex)
                if outer.empty:
                    violations += len(vertices)
                    continue
                member = flex_member(outer.worst_lo, vertices)
                member &= flex_member(outer.worst_hi, vertices)
                violations += int((~member).sum())
    report(
        7,
        violations == 0,
        f"100 distributions x 5-radius grids ({pairs} ordered pairs), "
        f"{violations} nesting violations",
    )


def test_criterion_8_desk_scale_decay(experiment):
    stats, elapsed = experiment
    details = []
    ok = elapsed < 900
    fits = fit_per_n(stats)
    assert [f.population_size for f in fits] == list(EXPERIMENT_SIZES)
    for f in fits:
        details.append(
            f"N={f.population_size}: rows={f.rows}, slope={f.slope:.2f}, R2={f.r_squared:.3f}"
        )
        ok = ok and f.rows >= 3 and f.slope < 0 and f.r_squared >= 0.85
    pooled = fit_constants(stats)
    details.append(f"pooled R2={pooled.r_squared:.3f}")
    report(8, ok, f"log beta vs eps^2 fits: {'; '.join(details)}; runtime {elapsed:.0f}s (< 900s)")


def test_criterion_9_held_out_conservativeness(experiment):
    import warnings

    from evflex import RangeWarning

    stats, _ = experiment
    fit = fit_constants([s for s in stats if s.population_size == 20])
    held = [
        s
        for s in stats
        if s.population_size in (5, 10) and s.epsilon in (1.0, 1.3, 1.6)
    ]
    assert len(held) == 6
    with warnings.catch_warnings():
        # raw-unit radii above 1 are expected here; the validity-range
        # warning is informative, not an error
        warnings.simplefilter("ignore", RangeWarning)
        exceed = sum(
            s.ci_hi > beta_from_epsilon(s.epsilon, s.population_size, fit.constants)
            for s in held
        )
    report(
        9,
        exceed <= 1,
        f"constants fitted on the N=20 grid; {exceed}/6 held-out cells "
        f"(N in {{5,10}}) exceed the tail-bound prediction (allowed: 1)",
    )


def band_ok(k_ref, n_ref, k, n, z=5.0):
    """The benchmark's two-sample binomial band at z, with a continuity allowance."""
    pooled = (k_ref + k) / (n_ref + n)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n_ref + 1 / n))
    return abs(k_ref / n_ref - k / n) <= z * se + 0.5 * (1 / n_ref + 1 / n)


def test_experiment_counts_match_reference(experiment):
    # a membership kernel that flips any trial's decision moves some count
    stats, _ = experiment
    got = [
        [s.epsilon, s.population_size, s.trials, s.violations, s.degenerate] for s in stats
    ]
    assert got == STREAM2_CELLS
    # the reference file still holds the untagged stream-1 counts; the
    # benchmark compares a tagged stream with them in its z=5 band
    reference = json.loads(REFERENCE_COUNTS.read_text())["mc-paper"]
    assert reference["seed"] == EXPERIMENT_SEED and reference["stream"] is None
    assert len(reference["cells"]) == len(got)
    for cell, ref in zip(got, reference["cells"]):
        assert cell[:3] == ref[:3] and cell[4] == ref[4], (cell, ref)
        assert band_ok(ref[3], ref[2], cell[3], cell[2]), (cell, ref)


def test_experiment_counts_match_exact_beta(experiment):
    # each cell's exact violation probability: every multiset of N draws,
    # weighted by its multinomial probability and scored by the harness's
    # predicate; a count outside z=5 of trials * beta means the stream does
    # not sample the distribution
    stats, _ = experiment
    dist = experiment_distribution()
    table = _atom_cap_table(dist.atoms, 1.0, HORIZON)
    worst = 0.0
    for s in stats:
        counts, pmf = multisets_with_pmf(s.population_size, dist.weights)
        assert abs(pmf.sum() - 1.0) < 1e-9
        result = robust_set(dist, s.population_size, s.epsilon)
        assert not (s.degenerate or result.empty)
        caps = _cap_columns(counts, table)
        beta = float(pmf[~_populations_clear(result.flex._vertex_envelope, caps, DEFAULT_ATOL)].sum())
        z = abs(s.violations - s.trials * beta) / math.sqrt(s.trials * beta * (1 - beta))
        assert z <= 5.0, (s.epsilon, s.population_size, s.violations, beta)
        worst = max(worst, z)
    print(f"exact beta: largest |z| over {len(stats)} cells is {worst:.2f}")


def test_criterion_10_determinism(experiment):
    stats, _ = experiment
    first = experiment_csv(stats)
    second = experiment_csv(run_experiment())
    report(
        10,
        first == second,
        f"two runs with seed {EXPERIMENT_SEED} produced byte-identical CSV "
        f"({len(first)} bytes)",
    )
