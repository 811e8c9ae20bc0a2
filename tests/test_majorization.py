import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflex import (
    DimensionMismatch,
    DomainError,
    NotMonotone,
    minkowski_sum_permutahedra,
    permutahedron_contains,
    permutahedron_subset,
    prefix_dominates,
    strong_majorizes,
)

from oracles import hull_member, permutahedron_vertices

vectors = st.lists(st.floats(-3, 3), min_size=2, max_size=6)


def test_strong_majorizes_examples():
    assert strong_majorizes([3, 0, 0], [1, 1, 1])
    assert not strong_majorizes([1, 1], [2, 0])
    assert strong_majorizes([2, 1, 0], [2, 1, 0])
    with pytest.raises(DimensionMismatch):
        strong_majorizes([1, 2], [1, 2, 3])


@pytest.mark.parametrize("atol", [np.nan, np.inf, -np.inf, -1.0])
def test_bad_atol_rejected(atol):
    # a NaN tolerance fails every comparison and an infinite one passes
    # every comparison, so neither can give an answer
    for check in (strong_majorizes, prefix_dominates, permutahedron_contains,
                  permutahedron_subset, minkowski_sum_permutahedra):
        with pytest.raises(DomainError, match="atol"):
            check([2, 0], [1, 1], atol=atol)


def test_prefix_dominates_examples():
    assert prefix_dominates([2, 1], [1, 1])
    assert not prefix_dominates([1, 0], [1, 1])
    assert prefix_dominates([1, 1], [1, 1])


def test_permutahedron_contains_examples():
    v = [1, 0.5, 0]
    assert permutahedron_contains(v, [0.5, 0.5, 0.5])
    assert permutahedron_contains(v, [0, 0.5, 1])
    assert not permutahedron_contains(v, [1.2, 0.3, 0])


def test_permutahedron_subset_examples():
    assert permutahedron_subset([1, 1], [2, 0])
    assert not permutahedron_subset([2, 0], [1, 1])
    assert permutahedron_subset([1.5, 0.5], [1.5, 0.5])


def test_minkowski_sum_examples():
    np.testing.assert_allclose(
        minkowski_sum_permutahedra([1, 0.5, 0], [1, 1, 0]), [2, 1.5, 0]
    )
    np.testing.assert_allclose(
        minkowski_sum_permutahedra([1, 0.5, 0], [0, 0, 0]), [1, 0.5, 0]
    )
    with pytest.raises(NotMonotone):
        minkowski_sum_permutahedra([0, 1], [1, 0])


@settings(max_examples=150, deadline=None)
@given(vectors)
def test_strong_majorizes_reflexive(x):
    assert strong_majorizes(x, x)


@settings(max_examples=150, deadline=None)
@given(vectors, st.data())
def test_permutation_invariance(x, data):
    v = np.sort(np.asarray(x))[::-1]
    perm = data.draw(st.permutations(list(range(len(x)))))
    assert permutahedron_contains(v, np.asarray(x)[perm]) == permutahedron_contains(
        v, x
    )


def _t_transform(rng, y):
    """One averaging step; the result is majorized by y."""
    out = np.asarray(y, dtype=float).copy()
    i, j = rng.choice(len(out), size=2, replace=False)
    lam = rng.uniform(0, 1)
    hi, lo = out[i], out[j]
    out[i] = lam * hi + (1 - lam) * lo
    out[j] = (1 - lam) * hi + lam * lo
    return out


def test_strong_majorizes_transitive_on_smoothing_chains():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = rng.uniform(-2, 2, size=rng.integers(2, 6))
        y = _t_transform(rng, z)
        x = _t_transform(rng, _t_transform(rng, y))
        assert strong_majorizes(z, y)
        assert strong_majorizes(y, x)
        assert strong_majorizes(z, x)


def test_antisymmetric_up_to_permutation():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=4)
        y = rng.permutation(x)
        assert strong_majorizes(x, y) and strong_majorizes(y, x)
        z = _t_transform(rng, x)
        if strong_majorizes(z, x):  # both directions only for permutations
            np.testing.assert_allclose(np.sort(x), np.sort(z), atol=1e-9)


def test_random_convex_combinations_are_members():
    rng = np.random.default_rng(3)
    x = np.array([2.0, 1.0, 0.25, 0.0])
    verts = permutahedron_vertices(x)
    weights = rng.dirichlet(np.ones(len(verts)), size=1000)
    for point in weights @ verts:
        assert permutahedron_contains(x, point)


def test_hull_oracle_equivalence_small():
    rng = np.random.default_rng(5)
    for _ in range(200):
        dim = rng.integers(2, 5)
        v = np.sort(rng.uniform(0, 2, size=dim))[::-1]
        verts = permutahedron_vertices(v)
        if rng.random() < 0.5:
            lam = rng.dirichlet(np.ones(len(verts)))
            x = lam @ verts
        else:
            x = rng.uniform(-0.5, 2.5, size=dim)
        assert permutahedron_contains(v, x) == hull_member(verts, x)


def test_minkowski_sum_sampled_membership():
    rng = np.random.default_rng(9)
    x = np.array([1.5, 1.0, 0.0])
    y = np.array([1.0, 0.4, 0.1])
    vx = permutahedron_vertices(x)
    vy = permutahedron_vertices(y)
    total = minkowski_sum_permutahedra(x, y)
    for _ in range(300):
        p = rng.dirichlet(np.ones(len(vx))) @ vx
        q = rng.dirichlet(np.ones(len(vy))) @ vy
        assert permutahedron_contains(total, p + q)
