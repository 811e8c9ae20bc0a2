"""Majorization primitives and permutahedron geometry.

All comparisons sort their inputs non-increasing first; the permutahedron is
permutation symmetric, so sorting is the correct generalization of the
monotone-vector definitions.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_ATOL
from .errors import DimensionMismatch, NotMonotone


def _sorted_desc(x) -> np.ndarray:
    return -np.sort(-np.asarray(x, dtype=float))


def _check_same_length(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"length mismatch: {x.shape} vs {y.shape}")
    return x, y


def strong_majorizes(y, x, atol: float = DEFAULT_ATOL) -> bool:
    """True iff x is majorized by y: sorted prefix sums of x never exceed
    those of y, with equal totals."""
    x, y = _check_same_length(x, y)
    px = np.cumsum(_sorted_desc(x))
    py = np.cumsum(_sorted_desc(y))
    if abs(px[-1] - py[-1]) > atol:
        return False
    return bool(np.all(px <= py + atol))


def prefix_dominates(y, x, atol: float = DEFAULT_ATOL) -> bool:
    """Weak variant: sorted prefix sums of x never exceed those of y.

    No total-equality requirement.
    """
    x, y = _check_same_length(x, y)
    px = np.cumsum(_sorted_desc(x))
    py = np.cumsum(_sorted_desc(y))
    return bool(np.all(px <= py + atol))


def permutahedron_contains(v, x, atol: float = DEFAULT_ATOL) -> bool:
    """Membership of x in the convex hull of all permutations of v."""
    return strong_majorizes(v, x, atol=atol)


def permutahedron_subset(x, y, atol: float = DEFAULT_ATOL) -> bool:
    """True iff the permutahedron of x sits inside the permutahedron of y."""
    return strong_majorizes(y, x, atol=atol)


def minkowski_sum_permutahedra(x, y, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Generator of the Minkowski sum of two permutahedra.

    For monotone non-increasing generators the sum of the permutahedra is the
    permutahedron of the elementwise sum.
    """
    x, y = _check_same_length(x, y)
    for name, vec in (("x", x), ("y", y)):
        if np.any(np.diff(vec) > atol):
            raise NotMonotone(f"{name} is not sorted non-increasing")
    return x + y
