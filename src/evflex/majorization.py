"""Majorization primitives and permutahedron geometry.

The permutahedron of v is the set of the pair (v sorted non-increasing,
the same), so x is majorized by y iff x's cut sums [top_k(x), -bottom_k(x)]
clear y's: the membership kernel of aggregate, on the same tolerance rule.
"""

from __future__ import annotations

import numpy as np

from .aggregate import _cut_sums, _member_matrix
from .core import DEFAULT_ATOL, _check_atol, _floats
from .errors import DomainError, NotMonotone


def _check_same_length(x, y, atol):
    _check_atol(atol)
    x = _floats(x, "x", (None,))
    y = _floats(y, "y", x.shape)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("vectors must be finite")
    return x, y


def strong_majorizes(y, x, atol: float = DEFAULT_ATOL) -> bool:
    """True iff x is majorized by y: top_k(x) <= top_k(y) and
    bottom_k(x) >= bottom_k(y) for every k, so the totals are equal."""
    x, y = _check_same_length(x, y, atol)
    return bool(_member_matrix(_cut_sums(y), _cut_sums(x), atol))


def prefix_dominates(y, x, atol: float = DEFAULT_ATOL) -> bool:
    """Weak variant: top_k(x) <= top_k(y) for every k (the first T cut sums).

    No total-equality requirement.
    """
    x, y = _check_same_length(x, y, atol)
    return bool(_member_matrix(_cut_sums(y)[: x.size], _cut_sums(x)[: x.size], atol))


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
    x, y = _check_same_length(x, y, atol)
    for name, vec in (("x", x), ("y", y)):
        if np.any(np.diff(vec) > atol):
            raise NotMonotone(f"{name} is not sorted non-increasing")
    return x + y
