"""Exact discrete transportation solver.

Successive shortest augmenting paths with Dijkstra over Johnson potentials;
float masses are handled directly. ambiguity.wasserstein1 merges equal
atoms before it calls the solver, so a side has as many rows or columns as
it has distinct atoms (tens), not N points, and the dense cost matrix is
fine.

The search runs on Python lists of floats, not numpy arrays: on problems
this small every step touches one scalar at a time, and indexing a numpy
array per element costs several times a list lookup. The arithmetic is
IEEE double either way, so the plan is the same; numpy is used only to
check the input, to total the masses and to sum the final cost.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import DomainError, NumericalFailure

MASS_EPS = 1e-15


def min_cost_transport(supply, demand, cost) -> tuple[float, np.ndarray]:
    """Optimal transport plan between two non-negative mass vectors.

    supply: (n,), demand: (m,) with equal totals (tiny float imbalance is
    tolerated and left unshipped); cost: (n, m) non-negative. Returns
    (total_cost, plan). Non-finite input raises DomainError; a negative
    mass or cost raises ValueError.
    """
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if supply.shape != (n,) or demand.shape != (m,):
        raise ValueError("supply/demand shapes do not match the cost matrix")
    # min and max propagate NaN, and an infinity shows in one of them
    values = np.concatenate([supply, demand, cost.ravel()])
    lo, hi = float(values.min(initial=0.0)), float(values.max(initial=0.0))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("supply, demand and cost must be finite")
    if lo < 0:
        raise ValueError("supply, demand and cost must be non-negative")
    remaining = float(min(supply.sum(), demand.sum()))
    rows = cost.tolist()
    supply = supply.tolist()
    demand = demand.tolist()
    plan = [[0.0] * m for _ in range(n)]
    nodes = n + m
    pot = [0.0] * nodes  # Johnson potentials keep reduced costs non-negative
    max_rounds = 4 * (n * m + n + m) + 16
    rounds = 0
    # leave at most ~1e-13 mass unshipped: cost error is far below the 1e-9
    # tolerances used by callers
    while remaining > 1e-13:
        rounds += 1
        if rounds > max_rounds:
            raise NumericalFailure("transport solver failed to converge")
        dist = [math.inf] * nodes
        parent = [-1] * nodes
        done = [False] * nodes
        heap = []  # ascending sources already form a heap
        for i in range(n):
            if supply[i] > MASS_EPS:
                dist[i] = 0.0
                heap.append((0.0, i))
        target = -1
        while heap:
            d, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = True
            if v >= n and demand[v - n] > MASS_EPS:
                target = v
                break
            # reduced cost of (u, w) is c(u, w) + pot(u) - pot(w), clamped
            # at 0 like max(r, 0.0); settled nodes are never re-relaxed so
            # float noise cannot rewrite parent pointers into a cycle
            pv = pot[v]
            if v < n:
                for w, c in zip(range(n, nodes), rows[v]):
                    if done[w]:
                        continue
                    r = c + pv - pot[w]
                    nd = d + (r if r >= 0.0 else 0.0)
                    if nd < dist[w] - 1e-15:
                        dist[w] = nd
                        parent[w] = v
                        heapq.heappush(heap, (nd, w))
            else:
                j = v - n
                for i, flows in enumerate(plan):
                    if done[i] or not flows[j] > MASS_EPS:
                        continue
                    r = -rows[i][j] + pv - pot[i]
                    nd = d + (r if r >= 0.0 else 0.0)
                    if nd < dist[i] - 1e-15:
                        dist[i] = nd
                        parent[i] = v
                        heapq.heappush(heap, (nd, i))
        if target < 0:
            break  # nothing more can be shipped
        # bottleneck along the augmenting path
        path = []
        v = target
        while parent[v] >= 0:
            path.append((parent[v], v))
            v = parent[v]
        path.reverse()
        src = path[0][0] if path else target
        bottleneck = min(supply[src], demand[target - n])
        for a, b in path:
            if a < n:  # forward arc
                continue
            bottleneck = min(bottleneck, plan[b][a - n])
        for a, b in path:
            if a < n:
                plan[a][b - n] += bottleneck
            else:
                plan[b][a - n] -= bottleneck
        supply[src] -= bottleneck
        demand[target - n] -= bottleneck
        remaining -= bottleneck
        # cap at the target distance for every node, including unreached
        # ones: unreached nodes have no residual arc from reached ones, so
        # the uniform shift keeps all reduced costs non-negative
        cap = dist[target]
        pot = [p + (x if x < cap else cap) for p, x in zip(pot, dist)]
    plan = np.array(plan, dtype=float).reshape(n, m)
    return float((plan * cost).sum()), plan
