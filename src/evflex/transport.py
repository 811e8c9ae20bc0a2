"""Exact discrete transportation solver.

Successive shortest augmenting paths with Dijkstra over Johnson potentials;
float masses are handled directly. ambiguity.wasserstein1 merges equal
atoms before it calls the solver, so a side has as many rows or columns as
it has distinct atoms (tens), not N points, and the dense cost matrix is
fine.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import NumericalFailure

MASS_EPS = 1e-15


def min_cost_transport(supply, demand, cost) -> tuple[float, np.ndarray]:
    """Optimal transport plan between two non-negative mass vectors.

    supply: (n,), demand: (m,) with equal totals (tiny float imbalance is
    tolerated and left unshipped); cost: (n, m) non-negative. Returns
    (total_cost, plan).
    """
    supply = np.asarray(supply, dtype=float).copy()
    demand = np.asarray(demand, dtype=float).copy()
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if supply.shape != (n,) or demand.shape != (m,):
        raise ValueError("supply/demand shapes do not match the cost matrix")
    if np.any(cost < 0):
        raise ValueError("cost matrix must be non-negative")
    plan = np.zeros((n, m))
    pot = np.zeros(n + m)  # Johnson potentials keep reduced costs non-negative
    remaining = float(min(supply.sum(), demand.sum()))
    max_rounds = 4 * (n * m + n + m) + 16
    rounds = 0
    # leave at most ~1e-13 mass unshipped: cost error is far below the 1e-9
    # tolerances used by callers
    while remaining > 1e-13:
        rounds += 1
        if rounds > max_rounds:
            raise NumericalFailure("transport solver failed to converge")
        dist = np.full(n + m, np.inf)
        parent = np.full(n + m, -1, dtype=int)
        heap = []
        for i in range(n):
            if supply[i] > MASS_EPS:
                dist[i] = 0.0
                heapq.heappush(heap, (0.0, i))
        done = np.zeros(n + m, dtype=bool)
        target = -1
        while heap:
            d, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = True
            if v >= n and demand[v - n] > MASS_EPS:
                target = v
                break
            # reduced cost of (u, w) is c(u, w) + pot(u) - pot(w); settled
            # nodes are never re-relaxed so float noise cannot rewrite
            # parent pointers into a cycle
            if v < n:
                red = cost[v] + pot[v] - pot[n:]
                for j in range(m):
                    w = n + j
                    nd = d + max(red[j], 0.0)
                    if not done[w] and nd < dist[w] - 1e-15:
                        dist[w] = nd
                        parent[w] = v
                        heapq.heappush(heap, (nd, w))
            else:
                j = v - n
                backs = np.nonzero(plan[:, j] > MASS_EPS)[0]
                for i in backs:
                    nd = d + max(-cost[i, j] + pot[v] - pot[i], 0.0)
                    if not done[i] and nd < dist[i] - 1e-15:
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
            bottleneck = min(bottleneck, plan[b, a - n])
        for a, b in path:
            if a < n:
                plan[a, b - n] += bottleneck
            else:
                plan[b, a - n] -= bottleneck
        supply[src] -= bottleneck
        demand[target - n] -= bottleneck
        remaining -= bottleneck
        # cap at the target distance for every node, including unreached
        # ones: unreached nodes have no residual arc from reached ones, so
        # the uniform shift keeps all reduced costs non-negative
        pot += np.minimum(dist, dist[target])
    return float((plan * cost).sum()), plan
