"""Max-flow and feasible circulation with arc lower bounds.

Small pure-python Dinic implementation over float capacities; adequate for
transportation-style networks of tens of nodes and hundreds of arcs. The
runtime no longer calls it: the tests build decomposition networks on it
as a cross-check of aggregate.decompose.
"""

from __future__ import annotations

from collections import deque

RESIDUAL_EPS = 1e-12


class Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        # edge arrays: to[i], cap[i] (residual); edge i^1 is the reverse edge
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add a directed edge and its zero-capacity reverse; returns edge id."""
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0.0)
        return eid

    def flow_on(self, eid: int) -> float:
        return self.cap[eid ^ 1]

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if self.level[v] < 0 and self.cap[eid] > RESIDUAL_EPS:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _dfs(self, u: int, t: int, pushed: float) -> float:
        if u == t:
            return pushed
        while self.it[u] < len(self.head[u]):
            eid = self.head[u][self.it[u]]
            v = self.to[eid]
            if self.cap[eid] > RESIDUAL_EPS and self.level[v] == self.level[u] + 1:
                got = self._dfs(v, t, min(pushed, self.cap[eid]))
                if got > RESIDUAL_EPS:
                    self.cap[eid] -= got
                    self.cap[eid ^ 1] += got
                    return got
            self.it[u] += 1
        return 0.0

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, float("inf"))
                if pushed <= RESIDUAL_EPS:
                    break
                total += pushed
        return total

def feasible_circulation(
    n: int, arcs: list[tuple[int, int, float, float]], atol: float = 1e-9
):
    """Feasibility of a circulation with arc bounds [low, cap].

    Standard transformation: each arc carries low units unconditionally,
    shifting node imbalances that a super source/sink pair must route.

    Returns (feasible, flows, deficits) where flows[i] is the flow on arc i
    (including its lower bound) and deficits maps nodes owing flow (negative
    imbalance) to the amount that could not be routed to them; all zero when
    feasible.
    """
    excess = [0.0] * n
    net = Dinic(n + 2)
    src, snk = n, n + 1
    eids = []
    for (u, v, low, cap) in arcs:
        if low > cap + atol:
            raise ValueError(f"arc ({u},{v}) has low {low} > cap {cap}")
        eids.append(net.add_edge(u, v, max(cap - low, 0.0)))
        excess[v] += low
        excess[u] -= low
    dem_eids = {}
    need = 0.0
    for v, e in enumerate(excess):
        if e > 0:
            net.add_edge(src, v, e)
            need += e
        elif e < 0:
            dem_eids[v] = net.add_edge(v, snk, -e)
    pushed = net.max_flow(src, snk)
    feasible = pushed >= need - atol
    flows = [low + net.flow_on(eid) for (_, _, low, _), eid in zip(arcs, eids)]
    deficits = {v: -excess[v] - net.flow_on(eid) for v, eid in dem_eids.items()}
    return feasible, flows, deficits
