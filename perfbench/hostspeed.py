"""How fast the host runs right now, from fixed probes that use no evflex code.

The benchmark runs on shared hosts whose speed drifts by 10% to 40% over
minutes, as neighbours come and go. CPU time moves with wall time, so the
drift is contention for the core, its caches and memory, not lost time
slices. A median within a run leaves out spells shorter than half the run,
but not a drift that spans several runs. The client loops therefore time
a probe between units of work, and run.py scales each gated timing by
``reference / median probe time``: the time the work would take on a host
that runs the probe in its reference time.

Each workload names the probe that does the kind of work its hot path
does, because contention slows kinds of work by different amounts:

- ``memory``: streams a fixed 8 MB array, four times the core's L2 cache,
  through numpy's clip and sum, as the Monte Carlo membership kernel does
  with its (R, V, N) temporaries.
- ``interpreter``: Philox stream set-up, small numpy sorts, clips and
  searches, and a pure-Python breadth-first search like the one in the
  flow solver that dispatch queries spend their time in.

The probes never change, so a change to evflex cannot move them.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque

import numpy as np

_ROWS = np.random.default_rng(2405_08232).random((64, 48))
# a 64-node graph: each node links to four others
_ADJ = [[(u + d) % 64 for d in (1, 2, 3, 5)] for u in range(64)]


def _memory() -> float:
    # made on each call, so the probe adds nothing to a worker's memory
    # between calls
    data = np.linspace(0.0, 1.0, 2000 * 25 * 20).reshape(2000, 25, 20)
    lo = np.linspace(0.0, 0.3, 2000 * 20).reshape(2000, 1, 20)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        acc += float(np.clip(data, lo, lo + 0.5).sum(axis=2).max())
    elapsed = time.perf_counter() - t0
    return elapsed if acc > 0 else math.nan  # uses the result, so no work is skipped


def _interpreter() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(180):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(i,))))
        row = _ROWS[i % 64]
        picks = row[rng.choice(48, size=20)]
        bps = np.sort(np.concatenate([picks, row[:20]]))
        phi = np.clip(bps[:, None], row[None, :20], row[None, 20:40]).sum(axis=1)
        acc += float(phi[np.searchsorted(phi, 1.0) % len(phi)])
        for _ in range(4):
            level = [-1] * 64
            level[0] = 0
            queue = deque([0])
            while queue:
                u = queue.popleft()
                for v in _ADJ[u]:
                    if level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            acc += level[-1]
    elapsed = time.perf_counter() - t0
    return elapsed if acc > 0 else math.nan


# name -> (seconds of one probe, reference seconds: about its median in
# quiet spells on a 2-vCPU KVM guest, Intel Xeon family 6 model 207,
# Python 3.11.7, numpy 2.4.6)
PROBES = {"memory": (_memory, 0.015), "interpreter": (_interpreter, 0.020)}


def probe_samples(name: str, count: int) -> list[float]:
    """Seconds of ``count`` runs of the named probe."""
    return [PROBES[name][0]() for _ in range(count)]


def scale(name: str, times: list[float]) -> float:
    """Factor that takes a timing made alongside ``times`` to the reference host."""
    return PROBES[name][1] / statistics.median(times)
