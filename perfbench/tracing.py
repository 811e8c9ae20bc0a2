"""Per-layer tracing from outside the library.

The layers of evflex call each other through module-level names (the CLI
calls ``run_trials`` through ``evflex.cli``, the harness calls
``batch_contains`` through ``evflex.harness``, and so on). The tracer
replaces those names with wrappers that open a span around each call, so
every layer is timed without changing the library. A span's self time is
its duration minus the time covered by its child spans. Counts are taken
from the call arguments at the same boundaries.

A wrapped name that no longer exists is recorded as missing; its metrics
then read 0 and the report names it, instead of the run failing.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

import numpy as np


def _batch_counts(args, kwargs):
    e_lo, _, profiles = args[:3]
    r_count, n = np.shape(e_lo)
    v_count, horizon = np.shape(profiles)
    return {
        "aggregate.batch_checks": r_count * v_count,
        # the (R, V, N) float64 temporaries the kernel builds for each k
        "aggregate.batch_bytes_computed": r_count * v_count * n * horizon * 8,
    }


def _transport_counts(args, kwargs):
    return {"transport.cost_cells": int(np.size(args[2]))}


def _circulation_counts(args, kwargs):
    return {"flows.arcs": len(args[1])}


MAJORIZATION_NAMES = (
    "strong_majorizes",
    "prefix_dominates",
    "permutahedron_contains",
    "permutahedron_subset",
    "minkowski_sum_permutahedra",
)

# (modules whose global is replaced, attribute, layer, count extractor)
SPANS = [
    (["evflex.cli"], "main", "cli.main", None),
    (["evflex.cli"], "parse_scenario", "io.parse_scenario", None),
    (["evflex.cli"], "run_trials", "harness.run_trials", None),
    (["evflex.harness"], "robust_set", "ambiguity.robust_set", None),
    (["evflex.harness"], "batch_contains", "aggregate.batch_contains", _batch_counts),
    (["evflex.ambiguity"], "project_to_n_points", "ambiguity.project", None),
    (["evflex.ambiguity"], "wasserstein1", "ambiguity.w1", None),
    (["evflex.ambiguity"], "min_cost_transport", "transport.solve", _transport_counts),
    (["evflex", "evflex.aggregate"], "contains", "aggregate.contains", None),
    (["evflex", "evflex.aggregate", "evflex.cli"], "decompose", "aggregate.decompose", None),
    (["evflex.aggregate"], "feasible_circulation", "flows.circulation", _circulation_counts),
]
# (modules whose global is replaced, attribute, counter): counted, not timed
COUNTED = [
    (["evflex.harness"], "trial_rng", "harness.rng_streams"),
] + [
    (["evflex", "evflex.majorization"], name, "majorization.calls")
    for name in MAJORIZATION_NAMES
]
# flows spans count only under these parents
FLOW_PARENTS = ("aggregate.contains", "aggregate.decompose")


class Tracer:
    """Installs the wrappers on ``install`` and restores the names on ``remove``.

    Spans and counts add up over every installed period.
    """

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [layer, child seconds]
        self._saved: list[tuple] = []

    def _span(self, layer, fn, counter):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                if layer != "flows.circulation" or parent in FLOW_PARENTS:
                    self.self_s[layer] += elapsed - frame[1]
                    self.calls[layer] += 1
                    if counter is not None:
                        self.counts.update(counter(args, kwargs))

        return wrapper

    def _count(self, name, fn):
        calls = self.counts

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, modules, attr, make):
        originals = {}
        for module_name in modules:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            if original not in originals:
                originals[original] = make(original)
            self._saved.append((module, attr, original))
            setattr(module, attr, originals[original])

    def install(self):
        self.missing = []
        for modules, attr, layer, counter in SPANS:
            self._replace(modules, attr, lambda fn, la=layer, c=counter: self._span(la, fn, c))
        for modules, attr, name in COUNTED:
            self._replace(modules, attr, lambda fn, n=name: self._count(n, fn))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# per-layer metric -> (source, key, unit); "self" is a span's self time,
# "calls" its call count and "count" a counter
LAYER_METRICS = {
    "io.parse_scenario_s": ("self", "io.parse_scenario", "s"),
    "cli.main_self_s": ("self", "cli.main", "s"),
    "harness.run_trials_self_s": ("self", "harness.run_trials", "s"),
    "harness.rng_streams": ("count", "harness.rng_streams", "count"),
    "aggregate.batch_contains_s": ("self", "aggregate.batch_contains", "s"),
    "aggregate.batch_checks": ("count", "aggregate.batch_checks", "count"),
    "aggregate.batch_bytes_computed": ("count", "aggregate.batch_bytes_computed", "bytes"),
    "ambiguity.robust_set_s": ("self", "ambiguity.robust_set", "s"),
    "ambiguity.project_s": ("self", "ambiguity.project", "s"),
    "ambiguity.w1_s": ("self", "ambiguity.w1", "s"),
    "ambiguity.w1_calls": ("calls", "ambiguity.w1", "count"),
    "transport.solve_s": ("self", "transport.solve", "s"),
    "transport.solve_calls": ("calls", "transport.solve", "count"),
    "transport.cost_cells": ("count", "transport.cost_cells", "count"),
    "aggregate.contains_s": ("self", "aggregate.contains", "s"),
    "aggregate.contains_calls": ("calls", "aggregate.contains", "count"),
    "aggregate.decompose_s": ("self", "aggregate.decompose", "s"),
    "aggregate.decompose_calls": ("calls", "aggregate.decompose", "count"),
    "flows.circulation_s": ("self", "flows.circulation", "s"),
    "flows.circulation_calls": ("calls", "flows.circulation", "count"),
    "flows.arcs": ("count", "flows.arcs", "count"),
    "majorization.calls": ("count", "majorization.calls", "count"),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    sources = {"self": tracer.self_s, "calls": tracer.calls, "count": tracer.counts}
    return {
        name: (float(sources[source].get(key, 0)), unit)
        for name, (source, key, unit) in LAYER_METRICS.items()
    }
