"""The benchmark's workloads: seeded inputs, the client loop and the checks.

Each workload drives evflex only through its public entry points with
default arguments: ``evflex.cli.main(["montecarlo", ...])`` for the two
Monte Carlo workloads, ``evflex.contains(pop, u)`` and
``evflex.decompose(pop, u)`` for the dispatch query stream. Entry points
are looked up on the module at call time, so the traced run's wrappers
see every call.

Every output is checked here, independently of the library's own code:
violation counts against recorded reference counts, the CSV schema and
the degenerate flags for the Monte Carlo workloads, and known-truth
answers plus an independent witness check for dispatch.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import hostspeed

# The seed shipped in scenarios/concentration_experiment.json. Reference
# violation counts are recorded at this harness seed for both workloads.
PINNED_SEED = 20240817
# Fixed seed for the inputs that must not vary between runs (the fleet
# distribution and the dispatch populations), so every run times the same
# robust sets and the same flow networks.
INPUT_SEED = 2405_08232

RESULT_COLUMNS = [
    "epsilon", "epsilon_sq", "N", "T", "trials", "violations",
    "beta_hat", "ci_lo", "ci_hi", "degenerate",
]
# Two-sample binomial band: a cell fails when its rate differs from the
# reference rate by more than BAND_Z pooled standard errors. z = 5 keeps a
# false alarm below 1e-6 per cell across thousands of benchmark runs.
BAND_Z = 5.0
# Witness tolerance for sums of up to a few hundred flow values.
WITNESS_ATOL = 1e-6

# Host-speed probe samples (hostspeed.py) taken between units of work, so
# that they sample the same spells as the work: 2% to 3% of a run's time.
PROBES_PER_COMMAND = 3
QUERIES_PER_PROBE = 100

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@dataclass
class Outcome:
    """What one phase of a workload did and how long it took."""

    units: int = 0  # trial-checks (mc-*) or queries (dispatch)
    busy_s: float = 0.0  # time spent inside library calls
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    # seconds of each dispatch pool query, keyed by query; the estimate
    # takes the median repetition of each
    repeats: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # seconds of the host-speed probe samples taken between units of work
    probe_s: list[float] = field(default_factory=list)

    def add_checks(self, other: "Outcome"):
        """Add another phase's checks, not its work, to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures = (self.failures + other.failures)[:20]

    def extend(self, other: "Outcome"):
        """Add another phase's work and checks to this one."""
        self.units += other.units
        self.busy_s += other.busy_s
        self.probe_s += other.probe_s
        self.add_checks(other)
        for mine, theirs in ((self.latencies_ms, other.latencies_ms), (self.repeats, other.repeats)):
            for key, values in theirs.items():
                mine.setdefault(key, []).extend(values)

    def fail(self, message: str, count: int = 1):
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# Monte Carlo certification (mc-paper, mc-fleet)


def fleet_scenario(root: str, smoke: bool) -> dict:
    """24-atom distribution at T=96 with fleet-scale N.

    N*T moves the work into the W1 transport solve and into wide
    (R, V, N) membership arrays; radii 2 and 4 leave non-empty sets with
    violation rates between 0.07 and 0.6 at N in {100, 200}.
    """
    horizon = 96
    rng = np.random.default_rng(INPUT_SEED)
    e_lo = np.round(rng.uniform(4, 40, 24) * 2) / 2
    e_hi = np.minimum(np.round((e_lo + rng.uniform(8, 40, 24)) * 2) / 2, horizon)
    weights = rng.dirichlet(np.full(24, 4.0))
    weights /= weights.sum()
    sizes, trials = ([20], 20) if smoke else ([100, 200], 200)
    return {
        "grid": {"T": horizon},
        "power": 1.0,
        "distribution": {
            "atoms": np.column_stack([e_lo, e_hi]).tolist(),
            "weights": weights.tolist(),
        },
        "harness": {"N": sizes, "epsilons": [2.0, 4.0], "trials": trials},
    }


def paper_scenario(root: str, smoke: bool) -> dict:
    with open(os.path.join(root, "scenarios", "concentration_experiment.json")) as fh:
        scenario = json.load(fh)
    if smoke:
        scenario["harness"].update({"N": [5, 10], "epsilons": [0.4, 1.0], "trials": 50})
    return scenario


def probe_scenario(root: str, smoke: bool) -> dict:
    """The fleet distribution at N=20, three radii and 40 trials.

    Every Monte Carlo run's warm-up runs it at PINNED_SEED, whatever the
    workload seed, and checks its counts against the reference. Its
    weights are not uniform (the paper's are), so a sampler that ignores
    or reverses them fails, as does a membership kernel that changes any
    of its outcomes. It takes about 0.25 s.
    """
    scenario = fleet_scenario(root, smoke=True)
    scenario["harness"].update({"N": [20], "epsilons": [4.0, 5.0, 6.0], "trials": 40})
    return scenario


SCENARIOS = {"mc-paper": paper_scenario, "mc-fleet": fleet_scenario, "probe": probe_scenario}


def _cells(scenario: dict) -> list[tuple[float, int]]:
    harness = scenario["harness"]
    sizes = harness["N"] if isinstance(harness["N"], list) else [harness["N"]]
    return [(float(eps), int(n)) for n in sizes for eps in harness["epsilons"]]


def parse_results(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """Split CSV output into (metadata, header, rows) with the csv module."""
    metadata = {}
    body = []
    for line in text.splitlines(keepends=True):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            metadata[key.strip()] = value.strip()
        else:
            body.append(line)
    records = [r for r in csv.reader(body) if r]
    if not records:
        return metadata, [], []
    return metadata, records[0], records[1:]


def _stream_tag(metadata: dict):
    """The value of a stream-version metadata key, if the CSV carries one."""
    tags = {k: v for k, v in metadata.items() if "stream" in k.lower()}
    return json.dumps(tags, sort_keys=True) if tags else None


def band_ok(k_ref: int, n_ref: int, k: int, n: int) -> bool:
    """Two-sample binomial test at BAND_Z with a continuity allowance."""
    pooled = (k_ref + k) / (n_ref + n)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n_ref + 1 / n))
    slack = 0.5 * (1 / n_ref + 1 / n)
    return abs(k_ref / n_ref - k / n) <= BAND_Z * se + slack


class MonteCarlo:
    """One closed-loop client running ``evflex montecarlo`` back to back.

    The scenario is run as one command per population size N, each on a
    scenario file holding only that N. Streams are keyed by (seed, radius
    index, trial) and every N has the same radii, so the commands together
    print exactly the rows of one command on the whole scenario. A round is
    one command per N, in scenario order.
    """

    HOST_PROBE = "memory"  # see hostspeed.py

    def __init__(self, name: str, root: str, seed: int, smoke: bool, work_dir: str):
        self.name = name
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        scenario = SCENARIOS[name](root, smoke)
        self.cells = _cells(scenario)
        self.trials = int(scenario["harness"]["trials"])
        self.horizon = int(scenario["grid"]["T"])
        self.reference = None
        if not smoke:
            with open(REFERENCE_PATH) as fh:
                self.reference = json.load(fh)[name]
        self.parts = []  # (label, scenario path, cells) per N
        for n in dict.fromkeys(n for _, n in self.cells):
            part = json.loads(json.dumps(scenario))
            part["harness"]["N"] = [n]
            path = os.path.join(work_dir, f"{name}{'-smoke' if smoke else ''}-N{n}.json")
            with open(path, "w") as fh:
                json.dump(part, fh)
            self.parts.append((f"N={n}", path, [cell for cell in self.cells if cell[1] == n]))
        # trial-checks of each part, until its CSV says otherwise
        self.units = {label: len(cells) * self.trials for label, _, cells in self.parts}
        self.trace_ops = 1
        self.expected_text = {}

    def _command(self, path: str) -> tuple[int, str]:
        import evflex.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = evflex.cli.main(["montecarlo", "--scenario", path, "--seed", str(self.seed)])
        return rc, out.getvalue()

    def warm_up(self) -> Outcome:
        """Run the probe scenario once at PINNED_SEED; return its checks.

        The probe runs the same CLI path as the workload, so it also warms
        that path up.
        """
        probe = MonteCarlo("probe", self.root, PINNED_SEED, False, self.work_dir)
        return probe.run(0, max_ops=1)

    def run(self, seconds: float, max_ops: int | None = None) -> Outcome:
        """Rounds back to back while the next one should end within ``seconds``.

        At least one round runs; the last round's time predicts the next.
        With ``max_ops``, exactly that many rounds run.
        """
        out = Outcome(latencies_ms={label: [] for label, _, _ in self.parts})
        start = time.perf_counter()
        rounds = 0
        while True:
            t_round = time.perf_counter()
            for label, path, cells in self.parts:
                out.probe_s += hostspeed.probe_samples(self.HOST_PROBE, PROBES_PER_COMMAND)
                t0 = time.perf_counter()
                try:
                    rc, text = self._command(path)
                except Exception as exc:  # any escape from the CLI is a failure
                    rc, text = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                out.busy_s += elapsed
                out.latencies_ms[label].append(elapsed * 1e3)
                out.attempted += len(cells)
                self.check(label, rc, text, out)
                out.units += self.units[label]
            rounds += 1
            elapsed = time.perf_counter() - t_round
            if max_ops is not None:
                if rounds >= max_ops:
                    return out
            elif time.perf_counter() - start + elapsed > seconds:
                return out  # the next round would likely overrun

    @staticmethod
    def estimate(out: Outcome) -> tuple[float, float]:
        """(round ms, trial-checks per second) from each command's median time.

        A shared host has both slow and fast spells; the median of each
        command leaves out whichever covers less than half of the run. The
        round's time is the sum of its commands' medians.
        """
        typical = sum(statistics.median(v) for v in out.latencies_ms.values()) / 1e3
        rounds = min(len(v) for v in out.latencies_ms.values())
        return typical * 1e3, out.units / rounds / typical

    def check(self, label: str, rc, text: str, out: Outcome):
        """Count failed (epsilon, N) cells of one command's CSV."""
        cells = next(cells for part, _, cells in self.parts if part == label)
        if rc != 0:
            out.fail(f"{label}: montecarlo exit {rc}: {text[-200:]}", len(cells))
            return
        metadata, header, rows = parse_results(text)
        if header != RESULT_COLUMNS:
            out.fail(f"{label}: CSV header {header}", len(cells))
            return
        if metadata.get("seed") != str(self.seed) or metadata.get("T") != str(self.horizon):
            out.fail(f"{label}: CSV metadata {metadata}", len(cells))
            return
        if len(rows) != len(cells):
            out.fail(f"{label}: {len(rows)} CSV rows, expected {len(cells)}", len(cells))
            return
        if label not in self.expected_text:
            self.expected_text[label] = text
            # trial-checks actually made: degenerate cells sample nothing
            self.units[label] = sum(int(r[4]) for r in rows if r[9:] == ["false"])
        elif text != self.expected_text[label]:
            out.fail(f"{label}: same seed gave a different CSV", len(cells))
            return
        ref_cells = None
        exact = False
        if self.reference is not None:
            ref_cells = [self.reference["cells"][self.cells.index(cell)] for cell in cells]
            exact = self.seed == self.reference["seed"] and _stream_tag(metadata) == self.reference["stream"]
        for i, (row, (eps, n)) in enumerate(zip(rows, cells)):
            problem = self._check_row(row, eps, n, ref_cells[i] if ref_cells else None, exact)
            if problem:
                out.fail(f"cell eps={eps} N={n}: {problem}")

    def _check_row(self, row, eps, n, ref, exact):
        if len(row) != len(RESULT_COLUMNS):
            return f"row with {len(row)} fields"
        try:
            r_eps, r_eps_sq = float(row[0]), float(row[1])
            r_n, r_t, trials, k = (int(v) for v in row[2:6])
            beta_hat, ci_lo, ci_hi = (float(v) for v in row[6:9])
        except ValueError as exc:
            return f"unparsable row {row}: {exc}"
        flag = row[9]
        if (r_eps, r_n, r_t) != (eps, n, self.horizon) or not math.isclose(r_eps_sq, eps * eps):
            return f"row keys {row[:4]}"
        if flag not in ("true", "false"):
            return f"degenerate flag {flag!r}"
        degenerate = flag == "true"
        if trials == 0:
            if not degenerate or k != 0 or not all(map(math.isnan, (beta_hat, ci_lo, ci_hi))):
                return "a cell without trials must be degenerate with NaN estimates"
        else:
            if trials != self.trials or not 0 <= k <= trials:
                return f"trials={trials} violations={k}"
            if degenerate and k != 0:
                return "degenerate cell with violations"
            if beta_hat != k / trials or not ci_lo <= beta_hat <= ci_hi:
                return f"estimates {beta_hat}, [{ci_lo}, {ci_hi}]"
        if ref is None:
            return None
        ref_eps, ref_n, ref_trials, ref_k, ref_degenerate = ref
        if (ref_eps, ref_n) != (eps, n) or ref_degenerate != degenerate or ref_trials != trials:
            return f"differs from reference cell {ref}"
        if exact and ref_k != k:
            return f"violations {k} != reference {ref_k} at the pinned seed"
        if trials and not band_ok(ref_k, ref_trials, k, trials):
            return f"violations {k}/{trials} outside the band around {ref_k}/{ref_trials}"
        return None


# ---------------------------------------------------------------------------
# Operator query stream (dispatch)

# (N, T) classes and their share of the stream. A flow query costs about 1,
# 4, 18 and 17 ms on the four classes, so weighting (50, 24) at 0.4 puts the
# median query inside that class, away from class boundaries.
DISPATCH_CLASSES = [((10, 24), 0.30), ((50, 24), 0.40), ((200, 24), 0.15), ((50, 96), 0.15)]
SMOKE_CLASSES = [((3, 6), 0.30), ((5, 6), 0.40), ((8, 6), 0.15), ((5, 12), 0.15)]
POOL_SIZE = 800  # distinct queries, shared out by class share; several passes a run
SMOKE_POOL_SIZE = 40
DELTA = 0.02  # relative step that takes a vertex row out of the set


def dispatch_population(n: int, horizon: int, rng: np.random.Generator):
    import evflex

    e_lo = rng.uniform(0.10, 0.45, n) * horizon
    e_hi = np.minimum(e_lo + rng.uniform(0.05, 0.40, n) * horizon, horizon)
    return evflex.Population.from_energy_pairs(np.column_stack([e_lo, e_hi]), horizon, 1.0)


def known_truth_queries(pop, count: int, rng: np.random.Generator):
    """Profiles with a known answer, half members and half non-members.

    Members are convex combinations of randomly permuted sorted-vertex rows
    (the set is convex and permutation symmetric). Non-members are permuted
    vertex rows t >= 1 scaled by 1 + DELTA, whose top-t sum then exceeds
    the top-t bound cumsum(nu_hi)[t-1], or the nu_lo row scaled by
    1 - DELTA, whose total falls below sum(e_lo).
    """
    import evflex

    rows = evflex.sorted_vertices(evflex.AggregateFlexSet.from_population(pop))
    horizon = pop.horizon
    queries = []
    for q in range(count):
        if q % 2 == 0:
            picks = rows[rng.integers(0, horizon + 1, 3)]
            picks = np.array([row[rng.permutation(horizon)] for row in picks])
            u = rng.dirichlet(np.ones(3)) @ picks
            queries.append((u, True))
        elif q % 4 == 1:
            row = rows[rng.integers(1, horizon + 1)]
            queries.append((row[rng.permutation(horizon)] * (1 + DELTA), False))
        else:
            queries.append((rows[0][rng.permutation(horizon)] * (1 - DELTA), False))
    return queries


def witness_problem(pop, u, per_ev) -> str | None:
    """Independent check of a decomposition witness; None when it holds."""
    per_ev = np.asarray(per_ev, dtype=float)
    if per_ev.shape != (pop.n, pop.horizon):
        return f"witness shape {per_ev.shape}"
    if np.any(per_ev < -WITNESS_ATOL) or np.any(per_ev > pop.power + WITNESS_ATOL):
        return "witness entry outside [0, m]"
    if np.max(np.abs(per_ev.sum(axis=0) - u)) > WITNESS_ATOL:
        return "witness rows do not sum to u"
    totals = per_ev.sum(axis=1)
    if np.any(totals < pop.e_lo - WITNESS_ATOL) or np.any(totals > pop.e_hi + WITNESS_ATOL):
        return "witness per-EV total outside [e_lo, e_hi]"
    return None


class Dispatch:
    """One closed-loop operator issuing contains/decompose queries.

    The stream is a sequence of whole passes over a fixed pool of queries,
    each pass in a fresh random order, so every pool query runs once per
    pass. A query's class share of the pool is its class share of the
    stream; half the queries of each class are ``contains`` calls and half
    ``decompose`` calls.
    """

    HOST_PROBE = "interpreter"  # see hostspeed.py

    def __init__(self, name: str, root: str, seed: int, smoke: bool, work_dir: str):
        classes = SMOKE_CLASSES if smoke else DISPATCH_CLASSES
        size = SMOKE_POOL_SIZE if smoke else POOL_SIZE
        pop_rng = np.random.default_rng(INPUT_SEED)
        self.pops = [dispatch_population(n, t, pop_rng) for (n, t), _ in classes]
        self.labels = [f"{n}x{t}" for (n, t), _ in classes]
        rng = np.random.default_rng(seed)
        self.pool = []  # (class, profile, member, kind)
        for c, (pop, (_, share)) in enumerate(zip(self.pops, classes)):
            queries = known_truth_queries(pop, round(share * size), rng)
            self.pool += [(c, u, member, (q // 2) % 2) for q, (u, member) in enumerate(queries)]
        self.rng = rng
        self.trace_ops = 1

    def warm_up(self) -> Outcome:
        """Run the first queries of a pass once; return their checks."""
        out = Outcome()
        for entry in self.rng.permutation(len(self.pool))[:SMOKE_POOL_SIZE]:
            self._query(int(entry), out)
        return out

    def _query(self, entry: int, out: Outcome):
        import evflex

        c, u, member, kind = self.pool[entry]
        pop = self.pops[c]
        name = ("contains", "decompose")[kind]
        where = f"{name} {self.labels[c]} query {entry}"
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            result = evflex.contains(pop, u) if kind == 0 else evflex.decompose(pop, u)
        except Exception as exc:  # any escape from the library is a failure
            out.fail(f"{where}: {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - t0
        out.busy_s += elapsed
        out.units += 1
        out.latencies_ms.setdefault(f"{name}@{self.labels[c]}", []).append(elapsed * 1e3)
        out.repeats.setdefault(str(entry), []).append(elapsed)
        if kind == 0:
            if result is not member:
                out.fail(f"{where}: {result}, truth {member}")
        elif isinstance(result, evflex.Decomposition) != member:
            out.fail(f"{where}: {type(result).__name__}, truth {member}")
        elif member:
            problem = witness_problem(pop, u, result.per_ev)
            if problem:
                out.fail(f"{where}: {problem}")

    def run(self, seconds: float, max_ops: int | None = None) -> Outcome:
        """Whole passes back to back while the next one should end within ``seconds``.

        At least one pass runs; the last pass's time predicts the next.
        With ``max_ops``, exactly that many passes run.
        """
        out = Outcome()
        start = time.perf_counter()
        passes = 0
        while True:
            t0 = time.perf_counter()
            for i, entry in enumerate(self.rng.permutation(len(self.pool))):
                if i % QUERIES_PER_PROBE == 0:
                    out.probe_s += hostspeed.probe_samples(self.HOST_PROBE, 1)
                self._query(int(entry), out)
            passes += 1
            elapsed = time.perf_counter() - t0
            if max_ops is not None:
                if passes >= max_ops:
                    return out
            elif time.perf_counter() - start + elapsed > seconds:
                return out

    @staticmethod
    def estimate(out: Outcome) -> tuple[float, float]:
        """(median query ms, queries per second) from each query's median time.

        A shared host has both slow and fast spells; the median repetition
        of each pool query leaves out whichever covers less than half of
        the run. The pool holds the stream's mix, so the median and mean
        over pool queries are those of the stream.
        """
        typical = [statistics.median(v) for v in out.repeats.values()]
        return statistics.median(typical) * 1e3, len(typical) / sum(typical)


WORKLOADS = {"mc-paper": MonteCarlo, "mc-fleet": MonteCarlo, "dispatch": Dispatch}
