"""evflex benchmark: Monte Carlo certification, fleet-scale robust sets and
dispatch queries.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-paper --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload dispatch --seed 1 --seconds 2 --trace 1 --smoke

Each workload runs as one single-threaded closed-loop client. With --trace 0
the run reports the end-to-end metrics, measured in fresh processes run one
after another, each of which times its own set-up, with the timings scaled
to a reference host speed (hostspeed.py); with --trace 1 it reports
the per-layer metrics of a separate traced run. Human-readable
header and metric lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from workloads import WORKLOADS as CLIENTS, Outcome  # noqa: E402

WORKLOADS = tuple(CLIENTS)
# A run measures in up to this many fresh processes, one after another,
# each for an equal share of --seconds. Each times its own set-up, and
# setup_s is their median; slow spells of the host then hit only some of
# the set-ups and some of the measured work.
PROCESSES = 10
TIME_LIMIT_S = 170  # one workload's processes must end within this
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchmarkError(Exception):
    pass


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "cpu": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level in (2, 3):
        try:
            size = subprocess.run(
                ["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            size = ""
        info[f"l{level}_bytes"] = size or "unknown"
    info["python"] = platform.python_version()
    for package in ("numpy", "scipy"):
        try:
            info[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            info[package] = "missing"
    return info


def run_worker(mode: str, args, workload: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--mode", mode, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--root", ROOT, "--work-dir", args.work_dir,
    ] + (["--smoke"] if args.smoke else [])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"{workload}: no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchmarkError(f"{workload}: {mode} process exceeded {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload}: {mode} process exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _by_kind(latencies: dict, kind: str) -> list[float]:
    return [v for key, vals in latencies.items() if key.split("@")[0] == kind for v in vals]


def end_to_end(workload: str, setups: list[float], rss: list[float], run: Outcome):
    """(gated metrics, report lines) for one untraced run.

    The gated timings are scaled to the reference host speed (hostspeed.py);
    the report lines give them as measured.
    """
    latency_ms, rate = CLIENTS[workload].estimate(run)
    probe, probes = CLIENTS[workload].HOST_PROBE, run.probe_s
    scale = hostspeed.scale(probe, probes)
    lat = run.latencies_ms
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "throughput_per_s": (rate / scale, "1/s"),
        "latency_ms": (latency_ms * scale, "ms"),
    }
    pooled = [v for vals in lat.values() for v in vals]
    n_ops = len(pooled)
    lines = [
        f"host_probe_ms {statistics.median(probes) * 1e3:.3f} ms n={len(probes)} {probe} probes"
        f" (median; gated timings are scaled by {scale:.4f} to the reference host)",
        f"setup_s {statistics.median(setups):.4f} s n={len(setups)} processes (median, as measured)",
        f"peak_rss_mb {max(rss):.1f} MB n={len(rss)} processes (largest)",
        f"error_rate {run.failed / run.attempted:.6f} ratio"
        f" ({run.failed}/{run.attempted} {'cells' if workload.startswith('mc') else 'queries'})",
    ]
    if workload.startswith("mc"):
        lines += [
            f"trials_per_s {rate:.2f} 1/s n={n_ops} commands"
            f" (median of each command; {run.units} trial-checks run)",
            f"round_ms {latency_ms:.2f} ms n={n_ops} commands (sum of each command's median)",
        ]
        lines += [
            f"command_ms {label} {statistics.median(vals):.2f} ms n={len(vals)} commands (median)"
            for label, vals in lat.items()
        ]
    else:
        lines.append(
            f"queries_per_s {rate:.2f} 1/s n={len(run.repeats)} pool queries"
            f" (median of each; {n_ops} queries run)"
        )
        lines.append(f"query_ms {latency_ms:.3f} ms (median pool query, median of each)")
        for kind, label in (("contains", "query"), ("decompose", "decompose")):
            vals = _by_kind(lat, kind)
            for q in (50, 99):
                value = percentile(vals, q) if vals else float("nan")
                lines.append(f"{label}_ms_p{q} {value:.3f} ms n={len(vals)} {kind} calls (as run)")
        # (N, T) classes in order of their median latency, each with the
        # span of the pooled distribution it covers; the pooled median sits
        # in the class whose span holds 50%
        classes = {}
        for key, vals in lat.items():
            classes.setdefault(key.split("@")[1], []).extend(vals)
        covered = 0
        for label, vals in sorted(classes.items(), key=lambda kv: statistics.median(kv[1])):
            lo, covered = covered, covered + len(vals)
            lines.append(
                f"class N x T = {label} n={len(vals)} p50={statistics.median(vals):.3f} ms"
                f" covers {100 * lo / n_ops:.0f}%-{100 * covered / n_ops:.0f}%"
                + (" <- pooled median" if lo <= n_ops / 2 < covered else "")
            )
    lines += [f"{name} {value:.4f} {unit} (gated)" for name, (value, unit) in metrics.items()]
    return metrics, lines


def per_layer(workload: str, result: dict, untraced: Outcome, traced: Outcome):
    """(per-layer metrics, report lines) for one traced run."""
    base_rate = CLIENTS[workload].estimate(untraced)[1]
    traced_rate = CLIENTS[workload].estimate(traced)[1]
    metrics = {"evflex.import_s": (result["import_s"], "s")}
    metrics.update({name: tuple(v) for name, v in result["layers"].items()})
    metrics["trace.overhead_per_s"] = (traced_rate - base_rate, "1/s")
    metrics["trace.missing"] = (float(len(result["missing"])), "count")
    lines = [
        f"traced work: {traced.units} units in {traced.busy_s:.3f} s;"
        f" untraced {untraced.units} units in {untraced.busy_s:.3f} s",
        f"tracing overhead {traced_rate - base_rate:+.3f} units/s"
        f" ({traced_rate:.3f} traced - {base_rate:.3f} untraced)",
    ]
    lines += [f"missing wrapped name: {name}" for name in result["missing"]]
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, lines


def run_workload(workload: str, args) -> tuple[dict, int, int, list[str]]:
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        result = run_worker("trace", args, workload, args.seconds, deadline)
        runs = (Outcome(**result["untraced"]), Outcome(**result["run"]))
        metrics, lines = per_layer(workload, result, *runs)
    else:
        # processes one after another until PROCESSES have run or the
        # measured time reaches --seconds (a long round or pass can overrun a
        # share)
        setups, rss, run = [], [], Outcome()
        while len(setups) < PROCESSES and run.busy_s < args.seconds:
            result = run_worker("run", args, workload, args.seconds / PROCESSES, deadline)
            setups.append(result["setup_s"])
            rss.append(result["peak_rss_mb"])
            run.extend(Outcome(**result["run"]))
        metrics, lines = end_to_end(workload, setups, rss, run)
        runs = (run,)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        lines += [f"FAILED {message}" for message in r.failures]
    return metrics, attempted, failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "evflex", "__init__.py")):
        print(f"error: evflex sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must be a non-negative 63-bit integer", file=sys.stderr)
        return 2
    args.work_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(args.work_dir, exist_ok=True)

    info = machine_info()
    print(
        f"# perfbench seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}"
        f" client=closed-loop x1 threads=1"
    )
    print("# machine " + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}" for k, v in info.items()))
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    combined, attempted, failed = {}, 0, 0
    for workload in selected:
        print(f"# workload={workload} seed={args.seed} (harness seed / query-stream seed)")
        try:
            metrics, n_att, n_fail, lines = run_workload(workload, args)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in lines:
            print(f"{workload} {line}")
        prefix = "" if len(selected) == 1 else f"{workload}."
        combined.update({prefix + k: v for k, v in metrics.items()})
        attempted += n_att
        failed += n_fail
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in combined.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
