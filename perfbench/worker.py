"""One benchmark process: set up a workload, then run one phase of it.

Started by run.py with numeric-library threads pinned to 1. Prints one JSON
object as the last line of standard output.

Modes:
  run    set up, then run the client loop for --seconds (tracing off)
  trace  set up, then run a fixed amount of work twice untraced and twice
         with the per-layer wrappers installed

Set-up ends with the workload's warm-up, whose output is checked like the
timed phase's; its checks count with the run's.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_evflex(src: str) -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import evflex

    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(evflex.__file__)) != os.path.join(src, "evflex"):
        raise SystemExit(f"imported evflex from {evflex.__file__}, not from {src}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import_s = _import_evflex(os.path.join(args.root, "src"))
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        args.workload, args.root, args.seed, args.smoke, args.work_dir
    )
    checks = workload.warm_up()
    report = {"setup_s": time.perf_counter() - t0, "import_s": import_s}

    if args.mode == "run":
        out = workload.run(args.seconds)
        out.add_checks(checks)
        report["run"] = dataclasses.asdict(out)
    elif args.mode == "trace":
        from tracing import Tracer, layer_metrics

        # untraced, traced, traced, untraced: each side's estimate takes the
        # median (the mean) of its two passes, so neither side always runs first
        tracer = Tracer()
        passes = {False: workloads.Outcome(), True: workloads.Outcome()}
        for traced in (False, True, True, False):
            if traced:
                tracer.install()
            try:
                passes[traced].extend(workload.run(args.seconds, max_ops=workload.trace_ops))
            finally:
                tracer.remove()
        passes[False].add_checks(checks)
        report["untraced"] = dataclasses.asdict(passes[False])
        report["run"] = dataclasses.asdict(passes[True])
        report["layers"] = layer_metrics(tracer)
        report["missing"] = tracer.missing
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
