"""Tests of the benchmark itself.

Runs every workload in smoke mode (tiny sizes), untraced and traced, and
checks that each metric BENCHMARK.json declares is emitted with its unit
and that no operation fails on the current code. mc-fleet is run too,
though BENCHMARK.json does not declare it. Also tests the reference
checks of the Monte Carlo workloads on doctored CSVs, and that the
benchmark refuses to run without the evflex sources.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--seed", "1", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "FAILED" not in proc.stdout
    if trace == 0:
        assert f"{workload} error_rate 0.000000 ratio" in proc.stdout
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.missing"]["value"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "mc-paper", "--trace", "0",
        cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _reference_csv(name, seed, shift=0, stream=None):
    """{N: the CSV the CLI writes for that N}, from the reference counts."""
    ref = json.loads(open(workloads.REFERENCE_PATH).read())[name]
    horizon = 24 if name == "mc-paper" else 96
    texts = {}
    for eps, n, trials, k, degenerate in ref["cells"]:
        if n not in texts:
            lines = [f"# seed={seed}", f"# trials={trials}", f"# T={horizon}", "# power=1.0"]
            if stream:
                lines.append(f"# stream={stream}")
            lines.append(",".join(workloads.RESULT_COLUMNS))
            texts[n] = "\n".join(lines) + "\n"
        k = min(max(k + shift, 0), trials)
        # the interval only has to bracket the estimate for these checks
        texts[n] += (
            f"{eps!r},{eps * eps!r},{n},{horizon},{trials},{k},"
            f"{k / trials!r},0,1,{'true' if degenerate else 'false'}\n"
        )
    return texts


@pytest.fixture
def paper(tmp_path):
    return lambda seed: workloads.MonteCarlo("mc-paper", ROOT, seed, False, str(tmp_path))


def _failed(bench, texts):
    """Failed cells when each per-N command of ``bench`` prints ``texts[N]``."""
    out = workloads.Outcome()
    for label, _, cells in bench.parts:
        bench.check(label, 0, texts[cells[0][1]], out)
    return out.failed


def test_paper_runs_as_one_command_per_n(paper):
    bench = paper(7)
    assert [label for label, _, _ in bench.parts] == ["N=5", "N=10", "N=20"]
    assert [cell for _, _, cells in bench.parts for cell in cells] == bench.cells
    assert sum(bench.units.values()) == 36_000


def test_reference_counts_exact_at_pinned_seed(paper):
    bench = paper(workloads.PINNED_SEED)
    assert _failed(bench, _reference_csv("mc-paper", workloads.PINNED_SEED)) == 0
    bench = paper(workloads.PINNED_SEED)
    assert _failed(bench, _reference_csv("mc-paper", workloads.PINNED_SEED, shift=1)) == 18


def test_reference_band_on_other_seeds_and_stream_changes(paper):
    assert _failed(paper(7), _reference_csv("mc-paper", 7, shift=3)) == 0
    texts = _reference_csv("mc-paper", workloads.PINNED_SEED, shift=3, stream="2")
    assert _failed(paper(workloads.PINNED_SEED), texts) == 0
    # a kernel that accepts everything (zero violations) fails every cell but
    # the two whose reference counts, 20 and 6 of 2000, are too small to
    # separate from 0 at z = 5; one that rejects everything fails them all
    assert _failed(paper(7), _reference_csv("mc-paper", 7, shift=-2000)) == 16
    assert _failed(paper(7), _reference_csv("mc-paper", 7, shift=2000)) == 18


def test_warm_up_probe_is_checked_exactly_whatever_the_seed(paper):
    weights = workloads.probe_scenario(ROOT, False)["distribution"]["weights"]
    assert max(weights) > 2 * min(weights)  # a sampler ignoring the weights shows
    checks = paper(7).warm_up()
    assert (checks.attempted, checks.failed) == (3, 0)
    probe = workloads.MonteCarlo("probe", ROOT, workloads.PINNED_SEED, False, paper(7).work_dir)
    assert _failed(probe, _reference_csv("probe", workloads.PINNED_SEED)) == 0
    probe = workloads.MonteCarlo("probe", ROOT, workloads.PINNED_SEED, False, paper(7).work_dir)
    assert _failed(probe, _reference_csv("probe", workloads.PINNED_SEED, shift=1)) == 3


def test_csv_schema_and_flags_are_checked(paper):
    texts = _reference_csv("mc-paper", 7)
    renamed = {n: text.replace("degenerate", "degen") for n, text in texts.items()}
    assert _failed(paper(7), renamed) == 18
    flipped = {**texts, 10: texts[10].replace(",false\n", ",true\n", 1)}
    assert _failed(paper(7), flipped) == 1
    bench = paper(7)
    assert _failed(bench, texts) == 0
    assert _failed(bench, _reference_csv("mc-paper", 7, shift=1)) == 18  # not reproducible


def test_every_workload_names_a_host_probe():
    for client in set(workloads.WORKLOADS.values()):
        times = hostspeed.probe_samples(client.HOST_PROBE, 3)
        assert len(times) == 3 and min(times) > 0
    reference = hostspeed.PROBES["memory"][1]
    assert hostspeed.scale("memory", [2 * reference, 4 * reference, 2 * reference]) == 0.5


def test_band_is_two_sided_binomial():
    assert workloads.band_ok(500, 2000, 500, 2000)
    assert not workloads.band_ok(500, 2000, 700, 2000)
    assert workloads.band_ok(0, 200, 2, 200)
