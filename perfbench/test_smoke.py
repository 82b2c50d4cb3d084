"""Quick-mode smoke test of the benchmark.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at tiny sizes, traced and untraced, and checks that
each metric named in BENCHMARK.json is printed with its unit, that no
operation failed, and that every count metric repeats exactly across
two processes with the same seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Metrics that must repeat exactly for a seed (counts, not times).
COUNTS = {
    0: {"design_cost_blocks", "io_blocks_per_op", "view_space_ratio"},
    1: {m["name"] for m in SPEC["per_layer"] if m["unit"] not in ("ms/op", "%")},
}


def bench(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_printed_with_units_and_counts_repeat(workload, trace):
    runs = [bench(workload, trace) for _ in range(2)]
    results = []
    for run in runs:
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = SPEC["per_layer" if trace else "end_to_end"]
        assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
        for metric in expected:
            printed = result["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
            line = next(
                line for line in run.stdout.splitlines()
                if line.split()[:1] == [metric["name"]]
            )
            assert line.split()[-1] == metric["unit"]
        results.append(result["metrics"])
    for name in COUNTS[trace]:
        assert results[0][name] == results[1][name], name


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    run = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
