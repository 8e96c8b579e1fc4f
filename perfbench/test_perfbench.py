"""Quick checks of the benchmark itself: python3 -m pytest -q perfbench

Each workload runs at tiny sizes, once untraced and once traced, and must
report every metric BENCHMARK.json names, with the same unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "not16-sweep", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    # cli.main [0, 100) holds a run_experiment [10, 60) with one batch [20, 30).
    spans = [
        ("cli.main", 0, 100, -1, None),
        ("sampler.run_experiment", 10, 60, 0, (0.0, [])),
        ("circuit.evaluate_batch", 20, 30, 1, 5),
    ]
    m = layer_metrics(spans, (0.0,))
    assert m["cli.main_s"] == 100e-9
    assert m["cli.self_s"] == 50e-9
    assert m["circuit.inputs_evaluated"] == 5
    assert m["sampler.level_0.00_s"] == 50e-9
