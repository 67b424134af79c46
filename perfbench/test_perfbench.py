"""Fast test of the benchmark itself: toy-size inputs, through the same
command the benchmark is run with.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

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

#: Counts that must repeat exactly across runs of one seed.
EXACT = {
    "pipeline_seq": [
        "plk.pattern_ops.newview", "plk.pattern_ops.evaluate",
        "plk.pattern_ops.sumtable", "plk.pattern_ops.derivative",
        "optimize.newton_iters", "optimize.brent_evals",
        "search.moves_evaluated", "search.moves_accepted",
    ],
    "modelopt_par": [
        "parallel.barriers", "parallel.worker_commands", "parallel.pipe_bytes",
        "parallel.shm_bytes", "optimize.newton_iters", "optimize.brent_evals",
    ],
    "serve_mixed": ["serve.pool_misses"],
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload, 0))
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exact_counts(workload):
    first, second = (_result(_run(workload, 1)) for _ in range(2))
    _assert_metrics(first, SPEC["per_layer"])
    for name in EXACT[workload]:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name in ("trace.overhead_frac", "trace.unattributed_frac"):
        assert name in first["metrics"]
    assert first["metrics"]["host.ref_ms"]["value"] > 0
    if workload != "serve_mixed":
        assert first["metrics"][EXACT[workload][0]]["value"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
