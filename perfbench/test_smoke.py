"""Smoke test of the benchmark itself at its tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced on one small space with
few steps and draws.  The test checks that every metric BENCHMARK.json
names is emitted with its unit, that a traced round's self times sum to no
more than its wall time, and that the benchmark refuses to run without the
sources.
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


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    detail, result = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["wrong"]
    assert result["attempted"] >= 1
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["machine"]["blas_thread_pins"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    detail, result = _result(workload, 1)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    traced = [r for r in detail["rounds"] if r["traced"]]
    assert len(traced) >= 2
    for r in traced:
        assert r["absent_targets"] == []
        assert 0 < r["self_sum_s"] <= r["passes"][0]["solve_s"]


def test_missing_target_is_absent_not_an_error(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import cartanflow.radial  # noqa: F401
    import tracing

    monkeypatch.setattr(tracing, "SPAN_TARGETS",
                        (("cartanflow.radial", "no_such_function", "radial.gone", None),))
    monkeypatch.setattr(tracing, "COUNT_TARGETS", ())
    tracer = tracing.Tracer()
    assert tracing.install(tracer) == ["cartanflow.radial.no_such_function"]
    assert tracing.layer_metrics(tracer, "flow-oracle", "smoke")["radial.decompose_calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
