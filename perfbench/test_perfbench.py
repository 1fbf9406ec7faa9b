"""Tests of the end-to-end benchmark itself, at toy sizes.

Every workload runs through ``run.py`` (fresh interpreters, reference check,
tracing) exactly as a full run does, only smaller and shorter.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def work(tmp_path_factory: pytest.TempPathFactory) -> Path:
    return tmp_path_factory.mktemp("perfbench-work")


def bench(
    work: Path, workload: str, trace: int, seed: int = 3
) -> tuple[subprocess.CompletedProcess, dict]:
    process = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace), "--toy", "--work", str(work),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr
    return process, json.loads(process.stdout.strip().splitlines()[-1])


#: A per-layer metric each workload's traced run must see work in.
BUSY = {
    "suite-tiny": "experiments.E1_share",
    "headline-r0": "compiled.fused_calls",
    "sparse-radius": "connectivity.engine_calls",
    "sweep-dispatch": "exec.units_executed",
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_and_matches_reference(work: Path, workload: str) -> None:
    process, result = bench(work, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())

    _process, traced = bench(work, workload, trace=1)
    assert traced["correct"] and traced["failed"] == 0
    assert [(k, v["unit"]) for k, v in traced["metrics"].items()] == list(tracing.METRICS)
    assert traced["metrics"]["traced_pass_s"]["value"] > 0
    if "provider=none" not in process.stdout:  # fused kernels need a compiled provider
        assert traced["metrics"][BUSY[workload]]["value"] > 0


def test_perturbed_result_is_flagged(work: Path) -> None:
    bench(work, "headline-r0", trace=0)  # computes or reuses the cached reference
    (path,) = (work / "reference").glob("headline-r0-toy-3-*.json")
    original = path.read_text()
    digests = json.loads(original)
    first = sorted(digests)[0]
    digests[first] = "0" * 64
    path.write_text(json.dumps(digests))
    try:
        process, result = bench(work, "headline-r0", trace=0)
    finally:
        path.write_text(original)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]
    assert f"{first}: digest differs from the reference" in process.stdout


def test_check_ops_counts_errors_and_mismatches() -> None:
    passes = [{"ops": [
        {"name": "a", "digest": "x"},
        {"name": "b", "digest": "y"},
        {"name": "c", "error": "ValueError: boom"},
    ]}]
    attempted, failed, messages = run.check_ops(passes, {"a": "x", "b": "perturbed", "c": "z"})
    assert (attempted, failed) == (3, 2)
    assert any("b: digest differs" in m for m in messages)
    assert any("ValueError: boom" in m for m in messages)


def test_self_time_on_a_synthetic_span_tree() -> None:
    recorder = tracing.Recorder()
    root = recorder.add_span("root", 0.0, 10.0)
    a = recorder.add_span("a", 1.0, 4.0, parent=root)
    recorder.add_span("b", 3.0, 6.0, parent=root)  # overlaps a: the union counts once
    recorder.add_span("a.child", 2.0, 3.0, parent=a)
    recorder.add_span("late", 9.0, 12.0, parent=root)  # clipped at the parent's end
    assert tracing.self_times(recorder) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])

    traced = [{"seconds": 10.0, "scaled_s": 5.0, "ops": []}]
    untraced = [{"seconds": 8.0, "scaled_s": 4.0, "ops": []}]
    metrics = tracing.layer_metrics(recorder, traced, untraced, 0.0)
    assert metrics["tracing_overhead_s"] == pytest.approx(1.0)
    assert metrics["traced_pass_s"] == pytest.approx(5.0)
    assert metrics["experiments.E1_share"] == 0.0


def test_layer_metrics_divide_counts_per_pass() -> None:
    recorder = tracing.Recorder()
    for start in (0.0, 5.0):
        recorder.add_span("compiled.fused", start, start + 2.0)
    recorder.counts["compiled.fused_agent_steps"] = 400.0
    traced = [{"seconds": 5.0, "scaled_s": 5.0, "ops": []}] * 2
    metrics = tracing.layer_metrics(recorder, traced, traced, 0.0)
    assert metrics["compiled.fused_calls"] == 1.0
    assert metrics["compiled.fused_agent_steps"] == 200.0
    assert metrics["compiled.fused_share"] == pytest.approx(40.0)
    assert metrics["compiled.fused_rate"] == pytest.approx(100.0)
    assert set(metrics) == {name for name, _unit in tracing.METRICS}


def test_removing_the_tracer_restores_every_target() -> None:
    import repro.core.batched
    from repro.exec.store import ResultStore

    originals = (repro.core.batched.flood_informed_batch, ResultStore.__dict__["get"])
    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    try:
        assert repro.core.batched.flood_informed_batch is not originals[0]
        assert ResultStore.__dict__["get"] is not originals[1]
    finally:
        patches.remove()
    assert (repro.core.batched.flood_informed_batch, ResultStore.__dict__["get"]) == originals
    assert patches.missing == []


def test_benchmark_json_matches_the_benchmark() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)


def test_without_the_program_it_fails(tmp_path: Path) -> None:
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "headline-r0", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode != 0
    assert process.stdout.strip() == ""
