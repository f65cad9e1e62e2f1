"""Smoke tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402
from ridgeforget import AnalyticModel  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_STREAM = workloads.StreamSpec(dim=8, base_rows=200, batch=10, classes=3, queries=20)
TINY_DESK = workloads.DeskSpec(classes=3, per_class=30, test_per_class=10, input_dim=4,
                               learn_chunks=4, forget_total=20, requests=4, feature_dim=8)


def tiny_run(kind, tracer, tmp_path):
    if kind == "stream":
        return workloads.run_stream(TINY_STREAM, 3, 0.05, tracer)
    return workloads.run_desk(TINY_DESK, 3, 0.05, tracer, workdir=tmp_path / "work")


@pytest.mark.parametrize("kind", ["stream", "desk"])
def test_every_end_to_end_metric_has_unit_and_samples(kind, tmp_path):
    result = tiny_run(kind, None, tmp_path)
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics, extras = workloads.end_to_end_metrics(result)
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"] if m["name"] != "setup_s"}
    assert {name: unit for name, (_, unit, _) in metrics.items()} == expected
    for name, (value, _, note) in metrics.items():
        assert value > 0, name
    for name in ("forget_ms_mean", "forget_ms_tail", "learn_ms_mean", "learn_ms_tail"):
        assert "n=" in metrics[name][2], name
    assert "p90 of n=" in metrics["forget_ms_tail"][2]
    assert {"forget_ms_p50", "learn_ms_p50"} <= set(extras)
    assert ("run_s" in extras) == (kind == "desk")


@pytest.mark.parametrize("kind", ["stream", "desk"])
def test_every_per_layer_metric_has_unit(kind, tmp_path):
    tracer = tracing.Tracer()
    result = tiny_run(kind, tracer, tmp_path)
    assert not tracer.installed
    metrics = workloads.per_layer_metrics(result, tracer, 0.5)
    assert {name: unit for name, (_, unit, _) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    assert metrics["core.unlearn_tracking_ms"][0] > 0
    assert metrics["core.learn_update_ms"][0] > 0
    if kind == "desk":
        assert metrics["verify.gap_report_ms"][0] > 0
        assert metrics["features.subset_by_ids_calls"][0] > 0
        assert metrics["harness.self_ms"][0] > 0


def test_perturbed_weights_are_caught():
    stream = workloads.Stream(TINY_STREAM, 5)
    stream.forget()
    stream.learn()
    assert all(ok for _, ok, _ in stream.check())
    stream.model = AnalyticModel(stream.model.weights * (1 + 1e-6), stream.model.gamma)
    failed = [name for name, ok, _ in stream.check() if not ok]
    assert failed == ["weights match refit"]


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.op = "op"
    with tracer.span("harness.outer"):
        with tracer.span("core.inner"):
            sum(range(10000))
    table = tracer.per_op()["op"]
    outer_total, outer_self = table["harness.outer"][:2]
    assert outer_self == outer_total - table["core.inner"][0]


def test_cost_counts_pick_the_dual_learn_form():
    d, c = 64, 10
    small, _ = workloads.learn_cost(d, d - 1, c)
    large, _ = workloads.learn_cost(d, d, c)
    assert large == 26 * d**3 / 3 + 4 * d * d * d + 4 * d * d * c + 10 * d * d
    assert small == 6 * d * d * (d - 1) + 4 * d * (d - 1) ** 2 + (d - 1) ** 3 / 3 + 4 * d * (d - 1) * c + 10 * d * d


def test_run_prints_json_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "narrow-stream", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert any("p90 of n=" in line for line in lines[:-1])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "narrow-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
