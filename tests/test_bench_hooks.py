"""The benchmark's tracer and request clock wrap package functions by name,
and its workloads call package names directly; every such name must still
exist, or the benchmark fails in the middle of a run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from ridgeforget import EncodedDataset, EngineState, build_stream, harness, run_stream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_every_tracer_patch_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for target, attr, _ in tracing.PATCHES:
        owner = tracing.resolve(target)
        # Tracer.install reads a class's own __dict__, so inherited names fail
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found or not callable(getattr(owner, attr)):
            missing.append(f"{target}.{attr}")
    assert not missing, f"tracer patch targets not found: {missing}"


def _request_clock_hooks():
    """RequestClock.HOOKS, read from the source without importing it."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "RequestClock":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "HOOKS" for t in stmt.targets
                ):
                    return ast.literal_eval(stmt.value)
    raise AssertionError("RequestClock.HOOKS not found in perfbench/workloads.py")


def test_every_request_clock_hook_resolves():
    hooks = _request_clock_hooks()
    assert hooks
    missing = []
    for module_name, attr, _ in hooks:
        module = importlib.import_module(module_name)
        if not callable(vars(module).get(attr)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"request clock hooks not found: {missing}"


def _benchmark_package_reads():
    """({alias: module name} for the ridgeforget modules that
    perfbench/workloads.py imports, sorted (alias, attribute) pairs it reads
    on them), from the source without importing it."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ridgeforget":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "ridgeforget":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"ridgeforget.{alias.name}"
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    return modules, sorted(reads)


def test_every_package_name_the_benchmark_calls_resolves():
    modules, reads = _benchmark_package_reads()
    assert {"core", "verify", "rf_state", "cli"} <= modules.keys()
    expected = {("core", "predict"), ("verify", "SampleLedger"), ("cli", "main")}
    assert expected <= set(reads)
    missing = [
        f"{modules[alias]}.{attr}"
        for alias, attr in reads
        if not hasattr(importlib.import_module(modules[alias]), attr)
    ]
    assert not missing, f"package names the benchmark calls not found: {missing}"


def test_run_stream_calls_the_hooked_names_in_execution_order(monkeypatch):
    """RequestClock and the tracer replace these module globals of
    ridgeforget.harness while a run is going; run_stream must look them up
    at call time, once per request, in the order the requests run."""
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            # every update takes its batch last; gap_report, the forget index
            last = args[-1]
            calls.append((name, last if name == "gap_report" else int(last.sample_ids[0])))
            return fn(*args)

        return wrapper

    for name in ("learn_update", "unlearn_tracking", "unlearn_model", "gap_report"):
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    rng = np.random.default_rng(5)
    dataset = EncodedDataset(np.arange(12), rng.standard_normal((12, 4)),
                             rng.integers(0, 3, 12), 3)
    stream = build_stream(dataset, 2, 6, 3, seed=1)
    record, _ = run_stream(stream, EngineState.fresh(4, 3, 1.0), verify_every=1,
                           dataset=dataset, test_rows=dataset)

    expected = [("learn_update", int(b.sample_ids[0])) for b in stream.learn_requests]
    for index, batch in enumerate(stream.forget_requests, start=1):
        first = int(batch.sample_ids[0])
        expected += [("unlearn_tracking", first), ("unlearn_model", first),
                     ("gap_report", index)]
    assert calls == expected
    assert [(r.kind, r.request_index) for r in record.per_request] == [
        ("learn", 1), ("learn", 2), ("forget", 1), ("forget", 2), ("forget", 3)
    ]
