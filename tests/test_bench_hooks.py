"""The benchmark's tracer and request clock wrap package functions by name,
and its workloads call package names directly; every such name must still
exist, or the benchmark fails in the middle of a run."""

import ast
import importlib
import importlib.util
from pathlib import Path

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
