"""The benchmark's tracer wraps package functions by name; every name it
patches must still exist, or installing it fails in the middle of a run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
