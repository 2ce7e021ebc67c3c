"""The benchmark's tracer still finds every package function it wraps, so a
rename or deletion in ``src/encloop`` fails here rather than in a benchmark
run."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """Import the tracer module without writing its bytecode cache."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target", tracing.TARGETS)
def test_trace_target_resolves(target):
    value = tracing._resolve(target)[2]
    assert callable(value), f"{target} resolves to {value!r}"
