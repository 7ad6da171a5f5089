"""The benchmark's per-layer probes name package functions by string; each
name must still resolve, or `benchmarks/run.py --trace 1` fails."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


PROBES = _load_tracing().PROBES


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: p.name)
def test_probe_target_resolves(probe):
    obj = importlib.import_module(f"manakov.{probe.module}")
    for part in probe.target.split("."):
        assert hasattr(obj, part), f"manakov.{probe.module}.{probe.target} does not exist"
        obj = getattr(obj, part)
    assert callable(obj)
