"""The benchmark's per-layer probes name package functions by string; each
name must still resolve, or `benchmarks/run.py --trace 1` fails.  The
benchmark worker empties the package's memos before every invocation; each
memo must be one it finds, or later rounds skip work a fresh process does."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


PROBES = _load_benchmark_module("tracing").PROBES


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: p.name)
def test_probe_target_resolves(probe):
    obj = importlib.import_module(f"manakov.{probe.module}")
    for part in probe.target.split("."):
        assert hasattr(obj, part), f"manakov.{probe.module}.{probe.target} does not exist"
        obj = getattr(obj, part)
    assert callable(obj)


def test_worker_empties_the_memos():
    from fractions import Fraction

    from manakov import ratfunc, rigid_body, uea
    from manakov.rigid_body import ManakovIndex, casimir_polynomials, manakov_coefficient
    from manakov.son import MomentSpec
    from manakov.uea import PBWElement, square_commutator, sym_word

    clear_caches = _load_benchmark_module("worker").clear_caches
    for spec in (MomentSpec.symbolic(4), MomentSpec.from_lambdas((Fraction(1), Fraction(2), Fraction(3)))):
        manakov_coefficient(ManakovIndex(3, 1), (1, 2), spec)
    casimir_polynomials(4)
    casimir_polynomials(4, (1, 2, 3))
    square_commutator(0, PBWElement(4, {(1, 2): 1}))
    sym_word(4, (3, 1, 2))
    spec = MomentSpec.symbolic(4)
    spec.lambdas[0] / (spec.lambdas[1] + spec.lambdas[2])
    memos = (uea._INSERT_CACHE, uea._AD_CACHE, uea._SYM_CACHE, uea._WORD_CACHE, ratfunc._POWER_PRODUCT_CACHE)
    assert len(rigid_body._COEFFICIENT_CACHE) >= 2
    assert rigid_body._casimir_polynomials.cache_info().currsize >= 2
    assert all(memos)
    clear_caches()
    assert not rigid_body._COEFFICIENT_CACHE
    assert not any(memos)
    assert rigid_body._casimir_polynomials.cache_info().currsize == 0
