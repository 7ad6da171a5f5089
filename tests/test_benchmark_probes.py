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


def _module_memos():
    """(name, memo) for every module-level dict and functools cache of the
    loaded ``manakov`` modules, except the declared-factor registry, which
    is configuration rather than a memo."""
    from manakov import ratfunc

    out = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "manakov" or mod_name.startswith("manakov.")):
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("__") or value is ratfunc._DECLARED_FACTORS:
                continue
            if isinstance(value, dict) or hasattr(value, "cache_info"):
                out.append((f"{mod_name}.{attr}", value))
    return out


def _size(memo):
    return memo.cache_info().currsize if hasattr(memo, "cache_info") else len(memo)


def test_worker_empties_the_memos(capsys):
    from fractions import Fraction

    from manakov import cli
    from manakov.rigid_body import ManakovIndex, manakov_coefficient
    from manakov.son import MomentSpec
    from manakov.brackets import LiePoissonPoly
    from manakov.uea import PBWElement, symmetrize_momentum_poly, weighted_square_commutators

    clear_caches = _load_benchmark_module("worker").clear_caches
    # a small central and rigid run, plus the kernels whose memos it may not reach
    runs = (("classical-central", "3"), ("quantum-central", "3"), ("classical-rigid", "4"), ("quantum-rigid", "4"))
    for scope, n in runs:
        assert cli.main(["verify", scope, "--n", n]) == 0
    capsys.readouterr()
    manakov_coefficient(ManakovIndex(3, 1), (1, 2), MomentSpec.from_lambdas((Fraction(1), Fraction(2), Fraction(3))))
    weighted_square_commutators(4, [[1] * 6], PBWElement(4, {(1, 2): 1}))
    symmetrize_momentum_poly(LiePoissonPoly.gen(4, (1, 2)) * LiePoissonPoly.gen(4, (2, 3)) ** 2)
    spec = MomentSpec.symbolic(4)
    spec.lambdas[0] / (spec.lambdas[1] + spec.lambdas[2])
    filled = {name for name, memo in _module_memos() if _size(memo)}
    for module in ("ratfunc", "rigid_body", "uea", "son", "radical", "charts", "central_force", "brackets"):
        assert any(name.startswith(f"manakov.{module}.") for name in filled), module
    # the central-force memos: partials, the shared P_ij, the items and
    # whether a function commutes with a P_ij
    central = ("brackets.partials", "charts.momentum_table", "central_force.item_function", "charts._commutes_with_momentum")
    assert {f"manakov.{name}" for name in central} <= filled
    clear_caches()
    assert [name for name, memo in _module_memos() if _size(memo)] == []
