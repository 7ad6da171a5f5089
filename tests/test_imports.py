"""Every import in the package is used (no linter is assumed), no function
imports a sibling module (the package has no import cycle to break), and
only the RK4 layer and the CLI touch numpy or float().

numpy is imported inside the functions of those two modules that use it, so
only `simulate` loads it: a `verify` or `tables` process starts without it
(about half the start-up time and 10 MB of resident memory), and `simulate`
leaves numpy's process-wide error state as it found it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "manakov"


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def _function_level_sibling_imports(path):
    tree = ast.parse(path.read_text())
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("manakov")):
                    found.append((node.lineno, "." * node.level + (node.module or "")))
                elif isinstance(node, ast.Import):
                    found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "manakov"]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_sibling_imports(path):
    assert _function_level_sibling_imports(path) == []


def test_import_checks_see_inside_functions(tmp_path):
    # function-level sibling imports and unused function-level imports are
    # both caught
    path = tmp_path / "probe.py"
    path.write_text("def f():\n    from .weyl import symmetrize\n    import manakov.son\n    from math import isqrt\n")
    assert _function_level_sibling_imports(path) == [(2, ".weyl"), (3, "manakov.son")]
    assert _unused_imports(path) == [(2, "symmetrize"), (3, "manakov"), (4, "isqrt")]


FLOAT_MODULES = {"dynamics.py", "cli.py"}


def _numpy_imports(node):
    if isinstance(node, ast.Import):
        return [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "numpy"]
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
        return [(node.lineno, node.module)]
    return []


def _float_uses(path):
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        found += _numpy_imports(node)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float("))
    return found


def _import_time_numpy_imports(path):
    """numpy imports that run when the module is imported: everywhere but
    inside function bodies."""
    found = []
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += _numpy_imports(node)
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name not in FLOAT_MODULES), ids=lambda p: p.name
)
def test_exact_modules_use_no_floats(path):
    # floating point belongs to the RK4 layer and its command; everything
    # else certifies exact facts.  (Float division of int entries cannot be
    # seen here; test_linalg checks that by value.)
    assert _float_uses(path) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_numpy_import(path):
    assert _import_time_numpy_imports(path) == []


def test_import_time_check_sees_class_bodies_and_skips_functions(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import numpy\nclass A:\n    from numpy import linalg\n"
        "def f():\n    import numpy as np\nif True:\n    import numpy.random\n"
    )
    assert _import_time_numpy_imports(path) == [(1, "numpy"), (3, "numpy"), (7, "numpy.random")]


FRESH_PROCESS = """
import contextlib, io, sys
import manakov, manakov.cli
main = manakov.cli.main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["verify", "classical-rigid", "--n", "3"]),
        main(["tables", "central-force", "--n", "4", "--points", "0"]),
    ]
print(codes, "numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["simulate", "--n", "3", "--lambda", "1,2,3", "--t-end", "0.1", "--dt", "0.01",
                 "--stride", "1", "--output-dir", sys.argv[1]])
print(code, "numpy" in sys.modules)
"""


def test_only_simulate_loads_numpy(tmp_path):
    path = [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    r = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, str(tmp_path / "run")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["[0, 0] False", "0 True"]


@pytest.mark.filterwarnings("error")
def test_simulate_keeps_numpy_error_state(tmp_path):
    # the second run overflows (exit 1, "non-finite state"): no warning
    # escapes and the caller's error state is untouched either way
    np = pytest.importorskip("numpy")
    from manakov.cli import main

    before = np.geterr()
    base = ["simulate", "--n", "3", "--stride", "1", "--output-dir", str(tmp_path / "run")]
    assert main(base + ["--lambda", "1,2,3", "--t-end", "0.1", "--dt", "0.01"]) == 0
    assert np.geterr() == before
    assert main(base + ["--lambda", "1/1000,1,1000", "--t-end", "500", "--dt", "50"]) == 1
    assert np.geterr() == before
