"""Every import in the package is used (no linter is assumed), no function
imports a sibling module (the package has no import cycle to break), and
only the RK4 layer and the CLI touch numpy or float()."""

import ast
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


def _float_uses(path):
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float("))
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name not in FLOAT_MODULES), ids=lambda p: p.name
)
def test_exact_modules_use_no_floats(path):
    # floating point belongs to the RK4 layer and its command; everything
    # else certifies exact facts.  (Float division of int entries cannot be
    # seen here; test_linalg checks that by value.)
    assert _float_uses(path) == []
