"""Static checks on the source tree, with the standard library only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "arflow").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path):
    """Names bound by the imports of ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "__init__.py"] + TESTS,
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    # __init__.py is skipped: its imports are the package's re-exports
    assert unused_imports(path) == [], f"unused imports in {path.name}"


def midpoint_rule_calls(path):
    """Lines of ``path`` that call ``MassQuadrature.midpoint``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "midpoint"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "MassQuadrature"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_default_quadrature(path):
    # the datum terms are exact; a quadrature is only ever passed in
    assert midpoint_rule_calls(path) == [], \
        f"MassQuadrature.midpoint called in {path.name}"


def power_calls(tree):
    """Lines of the ``np.power`` calls under the AST node ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "power"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")]


def test_kernels_use_no_np_power():
    # the pair sums take exp(p ln d); the particle oracle keeps np.power,
    # so the oracle check compares two independent power evaluations
    tree = ast.parse((ROOT / "src" / "arflow" / "kernels.py").read_text())
    assert power_calls(tree) == []


@pytest.mark.parametrize("name", ["_psi", "_psi_prime", "_primitive"])
def test_particle_oracle_keeps_np_power(name):
    tree = ast.parse((ROOT / "src" / "arflow" / "particles.py").read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert power_calls(funcs[name]) != [], f"{name} lost its np.power"
