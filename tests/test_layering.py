"""Module boundaries in src/logsphere, read from the syntax tree.

The flat (l, m) -> slot order of the coefficient vector is decided in
`harmonics` alone: other modules reach coefficients through
`HarmonicCoeffs` and `MultiplierTable`, never through the label-to-slot
functions or a hard-coded slot.  `conformal` is geometry only and depends on
`sphere`, not on the transforms.  Every public name is used somewhere
besides its definition and the package's re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "logsphere"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
LAYOUT_NAMES = {"flat_index", "harmonic_indices"}


def tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def names_used(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_modules_found():
    assert {"harmonics", "energy", "dynamics", "cli", "conformal"} <= set(MODULES)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "harmonics"])
def test_layout_functions_stay_in_harmonics(module):
    assert not names_used(tree(module)) & LAYOUT_NAMES


@pytest.mark.parametrize("module", ["energy", "dynamics", "cli"])
def test_no_coefficient_slot_by_position(module):
    # `x.coeffs[0]` or `x.coeffs[:count]` would hard-code the slot order
    bad = [ast.unparse(node) for node in ast.walk(tree(module))
           if isinstance(node, ast.Subscript)
           and isinstance(node.value, ast.Attribute) and node.value.attr == "coeffs"
           and isinstance(node.slice, (ast.Constant, ast.Slice, ast.UnaryOp))]
    assert bad == []


def test_conformal_does_not_import_harmonics():
    imported = set()
    for node in ast.walk(tree("conformal")):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            if node.module is None:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name.split(".")[-1] == "harmonics"}
    assert imported & {"sphere"}


ROOT = SRC.parent.parent


def public_definitions() -> set[str]:
    """Public module-level functions and classes of src/logsphere, and the
    public methods of those classes."""
    out = set()
    for module in MODULES:
        for node in tree(module).body:
            if isinstance(node, ast.ClassDef):
                out.update(sub.name for sub in node.body
                           if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.add(node.name)
    return {name for name in out if not name.startswith("_")}


def names_referenced() -> set[str]:
    """Every name used by src/logsphere (its `__init__` re-exports aside), the
    tests and the benchmark, plus the benchmark's traced function names and
    the console entry point."""
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    out = set()
    for path in files:
        out |= names_used(ast.parse(path.read_text(encoding="utf-8")))
    layers = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    for node in layers.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            out.update(sub.value for sub in ast.walk(node.value)
                       if isinstance(sub, ast.Constant) and isinstance(sub.value, str))
    # a "package.module:function" entry point
    out.update(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    return out


def test_no_dead_public_names():
    assert sorted(public_definitions() - names_referenced()) == []
