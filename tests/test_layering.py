"""Module boundaries in src/logsphere, read from the syntax tree.

The flat (l, m) -> slot order of the coefficient vector is decided in
`harmonics` alone: other modules reach coefficients through
`HarmonicCoeffs` and the per-slot multiplier arrays (`h_multiplier_table`),
never through the label-to-slot functions or a hard-coded slot; no src code
looks up one label's slot
(`flat_index` is a test oracle), and in `harmonics` the slot -> product map
is read by `analyze` and the polar sums alone.  The row order of the
Legendre table is `specfun`'s alone.  `conformal` is geometry only and depends on
`sphere`, not on the transforms, and works on coordinate columns, never
along the short axis of point rows; its dot products with point rows are
sums over the coordinates in order, never a matrix product, whose bits
follow the rows' memory layout.  `verify` holds the suites `cli` runs and
imports nothing from `cli`.  Besides its own modules, src imports only the
standard library and numpy, the one dependency `pyproject.toml` declares.
No process-wide cache wraps the grid builders: a grid keeps its transform
tables, so callers share one by passing it.  In `dynamics` one function,
the probe's measurement, handles `PoleError`.  Every `RunConfig` field is
read somewhere in src besides `cli`'s config plumbing.
No module imports or reads another's underscore names.  Every public name
is used somewhere besides its definition and the package's re-exports, every
public module-level function or class is used by src itself unless it is
listed as library API, and so is every public module-level constant.  No
public function returns a scalar for some inputs and an array for others.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "logsphere"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
LAYOUT_NAMES = {"harmonic_indices"}


def tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def names_used(node: ast.AST, modules: frozenset[str] = frozenset()) -> set[str]:
    """Every name read, attribute and imported name in `node`, less the
    attributes read from one of the module names `modules` (`json.loads`)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name) and sub.value.id in modules):
                out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):  # a parent that is no package, or none
        return False


def imported_modules(node: ast.AST) -> frozenset[str]:
    """The names that the imports in `node` bind to modules; a relative
    import is one of src/logsphere's."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            out.update(alias.asname or alias.name.split(".")[0] for alias in sub.names)
        elif isinstance(sub, ast.ImportFrom):
            base = ".".join(filter(None, ["logsphere" if sub.level else "", sub.module]))
            out.update(alias.asname or alias.name for alias in sub.names
                       if is_module(f"{base}.{alias.name}"))
    return frozenset(out)


def test_modules_found():
    assert {"harmonics", "energy", "dynamics", "cli", "conformal", "verify"} <= set(MODULES)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "harmonics"])
def test_layout_functions_stay_in_harmonics(module):
    assert not names_used(tree(module)) & LAYOUT_NAMES


def test_no_flat_index_in_src():
    # the transforms reach slots through the precomputed maps; one label's
    # slot is looked up by the tests' oracles `flat_index` and `coeff` alone
    named = [m for m in MODULES if "flat_index" in (SRC / f"{m}.py").read_text(encoding="utf-8")]
    assert named == []
    coeffs = next(node for node in tree("harmonics").body
                  if isinstance(node, ast.ClassDef) and node.name == "HarmonicCoeffs")
    assert "get" not in {sub.name for sub in coeffs.body if isinstance(sub, ast.FunctionDef)}


def test_slot_index_serves_analyze_and_the_polar_sums():
    # one slot -> product map, `_SlotMaps.index`: analyze gathers through it,
    # and synthesis and the off-grid evaluation scatter through the polar sums
    readers = sorted(node.name for node in tree("harmonics").body
                     if isinstance(node, ast.FunctionDef)
                     and any(isinstance(sub, ast.Attribute) and sub.attr == "index"
                             for sub in ast.walk(node)))
    assert readers == ["_polar_sums", "analyze"]


def reads_dimension(node: ast.expr) -> bool:
    """`n`, or the `n` of an object, such as `grid.n` or `c.n`."""
    return ((isinstance(node, ast.Name) and node.id == "n")
            or (isinstance(node, ast.Attribute) and node.attr == "n"))


def takes_dimension_first() -> set[str]:
    """The functions of src/logsphere whose first parameter is `n`."""
    return {node.name for module in MODULES for node in ast.walk(tree(module))
            if isinstance(node, ast.FunctionDef) and node.args.args
            and node.args.args[0].arg == "n"}


ONE_SPHERE_BASES = {"assoc_legendre_norm", "fourier_basis"}


@pytest.mark.parametrize("name", ["analyze", "synthesize_values", "transform_table_bytes",
                                  "degree_of_index", "evaluate_at", "_evaluation_plan",
                                  "evaluate_at_bytes", "_polar_sums", "_polar_table_bytes",
                                  "evaluate_on_grid", "_polar_step", "evaluate_on_grid_bytes",
                                  "_off_grid_bytes"])
def test_transforms_do_not_branch_on_the_dimension(name):
    # the circle is the one-ring product grid and, off the grid, the equator
    # of S^2: the transforms and the off-grid evaluation run one path for both
    # spheres, and only the polar rule tells them apart.  So they compare
    # nothing against the dimension, pass no literal one (`_slot_maps(2, L)`)
    # and call no one sphere's basis.
    fn = next(node for node in tree("harmonics").body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    first_n = takes_dimension_first()
    found = [ast.unparse(node) for node in ast.walk(fn)
             if (isinstance(node, ast.Compare)
                 and any(map(reads_dimension, [node.left, *node.comparators])))
             or (isinstance(node, ast.Call) and callee(node) in first_n and node.args
                 and isinstance(node.args[0], ast.Constant))
             or (isinstance(node, ast.Call) and callee(node) in ONE_SPHERE_BASES)]
    assert found == []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "specfun"])
def test_legendre_row_order_stays_in_specfun(module):
    assert not names_used(tree(module)) & {"legendre_row", "tri_index"}


@pytest.mark.parametrize("module", ["energy", "dynamics", "cli", "verify"])
def test_no_coefficient_slot_by_position(module):
    # `x.coeffs[0]` or `x.coeffs[:count]` would hard-code the slot order
    bad = [ast.unparse(node) for node in ast.walk(tree(module))
           if isinstance(node, ast.Subscript)
           and isinstance(node.value, ast.Attribute) and node.value.attr == "coeffs"
           and isinstance(node.slice, (ast.Constant, ast.Slice, ast.UnaryOp))]
    assert bad == []


def imports(module: str) -> set[str]:
    """The last dotted part of every module that `module` imports from."""
    out = set()
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.ImportFrom):
            out.add(node.module or "")
            if node.module is None:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
    return {name.split(".")[-1] for name in out}


def test_conformal_does_not_import_harmonics():
    assert "harmonics" not in imports("conformal")
    assert "sphere" in imports("conformal")


def short_axis_work(node: ast.AST) -> list[str]:
    """Reductions along axis 1 or -1 (`np.sum(d * d, axis=1)`) and row
    broadcasts (`axis[None, :]`) in `node`."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            for kw in sub.keywords:
                if kw.arg == "axis" and ast.unparse(kw.value) in {"1", "-1"}:
                    found.append(ast.unparse(sub))
        elif (isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Tuple)
              and len(sub.slice.elts) == 2
              and isinstance(sub.slice.elts[0], ast.Constant) and sub.slice.elts[0].value is None
              and isinstance(sub.slice.elts[1], ast.Slice)):
            found.append(ast.unparse(sub))
    return found


def test_conformal_works_on_coordinate_columns():
    # with n + 1 <= 3 coordinates, a loop along the short axis of (k, n + 1)
    # rows costs more than the arithmetic: conformal builds and reduces its
    # point sets as (n + 1, k) columns; a column such as `x0[:, None]`
    # broadcast against them is the allowed form
    assert short_axis_work(tree("conformal")) == []


def test_short_axis_patterns_are_seen():
    # the gate's detector, on the row-wise forms it keeps out
    sample = ast.parse("d2 = np.sum((a - b) ** 2, axis=1)\n"
                       "r = np.linalg.norm(v, axis=-1, keepdims=True)\n"
                       "p = t[:, None] * axis[None, :]\n"
                       "ok = x0[:, None] + y.sum(axis=0) + xi0[None]\n")
    assert short_axis_work(sample) == ["np.sum((a - b) ** 2, axis=1)",
                                       "np.linalg.norm(v, axis=-1, keepdims=True)",
                                       "axis[None, :]"]


# names that conformal gives to point rows
POINT_ROWS = {"pts", "points", "xi", "xis", "eta", "etas", "nodes", "rows"}


def row_products(node: ast.AST) -> list[str]:
    """Matrix products in `node` whose left operand is point rows: `_rows(...)`
    or a name in POINT_ROWS, as `x @ v` or as the first argument of
    `np.dot` or `np.matmul`."""
    def is_rows(expr: ast.AST) -> bool:
        return ((isinstance(expr, ast.Call) and ast.unparse(expr.func) == "_rows")
                or (isinstance(expr, ast.Name) and expr.id in POINT_ROWS))

    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
            left = sub.left
        elif isinstance(sub, ast.Call) and ast.unparse(sub.func) in {"np.dot", "np.matmul"}:
            left = sub.args[0] if sub.args else None
        else:
            continue
        if left is not None and is_rows(left):
            found.append(ast.unparse(sub))
    return found


def test_conformal_sums_over_coordinates_in_order():
    # the rounding of a matrix product with (k, n + 1) rows depends on their
    # memory layout, so a C- and an F-order copy of the same rows could give
    # the family and the Moebius Jacobian different bits: conformal sums
    # zeta . xi over the coordinates in order instead (`_dot_rows`)
    assert row_products(tree("conformal")) == []


def test_row_products_are_seen():
    # the gate's detector, on the row-wise forms it keeps out
    sample = ast.parse("a = 1.0 - _rows(pts) @ zeta\n"
                       "b = pts @ phi.zeta\n"
                       "c = np.dot(xi, z) + np.matmul(_rows(eta), z)\n"
                       "ok = phi.e @ x + (v @ axis) * np.dot(zeta, zeta) + cols @ z\n")
    assert sorted(row_products(sample)) == ["_rows(pts) @ zeta", "np.dot(xi, z)",
                                            "np.matmul(_rows(eta), z)", "pts @ phi.zeta"]


def pole_handlers(node: ast.AST, scope: str = "<module>") -> list[str]:
    """The enclosing function, qualified by its classes, of each `except`
    clause in `node` whose exception type names PoleError."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        if (isinstance(child, ast.ExceptHandler) and child.type is not None
                and re.search(r"\bPoleError\b", ast.unparse(child.type))):
            found.append(scope)
        found += pole_handlers(child, inner)
    return found


def test_one_function_holds_the_pole_policy():
    # the probe's measurement is the one place that retries a value after a
    # pole or lets the pole through, so every path follows the same policy
    assert pole_handlers(tree("dynamics")) == ["_CapProbe.measure"]


def test_pole_handlers_are_seen():
    # the gate's detector, on the handler forms it counts
    sample = ast.parse("class P:\n"
                       "    def one(self):\n"
                       "        try: f()\n"
                       "        except cf.PoleError: pass\n"
                       "        except ValueError: pass\n"
                       "def two():\n"
                       "    def inner():\n"
                       "        try: f()\n"
                       "        except (OverflowError, PoleError) as exc: raise\n"
                       "    try: inner()\n"
                       "    except Exception: pass\n")
    assert pole_handlers(sample) == ["P.one", "two.inner"]


# cli's functions that load, check or echo every config field alike
CONFIG_PLUMBING = frozenset({"_load_config", "_report_config", "_check_table_budget"})


def attributes_read(node: ast.Module, skip: frozenset[str] = frozenset()) -> set[str]:
    """The attribute names read in `node`, outside its module-level functions `skip`."""
    return {sub.attr for child in node.body
            if not (isinstance(child, ast.FunctionDef) and child.name in skip)
            for sub in ast.walk(child)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def unread_config_fields(modules: dict[str, ast.Module]) -> list[str]:
    """The fields of cli's `RunConfig` that no module reads as an attribute,
    by name, outside CONFIG_PLUMBING."""
    config = next(node for node in modules["cli"].body
                  if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    read = set().union(*(attributes_read(node, CONFIG_PLUMBING if name == "cli" else frozenset())
                         for name, node in modules.items()))
    return [sub.target.id for sub in config.body
            if isinstance(sub, ast.AnnAssign) and sub.target.id not in read]


def test_every_config_field_is_read():
    # a field that only the plumbing reads is a flag, a key and a check with
    # nothing behind them
    assert unread_config_fields({m: tree(m) for m in MODULES}) == []


def test_unread_config_fields_are_seen():
    # the gate's detector: a field read by the plumbing alone, or only
    # written, is unread; a read in any other function or module counts
    cli = ast.parse("@dataclass\n"
                    "class RunConfig:\n"
                    "    n: int = 2\n"
                    "    depth: int = 1\n"
                    "    width: int | None = None\n"
                    "    seed: int = 0\n"
                    "def _load_config(args):\n"
                    "    if cfg.depth < 1: raise SystemExit\n"
                    "def _report_config(cfg):\n"
                    "    return {'width': cfg.width}\n"
                    "def run(cfg):\n"
                    "    cfg.width = 3\n"
                    "    return cfg.n\n")
    verify = ast.parse("def suite(cfg):\n    return cfg.seed + getattr(cfg, 'depth')\n")
    assert unread_config_fields({"cli": cli, "verify": verify}) == ["depth", "width"]


def process_wide_caches(node: ast.AST, names: set[str]) -> list[str]:
    """`functools.lru_cache`/`functools.cache` decorators on the functions
    `names` in `node`, and assignments that bind one of `names` to a call
    of either."""
    cached = re.compile(r"\b(lru_cache|cache)\b")
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.name in names:
            found += [f"@{ast.unparse(d)} {sub.name}" for d in sub.decorator_list
                      if cached.search(ast.unparse(d))]
        elif (isinstance(sub, ast.Assign) and names & set(assigned_names(sub))
              and cached.search(ast.unparse(sub.value))):
            found.append(ast.unparse(sub))
    return found


@pytest.mark.parametrize("module, name", [("sphere", "build_grid"),
                                          ("energy", "default_entropy_grid")])
def test_no_process_wide_grid_cache(module, name):
    # a grid keeps its transform tables alive (`harmonics._TABLE_CACHE`), so a
    # memoized grid keeps every table it was used with (16 MiB for the S^2
    # entropy grid at L = 128).  Callers share a grid by passing it, as
    # `cli.cmd_minimize` does.
    assert process_wide_caches(tree(module), {name}) == []


def test_process_wide_cache_patterns_are_seen():
    sample = ast.parse("@functools.lru_cache(maxsize=16)\ndef build_grid(n, d): pass\n"
                       "@cache\ndef default_entropy_grid(n, L): pass\n"
                       "build_grid = functools.cache(build_grid)\n"
                       "@functools.lru_cache\ndef other(n): pass\n")
    assert process_wide_caches(sample, {"build_grid", "default_entropy_grid"}) == [
        "@functools.lru_cache(maxsize=16) build_grid", "@cache default_entropy_grid",
        "build_grid = functools.cache(build_grid)"]


def test_verify_does_not_import_cli():
    assert "cli" not in imports("verify")
    assert "verify" in imports("cli")


@pytest.mark.parametrize("module", MODULES)
def test_src_imports_only_the_standard_library_and_numpy(module):
    allowed = sys.stdlib_module_names | {"numpy", "logsphere"}
    found = [ast.unparse(sub) for sub in ast.walk(tree(module))
             if (isinstance(sub, ast.Import)
                 and any(alias.name.split(".")[0] not in allowed for alias in sub.names))
             or (isinstance(sub, ast.ImportFrom) and not sub.level
                 and sub.module.split(".")[0] not in allowed)]
    assert found == []


def src_module_aliases(node: ast.AST) -> set[str]:
    """The names that the imports in `node` bind to src/logsphere modules
    (`from . import conformal as cf` binds `cf`)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and sub.level and sub.module is None:
            out.update(alias.asname or alias.name for alias in sub.names)
        elif isinstance(sub, ast.Import):
            out.update(alias.asname or alias.name for alias in sub.names
                       if alias.name.startswith("logsphere."))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_a_module_boundary(module):
    # an underscore name is its module's own; another module that needs it
    # needs a public function
    node = tree(module)
    aliases = src_module_aliases(node)
    found = [ast.unparse(sub) for sub in ast.walk(node)
             if (isinstance(sub, ast.ImportFrom)
                 and (sub.level or (sub.module or "").startswith("logsphere"))
                 and any(alias.name.startswith("_") for alias in sub.names))
             or (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                 and sub.value.id in aliases and sub.attr.startswith("_"))]
    assert found == []


ROOT = SRC.parent.parent


def public_definitions() -> tuple[set[str], set[str]]:
    """The public module-level functions and classes of src/logsphere, and
    the public methods of those classes."""
    top, methods = set(), set()
    for module in MODULES:
        for node in tree(module).body:
            if isinstance(node, ast.ClassDef):
                methods.update(sub.name for sub in node.body
                               if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                top.add(node.name)
    return ({name for name in top if not name.startswith("_")},
            {name for name in methods if not name.startswith("_")})


def names_referenced() -> tuple[set[str], set[str]]:
    """Every name used by src/logsphere (its `__init__` re-exports aside), the
    tests and the benchmark, plus the benchmark's traced function names and
    the console entry point; and the same less the attributes of imported
    modules, which name no method (`json.loads` does not use a `loads`
    method)."""
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    out, methods = set(), set()
    for path in files:
        module = ast.parse(path.read_text(encoding="utf-8"))
        out |= names_used(module)
        methods |= names_used(module, imported_modules(module))
    layers = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    extra = set()
    for node in layers.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            extra.update(sub.value for sub in ast.walk(node.value)
                         if isinstance(sub, ast.Constant) and isinstance(sub.value, str))
    # a "package.module:function" entry point
    extra.update(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    return out | extra, methods | extra


def test_no_dead_public_names():
    top, methods = public_definitions()
    names, method_names = names_referenced()
    assert sorted((top - names) | (methods - method_names)) == []


WRAPPED = "wrapped by perfbench/layers.py TARGETS; leaves with ROADMAP item 1"

# Public module-level functions and classes that no src module besides
# `__init__` references, each with why it stays in src.
LIBRARY_API = {
    "sphere.integrate": WRAPPED,
    "specfun.fourier_basis": WRAPPED,
    "conformal.apply_map": WRAPPED,
    "conformal.jacobian": WRAPPED,
    "conformal.antisymmetry_defect": WRAPPED,
    "harmonics.apply_P2s": WRAPPED,
    "harmonics.pv_apply_H": WRAPPED,
    "harmonics.apply_P2s_direct": WRAPPED,
    "energy.energy_direct": WRAPPED,
    "energy.energy_direct_extrapolated": WRAPPED,
    "dynamics.deficit_value": WRAPPED,
    "dynamics.deficit_gradient": WRAPPED,
    "energy.beckner_rhs": WRAPPED,
}


def assigned_names(node: ast.stmt) -> list[str]:
    """The names a module-level assignment binds (`A = ...`, `A: int = ...`)."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_src_keeps_what_src_uses():
    # reference code and constants that only the tests read belong in the tests
    used = set().union(*(names_used(tree(m)) for m in MODULES if m != "__init__"))
    unused = {f"{module}.{node.name}" for module in MODULES for node in tree(module).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used}
    assert sorted(unused) == sorted(LIBRARY_API)
    unread = [f"{module}.{name}" for module in MODULES if module != "__init__"
              for node in tree(module).body for name in assigned_names(node)
              if not name.startswith("_") and name not in used]
    assert unread == []


# Defaulted parameters that no call in src/logsphere sets, each with why it
# stays settable.
UNSET_DEFAULTS_ALLOWED = {
    "cli.main(argv)": "the console entry calls main() with no arguments; tests pass argv",
}


def is_dataclass_def(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")) == "dataclass":
            return True
    return False


def callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def defaulted_parameters() -> dict[str, tuple[str, str, int | None]]:
    """'module.function(param)' -> (callee name, param, positional index) for
    each defaulted parameter of a public function or method, and each
    defaulted `init=True` field of a public dataclass."""
    out = {}

    def add(label, name, fn: ast.FunctionDef, method: bool):
        args = fn.args.posonlyargs + fn.args.args
        positional = [a.arg for a in args[1 if method else 0:]]
        for a in args[len(args) - len(fn.args.defaults):]:
            out[f"{label}({a.arg})"] = (name, a.arg, positional.index(a.arg))
        for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                out[f"{label}({a.arg})"] = (name, a.arg, None)

    for module in MODULES:
        for node in tree(module).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                add(f"{module}.{node.name}", node.name, node, False)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        static = any(getattr(d, "id", "") == "staticmethod"
                                     for d in sub.decorator_list)
                        add(f"{module}.{node.name}.{sub.name}", sub.name, sub, not static)
                if not is_dataclass_def(node):
                    continue
                index = 0
                for sub in node.body:
                    if not (isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)):
                        continue
                    value, has_default = sub.value, sub.value is not None
                    if isinstance(value, ast.Call) and callee(value) == "field":
                        kw = {k.arg: k.value for k in value.keywords}
                        if getattr(kw.get("init"), "value", True) is False:
                            continue
                        has_default = "default" in kw or "default_factory" in kw
                    if has_default:
                        out[f"{module}.{node.name}({sub.target.id})"] = (
                            node.name, sub.target.id, index)
                    index += 1
    return out


def arguments_passed() -> tuple[set[tuple[str, str]], dict[str, int]]:
    """For the calls in src/logsphere: the (callee name, keyword) pairs, with
    (callee name, '**') where a call unpacks a mapping or a sequence and so
    may pass anything, and the most positional arguments each name gets."""
    keywords, positional = set(), {}
    for module in MODULES:
        for call in ast.walk(tree(module)):
            name = callee(call) if isinstance(call, ast.Call) else None
            if name is None:
                continue
            keywords.update((name, k.arg or "**") for k in call.keywords)
            if any(isinstance(a, ast.Starred) for a in call.args):
                keywords.add((name, "**"))
            positional[name] = max(positional.get(name, 0), len(call.args))
    return keywords, positional


def test_every_default_is_set_by_a_caller():
    # a default that no caller changes is a constant with extra configurations to test
    keywords, positional = arguments_passed()
    unset = {label for label, (name, param, index) in defaulted_parameters().items()
             if not ((index is not None and positional.get(name, 0) > index)
                     or (name, param) in keywords or (name, "**") in keywords)}
    assert sorted(unset) == sorted(UNSET_DEFAULTS_ALLOWED)


def union_members(node: ast.expr) -> list[ast.expr]:
    """The members of an `A | B` or `Union[A, B]` annotation, else [node]."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return union_members(node.left) + union_members(node.right)
    if isinstance(node, ast.Subscript) and ast.unparse(node.value) in {"Union", "typing.Union"}:
        elts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return [m for e in elts for m in union_members(e)]
    return [node]


def test_no_scalar_or_array_returns():
    # points go in as rows and values come back as arrays, so no caller has
    # to re-wrap a result whose type depends on the input's shape
    bad = []
    for module in MODULES:
        for node in ast.walk(tree(module)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_") and node.returns is not None):
                members = {ast.unparse(m) for m in union_members(node.returns)}
                if members & {"float", "bool"} and members & {"np.ndarray", "numpy.ndarray"}:
                    bad.append(f"{module}.{node.name} -> {ast.unparse(node.returns)}")
    assert bad == []
