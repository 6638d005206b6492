"""Module boundaries of the package, checked on its source.

A name with a leading underscore is private to the module that defines it:
no other euclidmin module may import it, or read it as an attribute.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import euclidmin
from euclidmin.minima import MinimumValue
from test_covering import _fresh_python

PACKAGE = Path(euclidmin.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == \
            "euclidmin"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_cross_module_private_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _private_imports(path)]
    assert found == []


def _imports_of(path, module):
    """Lines of path that import the package module, or names from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            names.append(getattr(node, "module", None) or "")
            if any(n.split(".")[-1] == module for n in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_covering_does_not_use_intervals():
    # every bound of covering.py is exact_bound, on integers
    assert _imports_of(PACKAGE / "covering.py", "intervals") == []


def test_torus_does_not_use_polynomials():
    # the characters take a place's local data from its prime ideal
    assert _imports_of(PACKAGE / "torus.py", "polynomials") == []


def test_no_assert_in_arithmetic_modules():
    # soundness checks must survive python -O
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _owned_names(tree):
    """Names a module defines, assigns as attributes, declares in a class
    body or lists in __slots__."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            own.add(node.name)
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    targets = (stmt.targets if isinstance(stmt, ast.Assign)
                               else [stmt.target]
                               if isinstance(stmt, ast.AnnAssign) else [])
                    own.update(t.id for t in targets
                               if isinstance(t, ast.Name))
                    if any(isinstance(t, ast.Name) and t.id == "__slots__"
                           for t in targets):
                        own.update(c.value for c in ast.walk(stmt.value)
                                   if isinstance(c, ast.Constant))
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    return own


def _foreign_private_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    own = _owned_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and _is_private(node.attr) and node.attr not in own:
            yield f"{path.name}:{node.lineno} reads .{node.attr}"


def test_no_private_attribute_of_another_module():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _foreign_private_reads(path)]
    assert found == []


# Floats may only propose candidates that exact code then verifies: the
# Durand-Kerner seeds of roots.py.
FLOAT_MODULES = {"roots.py"}
FLOAT_NAMES = {"nextafter", "inf"}


def _float_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "complex"):
            yield f"{path.name}:{node.lineno} calls {node.func.id}"
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            yield f"{path.name}:{node.lineno} writes {node.value!r}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in FLOAT_NAMES:
                    yield f"{path.name}:{node.lineno} imports {alias.name}"
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES:
            yield f"{path.name}:{node.lineno} reads .{node.attr}"


def test_floats_only_propose_candidates():
    modules = sorted(PACKAGE.glob("*.py"))
    assert FLOAT_MODULES <= {path.name for path in modules}
    found = [hit for path in modules if path.name not in FLOAT_MODULES
             for hit in _float_uses(path)]
    assert found == []


def _trace_targets():
    """The TARGETS tuple of the benchmark's tracer, read from its source."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in the tracer")


def test_trace_targets_resolve():
    """Every layer span of `perfbench/run.py --trace 1` names a function the
    package still defines, where Tracer.install looks it up: a module
    attribute, or an entry of a class's own namespace."""
    targets = _trace_targets()
    assert targets
    missing = []
    for module_name, path, _ in targets:
        module = importlib.import_module(f"euclidmin.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = vars(getattr(module, owner_name)) if owner_name \
            else vars(module)
        if not callable(owner.get(attr)):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def _loaded_after(statement):
    """The modules a fresh interpreter holds after running statement."""
    done = _fresh_python(statement + "\nimport sys\nprint(*sys.modules)\n")
    assert done.returncode == 0, done.stderr.decode()
    return set(done.stdout.decode().split())


def test_import_closure():
    # the package loads a submodule on first use; the CLI loads the search,
    # forms and the S-unit basis only in the commands that use them
    assert {m for m in _loaded_after("import euclidmin")
            if m.startswith("euclidmin.")} == {"euclidmin.errors"}
    assert not _loaded_after("import euclidmin.cli") & {
        "euclidmin.minima", "euclidmin.forms", "dataclasses",
        "euclidmin.units", "euclidmin.enumerate"}


def test_exports_resolve_to_their_home_module():
    # __init__.py names each export's module by hand
    for name in euclidmin.__all__:
        obj = getattr(euclidmin, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("euclidmin."), name
        assert vars(home)[name] is obj, name
    assert set(euclidmin.__all__) <= set(dir(euclidmin))


def test_minimum_value_is_a_dataclass():
    # perfbench/selftest.py::test_minimum_off_is_rejected forges m_exact
    # results with dataclasses.replace
    assert dataclasses.is_dataclass(MinimumValue)


def _nodes_by_scope(path, match):
    """'module.Class.function:line' for each node of path that match
    accepts."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if match(child):
                found.append(f"{scope}:{child.lineno}")
            visit(child, scope)

    visit(tree, path.stem)
    return found


def _calls_by_scope(path, callee):
    """Each call of callee in path, a name called directly or as an
    attribute (x.callee(...)), as _nodes_by_scope gives it."""
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)) == callee

    return _nodes_by_scope(path, match)


def _scopes_calling(callee):
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return [hit for path in modules for hit in _calls_by_scope(path, callee)]


def test_one_prime_power_product_and_one_congruence_solver():
    # one S-lattice builder: only the product multiplies prime powers out
    allowed = ("places.Place.", "places.times_prime_powers:")
    assert [hit for hit in _scopes_calling("ideal_power")
            if not hit.startswith(allowed)] == []
    # one solver for S-ideal points; the local idempotent is the other system
    systems = {hit.split(":")[0] for hit in _scopes_calling("CongruenceSystem")}
    assert systems == {"torus.shift_into_depths", "torus.local_trace_polar"}


def test_one_lattice_path_for_ideals():
    modules = sorted(PACKAGE.glob("*.py"))
    defined = {node.name for path in modules
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"kernel_int", "_augment"}
    # one xgcd elimination serves the HNF and the congruence solver
    echelons = {hit.split(":")[0] for hit in _scopes_calling("_column_echelon")}
    assert echelons == {"hnf.hnf_columns", "hnf.echelon_mod_lattice"}

    # one trace dual serves the inverse different, inverses and S-duals
    def reads_gram(node):
        return isinstance(node, ast.Attribute) and \
            node.attr == "trace_gram" and isinstance(node.ctx, ast.Load)

    readers = {hit.split(":")[0] for path in modules
               for hit in _nodes_by_scope(path, reads_gram)}
    assert readers == {"fields.NumberField.__init__", "fields.ideal_dual"}
