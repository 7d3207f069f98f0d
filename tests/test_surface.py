"""The public surface of ``qjunction``, the namespaces its closed forms run over, and the
independence of the test oracles."""

import ast
import itertools
import math
from pathlib import Path

import qjunction
from qjunction import baths, correlations, solver

PUBLIC = [
    "BathKind",
    "DegeneratePhysicsError",
    "NonUniqueSteadyStateError",
    "RectificationPoint",
    "SweepRow",
    "SweepSpec",
    "SweepVariable",
    "SystemParams",
    "rectification_scan",
    "run_sweep",
    "solve_point",
    "sudden_death_temperature",
]


def test_public_names():
    assert sorted(qjunction.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(qjunction, name).__module__.startswith("qjunction.")


def test_modules_define_no_public_function_but_their_entry_points():
    # the four drivers the package root exports, the CLI's main and the documented float
    # entry point to a point's weights and current, solver.transport_kernel; nothing else is public
    entry_points = {"cli": ["main"], "solver": ["transport_kernel"], "experiments": [
        "rectification_scan", "run_sweep", "solve_point", "sudden_death_temperature"]}
    sources = sorted(Path(qjunction.__file__).parent.glob("*.py"))
    assert len(sources) == 7
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public = sorted(node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))
        assert public == entry_points.get(path.stem, []), path.name


def test_float_and_array_namespaces_offer_the_same_operations():
    # each closed form is written once, over baths._FLOATS for a point and
    # baths._arrays() for a grid, so the two must name the same members
    assert sorted(vars(baths._FLOATS)) == sorted(vars(baths._arrays()))


def test_shared_forms_call_no_numpy_and_pass_no_out_argument():
    # the forms that run on floats and arrays alike work in place on a grid by
    # augmented assignment alone, so nothing that needs numpy reaches the point route
    forms = {solver: ["_difference", "_overflows", "_current", "_stalled", "_channel"],
             correlations: ["_measures"]}
    for module, names in forms.items():
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            for node in ast.walk(defs[name]):
                assert not (isinstance(node, ast.keyword) and node.arg == "out"), name
                assert not (isinstance(node, ast.Name) and node.id == "np"), name


def test_float_extrema_match_the_builtins():
    # the float namespace's maximum and minimum keep the builtins' choice on
    # ties, signed zeros and NaN, to the bit
    values = (math.nan, -0.0, 0.0, 1.0, -math.inf, math.inf)
    for a, b in itertools.product(values, repeat=2):
        assert repr(baths._FLOATS.maximum(a, b)) == repr(max(a, b))
        assert repr(baths._FLOATS.minimum(a, b)) == repr(min(a, b))


def test_oracles_import_nothing_from_qjunction():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    # a relative import reads as a leading "."
    assert imported and all(name.split(".")[0] not in ("qjunction", "") for name in imported)


def test_every_import_is_used():
    # the project has no linter: each name a module imports is used in that
    # module or exported through its __all__
    sources = sorted(Path(qjunction.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        imported, used = set(), set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__":
                used.update(ast.literal_eval(node.value))
        assert imported <= used, (path.name, sorted(imported - used))


def _run_on_import(node):
    # the nodes below node that run when the module is imported: all but
    # function bodies
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_on_import(child)


def test_no_module_imports_numpy_on_import():
    # numpy is imported inside the functions that solve a grid, so that a
    # process that solves only points never loads it
    sources = sorted(Path(qjunction.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _run_on_import(tree):
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "numpy" for alias in node.names), path
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "numpy", path
