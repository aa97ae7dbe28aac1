"""The package surface: every export resolves lazily to its submodule's object, no
library module has a bare assert, NumPy is imported by the lattice module only, no
module imports dataclasses, and every result type is an immutable record."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import reebcone
from reebcone import (
    decompose_dual,
    delta,
    dual_cone,
    gorenstein_vector,
    grid_search_oracle,
    index_character,
    minimize_volume,
    polytope_Q,
    reeb_vector,
    toric_valuation,
)
from reebcone import cli


def test_exports_are_the_submodule_objects():
    for name in reebcone.__all__:
        if name == "__version__":
            continue
        value = getattr(reebcone, name)
        assert value.__module__.startswith("reebcone."), name
        assert value is getattr(importlib.import_module(value.__module__), name), name


def test_dir_lists_every_export():
    assert set(reebcone.__all__) <= set(dir(reebcone))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from reebcone import *", namespace)
    assert all(namespace[name] is getattr(reebcone, name) for name in reebcone.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        reebcone.no_such_name


def test_import_loads_the_errors_only():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, reebcone; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {m for m in loaded if m.startswith("reebcone")} == {"reebcone", "reebcone.errors"}
    assert not loaded & {"mpmath", "numpy"}


def test_library_has_no_bare_assert():
    # python -O strips assert statements, so the library raises typed errors instead
    modules = sorted(Path(reebcone.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _imported_modules(node) -> list:
    """The modules an import statement names, relative ones under ``reebcone``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if not node.level:
        return [node.module]
    if node.module:
        return ["reebcone." + node.module]
    return ["reebcone." + alias.name for alias in node.names]


def test_numpy_is_imported_by_the_lattice_module_only():
    # reebcone.lattice owns every row scan and imports NumPy inside the functions that
    # use it; no module imports either at its top, so a layer that scans nothing loads neither
    importers, at_top = set(), set()
    for path in sorted(Path(reebcone.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = _imported_modules(node)
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
            if node in tree.body and {"numpy", "reebcone.lattice"} & set(names):
                at_top.add(path.name)
    assert importers == {"lattice.py"}
    assert at_top == set()


def test_no_module_imports_dataclasses():
    # every result type is a typing.NamedTuple: importing dataclasses would cost each
    # cold CLI call its own import and inspect's, and each class an exec of its methods
    importers = set()
    for path in sorted(Path(reebcone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "dataclasses" in _imported_modules(node):
                importers.add(path.name)
    assert importers == set()


def _results():
    """One value of each public result type, from the library call that makes it."""
    cone = dual_cone([(1, 0), (1, 2)], 2)
    spec = '{"name": "a1", "dim": 2, "rays": [[1, 0], [1, 2]], "xi": [1, 1]}'
    res = minimize_volume(cone, probe_rational=10)
    return [cone, gorenstein_vector(cone), reeb_vector(cone, (1, 1)), polytope_Q(cone, (1, 1)),
            index_character(decompose_dual(cone), (1, 1)), decompose_dual(cone)[0],
            toric_valuation(cone, (1, 0)), delta(cone, (1, 1)), res, res.rational_candidate,
            grid_search_oracle(cone, 4), cli.parse_cone_spec(spec), cli.run("check", spec)]


def test_result_types_are_immutable():
    values = _results()
    assert [type(v).__name__ for v in values] == [
        "ToricCone", "GorensteinVector", "ReebVector", "PolytopeSlice", "LaurentSeries",
        "SimplicialPiece", "ToricValuation", "StabilityReport", "MinimizeResult",
        "RationalCandidate", "GridResult", "ConeSpec", "Report"]
    for value in values:
        for field in (*value._fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        assert value == type(value)(*value)
        assert value._replace() == value
