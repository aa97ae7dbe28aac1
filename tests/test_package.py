"""The package surface: every export resolves lazily to its submodule's object."""

import importlib
import json
import subprocess
import sys

import pytest

import reebcone


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
