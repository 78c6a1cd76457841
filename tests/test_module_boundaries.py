"""No module of the package uses another object's private names, the
modules keep their import boundaries, and every name the benchmark's tracer
instruments exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "scrollres"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list:
    """`from m import _name`, and `obj._attr` on anything but self or cls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: import {alias.name}"
                      for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                found.append(f"line {node.lineno}: .{node.attr}")
    return found


def test_private_uses_are_found():
    assert private_uses("from .ffield import _trim\nech._reduce(v)\nself._rows\n") == [
        "line 1: import _trim", "line 2: ._reduce"]
    assert private_uses("from . import __version__\nobj.__class__\ncls._cache\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_an_object(path):
    assert private_uses(path.read_text()) == []


def imported_modules(source: str) -> set:
    """Every module a source imports from and every name it imports, dotted;
    a relative import keeps its leading dots."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.module:
                found.add(base)
            prefix = base if base.endswith(".") else base + "."
            found.update(prefix + alias.name for alias in node.names)
    return found


def test_imported_modules_are_found():
    source = "import numpy as np\nfrom .lattice import x\nfrom . import ffield\nfrom scrollres import scroll\n"
    assert imported_modules(source) == {
        "numpy", ".lattice", ".lattice.x", ".ffield", "scrollres", "scrollres.scroll"}


def test_k3_syzygy_imports_nothing_from_lattice():
    # the chi fit is closed-form, so the surface side needs no lattice solver
    found = imported_modules((SRC / "k3_syzygy.py").read_text())
    assert not found & {".lattice", "scrollres.lattice"}


def test_every_benchmark_target_resolves(monkeypatch):
    # perfbench/tracer.py looks its TARGETS up by name when it installs, so
    # a renamed or deleted one would otherwise fail only the benchmark run;
    # it is loaded without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", SRC.parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _detail in tracer.TARGETS:
        owner_name, _, name = attr.rpartition(".")
        owner = importlib.import_module(f"scrollres.{module}")
        if owner_name:
            owner = getattr(owner, owner_name)
        assert callable(vars(owner).get(name)), f"scrollres.{module}.{attr} is missing"
