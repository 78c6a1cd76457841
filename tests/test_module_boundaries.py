"""No module of the package uses another object's private names."""

import ast
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
