"""No module of the package uses another object's private names, the
modules keep their import boundaries, and every name the benchmark's tracer
instruments exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
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


#: public names that no src module references, each with its reason
UNREFERENCED_IN_SRC = {
    "Echelon": "only perfbench's TARGETS use it; it goes with ROADMAP item 0",
    "det_mod": "only perfbench's TARGETS use it; it goes with ROADMAP item 0",
    "syzygy_scheme": "only perfbench's TARGETS use it; it goes with ROADMAP item 0",
    "PlaneCurveModel.from_json": "it reads back the report's model record",
}


def public_definitions(source: str) -> list:
    """The public functions and classes a source defines at module level,
    and the public methods of every class defined there, as Class.method."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def referenced_names(source: str) -> set:
    """Every name a source uses as a Name node or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_public_definitions_and_references_are_found():
    source = ("def f():\n    return g(x.h)\ndef _p(): pass\n"
              "class C:\n    def m(self): pass\n    def _q(self): pass\n"
              "class _D:\n    def n(self): pass\n")
    assert public_definitions(source) == ["f", "C", "C.m", "_D.n"]
    assert referenced_names(source) == {"g", "x", "h"}


def test_every_public_name_is_used_in_src():
    # a name only tests or the benchmark reach is test-only API in the package
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    used = set().union(*(referenced_names(source) for source in sources))
    unused = [name for source in sources for name in public_definitions(source)
              if name.rpartition(".")[2] not in used and name not in UNREFERENCED_IN_SRC]
    assert unused == []
    # an exception that is gone, or now used, leaves the list
    defined = {name for source in sources for name in public_definitions(source)}
    assert set(UNREFERENCED_IN_SRC) <= defined
    assert not {name.rpartition(".")[2] for name in UNREFERENCED_IN_SRC} & used


#: dataclass fields that no src module reads, each with its reason
UNREAD_FIELDS = {
    "SkewPresentation.psi": "the 5x5 Pfaffian presentation the README promises; the tests "
                            "check its principal Pfaffians",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(dec, ast.Name) and dec.id == "dataclass"
               or isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
               and dec.func.id == "dataclass" for dec in node.decorator_list)


def dataclass_fields(source: str) -> list:
    """The fields of every dataclass a source defines at module level, as
    Class.field."""
    return [f"{node.name}.{item.target.id}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def attribute_reads(source: str) -> set:
    """Every attribute a source reads (obj.name in a load context)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_dataclass_fields_and_reads_are_found():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: list = field()\n"
              "    z = 3\n@dataclass\nclass B:\n    w: int\nclass C:\n    v: int\n"
              "a.x = b.y\n")
    assert dataclass_fields(source) == ["A.x", "A.y", "B.w"]
    assert attribute_reads(source) == {"y"}


def test_every_dataclass_field_is_read_in_src():
    # a field only tests read is test-only API in the package
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    read = set().union(*(attribute_reads(source) for source in sources))
    fields = [name for source in sources for name in dataclass_fields(source)]
    unread = [name for name in fields
              if name.rpartition(".")[2] not in read and name not in UNREAD_FIELDS]
    assert unread == []
    # a field that is gone, or now read, leaves the list
    assert set(UNREAD_FIELDS) <= set(fields)
    assert not {name.rpartition(".")[2] for name in UNREAD_FIELDS} & read


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


def test_chain_imports_only_the_betti_table_modules():
    # a survey worker imports chain alone, so chain's imports bound what it loads
    found = imported_modules((SRC / "chain.py").read_text())
    package = {name.split(".")[1] for name in found if name.startswith(".") and name != "."}
    assert package == {"ffield", "plane_curve", "scroll", "resolution"}
    assert not any(name.startswith("scrollres") for name in found)


def test_survey_worker_loads_no_stage_it_never_runs():
    # a fresh interpreter, as sample_survey starts one
    probe = "import sys, scrollres.survey_worker; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "scrollres.chain" in out
    unused = {f"scrollres.{name}" for name in
              ("k3_syzygy", "quartic_net", "lattice", "pipeline", "survey")}
    assert not unused & set(out)


#: the eliminations of ffield that take a dense matrix
ELIMINATIONS = {"kernel_mod", "rref_mod", "rank_mod"}


def _callee(node) -> str:
    """The name a call calls: f(..) and obj.f(..) both give f."""
    func = node.func if isinstance(node, ast.Call) else None
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def slice_map_makers(sources) -> set:
    """free_map_matrix and every function that returns its result."""
    return {"free_map_matrix"} | {
        node.name for source in sources for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(ret, ast.Return) and _callee(ret.value) == "free_map_matrix"
                for ret in ast.walk(node))}


def slice_maps_eliminated(source: str, makers: set) -> list:
    """Calls of the ELIMINATIONS handed a slice map or its .T: a call of one
    of makers, or a name a function binds to one.  A method of the map (its
    kernel, rref or dense form) is the map's own entry and is not counted."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {target.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                 and _callee(node.value) in makers
                 for target in node.targets if isinstance(target, ast.Name)}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and _callee(call) in ELIMINATIONS):
                continue
            for node in (n for arg in call.args for n in ast.walk(arg)):
                is_map = (isinstance(node, ast.Call) and _callee(node) in makers
                          or isinstance(node, ast.Name) and node.id in bound)
                method = isinstance(parents[node], ast.Attribute) and parents[node].attr != "T"
                if is_map and not method:
                    found.append(f"line {call.lineno}: {_callee(call)}")
                    break
    return sorted(set(found), key=lambda line: int(line.split()[1][:-1]))


def test_slice_maps_eliminated_are_found():
    source = ("def f(g):\n    m = free_map_matrix(g)\n    kernel_mod(m.T, p)\n"
              "    rref_mod(np.concatenate([m.dense(), r]), p)\n    rank_mod(m.images(), p)\n"
              "def w(x):\n    return free_map_matrix(x)\n"
              "def h(m):\n    rref_mod(w(1), p)\n    rank_mod(m, p)\n"
              "    kernel_mod(free_map_matrix(2).kernel(), p)\n"
              "    rref_mod(np.concatenate([w(3).T, r]), p)\n")
    makers = slice_map_makers([source])
    assert makers == {"free_map_matrix", "w"}
    assert slice_maps_eliminated(source, makers) == [
        "line 3: kernel_mod", "line 9: rref_mod", "line 12: rref_mod"]


def test_slice_maps_are_eliminated_only_by_their_own_entry():
    # kernels, RREFs and dense forms of slice maps come from SliceMap, which
    # projects tall maps from their nonzeros; handing a map, or its
    # transpose, to a dense elimination would bypass it
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    makers = slice_map_makers(sources.values())
    assert {"_linear_map", "_multiples_span"} <= makers
    found = {name: slice_maps_eliminated(source, makers)
             for name, source in sources.items() if name != "ffield.py"}
    assert not any(found.values()), found


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py, loaded without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", SRC.parents[1] / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_target_resolves(tracer):
    # perfbench/tracer.py looks its TARGETS up by name when it installs, so
    # a renamed or deleted one would otherwise fail only the benchmark run
    assert tracer.TARGETS
    for module, attr, _detail in tracer.TARGETS:
        owner_name, _, name = attr.rpartition(".")
        owner = importlib.import_module(f"scrollres.{module}")
        if owner_name:
            owner = getattr(owner, owner_name)
        assert callable(vars(owner).get(name)), f"scrollres.{module}.{attr} is missing"


def test_tracer_sees_the_chain_a_survey_seed_builds(tracer):
    # the tracer wraps pipeline.build_chain and rebinds every loaded module
    # holding the same function, chain's own name included
    from scrollres import chain

    spans = tracer.Tracer()
    spans.install()
    try:
        result = chain.survey_seed(10007, 1)
    finally:
        spans.uninstall()
    assert result["ok"]
    labels = [span.label for span in spans.spans]
    assert labels.count("pipeline.build_chain") == 1
    assert labels.count("pipeline.survey_seed") == 1
