"""Lint: every module of src/, tests/ and demos/ uses what it imports,
no module of the package imports numpy, every private module-level name
of the package is used, and every public one is read by a program.

A name bound by an import counts as used when it appears anywhere in the
module as a name (which covers ``name.attr`` and annotations).  ``from
__future__`` imports and the re-exports of ``__init__.py`` files are
exempt.  A private name (one leading underscore) that a module of
src/polydiag/ defines at its top level counts as used when some module of
the package reads it, as a name, an attribute or an import.  A public
top-level name counts as read when a module of src/, bench/ or demos/
reads it; the re-exports of ``__init__.py`` and the tests do not count,
and the names in ``KEEP_UNREAD`` are kept on purpose.  Every name that
bench/ and demos/ take from the package exists, and so do the functions
and methods that ``bench/tracer.py`` names in ``LAYERS``, ``EXTRA`` and
``METHODS``; bench/ is read as text, not imported.  Only the standard
library's ``ast`` is needed to read the sources.
"""

import ast
import contextlib
import importlib
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _modules(tops=("src", "tests", "demos")):
    for top in tops:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def unused_imports(source):
    """(line, name) for each imported name that source never uses."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_unused_imports_detects_each_form():
    source = "from __future__ import annotations\nimport os.path\nimport json as j\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == [(2, "os"), (3, "j"), (4, "b")]
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", list(_modules()))
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path)) as fh:
        assert unused_imports(fh.read()) == []


def numpy_imports(source):
    """(line, module) for each import of numpy or of one of its submodules
    in source, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "numpy":
            found.append((node.lineno, node.module))
    return sorted(found)


def test_numpy_imports_detects_each_form():
    source = ("import numpy\nimport numpy.linalg as la, os\nfrom numpy import random\nfrom numpy.random import x\n"
              "import numbers\nfrom .numpy import y\nfrom . import numpy_tools\ndef f():\n    import numpy as np\n")
    assert numpy_imports(source) == [(1, "numpy"), (2, "numpy.linalg"), (3, "numpy"), (4, "numpy.random"),
                                     (9, "numpy")]


PACKAGE = os.path.join(ROOT, "src", "polydiag")


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")))
def test_package_does_not_import_numpy(name):
    # numpy is a test dependency only
    with open(os.path.join(PACKAGE, name)) as fh:
        assert numpy_imports(fh.read()) == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def definitions(source):
    """(line, name) for each name source binds at its top level."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return out


def names_read(source):
    """Every name source reads: loaded names, attributes and imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unused_private_names(sources):
    """(module, line, name) for each private top-level name of sources, a
    {module: source} map, that no source reads."""
    read = set().union(*map(names_read, sources.values()))
    return [(module, line, name) for module, source in sorted(sources.items())
            for line, name in definitions(source) if _private(name) and name not in read]


def test_unused_private_names_detects_each_form():
    sources = {
        "a.py": "_X = 1\n_Y: int = 2\n__all__ = []\ndef _f():\n    return _X\nclass _C:\n    pass\ndef g():\n    pass\n",
        "b.py": "from .a import _Y\nimport a\na._C\ndef _left():\n    _gone = 3\n",
    }
    assert unused_private_names(sources) == [("a.py", 4, "_f"), ("b.py", 4, "_left")]


def test_no_unused_private_names():
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                sources[name] = fh.read()
    assert unused_private_names(sources) == []


def unread_public_names(sources, readers):
    """(module, line, name) for each public top-level name of sources, a
    {module: source} map, that no source in readers reads."""
    read = set().union(*map(names_read, readers))
    return [(module, line, name) for module, source in sorted(sources.items())
            for line, name in definitions(source) if not name.startswith("_") and name not in read]


def test_unread_public_names_detects_each_form():
    sources = {"a.py": "X = 1\ndef f():\n    return X\ndef g():\n    pass\nclass C:\n    pass\n_h = 2\n__all__ = []\n"}
    readers = [sources["a.py"], "from a import f\nimport a\na.C\n"]
    assert unread_public_names(sources, readers) == [("a.py", 4, "g")]


# Public names kept on purpose even where no program reads them: the
# B-type bijection, the linalg constructors the tests build their fixtures
# with, and the exported rref, rank and is_weakly_connected, which the
# tests use as oracles.
KEEP_UNREAD = {"BTypePartition", "to_btype", "from_btype", "vector", "matrix", "zeros", "identity", "dot",
               "is_weakly_connected", "rank", "rref"}


def _read(path):
    with open(os.path.join(ROOT, path)) as fh:
        return fh.read()


def test_every_public_name_is_read():
    sources = {path: _read(path) for path in _modules(("src",))}
    readers = list(sources.values()) + [_read(path) for path in _modules(("bench", "demos"))]
    assert KEEP_UNREAD <= {name for source in sources.values() for _, name in definitions(source)}
    assert [d for d in unread_public_names(sources, readers) if d[2] not in KEEP_UNREAD] == []


def polydiag_names(source):
    """(line, dotted name) for each name of the package that source imports
    from it or reads as an attribute of a name it binds to one:
    ``from polydiag.m import a``, ``from polydiag import m as x`` then
    ``x.b``, ``import polydiag`` then ``polydiag.c``."""
    tree = ast.parse(source)
    bound, found = {}, []  # local name -> dotted name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name, a.name) for a in node.names if a.name == "polydiag")
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "polydiag":
            for a in node.names:
                bound[a.asname or a.name] = node.module + "." + a.name
                found.append((node.lineno, bound[a.asname or a.name]))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            found.append((node.lineno, bound[node.value.id] + "." + node.attr))
    return sorted(found)


def test_polydiag_names_detects_each_form():
    source = ("import polydiag\nfrom polydiag import cli, invariance as inv\nfrom polydiag.graph import load\n"
              "polydiag.__file__\ncli.main(inv.orbits)\nother.x\n")
    assert polydiag_names(source) == [(2, "polydiag.cli"), (2, "polydiag.invariance"), (3, "polydiag.graph.load"),
                                      (4, "polydiag.__file__"), (5, "polydiag.cli.main"),
                                      (5, "polydiag.invariance.orbits")]


def _exists(dotted):
    """Whether a dotted name of the package names something: an attribute
    at each step, or a submodule."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        if not hasattr(obj, parts[i]) and inspect.ismodule(obj):
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(".".join(parts[: i + 1]))
        if not hasattr(obj, parts[i]):
            return False
        obj = getattr(obj, parts[i])
    return True


def _tracer_literal(name):
    """The literal value of a top-level assignment of bench/tracer.py."""
    for node in ast.parse(_read(os.path.join("bench", "tracer.py"))).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_bench_and_demos_read_names_that_exist():
    # what bench/ and demos/ take from the package, read from their source
    # without importing them: the names they import or read as module
    # attributes, the layers and private functions the tracer wraps, and the
    # methods it reads through a class's __dict__
    paths = [os.path.join(top, name) for top in ("bench", "demos")
             for name in sorted(os.listdir(os.path.join(ROOT, top))) if name.endswith(".py")]
    missing = [(path, line, dotted) for path in paths for line, dotted in polydiag_names(_read(path))
               if not _exists(dotted)]
    missing += [("LAYERS", layer) for layer in _tracer_literal("LAYERS") if not _exists("polydiag." + layer)]
    missing += [("EXTRA", layer, name) for layer, names in _tracer_literal("EXTRA").items() for name in names
                if not _exists("polydiag.%s.%s" % (layer, name))]
    for layer, methods in _tracer_literal("METHODS").items():
        module = importlib.import_module("polydiag." + layer)
        missing += [("METHODS", layer, cls, meth) for cls, meth in methods
                    if meth not in vars(getattr(module, cls, object))]
    assert missing == []
