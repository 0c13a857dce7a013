"""Lint: every module of src/, tests/ and demos/ uses what it imports,
and every private module-level name of the package is used.

A name bound by an import counts as used when it appears anywhere in the
module as a name (which covers ``name.attr`` and annotations).  ``from
__future__`` imports and the re-exports of ``__init__.py`` files are
exempt.  A private name (one leading underscore) that a module of
src/polydiag/ defines at its top level counts as used when some module of
the package reads it, as a name, an attribute or an import.  Only the
standard library's ``ast`` is needed.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _modules():
    for top in ("src", "tests", "demos"):
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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_definitions(source):
    """(line, name) for each private name source binds at its top level."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in out if _private(name)]


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
            for line, name in private_definitions(source) if name not in read]


def test_unused_private_names_detects_each_form():
    sources = {
        "a.py": "_X = 1\n_Y: int = 2\n__all__ = []\ndef _f():\n    return _X\nclass _C:\n    pass\ndef g():\n    pass\n",
        "b.py": "from .a import _Y\nimport a\na._C\ndef _left():\n    _gone = 3\n",
    }
    assert unused_private_names(sources) == [("a.py", 4, "_f"), ("b.py", 4, "_left")]


def test_no_unused_private_names():
    package = os.path.join(ROOT, "src", "polydiag")
    sources = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                sources[name] = fh.read()
    assert unused_private_names(sources) == []
