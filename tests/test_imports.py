"""Lint: every module of src/, tests/ and demos/ uses what it imports.

A name bound by an import counts as used when it appears anywhere in the
module as a name (which covers ``name.attr`` and annotations).  ``from
__future__`` imports and the re-exports of ``__init__.py`` files are
exempt.  Only the standard library's ``ast`` is needed.
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
