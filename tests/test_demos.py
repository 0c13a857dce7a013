"""Demos 01-05 run as scripts and print exactly the pinned output.

Each demo runs in a fresh interpreter with this checkout's ``src`` on the
path; its stdout is compared by sha256, so a change of representation
cannot silently alter the printed examples.  Demo 06 (coupled oscillators,
about 20 s) is left out.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import polydiag

DEMO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos")

STDOUT_SHA256 = {
    "01_polydiagonal_subspaces.py": "a1f5f5e558fc7796158950218bb46af3ad96c9e44b7eb80ae1ff20498cb1c5d6",
    "02_invariant_subspace_lattices.py": "6b079c0fffe215f6af7b3592f429c09e1824f36679dea081dcbf90f74838f923",
    "03_eigenvector_dichotomy.py": "422aab91bfd23c2ef1c7f97d6a3d390f6c9afb2a26a50aedf756160e1f3c805a",
    "04_cayley_digraphs_and_orbits.py": "ba0e7c6797e8a27b37670a27b9e30a60893b3554c9e3b0f04fe178b76122bcf4",
    "05_counting_three_ways.py": "eda169047bb78a8461e4fb9615aefe1ae47a4eb7ad18412c095e5f420cd817ce",
}


@pytest.mark.parametrize("name", STDOUT_SHA256)
def test_demo_prints_pinned_output(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polydiag.__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(DEMO_DIR, name)], capture_output=True, env=env, cwd=tmp_path
    )
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == STDOUT_SHA256[name]
