#!/usr/bin/env python3
"""Invariant polydiagonal subspaces of three small networks.

For a matrix M, a subspace W is M-invariant when M W is inside W.  The
scan below decides this exactly for every polydiagonal subspace and
assembles the invariant ones into a lattice under reverse inclusion.
"""

import pathlib

from polydiag import build_lattice, invariant_polydiagonals, graph
from polydiag.invariance import lattice_to_dot, type_label
from polydiag.partitions import typical_element

DATA = pathlib.Path(__file__).parent / "data"

for name, which in [
    ("lapdirichlet", "adjacency"),
    ("gandgt", "adjacency"),
    ("threev_one_edge", "laplacian"),
]:
    g = graph.load_digraph(DATA / ("%s.json" % name))
    m = graph.adjacency_matrix(g) if which == "adjacency" else graph.laplacian_matrix(g)
    inv = invariant_polydiagonals(m)
    print("%s (%s matrix): %d invariant polydiagonal subspaces" % (name, which, len(inv.subspaces)))
    for p, cls in inv.subspaces:
        print("  %-12s %s" % (typical_element(p), type_label(p, cls)))
    lat = build_lattice(inv)
    print("  cover relations:", lat.covers)
    dot_path = pathlib.Path("/tmp/%s_lattice.dot" % name)
    dot_path.write_text(lattice_to_dot(lat))
    print("  wrote %s (render with graphviz)\n" % dot_path)

g = graph.load_digraph(DATA / "threev_one_edge.json")
print("The disconnected graph shows all five anti-synchrony flavors;")
print("a connected graph would forbid the non-evenly-tagged ones.")
inv = invariant_polydiagonals(graph.laplacian_matrix(g))
bad = [typical_element(p) for p, c in inv.subspaces if c.anti_synchrony and not c.evenly_tagged]
print("not evenly tagged:", ", ".join(bad))
