#!/usr/bin/env python3
"""Weighted Cayley digraphs, their symmetries, and orbit counts.

Equal generator weights can enlarge the automorphism group of a Cayley
digraph beyond the original group; the automorphisms then act on the
invariant subspaces, collapsing them into orbits.
"""

from fractions import Fraction as F

from polydiag import graph
from polydiag.graph import automorphism_generators, cayley_digraph, cyclic_group_table, dihedral_group_table
from polydiag.invariance import invariant_polydiagonals, orbits
from polydiag.partitions import typical_element

t7 = cyclic_group_table(7)
for s, t, label in [(F(1), F(2), "s != t"), (F(1), F(1), "s == t")]:
    g = cayley_digraph(t7, [(1, s), (6, t)])
    _, order = automorphism_generators(g)
    print("Z7 Cayley digraph with %s: automorphism group order %d" % (label, order))

print()
td3 = dihedral_group_table(3)
g = cayley_digraph(td3, [(3, F(1)), (4, F(1))])
gens, order = automorphism_generators(g)
print("D3 Cayley digraph with equal weights: automorphism group order %d" % order)
inv = invariant_polydiagonals(graph.adjacency_matrix(g))
orbs = orbits(inv, gens)
anti = {i for i, (p, c) in enumerate(inv.subspaces) if c.anti_synchrony}
print("%d invariant polydiagonal subspaces in %d orbits" % (len(inv.subspaces), len(orbs)))
print("%d anti-synchrony subspaces in %d orbits" % (len(anti), sum(1 for o in orbs if o[0] in anti)))
print("\norbit representatives (size):")
for o in orbs:
    print("  %-22s %d" % (typical_element(inv.subspaces[o[0]][0]), len(o)))

print("\nEvery vertex-transitive digraph is weight-balanced:")
print("  vertex transitive:", graph.is_vertex_transitive(g, gens))
print("  weight balanced:  ", graph.is_weight_balanced(g))
