#!/usr/bin/env python3
"""The eigenvector dichotomy for invariant subspaces.

If lam is a simple eigenvalue of M with right/left eigenvectors v_R and
v_L, every M-invariant subspace W satisfies v_R in W or v_L perp W.  When
M has constant column sums the dichotomy sharpens: every invariant
polydiagonal is a synchrony subspace containing v_R or an evenly tagged
anti-synchrony subspace.
"""

import pathlib

from polydiag import check_constant_column_sums_theorem, check_main_lemma, graph
from polydiag.partitions import typical_element

DATA = pathlib.Path(__file__).parent / "data"

def vec(v):
    return "(" + ",".join(str(x) for x in v) + ")"


a = graph.adjacency_matrix(graph.load_digraph(DATA / "gandgt.json"))
print("Feed-forward 3-cell network, eigenvalues 0 (defective) and 1:")
for lam in (0, 1):
    rep = check_main_lemma(a, lam)
    print("  lambda = %s: v_R = %s, v_L = %s" % (lam, vec(rep.v_right), vec(rep.v_left)))
    for r in rep.rows:
        marks = ("v_R in W" if r.right_in_subspace else "         ",
                 "v_L perp W" if r.left_in_perp else "")
        print("    %-10s %s %s" % (typical_element(r.partition), *marks))
    assert rep.passed

print("\nWeighted 3-cycle with all column sums 3:")
a = graph.adjacency_matrix(graph.load_digraph(DATA / "directed_c4.json"))
rep = check_constant_column_sums_theorem(a)
print("  lambda = %s, v = %s" % (rep.lam, vec(rep.v)))
for r in rep.rows:
    print("    %-10s %-15s contains v: %s" % (typical_element(r.partition), r.label, r.right_in_subspace))
assert rep.passed

print("\nUnweighted directed 3-cycle (column sums 1, v = ones):")
a = graph.adjacency_matrix(graph.load_digraph(DATA / "directed_c3.json"))
rep = check_constant_column_sums_theorem(a)
for r in rep.rows:
    print("    %-10s %-15s contains v: %s" % (typical_element(r.partition), r.label, r.right_in_subspace))
assert rep.passed

print("\nWith an odd number of cells, any invariant anti-synchrony subspace")
print("must park at least one cell at zero: above, every anti-synchrony row")
print("has a 0 in its typical element.")
