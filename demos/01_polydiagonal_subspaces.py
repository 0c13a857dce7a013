#!/usr/bin/env python3
"""Tour of tagged partitions and the subspaces they name.

A polydiagonal subspace of R^n is cut out by constraints x_i = x_j,
x_i = -x_j, and x_i = 0.  Each one is encoded by a unique tagged partition
and printed as a "typical element" such as (a,-a,b,0).
"""

from polydiag.partitions import basis, classify, enumerate_tagged_partitions, tagged, type_label, typical_element

print("All six polydiagonal subspaces of R^2:")
for p in enumerate_tagged_partitions(2):
    print("  %-8s %s" % (typical_element(p), type_label(p)))

print("\nThe 24 subspaces of R^3, grouped by type:")
groups = {}
for p in enumerate_tagged_partitions(3):
    groups.setdefault(type_label(p), []).append(typical_element(p))
for label, members in sorted(groups.items()):
    print("  %-18s %2d: %s" % (label, len(members), " ".join(members)))

print("\nA 6-cell example: classes {1},{2,4},{3},{5,6}, involution")
print("swapping {1} with {2,4} and fixing {5,6}:")
p = tagged(6, [[1], [2, 4], [3], [5, 6]], pairs=[(0, 1)], fixed=3)
print("  typical element:", typical_element(p))
print("  basis:", [tuple(int(x) for x in b) for b in basis(p)])
c = classify(p)
print("  anti-synchrony: %s, fully tagged: %s" % (c.anti_synchrony, c.fully_tagged))
