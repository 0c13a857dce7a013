#!/usr/bin/env python3
"""Counting subspace types three independent ways.

Exponential generating functions, recurrences, and a census that weights
each type of tagged partition by its number must produce the same numbers;
the table prints all three sources fused, with a cross-check column.
"""

from polydiag import counting

table = counting.count_table(8)
print(counting.table_to_markdown(table))

print("Per-type EGF identities (checked to order 12):")
order = 12
ex = counting.exp_x(order)
checks = [
    ("evenly = freely-evenly * e^x", counting.egf("evenly", order), counting.egf("freely_evenly", order) * ex),
    ("fully = freely-fully * e^x", counting.egf("fully", order), counting.egf("freely_fully", order) * ex),
    ("polydiagonal = synchrony * fully", counting.egf("polydiagonal", order),
     counting.egf("synchrony", order) * counting.egf("fully", order)),
]
for name, lhs, rhs in checks:
    print("  %-34s %s" % (name, "ok" if lhs.coeffs == rhs.coeffs else "MISMATCH"))

print("\nminimally tagged counts are successive Bell differences:")
for n in range(6):
    b_n = counting.recurrence_count("synchrony", n)
    b_n1 = counting.recurrence_count("synchrony", n + 1)
    m_n = counting.recurrence_count("minimally", n)
    print("  m_%d = B_%d - B_%d = %d - %d = %d" % (n, n + 1, n, b_n1, b_n, m_n))

print("\nEvenly tagged subspaces are rare among anti-synchrony ones:")
for n in (4, 6, 8):
    e = counting.egf_count("evenly", n)
    a = counting.egf_count("anti_synchrony", n)
    print("  n=%d: %d of %d (%.1f%%)" % (n, e, a, 100.0 * e / a))
