"""The breadth-first group closure, kept as an oracle.

``invariance._generators`` grows the group by cosets; the tests check its
generators and its verdicts against this direct form, which composes every
element it reaches with every generator.
"""

from polydiag.graph import perm_compose


def generators(autos, n):
    """Generators of ``autos``, picked greedily, after checking that
    ``autos`` is exactly a group of permutations of 1..n: the group is
    grown from the identity by right multiplication with the generators,
    each new element checked against ``autos``."""
    members = set(autos)
    cells = list(range(1, n + 1))
    if any(sorted(a) != cells for a in members):
        raise ValueError("automorphisms must be permutations of 1..%d" % n)
    group = {tuple(cells)}
    gens = []
    for a in autos:
        if a in group:
            continue
        gens.append(a)
        frontier = list(group)
        while frontier:
            new = []
            for g in frontier:
                for s in gens:
                    h = perm_compose(g, s)
                    if h not in group:
                        if h not in members:
                            raise ValueError("automorphism list is not closed under composition")
                        group.add(h)
                        new.append(h)
            frontier = new
    if group != members:
        raise ValueError("automorphism list is not a group: the identity is missing")
    return gens
