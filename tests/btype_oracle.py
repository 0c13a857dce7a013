"""The B-type bijection of tagged partitions, and an independent oracle
for it.

A tagged partition of {1..n} matches a B-type partition of {-n..n}: a
partition closed under negation with exactly one self-negative class, the
one holding 0.  ``to_btype`` and ``from_btype`` map between the two, and
B-type partitions are also enumerated here directly, by filtering all set
partitions of the 2n+1 points, so the tests can check the bijection
against a list that neither map built.
"""

from dataclasses import dataclass

from polydiag.partitions import TaggedPartition, _rgs, from_symbols


@dataclass(frozen=True)
class BTypePartition:
    """Partition of {-n..n} closed under negation with one self-negative class."""

    n: int
    classes: frozenset  # frozenset of frozensets of ints

    def validate(self):
        universe = set(range(-self.n, self.n + 1))
        seen = []
        for q in self.classes:
            seen.extend(q)
            if frozenset(-k for k in q) not in self.classes:
                raise ValueError("classes not closed under negation")
        if sorted(seen) != sorted(universe):
            raise ValueError("classes do not partition {-n..n}")
        self_neg = [q for q in self.classes if q == frozenset(-k for k in q)]
        if len(self_neg) != 1 or 0 not in next(iter(self_neg)):
            raise ValueError("need exactly one self-negative class containing 0")
        return self


def to_btype(p: TaggedPartition) -> BTypePartition:
    """The B-type partition matching p: k and -k go to the classes of the
    symbols s and -s of cell k, and 0 to the class of symbol 0.  So untagged
    classes contribute P and -P, involution pairs P u -P*, and the fixed
    class absorbs 0."""
    groups = {0: {0}}
    for cell, s in enumerate(p.symbols, start=1):
        groups.setdefault(s, set()).add(cell)
        groups.setdefault(-s, set()).add(-cell)
    return BTypePartition(p.n, frozenset(map(frozenset, groups.values()))).validate()


def from_btype(q: BTypePartition) -> TaggedPartition:
    """Inverse of :func:`to_btype`: each cell's symbol is the entry of
    largest absolute value in its class (0 for the class of 0), which
    negates with the class."""
    q.validate()
    symbol = {k: 0 if 0 in cls else max(cls, key=abs) for cls in q.classes for k in cls}
    return from_symbols([symbol[k] for k in range(1, q.n + 1)])


def enumerate_btype_partitions(n):
    """Every partition of {-n..n} closed under negation with exactly one
    self-negative class, as a :class:`BTypePartition`."""
    universe = list(range(-n, n + 1))
    for a in _rgs(len(universe)):
        cells = [[] for _ in range(max(a) + 1)]
        for idx, c in enumerate(a):
            cells[c].append(universe[idx])
        classes = [frozenset(cl) for cl in cells]
        class_set = frozenset(classes)
        if any(frozenset(-k for k in q) not in class_set for q in classes):
            continue
        if sum(1 for q in classes if q == frozenset(-k for k in q)) != 1:
            continue
        yield BTypePartition(n, class_set)
