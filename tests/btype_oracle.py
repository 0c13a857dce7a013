"""Independent oracle for the B-type bijection of ``polydiag.partitions``.

B-type partitions of {-n..n} are enumerated here directly, by filtering all
set partitions of the 2n+1 points, so the tests can check ``to_btype`` and
``from_btype`` against a list that neither of them built.
"""

from polydiag.partitions import BTypePartition, _rgs


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
