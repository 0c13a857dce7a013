"""Tagged partitions and the polydiagonal subspaces they encode.

A tagged partition of {1..n} is a set partition together with a partial
involution on its classes having at most one fixed point.  It encodes the
subspace of R^n cut out by x_i = x_j (same class), x_i = -x_j (classes
swapped by the involution) and x_i = 0 (cells of the fixed class).  The
encoding is one-to-one, which makes tagged partitions the canonical name
for these subspaces throughout the package.

Classes are kept in canonical form: each class is a sorted tuple of cells,
classes are ordered by smallest member, involution 2-cycles are stored
once as (i, j) with i < j in class-index terms.

Every per-cell view goes through one encoding, the typical element as a
tuple of signed integers, ``TaggedPartition.symbols``: equal symbols share a
class, opposite symbols are paired classes and 0 is the fixed class.
:func:`from_symbols` is its inverse and the one way to build a partition
from cell data; typical-element strings, membership, basis supports,
relabelling and the B-type bijection are all read from or built through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from string import ascii_lowercase


@dataclass(frozen=True)
class TaggedPartition:
    """Canonical-form tagged partition; build via :func:`tagged`,
    :func:`from_symbols` or the parsers."""

    n: int
    classes: tuple  # tuple of sorted cell tuples, ordered by min member
    pairs: tuple  # involution 2-cycles as (i, j) class indices, i < j
    fixed: int | None = None  # class index of the fixed point, if any

    def validate(self):
        seen = set()
        for cls in self.classes:
            if not cls or tuple(sorted(cls)) != cls:
                raise ValueError("classes must be nonempty sorted tuples")
            seen.update(cls)
        if seen != set(range(1, self.n + 1)) or sum(map(len, self.classes)) != self.n:
            raise ValueError("classes do not partition {1..n}")
        mins = [cls[0] for cls in self.classes]
        if mins != sorted(mins):
            raise ValueError("classes not ordered by smallest member")
        m = len(self.classes)
        used = set()
        for i, j in self.pairs:
            if not (0 <= i < j < m):
                raise ValueError("bad involution pair")
            if i in used or j in used:
                raise ValueError("involution classes overlap")
            used.update((i, j))
        if list(self.pairs) != sorted(self.pairs):
            raise ValueError("pairs not in canonical order")
        if self.fixed is not None:
            if not 0 <= self.fixed < m:
                raise ValueError("fixed class out of range")
            if self.fixed in used:
                raise ValueError("fixed class also paired")
        return self

    @cached_property
    def symbols(self):
        """The typical element as one signed integer per cell (index cell-1):
        0 on the fixed class, c+1 on class c when it is untagged or the first
        of its pair (c, d), and -(c+1) on class d.  Computed once per object;
        :func:`from_symbols` is its inverse."""
        sym = list(range(1, len(self.classes) + 1))
        for i, j in self.pairs:
            sym[j] = -sym[i]
        if self.fixed is not None:
            sym[self.fixed] = 0
        out = [0] * self.n
        for s, cls in zip(sym, self.classes):
            for cell in cls:
                out[cell - 1] = s
        return tuple(out)

    def supports(self):
        """(plus, minus) 0-based cell lists of each canonical basis vector.

        One entry per untagged class and per involution pair (smaller class
        index first), nothing for the fixed class; see :func:`basis`.
        """
        out = {}
        for cell, s in enumerate(self.symbols):
            if s:
                out.setdefault(abs(s), ([], []))[s < 0].append(cell)
        return list(out.values())

    def dimension(self) -> int:
        untagged = len(self.classes) - 2 * len(self.pairs) - (self.fixed is not None)
        return untagged + len(self.pairs)

    def __str__(self):
        return typical_element(self)


def tagged(n, classes, pairs=(), fixed=None) -> TaggedPartition:
    """Build a TaggedPartition from possibly non-canonical data."""
    classes = [tuple(sorted(cls)) for cls in classes]
    order = sorted(range(len(classes)), key=lambda i: classes[i][0] if classes[i] else 0)
    rankmap = {old: new for new, old in enumerate(order)}
    new_classes = tuple(classes[i] for i in order)
    new_pairs = tuple(sorted(tuple(sorted((rankmap[i], rankmap[j]))) for i, j in pairs))
    new_fixed = rankmap[fixed] if fixed is not None else None
    return TaggedPartition(n, new_classes, new_pairs, new_fixed).validate()


def from_symbols(symbols) -> TaggedPartition:
    """The tagged partition with one symbol per cell (index cell-1): equal
    symbols share a class, classes with opposite nonzero symbols are paired
    and 0 marks the fixed class.  The symbols are any nonzero integers and 0;
    the result is canonical whatever they are, since classes come out in
    order of their smallest cell."""
    index = {}
    classes = []
    for cell, s in enumerate(symbols, start=1):
        if s not in index:
            index[s] = len(classes)
            classes.append([])
        classes[index[s]].append(cell)
    pairs = tuple((i, index[-s]) for s, i in index.items() if s and index.get(-s, -1) > i)
    return TaggedPartition(len(symbols), tuple(map(tuple, classes)), pairs, index.get(0))


@dataclass(frozen=True)
class SubspaceClass:
    synchrony: bool
    anti_synchrony: bool
    minimally_tagged: bool
    fully_tagged: bool
    evenly_tagged: bool
    freely_tagged: bool


def classify(p: TaggedPartition) -> SubspaceClass:
    """Set the six type flags for a tagged partition.

    synchrony: empty involution.  minimally tagged: involution domain is a
    single (fixed) class.  fully tagged: involution defined on every class.
    evenly tagged: fully tagged and paired classes have equal sizes.
    freely tagged: no fixed point.
    """
    return _classify(tuple(map(len, p.classes)), p.pairs, p.fixed)


def _classify(sizes, pairs, fixed) -> SubspaceClass:
    """:func:`classify` from the class sizes (indexed like the classes) and
    the involution alone; no other property of the partition matters."""
    dom = 2 * len(pairs) + (1 if fixed is not None else 0)
    synchrony = dom == 0
    fully = dom == len(sizes)
    evenly = fully and all(sizes[i] == sizes[j] for i, j in pairs)
    return SubspaceClass(
        synchrony=synchrony,
        anti_synchrony=not synchrony,
        minimally_tagged=(not pairs and fixed is not None),
        fully_tagged=fully,
        evenly_tagged=evenly,
        freely_tagged=fixed is None,
    )


def type_label(p: TaggedPartition, cls: SubspaceClass | None = None) -> str:
    """Single descriptive label, matching the usual table headings."""
    cls = cls or classify(p)
    if p.n > 0 and p.dimension() == 0:
        return "trivial"
    if cls.synchrony:
        return "synchrony"
    if cls.evenly_tagged:
        return "evenly tagged"
    if cls.fully_tagged:
        return "fully tagged"
    if cls.minimally_tagged:
        return "minimally tagged"
    return "anti-synchrony"


FILTERS = {
    "synchrony": lambda c: c.synchrony,
    "anti-synchrony": lambda c: c.anti_synchrony,
    "minimally": lambda c: c.minimally_tagged,
    "fully": lambda c: c.fully_tagged,
    "evenly": lambda c: c.evenly_tagged,
    "freely": lambda c: c.freely_tagged,
    "freely-fully": lambda c: c.freely_tagged and c.fully_tagged,
    "freely-evenly": lambda c: c.freely_tagged and c.evenly_tagged,
}


# ---------------------------------------------------------------------------
# enumeration


def _rgs(n):
    """Restricted growth strings of length n in lexicographic order.

    Yields an internal list that is mutated in place; consume immediately.
    """
    if n == 0:
        yield []
        return
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i])
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] >= b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        nb = 1 + max(b[i] - 1, a[i])
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = nb


def _partial_involutions(m):
    """All partial involutions with at most one fixed point on {0..m-1}.

    Yields (pairs, fixed) in a deterministic order: at each smallest free
    index the options are untagged, fixed (if still available), then paired
    with each larger free index in ascending order.
    """

    def rec(avail, pairs, fixed):
        if not avail:
            yield tuple(pairs), fixed
            return
        i = avail[0]
        rest = avail[1:]
        yield from rec(rest, pairs, fixed)
        if fixed is None:
            yield from rec(rest, pairs, i)
        for idx in range(len(rest)):
            pairs.append((i, rest[idx]))
            yield from rec(rest[:idx] + rest[idx + 1 :], pairs, fixed)
            pairs.pop()

    yield from rec(tuple(range(m)), [], None)


def enumerate_tagged_partitions(n, pred=None):
    """Stream every tagged partition of {1..n} exactly once.

    The order is canonical: set partitions in restricted-growth-string
    order, involutions in the order of :func:`_partial_involutions`.
    ``pred``, if given, filters on the SubspaceClass of each partition.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    for a in _rgs(n):
        m = max(a) + 1 if a else 0
        cells = [[] for _ in range(m)]
        for cell0, c in enumerate(a):
            cells[c].append(cell0 + 1)
        classes = tuple(tuple(cl) for cl in cells)
        for pairs, fixed in _partial_involutions(m):
            p = TaggedPartition(n, classes, pairs, fixed)
            if pred is None or pred(classify(p)):
                yield p


# ---------------------------------------------------------------------------
# typical elements


def _letter(i: int) -> str:
    return ascii_lowercase[i] if i < 26 else "a%d" % (i - 25)


def typical_element(p: TaggedPartition) -> str:
    """Symbolic vector such as ``(a,-a,b,0)`` naming the subspace.

    Letters are assigned in order of first appearance, so the first ``a``
    precedes both ``-a`` and ``b``, etc.
    """
    name = {0: "0"}
    for s in p.symbols:
        if s not in name:  # s > 0: the first class of a pair comes first
            name[s] = _letter(len(name) // 2)
            name[-s] = "-" + name[s]
    return "(" + ",".join(map(name.__getitem__, p.symbols)) + ")"


def parse_typical_element(s: str) -> TaggedPartition:
    """Inverse of :func:`typical_element`; rejects non-canonical strings."""
    body = s.strip().replace("−", "-").replace(" ", "")
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError("typical element must be parenthesized: %r" % s)
    body = body[1:-1]
    toks = body.split(",") if body else []
    ids = {}
    symbols = []
    for t in toks:
        if t == "0":
            symbols.append(0)
            continue
        sign = t.startswith("-")
        name = t[1:] if sign else t
        if not name or name[0] not in ascii_lowercase or (name[1:] and not name[1:].isdigit()):
            raise ValueError("bad symbol %r" % t)
        k = ids.setdefault(name, len(ids) + 1)
        symbols.append(-k if sign else k)
    p = from_symbols(symbols)
    if typical_element(p) != "(" + ",".join(toks) + ")":
        raise ValueError("%r violates the symbol ordering convention" % s)
    return p


# ---------------------------------------------------------------------------
# the subspace itself


def basis(p: TaggedPartition):
    """Canonical basis of the subspace.

    One indicator vector per untagged class, one e_P - e_P* per involution
    pair (smaller class index first), nothing for the fixed class.
    """
    vecs = []
    for plus, minus in p.supports():
        v = [Fraction(0)] * p.n
        for c in plus:
            v[c] = Fraction(1)
        for c in minus:
            v[c] = Fraction(-1)
        vecs.append(tuple(v))
    return vecs


def contains(p: TaggedPartition, x) -> bool:
    """Membership of a vector in the subspace, decided exactly."""
    if len(x) != p.n:
        raise ValueError("dimension mismatch")
    value = {0: 0}  # the value x must take on each symbol
    for s, xi in zip(p.symbols, x):
        if s not in value:
            value[s], value[-s] = xi, -xi
        elif xi != value[s]:
            return False
    return True


def orthogonal(p: TaggedPartition, v) -> bool:
    """True iff v is orthogonal to the subspace, decided exactly: its dot
    product with every canonical basis vector is 0."""
    if len(v) != p.n:
        raise ValueError("dimension mismatch")
    return all(sum(v[c] for c in plus) == sum(v[c] for c in minus) for plus, minus in p.supports())


def orthogonal_to_ones(p: TaggedPartition) -> bool:
    """True iff the all-ones vector is orthogonal to the subspace."""
    return orthogonal(p, [1] * p.n)


def relabel(p: TaggedPartition, perm) -> TaggedPartition:
    """Image of p under a vertex permutation (perm[i-1] is the image of i)."""
    if sorted(perm) != list(range(1, p.n + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (p.n, perm))
    symbols = [0] * p.n
    for cell, s in zip(perm, p.symbols):
        symbols[cell - 1] = s
    return from_symbols(symbols)


# ---------------------------------------------------------------------------
# B-type partitions of {-n..n}


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
    """Direct enumeration of B-type partitions of {-n..n} (independent of
    the bijection above): filter all set partitions of the 2n+1 points."""
    universe = list(range(-n, n + 1))
    for a in _rgs(len(universe)):
        m = max(a) + 1 if a else 0
        cells = [[] for _ in range(m)]
        for idx, c in enumerate(a):
            cells[c].append(universe[idx])
        classes = [frozenset(cl) for cl in cells]
        class_set = frozenset(classes)
        if any(frozenset(-k for k in q) not in class_set for q in classes):
            continue
        if sum(1 for q in classes if q == frozenset(-k for k in q)) != 1:
            continue
        yield BTypePartition(n, class_set)


# ---------------------------------------------------------------------------
# JSON form


def to_json_dict(p: TaggedPartition) -> dict:
    d = {
        "n": p.n,
        "classes": [list(cls) for cls in p.classes],
        "involution": {str(i): j for i, j in p.pairs},
    }
    if p.fixed is not None:
        d["fixed"] = p.fixed
    return d


def from_json_dict(d: dict) -> TaggedPartition:
    pairs = [(int(i), int(j)) for i, j in d.get("involution", {}).items()]
    return tagged(d["n"], d["classes"], pairs, d.get("fixed"))


def to_json(p: TaggedPartition) -> str:
    return json.dumps(to_json_dict(p))


def from_json(s: str) -> TaggedPartition:
    return from_json_dict(json.loads(s))
