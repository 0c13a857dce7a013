"""Tagged partitions and the polydiagonal subspaces they encode.

A tagged partition of {1..n} is a set partition together with a partial
involution on its classes having at most one fixed point.  It encodes the
subspace of R^n cut out by x_i = x_j (same class), x_i = -x_j (classes
swapped by the involution) and x_i = 0 (cells of the fixed class).  The
encoding is one-to-one, which makes tagged partitions the canonical name
for these subspaces throughout the package.

A :class:`TaggedPartition` stores one thing, its typical element as a tuple
of signed integers, ``symbols``, one per cell: equal symbols share a class,
opposite symbols are paired classes and 0 is the fixed class.  The symbols
are canonical, so equal partitions are equal tuples: class c, numbered by
its smallest cell, carries c+1 when it is untagged or the first class of
its pair, the second class of a pair carries minus its partner's symbol,
and the fixed class carries 0.  :func:`from_symbols` is the one
canonicalizer: class lists (:func:`tagged`), typical-element strings and
the images of automorphism orbits are built through it.  The enumeration
and the invariance scan skip it, as their symbols are canonical by
construction.  The class-list view (``classes``, ``pairs``, ``fixed``) is
derived from the symbols.

:data:`KINDS` is the one table of subspace kinds, each with its count-table
symbol, its test on the type flags of :func:`classify` and the blocks its
tagged partitions may have: untagged classes, pairs of classes (of equal
sizes or any) and a fixed class (forbidden, optional or required).
``enumerate --filter``, the census and the count table read the tests;
the EGFs of :mod:`polydiag.counting` read the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from string import ascii_lowercase
from typing import NamedTuple

# the most cells an invariance scan takes unless its cap is raised
DEFAULT_SCAN_LIMIT = 8


@dataclass(frozen=True)
class TaggedPartition:
    """Canonical-form tagged partition, stored as its canonical symbols;
    build via :func:`from_symbols`, :func:`tagged` or the parsers."""

    symbols: tuple  # the typical element, one signed int per cell (index cell-1)

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def classes(self) -> tuple:
        """Sorted cell tuples, ordered by smallest cell."""
        out = {}
        for cell, s in enumerate(self.symbols, start=1):
            out.setdefault(s, []).append(cell)
        return tuple(map(tuple, out.values()))

    @property
    def pairs(self) -> tuple:
        """Involution 2-cycles as (i, j) class indices, i < j, sorted."""
        index = _class_index(self.symbols)
        return tuple((i, index[-s]) for s, i in index.items() if s > 0 and -s in index)

    @property
    def fixed(self) -> int | None:
        """Class index of the fixed class, if any."""
        return _class_index(self.symbols).get(0)

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
        """One per untagged class and per pair: the positive symbols."""
        return len({s for s in self.symbols if s > 0})

    def __str__(self):
        return typical_element(self)


def _class_index(symbols) -> dict:
    """{symbol: index of its class}, classes numbered by smallest cell."""
    return {s: c for c, s in enumerate(dict.fromkeys(symbols))}


def from_symbols(symbols) -> TaggedPartition:
    """The tagged partition with one symbol per cell (index cell-1): equal
    symbols share a class, classes with opposite nonzero symbols are paired
    and 0 marks the fixed class.  The symbols are any nonzero integers and 0;
    they are renumbered to the canonical ones, so the result is the same
    whatever they are."""
    canon = {0: 0}
    for c, s in enumerate(dict.fromkeys(symbols), start=1):  # classes by smallest cell
        canon[s] = -canon[-s] if -s in canon else c
    return TaggedPartition(tuple(map(canon.__getitem__, symbols)))


def _class_symbols(m, pairs, fixed) -> list:
    """A symbol for each of m classes: c+1 for class c, minus its partner's
    for the second class of a pair, 0 for the fixed class.  Canonical when
    the classes are ordered by smallest cell and each pair is (i, j), i < j."""
    sym = list(range(1, m + 1))
    for i, j in pairs:
        sym[j] = -sym[i]
    if fixed is not None:
        sym[fixed] = 0
    return sym


def tagged(n, classes, pairs=(), fixed=None) -> TaggedPartition:
    """The tagged partition of {1..n} with these classes (cell lists in any
    order), involution pairs (i, j) of indices into ``classes`` (either way
    round) and fixed class index.  Raises ValueError unless the classes
    partition {1..n} and the pairs and the fixed class are a partial
    involution with at most one fixed point."""
    m = len(classes)
    involved = [c for pair in pairs for c in pair] + ([] if fixed is None else [fixed])
    if len(set(involved)) < len(involved) or not all(0 <= c < m for c in involved):
        raise ValueError("pairs %r and fixed class %r are not a partial involution of %d classes" % (pairs, fixed, m))
    if n < 0 or not all(classes) or sorted(cell for cls in classes for cell in cls) != list(range(1, n + 1)):
        raise ValueError("classes %r do not partition {1..%d}" % (classes, n))
    symbol = {cell: s for s, cls in zip(_class_symbols(m, pairs, fixed), classes) for cell in cls}
    return from_symbols([symbol[cell] for cell in range(1, n + 1)])


class SubspaceClass(NamedTuple):
    """The six type flags of :func:`classify`; a tuple, so that the census
    can tally by it cheaply."""

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
    size = {}
    for s in p.symbols:
        size[s] = size.get(s, 0) + 1
    return _classify(size, [(-s, s) for s in size if s < 0], 0 if 0 in size else None)


def _classify(sizes, pairs, fixed) -> SubspaceClass:
    """:func:`classify` from the class sizes and the involution alone; no
    other property of the partition matters.  ``sizes`` is indexed by
    whatever names the classes in ``pairs`` and ``fixed``: class indices
    in the census, symbols in :func:`classify`.  The flags are passed to
    SubspaceClass by position, in its field order: a keyword call of a
    NamedTuple costs more than the rest of this function, which the
    census calls once per class-size shape and involution type."""
    dom = 2 * len(pairs) + (1 if fixed is not None else 0)
    synchrony = dom == 0
    fully = dom == len(sizes)
    evenly = fully and all(sizes[i] == sizes[j] for i, j in pairs)
    return SubspaceClass(synchrony, not synchrony, not pairs and fixed is not None, fully, evenly, fixed is None)


def type_label(p: TaggedPartition, cls: SubspaceClass | None = None) -> str:
    """Single descriptive label, matching the usual table headings."""
    cls = cls or classify(p)
    if p.n > 0 and not any(p.symbols):  # dimension 0: every cell in the fixed class
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


# {kind: (count-table symbol, test on the SubspaceClass, blocks)} in table
# order.  The blocks are the ones the kind's tagged partitions may have, as
# (untagged, pairs, fixed): untagged classes allowed or not; pairs of
# classes None, "any" or "even" (equal sizes); the fixed class None,
# "optional" or "required".  anti_synchrony, the complement of synchrony,
# has None.  A freely kind (``~``) is its plain kind with no fixed class.
KINDS = {
    "polydiagonal": ("p", lambda c: True, (True, "any", "optional")),
    "synchrony": ("s", lambda c: c.synchrony, (True, None, None)),
    "anti_synchrony": ("a", lambda c: c.anti_synchrony, None),
    "minimally": ("m", lambda c: c.minimally_tagged, (True, None, "required")),
    "fully": ("f", lambda c: c.fully_tagged, (False, "any", "optional")),
    "evenly": ("e", lambda c: c.evenly_tagged, (False, "even", "optional")),
    "freely_evenly": ("e~", lambda c: c.freely_tagged and c.evenly_tagged, (False, "even", None)),
    "freely_fully": ("f~", lambda c: c.freely_tagged and c.fully_tagged, (False, "any", None)),
    "freely": ("p~", lambda c: c.freely_tagged, (True, "any", None)),
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
        for pairs, fixed in _partial_involutions(m):
            sym = _class_symbols(m, pairs, fixed)  # canonical: RGS classes, pairs (i, j) with i < j
            p = TaggedPartition(tuple(map(sym.__getitem__, a)))
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
