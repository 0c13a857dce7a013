"""Exact M-invariance of polydiagonal subspaces, lattices, and orbit tools.

A matrix enters through one door, :func:`_exact`, which refuses a ragged or
non-square matrix and makes each entry a Fraction with :func:`linalg.frac`.
Every public function here that takes a matrix passes it through once, and
the scan behind it coerces no entry again.

A subspace W is M-invariant when M W is contained in W.  For a polydiagonal
subspace this is decided exactly by applying M to the canonical basis of the
subspace and testing membership of the images (:func:`is_invariant`).  The
scan over all tagged partitions builds them from the smallest free cell up
instead: the cell joins the fixed class, or starts a block (an untagged
class or a pair of classes) whose basis image is checked exactly as soon as
the block is chosen.  Before that check a candidate block is tested on the
few cells whose image value it forces (a second and the last cell of P, the
first and the last of Q, the lowest fixed cell); each test is one equation
of the exact check, so it drops no hit, and it rejects most candidates
without building their image.  The images accepted so far narrow the
candidates for every later block, and for every later fixed cell, to cells
where they take the required values, so most of the Bell(n) set partitions
are never formed.  It is exact, returns the canonical order, and is capped
at n = 8 by default.

The lattice orders the invariant subspaces by inclusion without vectors.
Each subspace Delta_P is encoded by the relations x_i = x_j, x_i = -x_j and
x_i = 0 that hold on all of it, as one n*n-bit integer.  Delta_P is the
solution set of those relations, so Delta_Q <= Delta_P exactly when every
relation of P is a relation of Q, one bitwise test.  Two writers turn a
lattice into text: :func:`lattice_to_json` writes the indent-2 JSON layout
directly, one template per node and per cover, and :func:`lattice_to_dot`
writes Graphviz DOT.  Orbits take generators of a group, such as those
:func:`graph.automorphism_generators` finds, and walk each orbit under the
generators alone, each image looked up by its symbols as it stands or,
failing that, once made canonical in place; the group is never listed.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from .linalg import clear_denominators, frac, nullspace, shifted, transpose
from .partitions import (
    DEFAULT_SCAN_LIMIT,
    SubspaceClass,
    TaggedPartition,
    classify,
    contains,
    orthogonal,
    type_label,
    typical_element,
)


class _Exact(tuple):
    """A square tuple of Fraction rows that :func:`_exact` made."""


def _exact(m) -> tuple:
    """m as a square tuple of Fraction rows.  A ragged or non-square m
    raises ValueError before any entry is read.  A matrix that _exact made
    is returned as it is, so a report hands its matrix on to
    :func:`eigendata` and the scan without coercing it again."""
    if type(m) is _Exact:
        return m
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return _Exact(tuple(frac(x) for x in row) for row in m)


def _int_matrix(mat):
    """The exact matrix mat times the lcm of all its denominators: int
    arithmetic is much faster than Fraction in the inner loop, and scaling
    M by one factor keeps every invariant subspace (scaling its rows apart
    would not)."""
    den = math.lcm(*[x.denominator for row in mat for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in mat]


def _is_invariant_int(mi, p: TaggedPartition) -> bool:
    for plus, minus in p.supports():
        y = []
        for row in mi:
            s = 0
            for j in plus:
                s += row[j]
            for j in minus:
                s -= row[j]
            y.append(s)
        if not contains(p, y):
            return False
    return True


def is_invariant(m, p: TaggedPartition) -> bool:
    """Exact decision of M Delta_P <= Delta_P."""
    mat = _exact(m)
    if len(mat) != p.n:
        raise ValueError("matrix must be %dx%d" % (p.n, p.n))
    return _is_invariant_int(_int_matrix(mat), p)


@dataclass(frozen=True)
class InvariantSet:
    matrix: tuple
    subspaces: tuple  # of (TaggedPartition, SubspaceClass), canonical order

    def partitions(self):
        return [p for p, _ in self.subspaces]


def _levels(g):
    """{value: bitmask of the cells where g takes it}."""
    out = {}
    bit = 1
    for x in g:
        out[x] = out.get(x, 0) | bit
        bit <<= 1
    return out


def _invariant_partitions(mi):
    """(TaggedPartition, SubspaceClass) for every tagged partition that the
    int matrix mi leaves invariant, in canonical order.

    The search decides the smallest free cell a at each step.  Either a
    joins the fixed class, one cell at a time (the first such cell opens
    it), or a starts a block: an untagged class P or a pair (P, Q).  A
    block's basis image g = M(1_P - 1_Q) is final once the block is chosen,
    so it is checked exactly, cell by cell, against this block, every
    earlier one and the fixed cells so far.  The images accepted so far
    also fix which later choices are possible: eq[c] (neg[c]) holds the
    cells where every image equals (minus) its value at c, and zero the
    cells where every image is 0, so P runs over submasks of eq[a], Q over
    submasks of neg[a], and a joins the fixed class only inside zero.  An
    all-zero image constrains nothing, and a block that takes the last free
    cells narrows nothing: it is a hit as soon as its image is checked.

    Before that exact check, a candidate is tested on the few cells whose
    value the block forces: g[a] = g at the second and the last cell of P,
    g = 0 at the lowest fixed cell, and g = -g[a] at the first and the last
    cell of Q.  Each is one of the exact check's own equations, and an
    all-zero image passes them all, so no hit is lost.  The tests on cells
    of P and the fixed cell read M 1_Q only in the columns where their rows
    have entries; Q is split there, and each part of Q in those columns is
    tested once for all the parts outside them.

    The key orders set partitions as restricted growth strings, that is by
    the cells' class minima read as base-(n+1) digits, and then the
    involutions as :func:`partitions._partial_involutions` walks them: per
    block the code 0 untagged, 1 fixed, 2 + min(Q) paired, as base-(n+2)
    digits by block.  The fixed class takes its block's place when its
    smallest cell opens it.  Hits are found in any order and sorted by key
    at the end.

    The symbols are canonical as built: P gets 1 plus the number of class
    minima (each block's r, each Q's lowest cell) below r, Q minus that.
    A hit's flags depend only on the multiset of its blocks' sizes
    (|P|, |Q|), the fixed class's place (0, 0), so
    :func:`partitions.classify` runs once per sorted signature.
    """
    n = len(mi)
    full = (1 << n) - 1
    # Images have a padding cell n, always 0: lowest[fixed] is a cell where
    # every image is 0 even while there is no fixed class.  The tables
    # double with each cell j: A | 2^j for every A over cells below j.
    sums = [[0] * (n + 1)]  # sums[A]: M 1_A
    spread = (n + 2) ** n
    weight = [0]  # weight[A]: the set-partition digit places of the cells of A
    lowest = [n]  # lowest[A]: the smallest cell of A, 0-based
    highest = [-1]  # highest[A]: the largest cell of A
    for j in range(n):
        column = [row[j] for row in mi] + [0]
        digit = (n + 1) ** (n - 1 - j) * spread
        sums += [list(map(operator.add, s, column)) for s in sums]
        weight += [w + digit for w in weight]
        lowest += [j, *lowest[1:]]
        highest += [j] * len(highest)
    nothing = sums[0]
    support = [sum(1 << j for j, x in enumerate(row) if x) for row in mi] + [0]  # nonzero columns per row
    place = [(n + 2) ** (n - 1 - k) for k in range(n)]
    # The decided blocks as (plus, minus, smallest cell of plus), cell
    # bitmasks: (P, 0, r) untagged, (P, Q, r) a pair, and (0, 0, r) the
    # place of the fixed class opened at r.  An image must take one value v
    # on plus and -v on minus.  fixed is the bitmask of the fixed cells.
    blocks = []
    hits = []

    def holds(s, t, fixed):
        """Whether the image s - t takes one value on the plus cells and its
        negative on the minus cells of every block, newest first, and 0 on
        the fixed cells."""
        for p, q, r in reversed(blocks):
            x = s[r] - t[r]
            while p:
                i = lowest[p]
                if s[i] - t[i] != x:
                    return False
                p &= p - 1
            while q:
                i = lowest[q]
                if t[i] - s[i] != x:
                    return False
                q &= q - 1
        while fixed:
            i = lowest[fixed]
            if s[i] != t[i]:
                return False
            fixed &= fixed - 1
        return True

    def accept(s, t, plus, minus, a, free, key, eq, neg, zero, fixed):
        """Recurse past the block (plus, minus) if its image s - t
        satisfies the relations of this block, of every earlier one and of
        the fixed cells so far.  A block that leaves no cell free is a hit
        or nothing: no later choice reads the narrowed candidates."""
        blocks.append((plus, minus, a))
        if not free:
            if s == t or holds(s, t, fixed):
                hits.append((key, tuple(blocks)))
        elif s == t:  # a zero image satisfies every relation and constrains nothing
            search(free, key, eq, neg, zero, fixed)
        elif holds(s, t, fixed):
            g = list(map(operator.sub, s, t))
            lv = _levels(g)  # has 0, the padding cell's value
            search(
                free,
                key,
                list(map(operator.and_, eq, map(lv.__getitem__, g))),
                [e & lv.get(-x, 0) for e, x in zip(neg, g)],
                zero & lv[0],
                fixed,
            )
        blocks.pop()

    def search(free, key, eq, neg, zero, fixed):
        if not free:
            hits.append((key, tuple(blocks)))
            return
        low = free & -free
        a = low.bit_length() - 1
        rest = free ^ low
        code = place[len(blocks)]
        f = lowest[fixed]  # the lowest fixed cell, or the padding cell
        if low & zero:  # a may join the fixed class
            if fixed:
                search(rest, key + f * weight[low], eq, neg, zero, fixed | low)
            else:  # a opens it: a placeholder holds its block's place
                blocks.append((0, 0, a))
                search(rest, key + a * weight[low] + code, eq, neg, zero, low)
                blocks.pop()
        around = support[a] | support[f]
        cand = rest & eq[a]
        sub = cand
        while True:
            plus = low | sub
            left = free ^ plus
            s = sums[plus]
            sa = s[a]
            probe = lowest[sub] if sub else a  # the second cell of P
            top = highest[plus]  # the last cell of P
            if s[probe] == sa == s[top] and not s[f]:
                accept(s, nothing, plus, 0, a, left, key + a * weight[plus], eq, neg, zero, fixed)
            partners = left & neg[a]
            if partners:
                # The image is s - t with t = M 1_Q.  Its values at probe,
                # top and f, against its value at a, read t only in the
                # columns near; Q's part there is tested once, then every
                # part far from them is tried with it.
                d = sa - s[probe]
                e = sa - s[top]
                sf = s[f]
                near = partners & (around | support[probe] | support[top])
                far = partners ^ near
                qn = near
                while True:
                    t = sums[qn]
                    ta = t[a]
                    if ta - t[probe] == d and ta - t[top] == e and t[f] == sf:
                        v = ta - sa  # the image's value on Q
                        qf = far
                        while True:
                            minus = qn | qf
                            if minus:
                                t = sums[minus]
                                q = lowest[minus]
                                last = highest[minus]
                                if s[q] - t[q] == v and s[last] - t[last] == v:
                                    accept(s, t, plus, minus, a, left ^ minus, key + a * weight[plus] + q * weight[minus] + (2 + q) * code, eq, neg, zero, fixed)
                            if not qf:
                                break
                            qf = (qf - 1) & far
                    if not qn:
                        break
                    qn = (qn - 1) & near
            if not sub:
                break
            sub = (sub - 1) & cand

    search(full, 0, [full] * n, [full] * n, full, 0)
    hits.sort()
    flags = {}  # {sorted block-size signature: SubspaceClass}
    out = []
    for _, found in hits:
        minima = 0  # the smallest cell of each class
        for _, minus, r in found:
            minima |= 1 << r | (minus & -minus)
        symbols = [0] * n
        shape = []
        for plus, minus, r in found:
            b = 1 + (minima & ((1 << r) - 1)).bit_count()
            shape.append((plus.bit_count(), minus.bit_count()))
            while plus:
                symbols[lowest[plus]] = b
                plus &= plus - 1
            while minus:
                symbols[lowest[minus]] = -b
                minus &= minus - 1
        p = TaggedPartition(tuple(symbols))
        shape = tuple(sorted(shape))
        if shape not in flags:
            flags[shape] = classify(p)
        out.append((p, flags[shape]))
    return out


def invariant_polydiagonals(m, n_cap=DEFAULT_SCAN_LIMIT) -> InvariantSet:
    """All tagged partitions whose subspace is m-invariant, in canonical
    order, by a block-by-block exact search (see
    :func:`_invariant_partitions`)."""
    if len(m) > n_cap:
        raise ValueError("n=%d exceeds cap %d; pass n_cap to override" % (len(m), n_cap))
    mat = _exact(m)
    return InvariantSet(mat, tuple(_invariant_partitions(_int_matrix(mat))))


# ---------------------------------------------------------------------------
# lattice of invariant subspaces


def _relations(p: TaggedPartition) -> int:
    """Bitmask of the relations that hold on all of Delta_p.

    Bit i*n+j (i < j) stands for x_i = x_j, bit j*n+i for x_i = -x_j and
    bit i*n+i for x_i = 0.  The cells' symbols (:attr:`TaggedPartition.symbols`)
    decide them: equal symbols, opposite symbols, symbol 0.  Row i is read
    off the cell masks of its symbol a (cells above i) and of -a (below i).
    """
    n = p.n
    sym = p.symbols
    cells = _levels(sym)  # {symbol: bitmask of its cells}
    mask = 0
    for i, a in enumerate(sym):
        row = cells[a] >> (i + 1) << (i + 1) | cells.get(-a, 0) & ((1 << i) - 1) | (not a) << i
        mask |= row << (i * n)
    return mask


@dataclass(frozen=True)
class SubspaceLattice:
    nodes: tuple  # of (TaggedPartition, SubspaceClass)
    covers: tuple  # (upper, lower) index pairs: Delta_upper strictly inside Delta_lower


def build_lattice(inv: InvariantSet) -> SubspaceLattice:
    """Cover relations (transitive reduction) of the invariant subspaces
    ordered by reverse inclusion: bottom R^n, top the smallest subspace.

    Containment is decided on the partitions, without vectors:
    Delta_Q <= Delta_P iff every relation of :func:`_relations` that holds
    on Delta_P also holds on Delta_Q.  This is exact, because Delta_P is
    the solution set of its relations.  ``below[i]`` is the bitset of the
    nodes strictly inside Delta_i: those holding all of node i's relations,
    of smaller dimension.  Taken in falling dimension, a node of below[i]
    not below an earlier cover of i is itself a cover of i, filed under
    its upper node so that the pairs come out sorted.
    """
    nodes = inv.subspaces
    rels = [_relations(p) for p, _ in nodes]
    dims = [p.dimension() for p, _ in nodes]
    n = len(inv.matrix)
    holders = [0] * (n * n)  # holders[r]: the nodes on which relation r holds
    by_dim = [0] * (n + 1)
    for j, (r, d) in enumerate(zip(rels, dims)):
        bit = 1 << j
        while r:
            low = r & -r
            holders[low.bit_length() - 1] |= bit
            r ^= low
        by_dim[d] |= bit
    smaller = [0, *accumulate(by_dim, operator.or_)]  # smaller[d]: the nodes of dimension below d
    below = []
    for r, d in zip(rels, dims):
        inside = smaller[d]
        while r:
            low = r & -r
            inside &= holders[low.bit_length() - 1]
            r ^= low
        below.append(inside)
    lowers = [[] for _ in nodes]  # lowers[j]: the nodes j covers, ascending
    for i, d in enumerate(dims):
        reached = 0
        for e in range(d - 1, -1, -1):
            x = below[i] & by_dim[e] & ~reached
            while x:
                low = x & -x
                j = low.bit_length() - 1
                lowers[j].append(i)  # j is directly above i
                reached |= below[j]
                x ^= low
    return SubspaceLattice(nodes, tuple((j, i) for j, found in enumerate(lowers) for i in found))


_JSON_NODE = '    {\n      "typical": %s,\n      "class": %s\n    }'
_JSON_COVER = "    [\n      %d,\n      %d\n    ]"


def _json_list(items):
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def lattice_to_json(lat: SubspaceLattice) -> str:
    """The lattice as JSON text with no trailing newline, byte for byte as
    ``json.dumps(..., indent=2)`` writes ``{"nodes": [{"typical": ...,
    "class": ...}, ...], "covers": [[upper, lower], ...]}``."""
    nodes = [
        _JSON_NODE
        % (
            encode_basestring_ascii(typical_element(p)),
            encode_basestring_ascii(type_label(p, cls).replace(" ", "_").replace("-", "_")),
        )
        for p, cls in lat.nodes
    ]
    covers = [_JSON_COVER % c for c in lat.covers]
    return '{\n  "nodes": %s,\n  "covers": %s\n}' % (_json_list(nodes), _json_list(covers))


_DOT_COLORS = {
    "synchrony": "black",
    "trivial": "gray40",
    "evenly tagged": "blue",
    "fully tagged": "red",
    "minimally tagged": "darkgreen",
    "anti-synchrony": "orange",
}


def lattice_to_dot(lat: SubspaceLattice) -> str:
    lines = ["digraph lattice {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    for idx, (p, cls) in enumerate(lat.nodes):
        label = type_label(p, cls)
        lines.append(
            '  n%d [label="%s", color=%s];'
            % (idx, typical_element(p), _DOT_COLORS.get(label, "black"))
        )
    for upper, lower in lat.covers:
        lines.append("  n%d -> n%d;" % (lower, upper))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# automorphism orbits


def orbits(inv: InvariantSet, generators):
    """Orbits of the invariant subspaces under the group of vertex
    relabelings that ``generators`` generate.

    Each generator must be a permutation of 1..n, as an image tuple
    (checked); any list of them will do, :func:`graph.automorphism_generators`
    among them.  Returns a list of orbits, each a tuple of node indices
    into inv.subspaces, in order of their smallest index.  The image of p
    under phi has at cell phi[i-1] the symbol p has at cell i, read through
    phi's inverse, one C-level ``itemgetter`` call per image.  An image
    that is a key of the index as it stands is canonical already (the
    renumbering leaves a canonical tuple as it is), and with generators
    that swap two cells most images are.  Any other image is made
    canonical in place, its symbols renumbered by first appearance as
    :func:`partitions.from_symbols` does, and looked up as a tuple of
    symbols.
    """
    n = len(inv.matrix)
    cells = list(range(1, n + 1))
    if any(sorted(phi) != cells for phi in generators):
        raise ValueError("automorphisms must be permutations of 1..%d" % n)
    # 0-based inverses; below two cells every permutation is the identity
    gets = [operator.itemgetter(*sorted(range(n), key=phi.__getitem__)) for phi in generators] if n > 1 else []
    index = {p.symbols: i for i, (p, _) in enumerate(inv.subspaces)}
    seen = [False] * len(index)
    out = []
    for i in range(len(seen)):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        for j in orbit:  # grows while it is walked
            q = inv.subspaces[j][0].symbols
            for get in gets:
                image = get(q)
                k = index.get(image)
                if k is None:
                    canon = {0: 0}
                    for c, s in enumerate(dict.fromkeys(image), start=1):  # classes by smallest cell
                        canon[s] = -canon[-s] if -s in canon else c
                    r = tuple(map(canon.__getitem__, image))
                    k = index.get(r)
                    if k is None:
                        raise ValueError(
                            "image %s of %s is not in the invariant set; "
                            "are these automorphisms of the right digraph?"
                            % (typical_element(TaggedPartition(r)), typical_element(inv.subspaces[j][0]))
                        )
                if not seen[k]:
                    seen[k] = True
                    orbit.append(k)
        out.append(tuple(sorted(orbit)))
    return out


# ---------------------------------------------------------------------------
# eigen data and the eigenvector dichotomy


@dataclass(frozen=True)
class EigenData:
    lam: Fraction
    right_basis: tuple  # nullspace of M - lam I
    left_basis: tuple  # nullspace of M^T - lam I


def eigendata(m, lam) -> EigenData:
    """Nullspace bases of m - lam I and m^T - lam I, exact."""
    m = _exact(m)
    lam = frac(lam)
    right = nullspace(shifted(m, lam))
    left = nullspace(shifted(transpose(m), lam))
    return EigenData(lam, tuple(right), tuple(left))


@dataclass(frozen=True)
class DichotomyRow:
    partition: TaggedPartition
    cls: SubspaceClass
    right_in_subspace: bool
    left_in_perp: bool

    @property
    def label(self):
        return type_label(self.partition, self.cls)

    @property
    def ok(self):
        return self.right_in_subspace or self.left_in_perp

    @property
    def sharpened(self):
        """The constant-column-sums conclusion: a synchrony subspace
        containing v or an evenly tagged one without it."""
        has_v = self.right_in_subspace
        return (self.cls.synchrony and has_v) or (self.cls.evenly_tagged and not has_v)


def dichotomy_rows(m, eig: EigenData) -> tuple:
    """One DichotomyRow per m-invariant polydiagonal W, in canonical order:
    whether v_R lies in W and whether v_L is perpendicular to W, for the
    eigenvectors of eig.  Raises ValueError before the scan unless
    eig.lam is a simple eigenvalue.

    Both tests are scale-free, W being a subspace, so they are made on
    the int multiples of v_R and v_L from :func:`linalg.clear_denominators`
    (a positive factor each), which compare and add much faster than
    Fractions and give the same answers."""
    if len(eig.right_basis) != 1:
        raise ValueError("eigenvalue %s has geometric multiplicity %d, need 1" % (eig.lam, len(eig.right_basis)))
    v_r, v_l = clear_denominators((eig.right_basis[0], eig.left_basis[0]))
    found = invariant_polydiagonals(m).subspaces
    return tuple(DichotomyRow(p, cls, contains(p, v_r), orthogonal(p, v_l)) for p, cls in found)


@dataclass(frozen=True)
class MainLemmaReport:
    lam: Fraction
    v_right: tuple
    v_left: tuple
    rows: tuple  # of DichotomyRow

    @property
    def passed(self):
        return all(r.ok for r in self.rows)

    def violations(self):
        return [r for r in self.rows if not r.ok]


def check_main_lemma(m, lam) -> MainLemmaReport:
    """For a simple eigenvalue lam, test every invariant polydiagonal W for
    v_R in W or v_L perpendicular to W, recording which disjunct holds.
    Raises ValueError for a non-square matrix or a lam that is not
    simple.  Entries go through :func:`linalg.frac`."""
    m = _exact(m)
    eig = eigendata(m, lam)
    rows = dichotomy_rows(m, eig)  # raises before right_basis[0] is read
    return MainLemmaReport(eig.lam, eig.right_basis[0], eig.left_basis[0], rows)


@dataclass(frozen=True)
class ColumnSumsReport:
    reason: str | None  # the failed hypothesis, None when all hold
    lam: Fraction | None
    v: tuple | None
    rows: tuple  # of DichotomyRow

    @property
    def hypotheses_met(self):
        return self.reason is None

    @property
    def passed(self):
        return self.hypotheses_met and all(r.sharpened for r in self.rows)

    def violations(self):
        return [r for r in self.rows if not r.sharpened]


def check_constant_column_sums_theorem(m) -> ColumnSumsReport:
    """Constant-column-sums dichotomy: every invariant polydiagonal must be a
    synchrony subspace containing v or an evenly tagged anti-synchrony
    subspace not containing v (:attr:`DichotomyRow.sharpened`).
    Hypothesis violations are reported, not raised; a non-square matrix
    raises ValueError.  Entries go through :func:`linalg.frac`."""
    m = _exact(m)
    n = len(m)
    sums = [sum(row[j] for row in m) for j in range(n)]
    if len(set(sums)) > 1:
        return ColumnSumsReport("column sums are not constant", None, None, ())
    lam = sums[0] if sums else Fraction(0)
    eig = eigendata(m, lam)
    if len(eig.right_basis) != 1:
        return ColumnSumsReport(
            "eigenvalue %s has geometric multiplicity %d" % (lam, len(eig.right_basis)), lam, None, ()
        )
    v = eig.right_basis[0]
    w = clear_denominators((v,))[0]  # the test is scale-free, as in dichotomy_rows
    if any(w[i] + w[j] == 0 for i in range(n) for j in range(i, n)):
        return ColumnSumsReport("eigenvector has v_i + v_j = 0 for some i, j", lam, v, ())
    return ColumnSumsReport(None, lam, v, dichotomy_rows(m, eig))


def report_to_json(report) -> str:
    """Serialize a lemma/theorem report for the CLI."""
    if isinstance(report, MainLemmaReport):
        d = {"lambda": str(report.lam), "v_right": _strs(report.v_right), "v_left": _strs(report.v_left)}
        flags = [{"v_right_in_subspace": r.right_in_subspace, "v_left_in_perp": r.left_in_perp} for r in report.rows]
    else:
        d = {
            "hypotheses_met": report.hypotheses_met,
            "reason": report.reason,
            "lambda": None if report.lam is None else str(report.lam),
            "v": None if report.v is None else _strs(report.v),
        }
        flags = [{"contains_v": r.right_in_subspace, "conclusion_holds": r.sharpened} for r in report.rows]
    d["passed"] = report.passed
    d["rows"] = [{"typical": typical_element(r.partition), "label": r.label, **f} for r, f in zip(report.rows, flags)]
    return json.dumps(d, indent=2)


def _strs(v):
    return [str(x) for x in v]
