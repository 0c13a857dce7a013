"""Exact M-invariance of polydiagonal subspaces, lattices, and orbit tools.

A subspace W is M-invariant when M W is contained in W.  For a polydiagonal
subspace this is decided exactly by applying M to the canonical basis of the
subspace and testing membership of the images (:func:`is_invariant`).  The
scan over all tagged partitions builds them one block at a time instead (an
untagged class, the fixed class, or a pair of classes), and checks each
block's basis image exactly as soon as the block is chosen.  The images
accepted so far narrow the candidates for every later block to cells where
they take the required values, so most of the Bell(n) set partitions are
never formed.  It is exact, returns the canonical order, and is capped at
n = 8 by default.

The lattice orders the invariant subspaces by inclusion without vectors.
Each subspace Delta_P is encoded by the relations x_i = x_j, x_i = -x_j and
x_i = 0 that hold on all of it, as one n*n-bit integer.  Delta_P is the
solution set of those relations, so Delta_Q <= Delta_P exactly when every
relation of P is a relation of Q, one bitwise test.  Two writers turn a
lattice into text: :func:`lattice_to_json` writes the indent-2 JSON layout
directly, one template per node and per cover, and :func:`lattice_to_dot`
writes Graphviz DOT.  Orbits check that the automorphisms form a group on
generators picked from them, and walk each orbit under the generators
alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .linalg import clear_denominators, frac, nullspace, shifted, transpose
from .partitions import (
    SubspaceClass,
    TaggedPartition,
    classify,
    contains,
    from_symbols,
    orthogonal,
    relabel,
    type_label,
    typical_element,
)

DEFAULT_SCAN_LIMIT = 8


def _int_matrix(m):
    """Clear denominators: invariance is unchanged by scaling M, and plain
    int arithmetic is much faster than Fraction in the inner loop.  Each
    entry goes through :func:`linalg.frac` first, so a string such as
    ``"1/2"`` is the rational it spells.  The whole matrix is scaled by one
    common denominator; scaling its rows apart would change which subspaces
    are invariant."""
    rows, dens = clear_denominators(m)
    den = math.lcm(*dens)
    return [[x * (den // d) for x in row] for row, d in zip(rows, dens)]


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


def _require_square(m) -> int:
    """The size n of an n x n matrix; ValueError for a ragged or non-square
    one."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return n


def _rational_matrix(m) -> tuple:
    """m as a square tuple of Fraction rows, every entry through
    :func:`linalg.frac`: strings such as ``"1/2"`` parse exactly, floats
    raise TypeError, and a ragged or non-square m raises ValueError."""
    _require_square(m)
    return tuple(tuple(frac(x) for x in row) for row in m)


def is_invariant(m, p: TaggedPartition) -> bool:
    """Exact decision of M Delta_P <= Delta_P."""
    if _require_square(m) != p.n:
        raise ValueError("matrix must be %dx%d" % (p.n, p.n))
    return _is_invariant_int(_int_matrix(m), p)


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
    """Every tagged partition that the int matrix mi leaves invariant, in
    canonical order.

    The search decides one block at a time, the one holding the smallest
    free cell a: an untagged class P, the fixed class P (once) or a pair
    (P, Q).  Its basis image M(1_P - 1_Q) is final once the block is
    chosen, so it is checked exactly against this block and every earlier
    one.  The images accepted so far also fix which later blocks are
    possible: eq[c] (neg[c]) holds the cells where every image equals
    (minus) its value at c, and zero the cells where every image is 0, so
    P runs over submasks of eq[a], Q over submasks of neg[a] and a fixed
    class lies inside zero.  An all-zero image constrains nothing.

    The key orders set partitions as restricted growth strings, that is by
    the cells' class minima read as base-(n+1) digits, and then the
    involutions as :func:`partitions._partial_involutions` walks them: per
    block the code 0 untagged, 1 fixed, 2 + min(Q) paired, as base-(n+2)
    digits by block.  Block b of a hit gives its cells the symbol b on P,
    -b on Q, or 0 if fixed, and :func:`partitions.from_symbols` makes them
    canonical.
    """
    n = len(mi)
    full = (1 << n) - 1
    sums = [[0] * n]  # sums[A]: M 1_A, built up from the lowest cell of A
    spread = (n + 2) ** n
    weight = [0]  # weight[A]: the set-partition digit places of the cells of A
    lowest = [n]  # lowest[A]: the smallest cell of A, 0-based
    for mask in range(1, full + 1):
        low = mask & -mask
        j = low.bit_length() - 1
        higher = mask ^ low
        sums.append([x + row[j] for x, row in zip(sums[higher], mi)])
        weight.append(weight[higher] + (n + 1) ** (n - 1 - j) * spread)
        lowest.append(j)
    place = [(n + 2) ** (n - 1 - k) for k in range(n)]
    # The decided blocks as (plus, minus, smallest cell of plus), cell
    # bitmasks: (P, 0, r) untagged, (P, Q, r) a pair, (F, F, r) the fixed
    # class.  An image must take one value v on plus and -v on minus, so
    # (F, F) forces 0.
    blocks = []
    hits = []

    def accept(g, plus, minus, a, free, key, eq, neg, zero, fixed):
        """Recurse past the block (plus, minus) if its image g satisfies
        the relations of this block and of every earlier one."""
        blocks.append((plus, minus, a))
        if not any(g):  # satisfies every relation and constrains nothing
            search(free, key, eq, neg, zero, fixed)
        else:
            lv = _levels(g)
            if not any(p & ~lv[g[r]] or q & ~lv.get(-g[r], 0) for p, q, r in reversed(blocks)):
                search(
                    free,
                    key,
                    [e & lv[x] for e, x in zip(eq, g)],
                    [e & lv.get(-x, 0) for e, x in zip(neg, g)],
                    zero & lv.get(0, 0),
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
        cand = rest & eq[a]
        sub = cand
        while True:
            plus = low | sub
            left = free ^ plus
            at = key + a * weight[plus]
            s = sums[plus]
            # a second cell of P, so that most images fail before _levels
            probe = lowest[sub] if sub else a
            if s[probe] == s[a]:
                accept(s, plus, 0, a, left, at, eq, neg, zero, fixed)
            if not fixed and not plus & ~zero:
                blocks.append((plus, plus, a))
                search(left, at + code, eq, neg, zero, True)
                blocks.pop()
            partners = left & neg[a]
            minus = partners
            while minus:
                t = sums[minus]
                q = lowest[minus]
                v = s[a] - t[a]
                if s[q] - t[q] == -v and s[probe] - t[probe] == v:
                    g = [x - y for x, y in zip(s, t)]
                    accept(g, plus, minus, a, left ^ minus, at + q * weight[minus] + (2 + q) * code, eq, neg, zero, fixed)
                minus = (minus - 1) & partners
            if not sub:
                break
            sub = (sub - 1) & cand

    search(full, 0, [full] * n, [full] * n, full, False)
    hits.sort()
    out = []
    for _, found in hits:
        symbols = [0] * n  # block b gives b on plus, -b on minus, 0 if fixed
        for b, (plus, minus, _) in enumerate(found, start=1):
            if minus != plus:
                while plus:
                    symbols[lowest[plus]] = b
                    plus &= plus - 1
                while minus:
                    symbols[lowest[minus]] = -b
                    minus &= minus - 1
        out.append(from_symbols(symbols))
    return out


def invariant_polydiagonals(m, n_cap=DEFAULT_SCAN_LIMIT) -> InvariantSet:
    """All tagged partitions whose subspace is m-invariant, in canonical
    order, by a block-by-block exact search (see
    :func:`_invariant_partitions`)."""
    n = _require_square(m)
    if n > n_cap:
        raise ValueError("n=%d exceeds cap %d; pass n_cap to override" % (n, n_cap))
    mat = _rational_matrix(m)
    hits = _invariant_partitions(_int_matrix(mat))
    return InvariantSet(mat, tuple((p, classify(p)) for p in hits))


# ---------------------------------------------------------------------------
# lattice of invariant subspaces


def _relations(p: TaggedPartition) -> int:
    """Bitmask of the relations that hold on all of Delta_p.

    Bit i*n+j (i < j) stands for x_i = x_j, bit j*n+i for x_i = -x_j and
    bit i*n+i for x_i = 0.  The cells' symbols (:attr:`TaggedPartition.symbols`)
    decide them: equal symbols, opposite symbols, symbol 0.
    """
    n = p.n
    sym = p.symbols
    mask = 0
    for i, a in enumerate(sym):
        if a == 0:
            mask |= 1 << (i * n + i)
        for j in range(i + 1, n):
            if sym[j] == a:
                mask |= 1 << (i * n + j)
            if sym[j] == -a:
                mask |= 1 << (j * n + i)
    return mask


def _bits(x):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


@dataclass(frozen=True)
class SubspaceLattice:
    nodes: tuple  # of (TaggedPartition, SubspaceClass)
    covers: tuple  # (upper, lower) index pairs: Delta_upper strictly inside Delta_lower

    def leq(self, i, j) -> bool:
        """Reverse-inclusion order: i <= j iff Delta_i contains Delta_j."""
        return _relations(self.nodes[i][0]) & ~_relations(self.nodes[j][0]) == 0


def build_lattice(inv: InvariantSet) -> SubspaceLattice:
    """Cover relations (transitive reduction) of the invariant subspaces
    ordered by reverse inclusion: bottom R^n, top the smallest subspace.

    Containment is decided on the partitions, without vectors:
    Delta_Q <= Delta_P iff every relation of :func:`_relations` that holds
    on Delta_P also holds on Delta_Q.  This is exact, because Delta_P is
    the solution set of its relations.  ``below[i]`` is the bitset of the
    nodes strictly inside Delta_i: those holding all of node i's relations,
    of smaller dimension.  Taken in falling dimension, a node of below[i]
    not below an earlier cover of i is itself a cover of i.
    """
    nodes = inv.subspaces
    rels = [_relations(p) for p, _ in nodes]
    dims = [p.dimension() for p, _ in nodes]
    n = len(inv.matrix)
    holders = [0] * (n * n)  # holders[r]: the nodes on which relation r holds
    by_dim = [0] * (n + 1)
    for j, (r, d) in enumerate(zip(rels, dims)):
        for b in _bits(r):
            holders[b] |= 1 << j
        by_dim[d] |= 1 << j
    below = []
    for r, d in zip(rels, dims):
        inside = sum(by_dim[:d])  # the disjoint bitsets of smaller dimension
        for b in _bits(r):
            inside &= holders[b]
        below.append(inside)
    covers = []
    for i, d in enumerate(dims):
        reached = 0
        for e in range(d - 1, -1, -1):
            for j in _bits(below[i] & by_dim[e] & ~reached):
                covers.append((j, i))  # j is directly above i
                reached |= below[j]
    return SubspaceLattice(nodes, tuple(sorted(covers)))


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


def _generators(autos, n):
    """Generators of ``autos``, picked greedily, after checking that
    ``autos`` is exactly a group of permutations of 1..n.

    The group is grown from the identity of length n by right
    multiplication with the generators.  For a finite set S this is the
    same test as S*S <= S, at about |S| * |generators| compositions
    instead of |S|^2.
    """
    from .graph import perm_compose

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


def orbits(inv: InvariantSet, autos):
    """Group orbits of the invariant subspaces under vertex relabeling.

    ``autos`` must be a group of permutations of 1..n (checked).  Returns a
    list of orbits, each a tuple of node indices into inv.subspaces, in
    order of their smallest index.
    """
    gens = _generators(autos, len(inv.matrix))
    index = {p: i for i, (p, _) in enumerate(inv.subspaces)}
    seen = [False] * len(index)
    out = []
    for i, (p, _) in enumerate(inv.subspaces):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        for j in orbit:  # grows while it is walked
            q = inv.subspaces[j][0]
            for phi in gens:
                r = relabel(q, phi)
                k = index.get(r)
                if k is None:
                    raise ValueError(
                        "image %s of %s is not in the invariant set; "
                        "are these automorphisms of the right digraph?"
                        % (typical_element(r), typical_element(q))
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
    _require_square(m)
    lam = frac(lam)
    right = nullspace(shifted(m, lam))
    left = nullspace(shifted(transpose(m), lam))
    return EigenData(lam, tuple(right), tuple(left))


@dataclass(frozen=True)
class DichotomyRow:
    partition: TaggedPartition
    label: str
    right_in_subspace: bool
    left_in_perp: bool

    @property
    def ok(self):
        return self.right_in_subspace or self.left_in_perp


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
    m = _rational_matrix(m)
    eig = eigendata(m, lam)
    if len(eig.right_basis) != 1:
        raise ValueError(
            "eigenvalue %s has geometric multiplicity %d, need 1"
            % (lam, len(eig.right_basis))
        )
    v_r, v_l = eig.right_basis[0], eig.left_basis[0]
    rows = []
    for p, cls in invariant_polydiagonals(m).subspaces:
        in_w = contains(p, v_r)
        in_perp = orthogonal(p, v_l)
        rows.append(DichotomyRow(p, type_label(p, cls), in_w, in_perp))
    return MainLemmaReport(eig.lam, v_r, v_l, tuple(rows))


@dataclass(frozen=True)
class ColumnSumsRow:
    partition: TaggedPartition
    label: str
    contains_v: bool
    conclusion_holds: bool


@dataclass(frozen=True)
class ColumnSumsReport:
    hypotheses_met: bool
    reason: str | None
    lam: Fraction | None
    v: tuple | None
    rows: tuple

    @property
    def passed(self):
        return self.hypotheses_met and all(r.conclusion_holds for r in self.rows)

    def violations(self):
        return [r for r in self.rows if not r.conclusion_holds]


def check_constant_column_sums_theorem(m) -> ColumnSumsReport:
    """Constant-column-sums dichotomy: every invariant polydiagonal must be a
    synchrony subspace containing v or an evenly tagged anti-synchrony
    subspace not containing v.  Hypothesis violations are reported, not
    raised; a non-square matrix raises ValueError.  Entries go through
    :func:`linalg.frac`."""
    m = _rational_matrix(m)
    n = len(m)
    sums = [sum(row[j] for row in m) for j in range(n)]
    if len(set(sums)) > 1:
        return ColumnSumsReport(False, "column sums are not constant", None, None, ())
    lam = sums[0] if sums else Fraction(0)
    eig = eigendata(m, lam)
    if len(eig.right_basis) != 1:
        return ColumnSumsReport(
            False,
            "eigenvalue %s has geometric multiplicity %d" % (lam, len(eig.right_basis)),
            lam,
            None,
            (),
        )
    v = eig.right_basis[0]
    if any(v[i] + v[j] == 0 for i in range(n) for j in range(i, n)):
        return ColumnSumsReport(
            False, "eigenvector has v_i + v_j = 0 for some i, j", lam, v, ()
        )
    rows = []
    for p, cls in invariant_polydiagonals(m).subspaces:
        has_v = contains(p, v)
        holds = (cls.synchrony and has_v) or (cls.evenly_tagged and not has_v)
        rows.append(ColumnSumsRow(p, type_label(p, cls), has_v, holds))
    return ColumnSumsReport(True, None, lam, v, tuple(rows))


def report_to_json(report) -> str:
    """Serialize a lemma/theorem report for the CLI."""
    if isinstance(report, MainLemmaReport):
        d = {
            "lambda": str(report.lam),
            "v_right": [str(x) for x in report.v_right],
            "v_left": [str(x) for x in report.v_left],
            "passed": report.passed,
            "rows": [
                {
                    "typical": typical_element(r.partition),
                    "label": r.label,
                    "v_right_in_subspace": r.right_in_subspace,
                    "v_left_in_perp": r.left_in_perp,
                }
                for r in report.rows
            ],
        }
    else:
        d = {
            "hypotheses_met": report.hypotheses_met,
            "reason": report.reason,
            "lambda": None if report.lam is None else str(report.lam),
            "v": None if report.v is None else [str(x) for x in report.v],
            "passed": report.passed,
            "rows": [
                {
                    "typical": typical_element(r.partition),
                    "label": r.label,
                    "contains_v": r.contains_v,
                    "conclusion_holds": r.conclusion_holds,
                }
                for r in report.rows
            ],
        }
    return json.dumps(d, indent=2)
