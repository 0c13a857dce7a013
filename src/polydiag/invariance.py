"""Exact M-invariance of polydiagonal subspaces, lattices, and orbit tools.

A subspace W is M-invariant when M W is contained in W.  For a polydiagonal
subspace this is decided exactly by applying M to the canonical basis of the
subspace and testing membership of the images (:func:`is_invariant`).  The
scan over all tagged partitions walks the set partitions instead: it sums the
columns of each class once per set partition and cuts every involution
branch whose basis image is not constant on the classes, so only the pair
and fixed-class conditions are left for the leaves.  It is exact, keeps the
canonical order, and is capped at n = 8 by default.

The lattice orders the invariant subspaces by inclusion without vectors.
Each subspace Delta_P is encoded by the relations x_i = x_j, x_i = -x_j and
x_i = 0 that hold on all of it, as one n*n-bit integer.  Delta_P is the
solution set of those relations, so Delta_Q <= Delta_P exactly when every
relation of P is a relation of Q, one bitwise test.  Orbits check that the
automorphisms form a group on generators picked from them, and walk each
orbit under the generators alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from . import linalg
from .linalg import frac, nullspace, shifted, transpose
from .partitions import (
    SubspaceClass,
    TaggedPartition,
    _partial_involutions,
    _rgs,
    basis,
    classify,
    contains,
    relabel,
    type_label,
    typical_element,
)

DEFAULT_SCAN_LIMIT = 8


def _int_matrix(m):
    """Clear denominators: invariance is unchanged by scaling M, and plain
    int arithmetic is much faster than Fraction in the inner loop."""
    den = 1
    for row in m:
        for x in row:
            den = den * frac(x).denominator // math.gcd(den, frac(x).denominator)
    return [[int(x * den) for x in row] for row in m]


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
    if len(m) != p.n or (m and len(m[0]) != p.n):
        raise ValueError("matrix must be %dx%d" % (p.n, p.n))
    return _is_invariant_int(_int_matrix(m), p)


@dataclass(frozen=True)
class InvariantSet:
    matrix: tuple
    subspaces: tuple  # of (TaggedPartition, SubspaceClass), canonical order

    def partitions(self):
        return [p for p, _ in self.subspaces]


def _class_values(v, classes):
    """The value of v on each class of 0-based cells, or None if v is not
    constant on some class."""
    out = []
    for cls in classes:
        x = v[cls[0]]
        for c in cls:
            if v[c] != x:
                return None
        out.append(x)
    return out


def _invariant_involutions(cols, classes):
    """(pairs, fixed) of each involution on the set partition ``classes``
    (0-based cells) whose tagged partition is M-invariant, in canonical
    order; ``cols`` are the columns of M with denominators cleared.

    The basis images are the class column sums S[c] = M e_c for an
    untagged class c and S[c] - S[c'] for a pair (c, c'); the fixed class
    has none.  Each image must be constant on every class, which depends
    on the set partition alone, so an image that is not cuts every
    involution that would use it.  The leaves check only x_c = -x_c' on
    the pairs and x_f = 0 on the fixed class, on the class values.
    """
    sums = []
    for cls in classes:
        s = cols[cls[0]]
        for j in cls[1:]:
            s = list(map(add, s, cols[j]))
        sums.append(s)
    single = [_class_values(s, classes) for s in sums]
    paired = {}

    def pair_ok(i, j):
        if (i, j) not in paired:
            paired[i, j] = _class_values(list(map(sub, sums[i], sums[j])), classes)
        return paired[i, j] is not None

    out = []
    for pairs, fixed in _partial_involutions(len(classes), lambda i: single[i] is not None, pair_ok):
        tagged = {fixed}
        for i, j in pairs:
            tagged.update((i, j))
        images = [w for c, w in enumerate(single) if c not in tagged]
        images += [paired[ij] for ij in pairs]
        if all(
            (fixed is None or w[fixed] == 0) and all(w[i] == -w[j] for i, j in pairs)
            for w in images
        ):
            out.append((pairs, fixed))
    return out


def invariant_polydiagonals(m, n_cap=DEFAULT_SCAN_LIMIT) -> InvariantSet:
    """All tagged partitions whose subspace is m-invariant, in canonical
    order, by a pruned walk over the set partitions (see
    :func:`_invariant_involutions`)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n > n_cap:
        raise ValueError("n=%d exceeds cap %d; pass n_cap to override" % (n, n_cap))
    cols = transpose(_int_matrix(m))
    hits = []
    for a in _rgs(n):
        cells = [[] for _ in range(max(a) + 1 if a else 0)]
        for cell, c in enumerate(a):
            cells[c].append(cell)
        found = _invariant_involutions(cols, cells)
        if found:
            classes = tuple(tuple(c + 1 for c in cls) for cls in cells)
            hits += [TaggedPartition(n, classes, pairs, fixed) for pairs, fixed in found]
    mat = tuple(tuple(frac(x) for x in row) for row in m)
    return InvariantSet(mat, tuple((p, classify(p)) for p in hits))


# ---------------------------------------------------------------------------
# lattice of invariant subspaces


def _relations(p: TaggedPartition) -> int:
    """Bitmask of the relations that hold on all of Delta_p.

    Bit i*n+j (i < j) stands for x_i = x_j, bit j*n+i for x_i = -x_j and
    bit i*n+i for x_i = 0.  A cell's symbol in the typical element decides
    them: equal symbols, opposite symbols, symbol 0.
    """
    n = p.n
    partner = p.partners()
    sym = [0] * n  # typical-element symbol: +-(class index + 1), 0 on the fixed class
    for ci, cls in enumerate(p.classes):
        if ci != p.fixed:
            s = ci + 1 if partner.get(ci, ci) >= ci else -(partner[ci] + 1)
            for c in cls:
                sym[c - 1] = s
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


def lattice_to_json_dict(lat: SubspaceLattice) -> dict:
    return {
        "nodes": [
            {
                "typical": typical_element(p),
                "class": type_label(p, cls).replace(" ", "_").replace("-", "_"),
            }
            for p, cls in lat.nodes
        ],
        "covers": [list(c) for c in lat.covers],
    }


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


def check_main_lemma(m, lam, inv: InvariantSet | None = None) -> MainLemmaReport:
    """For a simple eigenvalue lam, test every invariant polydiagonal W for
    v_R in W or v_L perpendicular to W, recording which disjunct holds."""
    eig = eigendata(m, lam)
    if len(eig.right_basis) != 1:
        raise ValueError(
            "eigenvalue %s has geometric multiplicity %d, need 1"
            % (lam, len(eig.right_basis))
        )
    v_r, v_l = eig.right_basis[0], eig.left_basis[0]
    inv = inv if inv is not None else invariant_polydiagonals(m)
    rows = []
    for p, cls in inv.subspaces:
        in_w = contains(p, v_r)
        in_perp = all(linalg.dot(v_l, b) == 0 for b in basis(p))
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


def check_constant_column_sums_theorem(m, inv: InvariantSet | None = None) -> ColumnSumsReport:
    """Constant-column-sums dichotomy: every invariant polydiagonal must be a
    synchrony subspace containing v or an evenly tagged anti-synchrony
    subspace not containing v.  Hypothesis violations are reported, not
    raised."""
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
            frac(lam),
            None,
            (),
        )
    v = eig.right_basis[0]
    if any(v[i] + v[j] == 0 for i in range(n) for j in range(i, n)):
        return ColumnSumsReport(
            False, "eigenvector has v_i + v_j = 0 for some i, j", frac(lam), v, ()
        )
    inv = inv if inv is not None else invariant_polydiagonals(m)
    rows = []
    for p, cls in inv.subspaces:
        has_v = contains(p, v)
        holds = (cls.synchrony and has_v) or (cls.evenly_tagged and not has_v)
        rows.append(ColumnSumsRow(p, type_label(p, cls), has_v, holds))
    return ColumnSumsReport(True, None, frac(lam), v, tuple(rows))


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
