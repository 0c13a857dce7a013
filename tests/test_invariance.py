import dataclasses
import functools
import glob
import hashlib
import itertools
import json
import os
import random
import time
from fractions import Fraction as F

import pytest

from polydiag import counting, graph, invariance, linalg
from polydiag.invariance import (
    SubspaceLattice,
    build_lattice,
    check_constant_column_sums_theorem,
    check_main_lemma,
    eigendata,
    invariant_polydiagonals,
    is_invariant,
    lattice_to_dot,
    lattice_to_json,
    orbits,
)
from polydiag.linalg import matrix, zeros
from polydiag.partitions import (
    _rgs,
    basis,
    classify,
    contains,
    enumerate_tagged_partitions,
    orthogonal,
    parse_typical_element,
    relabel,
    tagged,
    type_label,
    typical_element,
)

DIRICHLET = matrix([[3, -1, 0], [-1, 2, -1], [0, -1, 3]])
FEEDFORWARD = matrix([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
DISCONNECTED_L = matrix([[0, 0, 0], [0, 1, -1], [0, -1, 1]])
COLSUM3 = matrix([[0, 1, 1], [2, 0, 2], [1, 2, 0]])
CYCLE3 = matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
VDP_A = matrix([[0, 0], [1, 1]])


def typicals(inv):
    return sorted(typical_element(p) for p, _ in inv.subspaces)


def test_is_invariant_examples():
    assert is_invariant(DIRICHLET, parse_typical_element("(a,0,-a)"))
    assert not is_invariant(VDP_A, parse_typical_element("(a,a)"))
    for p in enumerate_tagged_partitions(3):
        assert is_invariant(zeros(3, 3), p)
    for m, typical in ((VDP_A, "(a,a,a)"), ([[1, 2], [3, 4, 5]], "(a,b)"), ([[1, 2], [3]], "(a,b)")):
        with pytest.raises(ValueError):
            is_invariant(m, parse_typical_element(typical))


def test_invariant_set_dirichlet():
    inv = invariant_polydiagonals(DIRICHLET)
    assert typicals(inv) == sorted(["(0,0,0)", "(a,0,-a)", "(a,-a,a)", "(a,b,a)", "(a,b,c)"])


def test_invariant_set_feedforward():
    inv = invariant_polydiagonals(FEEDFORWARD)
    assert typicals(inv) == sorted(
        ["(0,0,0)", "(0,0,a)", "(a,a,a)", "(0,a,b)", "(a,a,b)", "(a,b,c)"]
    )


def test_invariant_set_disconnected_laplacian():
    inv = invariant_polydiagonals(DISCONNECTED_L)
    assert len(inv.subspaces) == 10
    bad = [
        typical_element(p)
        for p, c in inv.subspaces
        if c.anti_synchrony and not c.evenly_tagged
    ]
    assert sorted(bad) == sorted(["(a,0,0)", "(0,a,a)", "(0,a,b)", "(a,-a,-a)", "(a,b,-b)"])


def test_invariant_set_always_has_extremes():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        ts = typicals(invariant_polydiagonals(m))
        full = tagged(n, [[i] for i in range(1, n + 1)])  # R^n
        assert typical_element(full) in ts
        assert "(" + ",".join("0" * n) + ")" in ts  # the trivial subspace


def test_soundness_of_scan():
    from polydiag.partitions import basis, contains

    rng = random.Random(6)
    m = matrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
    hits = {p for p, _ in invariant_polydiagonals(m).subspaces}
    for p in enumerate_tagged_partitions(4):
        expected = all(contains(p, linalg.mat_vec(m, b)) for b in basis(p))
        assert (p in hits) == expected


def _oracle_cases():
    rng = random.Random(3)
    for n in range(2, 7):
        yield "int%d" % n, matrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        yield "signed%d" % n, matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        yield "rational%d" % n, [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    yield "laplacian7", graph.laplacian_matrix(graph.random_connected_graph(7, rng))
    yield "signed7", matrix([[rng.randint(-1, 1) for _ in range(7)] for _ in range(7)])
    yield "zero5", zeros(5, 5)
    yield "zero6", zeros(6, 6)
    yield "d3cayley", graph.adjacency_matrix(graph.cayley_digraph(graph.dihedral_group_table(3), [(3, F(1)), (4, F(1))]))
    # sparse matrices, where the fixed class grows between other blocks and
    # an image accepted in between cuts it
    for n in range(5, 8):
        yield "sparse%d" % n, matrix([[int(rng.random() < 0.25) for _ in range(n)] for _ in range(n)])
    m = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
    for row in m:
        row[1] = row[4] = 0
    yield "zerocols6", matrix(m)


ORACLE_CASES = dict(_oracle_cases())


@functools.lru_cache(maxsize=None)
def _brute_force_hits(name):
    m = ORACLE_CASES[name]
    mi = invariance._int_matrix(m)  # what is_invariant decides on, cleared once
    return [p for p in enumerate_tagged_partitions(len(m)) if invariance._is_invariant_int(mi, p)]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_scan_matches_brute_force(name):
    """The pruned scan finds exactly the brute-force hits, in canonical order."""
    assert invariant_polydiagonals(ORACLE_CASES[name]).partitions() == _brute_force_hits(name)


def _class_opens_inside_fixed_class(p):
    """Some class of p has its smallest cell between two fixed cells, as in
    (0,a,0): the search accepts its image while the fixed class is open and
    grows the class after it."""
    fixed = [i for i, x in enumerate(p.symbols) if x == 0]
    firsts = {}
    for i, x in enumerate(p.symbols):
        firsts.setdefault(abs(x), i)
    return any(fixed[0] < i < fixed[-1] for x, i in firsts.items() if x)


@pytest.mark.parametrize("name", ["sparse5", "sparse6", "sparse7", "zerocols6"])
def test_oracle_cases_grow_the_fixed_class_around_other_classes(name):
    """The sparse oracle cases hold hits such as (0,a,b,0,-b), where a
    class starts inside the fixed class, so they test the cell-by-cell
    fixed class against brute force."""
    assert any(_class_opens_inside_fixed_class(p) for p in _brute_force_hits(name))


def _scalar_plus_ones_cases():
    rng = random.Random(8)
    for n in range(1, 8):
        for _ in range(3):
            a = F(rng.randint(-4, 4), rng.randint(1, 3))
            b = F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
            yield "n%d-a%s-b%s" % (n, a, b), [[a * (i == j) + b for j in range(n)] for i in range(n)]


SCALAR_PLUS_ONES = dict(_scalar_plus_ones_cases())


@functools.lru_cache(maxsize=None)
def _synchrony_or_ones_perp(n):
    return [p for p in enumerate_tagged_partitions(n) if classify(p).synchrony or orthogonal(p, [1] * p.n)]


@pytest.mark.parametrize("m", SCALAR_PLUS_ONES.values(), ids=SCALAR_PLUS_ONES.keys())
def test_scalar_plus_ones_leaves_exactly_synchrony_and_ones_perp_invariant(m):
    """M = aI + bJ with b != 0: M W <= W exactly when W contains the ones
    vector (a synchrony subspace) or is perpendicular to it (evenly
    tagged).  The theorem and its converse, in closed form."""
    n = len(m)
    want = _synchrony_or_ones_perp(n)
    assert invariant_polydiagonals(m).partitions() == want
    assert len(want) == counting.egf_count("synchrony", n) + counting.egf_count("evenly", n)


def test_k8_leaves_exactly_synchrony_and_ones_perp_invariant():
    """K8's adjacency J - I beyond the brute-force oracle's n <= 7: every
    hit is synchrony or perpendicular to the ones vector, and there are
    Bell(8) + evenly(8) = 4,140 + 3,774 of them, so no such subspace is
    missed."""
    hits = invariant_polydiagonals(WALK_CASES["K8"]).partitions()
    assert all(classify(p).synchrony or orthogonal(p, [1] * p.n) for p in hits)
    assert (counting.egf_count("synchrony", 8), counting.egf_count("evenly", 8)) == (4140, 3774)
    assert len(hits) == 7914


def _complete_graph(n):
    return graph.adjacency_matrix(graph.digraph_of_graph(n, itertools.combinations(range(1, n + 1), 2)))


@pytest.mark.parametrize(
    "m, want",
    [
        pytest.param(_complete_graph(9), ("synchrony", "evenly"), id="K9"),
        pytest.param(zeros(7, 7), ("polydiagonal",), id="zero7"),
        pytest.param(_complete_graph(10), ("synchrony", "evenly"), id="K10", marks=pytest.mark.slow),
    ],
)
def test_scan_counts_match_the_closed_forms(m, want):
    """ROADMAP item 8's count oracle beyond the brute-force and walk
    oracles: K_n leaves the synchrony and the evenly tagged subspaces
    invariant (K9: 21,147 + 18,958 = 40,105; K10: 115,975 + 116,302 =
    232,277), the zero matrix every polydiagonal (28,640 at n = 7).  Most
    of these hits have a fixed class."""
    n = len(m)
    assert len(invariant_polydiagonals(m, n_cap=n).subspaces) == sum(counting.egf_count(k, n) for k in want)


def _divisor_count(n):
    return sum(1 for k in range(1, n + 1) if n % k == 0)


@pytest.mark.parametrize("n", [*range(1, 14), pytest.param(14, marks=pytest.mark.slow)])
def test_directed_cycle_counts_match_the_divisor_forms(n):
    """ROADMAP item 9's sparse count oracle, for one cycle.  The directed
    cycle C_n permutes the cells cyclically, so it leaves invariant the
    subspaces x_{i+k} = x_i for k | n (d(n), all synchrony), for even n
    the subspaces x_{i+k} = -x_i for k | n/2 (d(n/2), freely tagged), and
    {0}.  d counts divisors; the counting module plays no part."""
    m = graph.adjacency_matrix(graph.cayley_digraph(graph.cyclic_group_table(n), [(1 % n, 1)]))
    anti_periodic = _divisor_count(n // 2) if n % 2 == 0 else 0
    classes = [c for _, c in invariant_polydiagonals(m, n_cap=14).subspaces]
    assert len(classes) == _divisor_count(n) + anti_periodic + 1
    assert sum(c.synchrony for c in classes) == _divisor_count(n)
    assert sum(c.freely_tagged for c in classes) == _divisor_count(n) + anti_periodic


@pytest.mark.parametrize("m, want", [(_complete_graph(7), ("synchrony", "evenly")), (zeros(6, 6), ("polydiagonal",))],
                         ids=["K7", "zero6"])
def test_lattice_nodes_match_the_closed_forms(m, want):
    """The lattice keeps every hit the closed forms count as a node."""
    n = len(m)
    assert len(build_lattice(invariant_polydiagonals(m)).nodes) == sum(counting.egf_count(k, n) for k in want)


def test_scan_cap():
    with pytest.raises(ValueError):
        invariant_polydiagonals(zeros(9, 9))


def test_string_entries_are_the_rationals_they_spell():
    """Strings, Fractions and a mix of both give one matrix and one answer."""
    as_fractions = [[F(3), F(1, 2)], [F(3, 2), F(2)]]
    as_strings = [["3", "1/2"], ["3/2", "2"]]
    mixed = [["3", F(1, 2)], [F(3, 2), "2"]]
    assert invariance._int_matrix(mixed) == invariance._int_matrix(as_strings) == [[6, 1], [3, 4]]
    expected = invariant_polydiagonals(as_fractions).partitions()
    assert parse_typical_element("(a,a)") in expected
    for m in (as_strings, mixed):
        assert invariant_polydiagonals(m).partitions() == expected
        assert is_invariant(m, parse_typical_element("(a,a)"))
    rng = random.Random(10)
    for _ in range(10):
        n = rng.randint(1, 5)
        fr = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        strings = [[str(x) for x in row] for row in fr]
        mix = [[x if rng.random() < 0.5 else str(x) for x in row] for row in fr]
        expected = invariant_polydiagonals(fr).partitions()
        assert invariant_polydiagonals(strings).partitions() == expected
        assert invariant_polydiagonals(mix).partitions() == expected


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


def _walk_involutions(cols, classes):
    """(pairs, fixed) of each M-invariant involution on the set partition
    ``classes`` (0-based cells), in canonical order.

    The basis images are the class column sums S[c] for an untagged class
    and S[c] - S[c'] for a pair (c, c').  An image that is not constant on
    every class cuts each involution that would use it; the leaves check
    x_c = -x_c' on the pairs and x_f = 0 on the fixed class.
    """
    sums = [[sum(cols[j][i] for j in cls) for i in range(len(cols))] for cls in classes]
    single = [_class_values(s, classes) for s in sums]
    paired = {}

    def pair_ok(i, j):
        if (i, j) not in paired:
            paired[i, j] = _class_values([x - y for x, y in zip(sums[i], sums[j])], classes)
        return paired[i, j] is not None

    def rec(avail, pairs, fixed):
        if not avail:
            yield tuple(pairs), fixed
            return
        i, rest = avail[0], avail[1:]
        if single[i] is not None:
            yield from rec(rest, pairs, fixed)
        if fixed is None:
            yield from rec(rest, pairs, i)
        for idx, j in enumerate(rest):
            if pair_ok(i, j):
                pairs.append((i, j))
                yield from rec(rest[:idx] + rest[idx + 1 :], pairs, fixed)
                pairs.pop()

    out = []
    for pairs, fixed in rec(tuple(range(len(classes))), [], None):
        used = {fixed}
        for i, j in pairs:
            used.update((i, j))
        images = [w for c, w in enumerate(single) if c not in used]
        images += [paired[ij] for ij in pairs]
        if all(
            (fixed is None or w[fixed] == 0) and all(w[i] == -w[j] for i, j in pairs)
            for w in images
        ):
            out.append((pairs, fixed))
    return out


def _walk_scan(m):
    """The set-partition walk, kept as the oracle for the block search
    where brute force is out of reach: every set partition in
    restricted-growth-string order, its invariant involutions in
    canonical order."""
    n = len(m)
    cols = linalg.transpose(invariance._int_matrix(m))
    hits = []
    for a in _rgs(n):
        cells = [[] for _ in range(max(a) + 1 if a else 0)]
        for cell, c in enumerate(a):
            cells[c].append(cell)
        classes = tuple(tuple(c + 1 for c in cls) for cls in cells)
        hits += [tagged(n, classes, pairs, fixed) for pairs, fixed in _walk_involutions(cols, cells)]
    return hits


def _walk_cases():
    rng = random.Random(12)
    for n in (8, 9):
        yield "laplacian%d" % n, graph.laplacian_matrix(graph.random_connected_graph(n, rng))
        yield "signed%d" % n, matrix([[rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)])
    yield "rational8", [[F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else F(0) for _ in range(8)] for _ in range(8)]
    yield "cayley-z8", graph.adjacency_matrix(graph.cayley_digraph(graph.cyclic_group_table(8), [(1, F(1)), (7, F(1))]))
    yield "K8", _complete_graph(8)
    yield "scalar6", matrix([[F(5, 2) if i == j else 0 for j in range(6)] for i in range(6)])
    yield "zero7", zeros(7, 7)


WALK_CASES = dict(_walk_cases())


@pytest.mark.parametrize("m", WALK_CASES.values(), ids=WALK_CASES.keys())
def test_scan_matches_set_partition_walk(m):
    """The block search and the set-partition walk give one hit list, in
    one order, at sizes the brute-force oracle cannot reach."""
    assert invariant_polydiagonals(m, n_cap=9).partitions() == _walk_scan(m)


def test_scan_budget_n10():
    """A random connected Laplacian at n = 10 scans within 1.5 s."""
    m = graph.laplacian_matrix(graph.random_connected_graph(10, random.Random(1)))
    start = time.perf_counter()
    inv = invariant_polydiagonals(m, n_cap=10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, elapsed
    mi = invariance._int_matrix(m)
    assert inv.partitions() and all(invariance._is_invariant_int(mi, p) for p in inv.partitions())


@pytest.mark.parametrize("n", [12, 13, 14])
def test_scan_budget_beyond_the_default_cap(n):
    """Random connected Laplacians at n = 12, 13 and 14 scan within 1.5 s
    and find exactly synchrony, {0} and R^n."""
    m = graph.laplacian_matrix(graph.random_connected_graph(n, random.Random(1)))
    start = time.perf_counter()
    inv = invariant_polydiagonals(m, n_cap=n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, elapsed
    letters = "abcdefghijklmn"[:n]
    assert [typical_element(p) for p in inv.partitions()] == [
        "(%s)" % ",".join("a" * n),
        "(%s)" % ",".join("0" * n),
        "(%s)" % ",".join(letters),
    ]


# ---------------------------------------------------------------------------
# lattices


def test_lattice_of_r2():
    inv = invariant_polydiagonals(zeros(2, 2))
    lat = build_lattice(inv)
    names = [typical_element(p) for p, _ in lat.nodes]
    bottom = names.index("(a,b)")
    top = names.index("(0,0)")
    uppers = sorted(u for u, low in lat.covers if low == bottom)
    assert len(lat.covers) == 8
    assert len(uppers) == 4
    assert all(top in {u for u, _ in lat.covers} for _ in [0])
    # every cover with upper (0,0) comes from one of the four atoms
    atoms = {u for u, low in lat.covers if low == bottom}
    assert {low for u, low in lat.covers if u == top} == atoms


def test_lattice_single_node():
    inv = invariance.InvariantSet(zeros(2, 2), tuple())
    assert build_lattice(inv).covers == ()
    p = parse_typical_element("(a,b)")
    single = invariance.InvariantSet(zeros(2, 2), ((p, classify(p)),))
    assert build_lattice(single).covers == ()


def test_lattice_chain():
    ps = [parse_typical_element(t) for t in ("(a,b,c)", "(a,a,a)", "(0,0,0)")]
    inv = invariance.InvariantSet(zeros(3, 3), tuple((p, classify(p)) for p in ps))
    lat = build_lattice(inv)
    assert set(lat.covers) == {(1, 0), (2, 1)}


def _leq(lat):
    """Reverse inclusion on the nodes from their relation masks: entry
    [i][j] says whether Delta_i contains Delta_j."""
    rels = [invariance._relations(p) for p, _ in lat.nodes]
    return [[a & ~b == 0 for b in rels] for a in rels]


def test_lattice_meets_and_joins_exist():
    for n in (2, 3, 4):
        inv = invariant_polydiagonals(zeros(n, n))
        lat = build_lattice(inv)
        k = len(lat.nodes)
        leq = _leq(lat)
        for i in range(k):
            for j in range(k):
                lower = [z for z in range(k) if leq[z][i] and leq[z][j]]
                upper = [z for z in range(k) if leq[i][z] and leq[j][z]]
                assert any(all(leq[w][z] for w in lower) for z in lower)  # meet
                assert any(all(leq[z][w] for w in upper) for z in upper)  # join


def test_lattice_exports():
    lat = build_lattice(invariant_polydiagonals(DIRICHLET))
    d = json.loads(lattice_to_json(lat))
    assert {n["typical"] for n in d["nodes"]} == {
        "(0,0,0)", "(a,0,-a)", "(a,-a,a)", "(a,b,a)", "(a,b,c)"
    }
    assert {n["class"] for n in d["nodes"]} == {
        "trivial", "evenly_tagged", "fully_tagged", "synchrony"
    }
    dot = lattice_to_dot(lat)
    assert dot.startswith("digraph") and '"(a,0,-a)"' in dot


def _basis_lattice(inv):
    """The vector-based builder, kept as the oracle for build_lattice.

    Returns (inside, covers): inside[i][j] iff every basis vector of
    Delta_j lies in Delta_i, and the covers of the strict containments by
    an O(k^3) transitive reduction, as sorted (upper, lower) pairs.
    """
    ps = inv.partitions()
    k = len(ps)
    bases = [basis(p) for p in ps]
    inside = [[all(contains(ps[i], b) for b in bases[j]) for j in range(k)] for i in range(k)]
    below = [[inside[i][j] and len(bases[i]) != len(bases[j]) for j in range(k)] for i in range(k)]
    covers = [
        (j, i)
        for i in range(k)
        for j in range(k)
        if below[i][j] and not any(below[i][z] and below[z][j] for z in range(k))
    ]
    return inside, tuple(sorted(covers))


def _lattice_oracle_cases():
    for n in range(5):
        yield "zero%d" % n, zeros(n, n)
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "data", "*.json"))):
        g = graph.load_digraph(path)
        name = os.path.basename(path)[:-5]
        yield name + "-A", graph.adjacency_matrix(g)
        yield name + "-L", graph.laplacian_matrix(g)
    for n in (4, 5, 6):
        yield "K%d" % n, _complete_graph(n)
        yield "C%d" % n, graph.adjacency_matrix(graph.digraph_of_graph(n, [(i, i % n + 1) for i in range(1, n + 1)]))
    rng = random.Random(8)
    for t in range(20):
        n = rng.randint(2, 6)
        yield "random%d" % t, matrix([[rng.choice((0,) * 6 + (1, -1, 2)) for _ in range(n)] for _ in range(n)])


LATTICE_CASES = dict(_lattice_oracle_cases())


@pytest.mark.parametrize("m", LATTICE_CASES.values(), ids=LATTICE_CASES.keys())
def test_lattice_matches_basis_oracle(m):
    """Covers and the relation masks agree with containment decided on
    basis vectors."""
    inv = invariant_polydiagonals(m)
    lat = build_lattice(inv)
    inside, covers = _basis_lattice(inv)
    assert lat.covers == covers
    assert _leq(lat) == inside


@pytest.mark.parametrize("m", [zeros(5, 5), *LATTICE_CASES.values()], ids=["zero5", *LATTICE_CASES.keys()])
def test_lattice_json_matches_json_dumps(m):
    """The direct writer gives the bytes of json.dumps(..., indent=2) on the
    lattice dict, empty covers (n = 0) included."""
    lat = build_lattice(invariant_polydiagonals(m))
    d = {
        "nodes": [
            {"typical": typical_element(p), "class": type_label(p, cls).replace(" ", "_").replace("-", "_")}
            for p, cls in lat.nodes
        ],
        "covers": [list(c) for c in lat.covers],
    }
    got, want = lattice_to_json(lat) + "\n", json.dumps(d, indent=2) + "\n"
    assert got.splitlines(True) == want.splitlines(True)  # lines: a short report on failure


def test_lattice_json_of_empty_lists():
    assert lattice_to_json(SubspaceLattice((), ())) == json.dumps({"nodes": [], "covers": []}, indent=2)


def _char_poly(lat):
    """sum over nodes X of mu(R^n, X) t^dim X, as coefficients by degree,
    with the order taken from the transitive closure of the covers."""
    dims = [p.dimension() for p, _ in lat.nodes]
    lowers = [[] for _ in lat.nodes]
    for upper, lower in lat.covers:
        lowers[upper].append(lower)
    order = sorted(range(len(dims)), key=lambda x: -dims[x])  # R^n first
    under = {}
    mu = {}
    for x in order:
        under[x] = set()
        for y in lowers[x]:
            under[x] |= under[y] | {y}
        mu[x] = -sum(mu[y] for y in under[x]) if under[x] else 1
    assert [x for x in order if not under[x]] == order[:1]  # R^n is the unique bottom
    coeffs = [0] * (max(dims) + 1)
    for x in order:
        coeffs[dims[x]] += mu[x]
    return coeffs


@pytest.mark.parametrize("n", range(7))
def test_full_lattice_is_the_type_b_arrangement(n):
    """The zero matrix leaves every polydiagonal invariant, so its lattice is
    the flat lattice of the B_n arrangement x_i = +-x_j, x_i = 0: Dowling
    many nodes and characteristic polynomial (t-1)(t-3)...(t-2n+1)."""
    lat = build_lattice(invariant_polydiagonals(zeros(n, n)))
    assert len(lat.nodes) == counting.egf_count("polydiagonal", n) == (1, 2, 6, 24, 116, 648, 4088)[n]
    expected = [1]
    for root in range(1, 2 * n, 2):  # multiply by (t - root)
        expected = [a - root * b for a, b in zip([0] + expected, expected + [0])]
    assert _char_poly(lat) == expected


# ---------------------------------------------------------------------------
# orbits


def test_orbits_trivial_group():
    inv = invariant_polydiagonals(DIRICHLET)
    orbs = orbits(inv, [(1, 2, 3)])
    assert all(len(o) == 1 for o in orbs)
    assert len(orbs) == len(inv.subspaces)


def test_orbits_z7_cayley():
    t7 = graph.cyclic_group_table(7)
    g = graph.cayley_digraph(t7, [(1, F(1)), (6, F(1))])
    autos = graph.automorphisms(g)
    inv = invariant_polydiagonals(graph.adjacency_matrix(g))
    orbs = orbits(inv, autos)
    # orbit sizes partition the invariant set
    assert sum(len(o) for o in orbs) == len(inv.subspaces)


def test_orbits_rejects_non_group():
    inv = invariant_polydiagonals(DIRICHLET)
    swap = (3, 2, 1)
    with pytest.raises(ValueError):
        orbits(inv, [swap])  # swap o swap = id is missing, so not closed


def test_orbits_rejects_automorphisms_of_another_digraph():
    # S3 is a group, but only (1)(2)(3) and (2 3) fix the one edge 2 <-> 3
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "data", "threev_one_edge.json")
    inv = invariant_polydiagonals(graph.adjacency_matrix(graph.load_digraph(path)))
    with pytest.raises(ValueError, match="is not in the invariant set"):
        orbits(inv, list(itertools.permutations((1, 2, 3))))


@pytest.mark.parametrize("autos", [[], [(1, 2, 3)], [(1,)], [(1, 1)]], ids=["empty", "too-long", "too-short", "not-a-permutation"])
def test_orbits_rejects_bad_permutations(autos):
    inv = invariant_polydiagonals(zeros(2, 2))
    with pytest.raises(ValueError):
        orbits(inv, autos)


def _closed(s):
    return all(graph.perm_compose(a, b) in s for a in s for b in s)


def test_group_check_matches_brute_force():
    """orbits accepts a nonempty set of permutations iff S*S <= S, whatever
    order the list comes in.  Every subset of S3 is tried (S3 and its
    subgroups, S3 less a transposition, sets without the identity, bare
    generators such as {(2,3,1)}), then subgroups of S4 generated by two
    random permutations, whole and less one element."""
    def agrees(inv, s):
        for autos in (sorted(s), sorted(s, reverse=True)):
            try:
                orbits(inv, autos)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == _closed(s), autos

    inv3 = invariant_polydiagonals(zeros(3, 3))
    s3 = list(itertools.permutations((1, 2, 3)))
    for size in range(1, 7):
        for s in itertools.combinations(s3, size):
            agrees(inv3, set(s))
    inv4 = invariant_polydiagonals(zeros(4, 4))
    s4 = list(itertools.permutations((1, 2, 3, 4)))
    rng = random.Random(9)
    for _ in range(10):
        group = set(rng.sample(s4, 2))
        while not _closed(group):
            group |= {graph.perm_compose(a, b) for a in group for b in group}
        agrees(inv4, group)
        agrees(inv4, group - {rng.choice(sorted(group))})


def test_orbits_k7_match_brute_force():
    """Orbits under the 5,040 automorphisms of K7, each against the image
    set of its representative under every automorphism."""
    g = graph.digraph_of_graph(7, itertools.combinations(range(1, 8), 2))
    inv = invariant_polydiagonals(graph.adjacency_matrix(g))
    autos = graph.automorphisms(g)
    orbs = orbits(inv, autos)
    index = {p: i for i, p in enumerate(inv.partitions())}
    assert (len(autos), len(inv.subspaces), len(orbs)) == (5040, 1599, 22)
    for orb in orbs:
        rep = inv.subspaces[orb[0]][0]
        assert orb == tuple(sorted({index[relabel(rep, phi)] for phi in autos}))
    assert sorted(i for orb in orbs for i in orb) == list(range(len(inv.subspaces)))


# ---------------------------------------------------------------------------
# eigen data and dichotomy reports


def test_eigendata_feedforward():
    eig0 = eigendata(FEEDFORWARD, 0)
    assert len(eig0.right_basis) == 1 and len(eig0.left_basis) == 1
    assert linalg.span_contains(list(eig0.right_basis), linalg.vector([0, 0, 1]))
    assert linalg.span_contains(list(eig0.left_basis), linalg.vector([1, -1, 0]))
    eig1 = eigendata(FEEDFORWARD, 1)
    assert linalg.span_contains(list(eig1.right_basis), linalg.vector([1, 1, 1]))
    assert linalg.span_contains(list(eig1.left_basis), linalg.vector([1, 0, 0]))


def test_eigendata_identity():
    eig = eigendata(linalg.identity(3), 1)
    assert len(eig.right_basis) == 3 and len(eig.left_basis) == 3


def test_eigendata_multiplicities_agree():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 4)
        m = matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        for lam in (-1, 0, 1, 2):
            eig = eigendata(m, lam)
            assert len(eig.right_basis) == len(eig.left_basis)


def feedforward_table(lam):
    rep = check_main_lemma(FEEDFORWARD, lam)
    in_w = {typical_element(r.partition) for r in rep.rows if r.right_in_subspace}
    in_perp = {typical_element(r.partition) for r in rep.rows if r.left_in_perp}
    return rep, in_w, in_perp


def test_main_lemma_feedforward_lambda0():
    rep, in_w, in_perp = feedforward_table(0)
    assert rep.passed
    assert in_w == {"(0,0,a)", "(0,a,b)", "(a,a,b)", "(a,b,c)"}
    assert in_perp == {"(0,0,0)", "(0,0,a)", "(a,a,a)", "(a,a,b)"}


def test_main_lemma_feedforward_lambda1():
    rep, in_w, in_perp = feedforward_table(1)
    assert rep.passed
    assert in_w == {"(a,a,a)", "(a,a,b)", "(a,b,c)"}
    assert in_perp == {"(0,0,0)", "(0,0,a)", "(0,a,b)"}


def test_main_lemma_dirichlet_lambda3():
    rep = check_main_lemma(DIRICHLET, 3)
    assert rep.passed
    rows = {typical_element(r.partition): r for r in rep.rows}
    assert rows["(a,0,-a)"].right_in_subspace
    assert rows["(a,b,a)"].left_in_perp and not rows["(a,b,a)"].right_in_subspace
    assert rows["(a,b,c)"].right_in_subspace


def test_main_lemma_one_by_one():
    rep = check_main_lemma(zeros(1, 1), 0)
    rows = {typical_element(r.partition): r for r in rep.rows}
    assert rows["(a)"].right_in_subspace


def test_main_lemma_requires_simple_eigenvalue():
    with pytest.raises(ValueError):
        check_main_lemma(zeros(2, 2), 0)  # multiplicity 2
    with pytest.raises(ValueError):
        check_main_lemma(DIRICHLET, 2)  # not an eigenvalue


@pytest.mark.parametrize("lam, multiplicity", [(5, 0), (1, 2)])
def test_dichotomy_rows_require_a_simple_eigenvalue(lam, multiplicity):
    identity = matrix([[1, 0], [0, 1]])
    want = "eigenvalue %d has geometric multiplicity %d, need 1" % (lam, multiplicity)
    with pytest.raises(ValueError, match=want):
        invariance.dichotomy_rows(identity, eigendata(identity, lam))


def test_column_sums_theorem_colsum3():
    rep = check_constant_column_sums_theorem(COLSUM3)
    assert rep.hypotheses_met and rep.passed
    assert rep.lam == 3
    assert linalg.span_contains([rep.v], linalg.vector([5, 8, 7]))
    labels = {typical_element(r.partition): r for r in rep.rows}
    assert len(labels) == 4
    synchrony = [t for t, r in labels.items() if r.label == "synchrony"]
    assert synchrony == ["(a,b,c)"]
    assert all(r.label in ("synchrony", "evenly tagged", "trivial") for r in labels.values())


def test_column_sums_theorem_cycle3():
    rep = check_constant_column_sums_theorem(CYCLE3)
    assert rep.passed and rep.lam == 1
    rows = {typical_element(r.partition): r for r in rep.rows}
    assert set(rows) == {"(0,0,0)", "(a,a,a)", "(a,b,c)"}
    assert rows["(a,a,a)"].right_in_subspace and rows["(a,b,c)"].right_in_subspace
    assert not rows["(0,0,0)"].right_in_subspace


def test_column_sums_theorem_k3_laplacian():
    lap = graph.laplacian_matrix(graph.digraph_of_graph(3, [(1, 2), (1, 3), (2, 3)]))
    rep = check_constant_column_sums_theorem(lap)
    assert rep.passed
    for r in rep.rows:
        cls = classify(r.partition)
        if cls.anti_synchrony:
            assert cls.evenly_tagged


def test_column_sums_rows_are_the_old_row_loop():
    """On random constant-column-sum matrices whose hypotheses hold, the
    rows are the ones the report once built itself: contains_v is v in W,
    and the conclusion is synchrony with v or evenly tagged without it."""
    rng = random.Random(18)
    met = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
        lam = rng.randint(-2, 2)
        m = matrix(rows + [[lam - sum(r[j] for r in rows) for j in range(n)]])
        rep = check_constant_column_sums_theorem(m)
        if not rep.hypotheses_met:
            continue
        met += 1
        old = []
        for p, cls in invariant_polydiagonals(m).subspaces:
            has_v = contains(p, rep.v)
            old.append((p, type_label(p, cls), has_v, (cls.synchrony and has_v) or (cls.evenly_tagged and not has_v)))
        assert [(r.partition, r.label, r.right_in_subspace, r.sharpened) for r in rep.rows] == old
        assert rep.violations() == [r for r in rep.rows if not r.sharpened]
    assert met >= 10


def test_sharpened_is_synchrony_with_v_or_evenly_tagged_without():
    eig = eigendata(CYCLE3, 1)
    rows = {typical_element(r.partition): r for r in invariance.dichotomy_rows(CYCLE3, eig)}
    for typical, has_v, holds in (
        ("(a,a,a)", True, True),
        ("(a,a,a)", False, False),
        ("(0,0,0)", False, True),  # evenly tagged
        ("(0,0,0)", True, False),
    ):
        assert dataclasses.replace(rows[typical], right_in_subspace=has_v).sharpened == holds
    uneven = invariance.DichotomyRow(parse_typical_element("(a,-a,-a)"), classify(parse_typical_element("(a,-a,-a)")),
                                     False, False)
    assert uneven.label == "fully tagged" and not uneven.sharpened


def test_column_sums_hypothesis_failures_are_reported():
    rep = check_constant_column_sums_theorem(matrix([[1, 2], [0, 0]]))
    assert not rep.hypotheses_met and "column sums" in rep.reason
    rep2 = check_constant_column_sums_theorem(zeros(2, 2))
    assert not rep2.hypotheses_met and "multiplicity" in rep2.reason
    # constant column sums but the eigenvector (0,1) has a zero entry
    rep3 = check_constant_column_sums_theorem(VDP_A)
    assert not rep3.hypotheses_met and "v_i + v_j" in rep3.reason
    # column sums 0 with eigenvector (0,1,-1): v_i + v_j = 0 occurs
    m = matrix([[1, 0, 0], [-1, -1, -1], [0, 1, 1]])
    rep4 = check_constant_column_sums_theorem(m)
    assert not rep4.hypotheses_met and "v_i + v_j" in rep4.reason


def _spelled(m):
    return [[str(x) for x in row] for row in m]


@pytest.mark.parametrize("m", [[["1", "1/2"], ["0", "1/2"]], _spelled(COLSUM3), _spelled(DIRICHLET)])
def test_theorem_reports_read_string_entries(m):
    """A matrix of strings gives the report of the Fractions it spells."""
    fr = linalg.matrix(m)
    assert check_constant_column_sums_theorem(m) == check_constant_column_sums_theorem(fr)
    for lam in sorted({sum(row[j] for row in fr) for j in range(len(fr))} | {fr[-1][-1]}):
        try:
            want = check_main_lemma(fr, lam)
        except ValueError:
            continue
        assert check_main_lemma(m, lam) == want
        assert check_main_lemma(m, str(lam)) == want


def test_theorem_reports_reject_float_entries():
    m = [[1.0, "1/2"], [0, "1/2"]]
    with pytest.raises(TypeError):
        check_constant_column_sums_theorem(m)
    with pytest.raises(TypeError):
        check_main_lemma(m, 1)


# sha256 of report_to_json on the demo digraphs (as stored, not relabelled):
# the cases the benchmark's suites workload runs.  Their lambda, v_right,
# v_left and v come straight from nullspace, so a change in its values or
# its basis order changes the bytes.
MAIN_LEMMA_REPORT_SHA256 = {
    ("d3_cayley_equal", "adjacency", 2): "bd384ea064cc844a1ac9e2181650432838fae82dcb7bfc059d97021cfb671e3a",
    ("d3_cayley_equal", "laplacian", 0): "88c1cb13bd4cf08dfef207a26f3de78a4b3b58d5cb4cd3865dc18be00034bcd2",
    ("directed_c4", "adjacency", -1): "e1d518a287adb63cbf29ddcb0b626ce466223eedd27d1a47dc07713360a12b35",
    ("gandgt", "adjacency", 1): "eef2d74983ebb419389142755b366abfe619884b6616de1bb94ffd7d42b7b8c6",
    ("lapdirichlet", "laplacian", -3): "aa71fb751d30debc085fd4dd64dee306bb45a2707cc7fa9319457a3164719d92",
    ("lorenz_pair", "laplacian", 2): "12370e7d51ce3033fab8c77d1f2e265bc27a432147175bd0d299e6f1621c7259",
    ("threev_one_edge", "adjacency", 0): "b916738b81b7db794e13ebad8347ef3006e25c8d24f458366a4ef5bcf4c6ca72",
    ("weight_balanced", "laplacian", 3): "76a2f89baff1a4d1e93db20a5b04561af86333b5a7697dea0d15d89b71ef4405",
}
COLUMN_SUMS_REPORT_SHA256 = {
    ("d3_cayley_equal", "adjacency"): "95b9d063e62e1ce4c91ac767af86814bf7895595e5da2dd04240fab73261725d",
    ("d3_cayley_equal", "laplacian"): "a0707d92572989da8bba1920193b2172e1f035f1f765e4b05ddc676b4e9dbc48",
    ("directed_c3", "adjacency"): "bcbb37756a331892c1cd9a3d602e1f0a807afe14d58810a24b7dc4c0c12bc3d2",
    ("directed_c4", "adjacency"): "667627c32a5d891a51e53f7b5582484952de19002ebe5f1b28555596e51b28ed",
    ("lapdirichlet", "laplacian"): "f15c91621baa15111a8309c54c796171a2c1324a221272a8b11b74c2b4e5be22",
    ("lorenz_pair", "laplacian"): "eeb4495d855f08fc50559ae83a6575e6d19e4512e0beb3c1aba458ad73cb678f",
    ("weight_balanced", "laplacian"): "378bd3a4262f07478d954b6b727698d2b1a16a11a66aee2664d330fb127ef837",
}
DEMO_MATRIX = {"adjacency": graph.adjacency_matrix, "laplacian": graph.laplacian_matrix}


def _demo_matrix(name, which):
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "data", name + ".json")
    return DEMO_MATRIX[which](graph.load_digraph(path))


@pytest.mark.parametrize("case", MAIN_LEMMA_REPORT_SHA256, ids=lambda c: "%s-%s-%s" % c)
def test_main_lemma_report_bytes(case):
    name, which, lam = case
    text = invariance.report_to_json(check_main_lemma(_demo_matrix(name, which), lam))
    assert hashlib.sha256(text.encode()).hexdigest() == MAIN_LEMMA_REPORT_SHA256[case]


@pytest.mark.parametrize("case", COLUMN_SUMS_REPORT_SHA256, ids=lambda c: "%s-%s" % c)
def test_column_sums_report_bytes(case):
    text = invariance.report_to_json(check_constant_column_sums_theorem(_demo_matrix(*case)))
    assert hashlib.sha256(text.encode()).hexdigest() == COLUMN_SUMS_REPORT_SHA256[case]


RAGGED = [[1, 2], [3, 4, 5]]
SHORT_ROW = [[1, 2], [3]]
WIDE = [[1, 2, 3], [4, 5, 6]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_constant_column_sums_theorem(SHORT_ROW),
        lambda: check_constant_column_sums_theorem(WIDE),
        lambda: check_constant_column_sums_theorem(RAGGED),
        lambda: eigendata(RAGGED, 1),
        lambda: eigendata(WIDE, 1),
        lambda: check_main_lemma(RAGGED, 1),
        lambda: check_main_lemma(WIDE, 1),
        lambda: invariant_polydiagonals(RAGGED),
        lambda: invariant_polydiagonals(WIDE),
        lambda: is_invariant(WIDE, parse_typical_element("(a,b)")),
    ],
    ids=["column-sums-short-row", "column-sums-2x3", "column-sums-ragged", "eigendata-ragged", "eigendata-2x3",
         "main-lemma-ragged", "main-lemma-2x3", "scan-ragged", "scan-2x3", "is-invariant-2x3"],
)
def test_non_square_matrices_are_refused(call):
    with pytest.raises(ValueError, match="square"):
        call()


def test_equal_in_degree_gives_same_invariants_for_a_and_l():
    for g in (
        graph.from_adjacency([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        graph.cayley_digraph(graph.cyclic_group_table(5), [(1, F(1)), (4, F(2))]),
    ):
        a = graph.adjacency_matrix(g)
        lap = graph.laplacian_matrix(g)
        assert typicals(invariant_polydiagonals(a)) == typicals(invariant_polydiagonals(lap))


def test_odd_cell_count_forces_zero_cell():
    # constant column sums, odd n: anti-synchrony invariant subspaces are
    # evenly tagged, hence must use the fixed (zero) class
    for m in (COLSUM3, CYCLE3):
        for p, cls in invariant_polydiagonals(m).subspaces:
            if cls.anti_synchrony:
                assert p.fixed is not None

