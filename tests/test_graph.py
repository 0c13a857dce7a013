import functools
import gc
import itertools
import json
import math
import os
import random
import time
import warnings
from fractions import Fraction as F

import pytest
from automorphism_oracle import automorphisms, perm_compose

from polydiag import graph
from polydiag.graph import (
    WeightedDigraph,
    adjacency_matrix,
    automorphism_generators,
    cayley_digraph,
    cyclic_group_table,
    digraph_of_graph,
    dihedral_group_table,
    from_adjacency,
    is_strongly_connected,
    is_vertex_transitive,
    is_weight_balanced,
    laplacian_matrix,
)

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "data")


def perm_inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def vdp_digraph():
    # cell 1 autonomous, cell 2 driven by cell 1 and itself
    return WeightedDigraph(2, ((1, 2, F(1)), (2, 2, F(1))))


def test_adjacency_examples():
    assert adjacency_matrix(vdp_digraph()) == ((0, 0), (1, 1))
    assert adjacency_matrix(WeightedDigraph(2, ())) == ((0, 0), (0, 0))
    g = from_adjacency([[0, 1, 1], [2, 0, 2], [1, 2, 0]])
    assert adjacency_matrix(g) == ((0, 1, 1), (2, 0, 2), (1, 2, 0))


def test_laplacian_examples():
    assert laplacian_matrix(vdp_digraph()) == ((0, 0), (-1, 1))
    two_cell = digraph_of_graph(2, [(1, 2)])
    assert laplacian_matrix(two_cell) == ((1, -1), (-1, 1))
    assert laplacian_matrix(WeightedDigraph(3, ())) == ((0,) * 3,) * 3


def test_laplacian_row_sums_zero():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(2, 6)
        g = graph.from_weight_map(n, graph.random_balanced_weights(n, rng))
        for row in laplacian_matrix(g):
            assert sum(row) == 0
        # weight balance makes the column sums vanish as well
        for col in zip(*laplacian_matrix(g)):
            assert sum(col) == 0


def test_imbalance_examples():
    """graph._net_flow gives each vertex's out-degree minus in-degree."""
    g = digraph_of_graph(3, [(1, 2), (2, 3)])
    assert graph._net_flow(g) == [0, 0, 0]
    balanced = from_adjacency([[0, 0, 2], [1, 0, 0], [1, 1, 0]])
    assert graph._net_flow(balanced) == [0, 0, 0]
    feedforward = from_adjacency([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert graph._net_flow(feedforward) == [1, 0, -1]


def test_total_imbalance_vanishes():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(2, 6)
        arrows = []
        for t in range(1, n + 1):
            for h in range(1, n + 1):
                if rng.random() < 0.4:
                    arrows.append((t, h, F(rng.randint(1, 5), rng.randint(1, 3))))
        g = WeightedDigraph(n, tuple(arrows))
        assert sum(graph._net_flow(g)) == 0


def test_weight_balanced_iff_row_equals_column_sums():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(2, 5)
        a = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        g = from_adjacency(a)
        row = [sum(a[i][j] for j in range(n)) for i in range(n)]
        col = [sum(a[i][j] for i in range(n)) for j in range(n)]
        assert is_weight_balanced(g) == (row == col)
        # a[i][j] weighs the arrow j -> i: out-degrees are column sums
        assert graph._net_flow(g) == [c - r for r, c in zip(row, col)]


def test_connectivity_predicates():
    c3 = from_adjacency([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert is_strongly_connected(c3)
    assert is_weight_balanced(c3)
    lonely = digraph_of_graph(3, [(2, 3)])
    assert not graph.weakly_connected(*graph.arrow_masks(lonely.n, [(t, h) for t, h, _ in lonely.arrows]))
    assert not is_strongly_connected(lonely)
    single = WeightedDigraph(1, ())
    assert is_strongly_connected(single)
    assert is_weight_balanced(single)


def test_digraph_of_graph():
    assert len(digraph_of_graph(3, [(2, 3)]).arrows) == 2
    assert len(digraph_of_graph(3, [(1, 2), (1, 3), (2, 3)]).arrows) == 6
    assert digraph_of_graph(2, []).arrows == ()
    with pytest.raises(ValueError):
        digraph_of_graph(2, [(1, 1)])
    rng = random.Random(3)
    for _ in range(10):
        g = graph.random_connected_graph(rng.randint(2, 7), rng)
        assert is_weight_balanced(g)
        assert graph.weakly_connected(*graph.arrow_masks(g.n, [(t, h) for t, h, _ in g.arrows]))


@pytest.mark.parametrize("n", [-1, 2.5, True, "2", None])
def test_vertex_count_must_be_a_natural_number(n):
    with pytest.raises(ValueError):
        WeightedDigraph(n, ())
    with pytest.raises(ValueError):
        graph.from_json(json.dumps({"n": n, "arrows": []}))


@pytest.mark.parametrize("arrow", [[1.5, 2], [True, 2], [1, False], ["1", 2], [1, None]])
def test_arrow_endpoints_must_be_integers(arrow):
    with pytest.raises(ValueError):
        WeightedDigraph(2, ((*arrow, F(1)),))
    with pytest.raises(ValueError):
        graph.from_json(json.dumps({"n": 2, "arrows": [[*arrow, "1"]]}))


def test_endpoints_checked_before_sorting():
    """A string endpoint beside an int one is the constructor's own error,
    not a failed comparison in the sort."""
    for arrows in ((("1", 2, 1), (1, 2, 1)), ((1, 2, 1), (2, "1", 1))):
        with pytest.raises(ValueError, match="endpoints must be integers in 1..2"):
            WeightedDigraph(2, arrows)


@pytest.mark.parametrize("weight", [True, False])
def test_boolean_weight_rejected(weight):
    with pytest.raises(TypeError):
        WeightedDigraph(2, ((1, 2, weight),))
    with pytest.raises(TypeError):
        graph.from_json(json.dumps({"n": 2, "arrows": [[1, 2, weight]]}))


def test_zero_vertices_accepted():
    assert WeightedDigraph(0, ()).n == 0
    assert graph.from_json('{"n": 0, "arrows": []}') == WeightedDigraph(0, ())
    assert graph.arrow_masks(0, []) == ([], [])
    assert is_strongly_connected(WeightedDigraph(0, ())) and graph.weakly_connected([], [])


def test_duplicate_and_zero_weight_arrows_rejected():
    with pytest.raises(ValueError):
        WeightedDigraph(2, ((1, 2, F(1)), (1, 2, F(2))))
    with pytest.raises(ValueError):
        WeightedDigraph(2, ((1, 2, F(0)),))


# ---------------------------------------------------------------------------
# automorphisms and Cayley digraphs


def test_cayley_z7_automorphism_orders():
    t7 = cyclic_group_table(7)
    g = cayley_digraph(t7, [(1, F(1)), (6, F(2))])
    assert len(automorphisms(g)) == automorphism_generators(g)[1] == 7
    g_eq = cayley_digraph(t7, [(1, F(1)), (6, F(1))])
    assert len(automorphisms(g_eq)) == automorphism_generators(g_eq)[1] == 14


def test_cayley_d3_automorphism_orders():
    t = dihedral_group_table(3)
    g = cayley_digraph(t, [(3, F(1)), (4, F(2))])
    assert len(automorphisms(g)) == automorphism_generators(g)[1] == 6
    g_eq = cayley_digraph(t, [(3, F(1)), (4, F(1))])
    assert len(automorphisms(g_eq)) == automorphism_generators(g_eq)[1] == 12


def test_cayley_z2():
    g = cayley_digraph(cyclic_group_table(2), [(1, F(1))])
    assert g.arrows == ((1, 2, F(1)), (2, 1, F(1)))


def test_cayley_rejects_bad_tables():
    with pytest.raises(ValueError):
        cayley_digraph([[0, 1], [1, 1]], [(1, F(1))])  # not a group
    with pytest.raises(ValueError):
        cayley_digraph(cyclic_group_table(3), [(1, F(1)), (1, F(2))])  # collision


REFUSED = {
    "adjacency not square": (lambda: from_adjacency([[0, 1], [1]]), "must be square"),
    "table too large": (lambda: cayley_digraph(cyclic_group_table(25), [(1, F(1))]), "larger than 24"),
    "table not closed": (lambda: cayley_digraph([[0, 1], [1, 2]], [(1, F(1))]), "not closed"),
    "table without identity": (lambda: cayley_digraph([[0, 0], [0, 0]], [(1, F(1))]), "no identity"),
    "table not associative": (lambda: cayley_digraph([[0, 1, 2], [1, 0, 0], [2, 0, 1]], [(1, F(1))]),
                              "not associative"),
    "balanced weights on one vertex": (lambda: graph.random_balanced_weights(1, random.Random(0)), "n >= 2"),
    "in-degree zero": (lambda: graph.random_in_regular_digraph(3, 0, random.Random(0)), "1 <= d <= n"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED.keys())
def test_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_automorphism_group_axioms():
    g = cayley_digraph(dihedral_group_table(3), [(3, F(1)), (4, F(1))])
    autos = automorphisms(g)
    aset = set(autos)
    assert tuple(range(1, 7)) in aset
    for a in autos:
        assert perm_inverse(a) in aset
        for b in autos:
            assert perm_compose(a, b) in aset


def test_vertex_transitive_implies_weight_balanced():
    for g in (
        cayley_digraph(cyclic_group_table(5), [(1, F(2))]),
        cayley_digraph(dihedral_group_table(3), [(3, F(1)), (4, F(1))]),
    ):
        assert is_vertex_transitive(g)
        assert is_weight_balanced(g)


def test_equal_in_degrees_makes_a_plus_l_scalar():
    g = cayley_digraph(cyclic_group_table(7), [(1, F(1)), (6, F(2))])
    a = adjacency_matrix(g)
    lap = laplacian_matrix(g)
    d = sum(a[0])
    for i in range(g.n):
        for j in range(g.n):
            expect = d if i == j else 0
            assert a[i][j] + lap[i][j] == expect


# Equal values in different spellings; the int codes must merge them.
SPELLINGS = (("1/2", "0.5", F(2, 4)), ("-1", -1, "-2/2"), ("3", 3, "6/2"))


def _spelled_digraph(n, rng, kind):
    """Random digraph with loops, negative weights and equal weights spelled
    differently.  ``symmetric``: t -> h and h -> t carry one value;
    ``circulant``: the arrow i -> i + d (mod n) has a value that depends on
    d alone, under a random relabelling; ``free``: no constraint."""
    values = rng.sample(SPELLINGS, rng.randint(1, 3))
    density = rng.random()
    label = rng.sample(range(1, n + 1), n)
    offsets = {d: rng.choice(values) for d in range(n) if rng.random() < density}
    arrows = {}
    for t in range(1, n + 1):
        for h in range(t if kind == "symmetric" else 1, n + 1):
            if kind == "circulant":
                value = offsets.get((h - t) % n)
                if value:
                    arrows[(label[t - 1], label[h - 1])] = rng.choice(value)
            elif rng.random() < density:
                value = rng.choice(values)
                arrows[(t, h)] = rng.choice(value)
                if kind == "symmetric" and t != h:
                    arrows[(h, t)] = rng.choice(value)
    return WeightedDigraph(n, tuple((t, h, w) for (t, h), w in arrows.items()))


def test_automorphisms_match_brute_force():
    """The backtracking search lists exactly the weight-preserving
    permutations, in lexicographic order."""
    rng = random.Random(13)
    nontrivial = 0
    for i in range(150):
        g = _spelled_digraph(rng.randint(0, 6), rng, ("symmetric", "circulant", "free")[i % 3])
        w = g.weight_map()
        cells = range(1, g.n + 1)
        expected = [
            perm
            for perm in itertools.permutations(cells)
            if all(w.get((perm[t - 1], perm[h - 1])) == w.get((t, h)) for t in cells for h in cells)
        ]
        assert automorphisms(g) == expected, g
        nontrivial += len(expected) > 1
    assert nontrivial >= 60


def test_perm_compose_is_p_after_q():
    assert perm_compose((2, 3, 1), (1, 3, 2)) == (2, 1, 3)


def _closure(gens, n):
    """The group the permutations gens generate, grown breadth first from
    the identity."""
    group = {tuple(range(1, n + 1))}
    frontier = list(group)
    while frontier:
        frontier = [h for h in {perm_compose(g, s) for g in frontier for s in gens} if h not in group]
        group.update(frontier)
    return group


def _preserves_weights(g, phi):
    w = g.weight_map()
    return {(phi[t - 1], phi[h - 1]): wt for (t, h), wt in w.items()} == w


def _complete(n):
    return digraph_of_graph(n, itertools.combinations(range(1, n + 1), 2))


def _cycle(n):
    return digraph_of_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _directed_cycle(n):
    return WeightedDigraph(n, tuple((i, i % n + 1, 1) for i in range(1, n + 1)))


def _cube(d):
    return digraph_of_graph(2**d, [(i + 1, (i ^ 1 << k) + 1) for i in range(2**d) for k in range(d) if i < i ^ 1 << k])


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return digraph_of_graph(q, [(i + 1, j + 1) for i, j in itertools.combinations(range(q), 2) if (j - i) % q in squares])


def _petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return digraph_of_graph(10, outer + inner + [(i, i + 5) for i in range(1, 6)])


def _complete_bipartite(m):
    return digraph_of_graph(2 * m, [(i, j) for i in range(1, m + 1) for j in range(m + 1, 2 * m + 1)])


def _corpus():
    """Every digraph with n <= 9 that the tests and demos read: the demo
    files, the Cayley digraphs and the van der Pol pair of these tests, the
    digraphs of the CLI tests (the pair, the heavy pair, the 9-cycle, the
    empty digraph and the hit-heavy inputs zero6, K7, directed C8 and C8),
    then 200 seeded random digraphs with n <= 7 and equal weights spelled
    differently."""
    for name in sorted(os.listdir(DEMO_DIR)):
        yield graph.load_digraph(os.path.join(DEMO_DIR, name))
    for table, gens in ((cyclic_group_table(7), [(1, F(1)), (6, F(2))]), (cyclic_group_table(7), [(1, 1), (6, 1)]),
                        (dihedral_group_table(3), [(3, F(1)), (4, F(2))]), (dihedral_group_table(3), [(3, 1), (4, 1)])):
        yield cayley_digraph(table, gens)
    yield vdp_digraph()
    yield WeightedDigraph(2, ((1, 2, 1), (2, 2, 1)))
    yield WeightedDigraph(2, ((1, 2, "1e300"), (2, 2, "1e300")))
    yield _directed_cycle(9)
    yield WeightedDigraph(0, ())
    yield WeightedDigraph(6, ())
    yield _complete(7)
    yield _directed_cycle(8)
    yield _cycle(8)
    rng = random.Random(36)
    for i in range(200):
        yield _spelled_digraph(rng.randint(0, 7), rng, ("symmetric", "circulant", "free")[i % 3])


def test_generator_search_orders_match_the_listing():
    """On every digraph of the corpus the search's generators are
    automorphisms that generate the whole listed group, its order is the
    listing's length, and cell 1's orbit decides vertex transitivity as
    the listing does."""
    nontrivial = 0
    for g in _corpus():
        gens, order = automorphism_generators(g)
        listed = automorphisms(g)
        assert order == len(listed), g
        assert _closure(gens, g.n) == set(listed), g
        assert is_vertex_transitive(g, gens) == ({phi[0] for phi in listed if phi} >= set(range(1, g.n + 1))), g
        nontrivial += order > 1
    assert nontrivial >= 100


def test_generators_preserve_every_arrow_weight():
    """Each generator maps each arrow to an arrow of exactly its weight,
    equal values spelled differently included, on the corpus and the
    closed-form digraphs."""
    digraphs = list(_corpus()) + [make() for make, _ in CLOSED_FORMS.values()]
    for g in digraphs:
        for phi in automorphism_generators(g)[0]:
            assert sorted(phi) == list(range(1, g.n + 1)), g
            assert _preserves_weights(g, phi), (g, phi)


CLOSED_FORMS = {
    **{"K%d" % n: (functools.partial(_complete, n), math.factorial(n)) for n in (1, 2, 5, 9, 12, 16)},
    **{"C%d" % n: (functools.partial(_cycle, n), 2 * n) for n in (3, 5, 8, 16, 24)},
    **{"directed-C%d" % n: (functools.partial(_directed_cycle, n), n) for n in (2, 5, 8, 24)},
    **{"Q%d" % d: (functools.partial(_cube, d), 2**d * math.factorial(d)) for d in (2, 3, 4, 5)},
    "Petersen": (_petersen, 120),
    "Paley13": (functools.partial(_paley, 13), 78),
    "Paley17": (functools.partial(_paley, 17), 136),
    "K10,10": (functools.partial(_complete_bipartite, 10), 2 * math.factorial(10) ** 2),
    # no cell limit: 13 cells were refused while the group was listed
    "zero13": (lambda: WeightedDigraph(13, ()), math.factorial(13)),
}


@pytest.mark.parametrize("make, order", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
def test_generator_search_closed_forms(make, order):
    """K_n has n! automorphisms, C_n 2n, directed C_n n, Q_d 2^d d!,
    Petersen 120, Paley(q) with q prime q(q - 1)/2, and K_{10,10}
    2 (10!)^2."""
    g = make()
    assert automorphism_generators(g)[1] == order


def _random_regular(n, d, rng):
    """A random d-regular simple graph on 1..n by the pairing model: d
    stubs per vertex, shuffled and paired, drawn again until no pair is a
    loop or a repeat."""
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(e)) for e in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * d // 2 and all(t != h for t, h in edges):
            return digraph_of_graph(n, sorted(edges))


@pytest.mark.parametrize("n, d", [(40, 3), (50, 4)], ids=["cubic-40", "quartic-50"])
def test_generator_search_budget_on_random_regular_graphs(n, d):
    """A seeded random cubic graph on 40 cells and a 4-regular one on 50:
    one signature class, so every cell is a candidate image of every
    other.  Almost every random regular graph is rigid, and these are:
    the search proves the group trivial within 0.15 s, best of 3 (about
    0.015 s each on a 2-vCPU Xeon VM)."""
    g = _random_regular(n, d, random.Random(1))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        gens, order = automorphism_generators(g)
        best = min(best, time.perf_counter() - start)
    assert (gens, order) == ([], 1)
    assert best < 0.15, best


def _stack_reachable(n, pairs, v):
    """The vertices reachable from v: a depth-first search with an explicit
    stack over successor lists, independent of the bitmask routine."""
    succ = {i: [] for i in range(1, n + 1)}
    for t, h in pairs:
        succ[t].append(h)
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for x in succ[u]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return seen


def _bits(mask):
    return {i + 1 for i in range(mask.bit_length()) if mask >> i & 1}


def _random_pairs(rng, n):
    p = rng.choice([0.1, 0.2, 0.35, 0.6])
    return [(t, h) for t in range(1, n + 1) for h in range(1, n + 1) if rng.random() < p]


def test_bitmask_reachability_matches_a_stack_search():
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 9)
        pairs = _random_pairs(rng, n)
        succ, pred = graph.arrow_masks(n, pairs)
        back = [(h, t) for t, h in pairs]
        for v in range(1, n + 1):
            assert _bits(graph.reachable(succ, v)) == _stack_reachable(n, pairs, v)
            assert _bits(graph.reachable(pred, v)) == _stack_reachable(n, back, v)
        everyone = set(range(1, n + 1))
        strong = all(_stack_reachable(n, pairs, v) == everyone for v in everyone)
        weak = _stack_reachable(n, pairs + back, 1) == everyone
        g = WeightedDigraph(n, tuple((t, h, F(1)) for t, h in pairs))
        assert graph.strongly_connected(succ, pred) == is_strongly_connected(g) == strong
        assert graph.weakly_connected(succ, pred) == weak
        seen[strong] += 1
    assert seen[True] and seen[False]


def _old_laplacian(g):
    """L = D - A from whole rows: diagonal (row sum) - A[i][i]."""
    a = adjacency_matrix(g)
    return tuple(
        tuple((sum(row) if i == j else 0) - row[j] for j in range(g.n))
        for i, row in enumerate(a)
    )


def test_laplacian_matches_the_row_sum_formula():
    rng = random.Random(17)
    cases = [WeightedDigraph(0, ()), WeightedDigraph(1, ()), WeightedDigraph(1, ((1, 1, F(-2, 3)),))]
    for _ in range(200):
        n = rng.randint(1, 7)
        # loops included; a low density leaves some vertices isolated
        arrows = tuple(
            (t, h, F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7])))
            for t in range(1, n + 1)
            for h in range(1, n + 1)
            if rng.random() < rng.choice([0.1, 0.4])
        )
        cases.append(WeightedDigraph(n, arrows))
    for g in cases:
        lap = laplacian_matrix(g)
        assert lap == _old_laplacian(g), graph.to_json(g)
        assert all(type(x) is F for row in lap for x in row)
        assert len(lap) == g.n and all(len(row) == g.n for row in lap)


def _library_balanced_weights(n, rng):
    """random_balanced_weights as it was written on rng.randint and
    rng.sample: the reference for the stream of the getrandbits draw."""
    weight = {}
    for _ in range(rng.randint(2, n + 1)):
        length = rng.randint(2, n)
        cyc = rng.sample(range(1, n + 1), length)
        w = rng.randint(1, 3)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            weight[(a, b)] = weight.get((a, b), 0) + w
    return weight


def _old_random_weight_balanced_digraph(n, rng):
    """The draw as it was built with Fraction weights."""
    weight = _library_balanced_weights(n, rng)
    return WeightedDigraph(n, tuple((t, h, F(w)) for (t, h), w in sorted(weight.items())))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_weight_balanced_draw_is_the_fraction_draw(seed):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(50):
        n = new.randint(2, 7)
        assert n == old.randint(2, 7)
        weight = graph.random_balanced_weights(n, new)
        g = graph.from_weight_map(n, weight)
        assert g == _old_random_weight_balanced_digraph(n, old)
        assert all(type(w) is int for w in weight.values())
        assert g.weight_map() == weight and is_weight_balanced(g)


class _SampleSizes(random.Random):
    """random.Random that records the size k of every sample it draws; it
    overrides neither random nor getrandbits, so its stream is the base
    class's."""

    def sample(self, population, k, **kwargs):
        self.sizes.append(k)
        return super().sample(population, k, **kwargs)


@pytest.mark.parametrize("n", range(2, 31))
def test_balanced_weights_are_the_library_stream(n):
    """Each draw has the items of the randint/sample draw in the same
    insertion order and leaves the rng in the same state.  sample swaps
    from a pool unless n exceeds its set size, 21 for k <= 5 and
    21 + 4 ** ceil(log4(3k)) above; so at n > 21 both branches are met."""
    old = _SampleSizes()
    old.sizes = []
    for seed in range(200):
        new = random.Random(seed)
        old.seed(seed)
        for _ in range(2):
            drawn = graph.random_balanced_weights(n, new)
            assert list(drawn.items()) == list(_library_balanced_weights(n, old).items())
        assert new.getstate() == old.getstate()
    set_branch = {n > 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0) for k in old.sizes}
    assert set_branch == ({False, True} if n > 21 else {False})


def test_strong_connectivity_of_balanced_connected_positive():
    rng = random.Random(4)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 7)
        weights = graph.random_balanced_weights(n, rng)
        if not graph.weakly_connected(*graph.arrow_masks(n, weights)):
            continue
        checked += 1
        assert is_strongly_connected(graph.from_weight_map(n, weights))


# ---------------------------------------------------------------------------
# file formats


def test_json_round_trip():
    g = WeightedDigraph(3, ((1, 2, F(1)), (2, 3, F(-1, 2))))
    assert graph.from_json(graph.to_json(g)) == g
    assert '"-1/2"' in graph.to_json(g)


def test_undirected_json():
    g = graph.from_json('{"n":3,"edges":[[2,3]]}')
    assert g == digraph_of_graph(3, [(2, 3)])


def test_edgelist_parses_literal_text():
    g = WeightedDigraph(3, ((1, 2, F(1)), (2, 3, F(-1, 2))))
    assert graph.from_edgelist("n=3\n1 2 1\n2 3 -1/2\n") == g
    assert graph.from_edgelist("  n=3\n\n 1  2 1\n2 3 -0.5  \n\n") == g
    with pytest.raises(ValueError):
        graph.from_edgelist("1 2 3\n")


def test_load_digraph_closes_its_file(tmp_path):
    edgelist = tmp_path / "pair.txt"
    edgelist.write_text("n=2\n1 2 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for path in (os.path.join(DEMO_DIR, "vdp_pair.json"), edgelist):
            graph.load_digraph(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
