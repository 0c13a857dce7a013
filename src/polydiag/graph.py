"""Weighted digraphs, the matrices they induce, and structural predicates.

Vertices are 1..n.  Arrows are (tail, head, weight) with nonzero rational
weights; loops are allowed, parallel arrows are not.  The adjacency matrix
is the in-adjacency convention used for coupled cell networks: A[i][j] is
the weight of the arrow *to* i *from* j.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import frac


@dataclass(frozen=True)
class WeightedDigraph:
    n: int
    arrows: tuple  # sorted tuple of (tail, head, Fraction weight)

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise ValueError("vertex count must be an integer >= 0, got %r" % (self.n,))
        # endpoints are checked before sorting, which could not compare a
        # string endpoint with an int one
        arrows = []
        for t, h, w in self.arrows:
            if not (type(t) is int and type(h) is int and 1 <= t <= self.n and 1 <= h <= self.n):
                raise ValueError("arrow (%r,%r): endpoints must be integers in 1..%d" % (t, h, self.n))
            arrows.append((t, h, frac(w)))  # the one coercion of an arrow weight
        arrows.sort()
        arrows = tuple(arrows)
        object.__setattr__(self, "arrows", arrows)
        seen = set()
        for t, h, w in arrows:
            if w == 0:
                raise ValueError("zero weight on arrow (%d,%d)" % (t, h))
            if (t, h) in seen:
                raise ValueError("duplicate arrow (%d,%d)" % (t, h))
            seen.add((t, h))

    def weight_map(self):
        return {(t, h): w for t, h, w in self.arrows}


def from_adjacency(a) -> WeightedDigraph:
    """Digraph whose in-adjacency matrix is a (the bijection inverse)."""
    n = len(a)
    arrows = []
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("adjacency matrix must be square")
        for j, w in enumerate(row):
            w = frac(w)
            if w != 0:
                arrows.append((j + 1, i + 1, w))
    return WeightedDigraph(n, tuple(arrows))


def digraph_of_graph(n, edges) -> WeightedDigraph:
    """Replace each undirected edge {i,j} by the arrow pair, weight 1."""
    arrows = []
    for e in edges:
        i, j = sorted(e)
        if i == j:
            raise ValueError("graph edges are two-element sets, got {%d}" % i)
        arrows.append((i, j, Fraction(1)))
        arrows.append((j, i, Fraction(1)))
    return WeightedDigraph(n, tuple(arrows))


def adjacency_matrix(g: WeightedDigraph):
    a = [[Fraction(0)] * g.n for _ in range(g.n)]
    for t, h, w in g.arrows:
        a[h - 1][t - 1] = w
    return tuple(tuple(row) for row in a)


def laplacian_matrix(g: WeightedDigraph):
    """L = D - A with D the in-degrees (the row sums of A), built in one
    pass over the arrows: a loop counts in its vertex's in-degree and is
    taken off the diagonal again."""
    zero = Fraction(0)
    lap = [[zero] * g.n for _ in range(g.n)]
    deg = [zero] * g.n
    for t, h, w in g.arrows:
        deg[h - 1] += w
        lap[h - 1][t - 1] = -w
    for i, row in enumerate(lap):
        row[i] += deg[i]
    return tuple(tuple(row) for row in lap)


def _net_flow(g: WeightedDigraph) -> list:
    """Out-degree minus in-degree of every vertex, in one pass over the arrows."""
    net = [Fraction(0)] * g.n
    for t, h, w in g.arrows:
        net[t - 1] += w
        net[h - 1] -= w
    return net


def is_weight_balanced(g: WeightedDigraph) -> bool:
    return not any(_net_flow(g))


def arrow_masks(n, pairs):
    """(succ, pred) for the arrows (t, h) in pairs on vertices 1..n: bit
    h - 1 of succ[t - 1] and bit t - 1 of pred[h - 1] are set."""
    succ, pred = [0] * n, [0] * n
    for t, h in pairs:
        succ[t - 1] |= 1 << (h - 1)
        pred[h - 1] |= 1 << (t - 1)
    return succ, pred


def reachable(masks, v=1) -> int:
    """Bitmask of the vertices reachable from vertex v, where masks[u - 1]
    is the bitmask of the vertices one step from vertex u.  Each round ORs
    the masks of the frontier's vertices."""
    seen = frontier = 1 << (v - 1)
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


def strongly_connected(succ, pred) -> bool:
    """Whether the arrows behind arrow_masks' (succ, pred) connect every
    vertex to vertex 1 and back."""
    n = len(succ)
    return n == 0 or reachable(succ) & reachable(pred) == (1 << n) - 1


def weakly_connected(succ, pred) -> bool:
    """Whether every vertex is joined to vertex 1 when the directions of
    the arrows are ignored."""
    n = len(succ)
    return n == 0 or reachable([s | p for s, p in zip(succ, pred)]) == (1 << n) - 1


def is_strongly_connected(g: WeightedDigraph) -> bool:
    return strongly_connected(*arrow_masks(g.n, [(t, h) for t, h, _ in g.arrows]))


# ---------------------------------------------------------------------------
# automorphisms


def automorphism_generators(g: WeightedDigraph):
    """Generators of the weight-preserving automorphism group, as image
    tuples (1-based), and the order of the group.

    A base search after Sims.  The base is the cells in breadth-first
    order over the underlying graph, walked from its last point to its
    first.  At base point b, with the points before it fixed, each cell u
    of b's signature outside b's orbit under the generators found so far
    gets one backtracking search for an automorphism mapping b to u.  The
    generators found from b on generate the pointwise stabilizer of the
    points before b, so the group order is the product of the basic orbit
    lengths.  The backtracking assigns the cells in base order, and a cell
    with a breadth-first parent p takes as images only the neighbours of
    p's image.  It does not refine the cells before branching, as McKay &
    Piperno, "Practical graph isomorphism, II" (J. Symbolic Comput. 60,
    2014) do: on the digraphs this package scans that costs more than it
    saves.

    Weights are compared through int codes: each distinct weight value
    gets a code from 1 up, 0 stands for no arrow, and ``W[t][h]`` holds
    the code of the arrow t -> h.  A cell's signature is its sorted row
    and column of codes and its loop code.
    """
    n = g.n
    cells = range(1, n + 1)
    codes, sigs = {}, {}
    W = [[0] * (n + 1) for _ in range(n + 1)]
    for t, h, wt in g.arrows:
        W[t][h] = codes.setdefault(wt, len(codes) + 1)
    WT = [list(col) for col in zip(*W)]
    sig = [None] + [sigs.setdefault((*sorted(W[v]), *sorted(WT[v]), W[v][v]), len(sigs)) for v in cells]
    near = [None] + [[u for u in cells if u != v and (W[v][u] or W[u][v])] for v in cells]  # underlying graph
    base, parent = [], [None] * (n + 1)
    for root in cells:
        if parent[root] is None:
            parent[root], queue = 0, [root]
            for v in queue:  # grows while it is walked
                for u in near[v]:
                    if parent[u] is None:
                        parent[u] = v
                        queue.append(u)
            base += queue
    images, used = list(range(n + 1)), [True] * (n + 1)  # every cell fixed at first

    def extend(k, pool):
        """An automorphism that maps base[k] into pool and agrees with the
        images of base[:k], or None; it recurses once per base point."""
        v = base[k]
        row, col, done = W[v], WT[v], base[:k]
        for u in pool:
            if used[u] or sig[u] != sig[v]:
                continue
            r, c = W[u], WT[u]
            if all(row[x] == r[images[x]] and col[x] == c[images[x]] for x in done):
                images[v] = u
                if k + 1 == n:
                    return tuple(images[1:])
                p = parent[base[k + 1]]
                used[u] = True
                phi = extend(k + 1, near[images[p]] if p else cells)
                used[u] = False
                if phi:
                    return phi
        return None

    gens, order = [], 1
    for i in range(n - 1, -1, -1):
        b, p = base[i], parent[base[i]]
        used[b] = False
        orbit = _orbit(b, gens, n)
        for u in near[p] if p else cells:
            if not orbit >> (u - 1) & 1 and (phi := extend(i, (u,))):
                gens.append(phi)
                orbit = _orbit(b, gens, n)
        order *= orbit.bit_count()
    return gens, order


def _orbit(cell, gens, n):
    """Bitmask of the orbit of a cell under the permutations gens of 1..n."""
    return reachable(arrow_masks(n, [(x, phi[x - 1]) for phi in gens for x in range(1, n + 1)])[0], cell)


def is_vertex_transitive(g: WeightedDigraph, gens=None) -> bool:
    """Whether the automorphisms, generated by gens (by default those of
    :func:`automorphism_generators`), move cell 1 to every cell."""
    if g.n == 0:
        return True
    gens = automorphism_generators(g)[0] if gens is None else gens
    return _orbit(1, gens, g.n) == (1 << g.n) - 1


# ---------------------------------------------------------------------------
# Cayley digraphs

GROUP_TABLE_LIMIT = 24


def _check_group_table(table):
    m = len(table)
    if m > GROUP_TABLE_LIMIT:
        raise ValueError("group table larger than %d not supported" % GROUP_TABLE_LIMIT)
    for row in table:
        if len(row) != m or any(not 0 <= x < m for x in row):
            raise ValueError("table is not closed on 0..%d" % (m - 1))
    e = next(
        (
            c
            for c in range(m)
            if all(table[c][j] == j and table[j][c] == j for j in range(m))
        ),
        None,
    )
    if e is None:
        raise ValueError("table has no identity element")
    for j in range(m):
        if not any(table[j][k] == e and table[k][j] == e for k in range(m)):
            raise ValueError("element %d has no inverse" % j)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValueError("table is not associative")
    return e


def cayley_digraph(table, generators) -> WeightedDigraph:
    """Weighted Cayley digraph of the group given by a multiplication table.

    ``table[i][j]`` is the index of g_i * g_j; ``generators`` is a list of
    (element index, weight).  Vertex i+1 stands for g_i; each generator s
    contributes the arrows g -> g*s (right multiplication).
    """
    _check_group_table(table)
    m = len(table)
    arrows = []
    seen = set()
    for s, weight in generators:
        for gidx in range(m):
            t, h = gidx + 1, table[gidx][s] + 1
            if (t, h) in seen:
                raise ValueError("generators collide on arrow (%d,%d)" % (t, h))
            seen.add((t, h))
            arrows.append((t, h, weight))
    return WeightedDigraph(m, tuple(arrows))


def cyclic_group_table(m):
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def dihedral_group_table(k):
    """Order-2k dihedral group; elements are rot^i (indices 0..k-1) then
    rot^i * ref (indices k..2k-1)."""

    def idx(i, a):
        return i % k + k * a

    def mul(x, y):
        i, a = x % k, x // k
        j, b = y % k, y // k
        return idx(i + (j if a == 0 else -j), (a + b) % 2)

    return [[mul(x, y) for y in range(2 * k)] for x in range(2 * k)]


# ---------------------------------------------------------------------------
# file formats


def to_json_dict(g: WeightedDigraph) -> dict:
    return {"n": g.n, "arrows": [[t, h, str(w)] for t, h, w in g.arrows]}


def from_json_dict(d: dict) -> WeightedDigraph:
    if "edges" in d:
        return digraph_of_graph(d["n"], [tuple(e) for e in d["edges"]])
    return WeightedDigraph(d["n"], tuple((t, h, w) for t, h, w in d["arrows"]))


def to_json(g: WeightedDigraph) -> str:
    return json.dumps(to_json_dict(g))


def from_json(s: str) -> WeightedDigraph:
    return from_json_dict(json.loads(s))


def from_edgelist(text: str) -> WeightedDigraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("edge list must start with a 'n=<count>' header")
    n = int(lines[0][2:])
    arrows = []
    for ln in lines[1:]:
        t, h, w = ln.split()
        arrows.append((int(t), int(h), w))
    return WeightedDigraph(n, tuple(arrows))


def load_digraph(path) -> WeightedDigraph:
    with open(path) as fh:
        text = fh.read()
    if str(path).endswith(".json"):
        return from_json(text)
    return from_edgelist(text)


# ---------------------------------------------------------------------------
# random instances for property suites


def random_connected_graph(n, rng):
    """Random connected graph on n vertices as a WeightedDigraph.

    A random spanning tree guarantees connectivity; the remaining pairs are
    included independently with probability 0.35.
    """
    edges = set()
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    for k in range(1, n):
        edges.add(frozenset((vertices[k], rng.choice(vertices[:k]))))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.35:
                edges.add(frozenset((i, j)))
    return digraph_of_graph(n, [tuple(sorted(e)) for e in sorted(edges, key=sorted)])


def random_balanced_weights(n, rng):
    """Int weights {(t, h): w} of a random weight-balanced digraph on
    vertices 1..n: a sum of 2 to n + 1 directed cycles of weight 1 to 3.

    Each cycle adds equal weight to the in- and out-degree of the vertices
    it visits, so the result is weight-balanced with positive weights and
    no loops.  Cancellation cannot occur since all weights are positive.

    The draw is ``rng.randint(2, n + 1)`` cycles, each on the vertices
    ``rng.sample(range(1, n + 1), rng.randint(2, n))`` with the weight
    ``rng.randint(1, 3)``, but made from ``rng.getrandbits`` alone, as
    CPython's ``random.Random`` makes them: a number below m is
    ``getrandbits(k)`` with ``k = m.bit_length()``, drawn again while it
    is m or more, and the sample swaps from a pool, or rejects repeats in
    a set when n exceeds sample's set size (possible only for n >= 22).
    So the same digraphs come out in the same order and rng is left in
    the same state, with much less interpreter overhead than those calls.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    # each number below m is drawn inline, as random.Random._randbelow
    # draws it: a helper call per number gives back about a fifth of the
    # time saved
    bits = rng.getrandbits
    k_n, k_len = n.bit_length(), (n - 1).bit_length()
    r = bits(k_n)
    while r >= n:
        r = bits(k_n)
    vertices = list(range(1, n + 1))
    weight = {}
    for _ in range(2 + r):
        r = bits(k_len)
        while r >= n - 1:
            r = bits(k_len)
        length = 2 + r
        cyc = []
        if n <= 21 or (length > 5 and n <= 21 + 4 ** math.ceil(math.log(length * 3, 4))):
            pool = vertices.copy()
            for top in range(n, n - length, -1):
                k = top.bit_length()
                j = bits(k)
                while j >= top:
                    j = bits(k)
                cyc.append(pool[j])
                pool[j] = pool[top - 1]
        else:
            selected = set()
            for _ in range(length):
                j = bits(k_n)
                while j >= n or j in selected:
                    j = bits(k_n)
                selected.add(j)
                cyc.append(j + 1)
        w = bits(2)
        while w == 3:
            w = bits(2)
        w += 1
        for arrow in zip(cyc, cyc[1:] + cyc[:1]):
            weight[arrow] = weight.get(arrow, 0) + w
    return weight


def from_weight_map(n, weight) -> WeightedDigraph:
    """The digraph on vertices 1..n with the arrows {(t, h): w} (the
    inverse of :meth:`WeightedDigraph.weight_map`)."""
    return WeightedDigraph(n, tuple((t, h, w) for (t, h), w in weight.items()))


def random_in_regular_digraph(n, d, rng):
    """Unweighted digraph where every vertex has in-degree d (row sums d)."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    arrows = []
    for i in range(1, n + 1):
        for j in rng.sample(range(1, n + 1), d):
            arrows.append((j, i, Fraction(1)))
    return WeightedDigraph(n, tuple(arrows))
