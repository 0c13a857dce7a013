"""The exhaustive automorphism listing, kept as an oracle.

``graph.automorphism_generators`` searches for generators along a base and
counts the group by its basic orbits; the tests check its orders and the
orbits its generators give against this listing of the whole group.
"""


def automorphisms(g):
    """All weight-preserving automorphisms of the digraph g, as image tuples
    (1-based), in lexicographic order.

    Backtracking over partial vertex assignments with degree/weight
    signature pruning; exhaustive, intended for small n.  Weights are
    compared through int codes: each distinct weight value gets a code
    from 1 up, 0 stands for no arrow, and ``W[t][h]`` holds the code of
    the arrow t -> h.
    """
    n = g.n
    w = g.weight_map()

    def signature(v):
        outs = sorted(wt for (t, _h), wt in w.items() if t == v)
        ins = sorted(wt for (_t, h), wt in w.items() if h == v)
        return (tuple(outs), tuple(ins), w.get((v, v)))

    sigs = {v: signature(v) for v in range(1, n + 1)}
    candidates = {
        v: [u for u in range(1, n + 1) if sigs[u] == sigs[v]] for v in range(1, n + 1)
    }
    codes = {}
    W = [[0] * (n + 1) for _ in range(n + 1)]
    for (t, h), wt in w.items():
        W[t][h] = codes.setdefault(wt, len(codes) + 1)
    images = [0] * (n + 1)
    used = [False] * (n + 1)
    found = []

    def extend(v):
        if v > n:
            found.append(tuple(images[1:]))
            return
        for u in candidates[v]:
            if used[u]:
                continue
            images[v] = u  # so that x == v below maps to u
            for x in range(1, v + 1):
                ix = images[x]
                if W[v][x] != W[u][ix] or W[x][v] != W[ix][u]:
                    break
            else:
                used[u] = True
                extend(v + 1)
                used[u] = False
        images[v] = 0

    extend(1)
    return found


def perm_compose(p, q):
    """p after q: (p o q)(i) = p[q[i]]."""
    return tuple([p[j - 1] for j in q])
