"""Independent references for checking each op's output.

Nothing here calls the code path an op times, except where a check is
defined in terms of a named library function (``linalg.span_contains`` on
``partitions.basis`` vectors).  Subspaces are handled as *labelings*: a
tuple giving each cell 0 or a signed class number, with classes numbered
by first appearance and each class's first cell positive.  That is the
program's typical-element string, e.g. ``(a,-a,b,0)`` <-> ``(1, -1, 2, 0)``.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from string import ascii_lowercase

# Row values of the paper's counting table for n = 0..8 (the same figures the
# acceptance tests pin); copied here so the check does not import the tests.
FIGURE = {
    "polydiagonal": [1, 2, 6, 24, 116, 648, 4088, 28640, 219920],
    "synchrony": [1, 1, 2, 5, 15, 52, 203, 877, 4140],
    "anti_synchrony": [0, 1, 4, 19, 101, 596, 3885, 27763, 215780],
    "minimally": [0, 1, 3, 10, 37, 151, 674, 3263, 17007],
    "fully": [1, 1, 2, 7, 29, 136, 737, 4537, 30914],
    "evenly": [1, 1, 2, 4, 13, 41, 176, 722, 3774],
}

DOWLING = FIGURE["polydiagonal"]


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# matrices from digraph files


def read_matrix(path, which="adjacency"):
    """Exact in-adjacency (A[h][t] = w) or Laplacian (row sums on the
    diagonal minus A) of a digraph JSON file, parsed without the library."""
    with open(path) as fh:
        d = json.load(fh)
    n = d["n"]
    a = [[Fraction(0)] * n for _ in range(n)]
    for t, h, w in d["arrows"]:
        a[h - 1][t - 1] = Fraction(w)
    if which == "adjacency":
        return a
    return [[(sum(a[i]) if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]


def integer_matrix(m):
    den = 1
    for row in m:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    return [[int(x * den) for x in row] for row in m]


# ---------------------------------------------------------------------------
# labelings


def labelings(n):
    """Every polydiagonal subspace of R^n once (p_n of them): each cell is
    zero, joins an existing class with either sign, or opens a new class."""

    def rec(i, lab, k):
        if i == n:
            yield tuple(lab)
            return
        for v in [0] + [s for c in range(1, k + 1) for s in (c, -c)] + [k + 1]:
            lab.append(v)
            yield from rec(i + 1, lab, max(k, v))
            lab.pop()

    yield from rec(0, [], 0)


def typical(lab):
    return "(" + ",".join(
        "0" if v == 0 else ("-" if v < 0 else "") + ascii_lowercase[abs(v) - 1] for v in lab
    ) + ")"


def parse_typical(s):
    toks = s.strip()[1:-1].split(",") if s.strip() != "()" else []
    names = {}
    lab = []
    for t in toks:
        if t == "0":
            lab.append(0)
            continue
        neg = t.startswith("-")
        name = t[1:] if neg else t
        k = names.setdefault(name, len(names) + 1)
        lab.append(-k if neg else k)
    return tuple(lab)


def canonical(lab):
    """Renumber classes by first appearance, first cell positive."""
    ren = {}
    out = []
    for v in lab:
        if v == 0:
            out.append(0)
            continue
        if abs(v) not in ren:
            ren[abs(v)] = len(ren) + 1 if v > 0 else -(len(ren) + 1)
        r = ren[abs(v)]
        out.append(r if v > 0 else -r)
    return tuple(out)


def dimension(lab):
    return len({abs(v) for v in lab if v})


def _classes(lab):
    cls = {}
    for cell, v in enumerate(lab):
        if v:
            cls.setdefault(abs(v), []).append((cell, 1 if v > 0 else -1))
    return list(cls.values())


def is_invariant(mi, lab):
    """Exact test that the integer matrix mi maps the subspace into itself:
    the image of every class vector must vanish on zero cells and take
    sign-consistent equal values on each class."""
    classes = _classes(lab)
    zeros = [c for c, v in enumerate(lab) if v == 0]
    for cls in classes:
        y = [sum(s * row[c] for c, s in cls) for row in mi]
        if any(y[c] for c in zeros):
            return False
        for other in classes:
            c0, s0 = other[0]
            t = s0 * y[c0]
            if any(s * y[c] != t for c, s in other[1:]):
                return False
    return True


_LABELINGS = {}


def invariant_typicals(m):
    """Set of typical strings of every m-invariant polydiagonal subspace."""
    n = len(m)
    mi = integer_matrix(m)
    if n not in _LABELINGS and n <= 6:
        _LABELINGS[n] = list(labelings(n))
    labs = _LABELINGS[n] if n in _LABELINGS else labelings(n)
    return {typical(lab) for lab in labs if is_invariant(mi, lab)}


def in_subspace(lab, x):
    if any(x[c] != 0 for c, v in enumerate(lab) if v == 0):
        return False
    for cls in _classes(lab):
        c0, s0 = cls[0]
        if any(s * x[c] != s0 * x[c0] for c, s in cls[1:]):
            return False
    return True


def class_vectors(lab):
    out = []
    for cls in _classes(lab):
        v = [0] * len(lab)
        for c, s in cls:
            v[c] = s
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# containment order, covers and the characteristic polynomial


def _fact_masks(lab):
    """(defining, holding) bitmasks over the facts x_i = 0 and x_i = +-x_j.
    Delta_Q <= Delta_P iff defining(P) is a subset of holding(Q)."""
    n = len(lab)
    pair = {}
    for i, j in itertools.combinations(range(n), 2):
        pair[i, j] = n + 2 * len(pair)
    define = 0
    hold = 0
    for i, v in enumerate(lab):
        if v == 0:
            define |= 1 << i
    for (i, j), bit in pair.items():
        vi, vj = lab[i], lab[j]
        if vi == 0 and vj == 0:
            hold |= (1 << bit) | (1 << (bit + 1))
        elif vi and vj and abs(vi) == abs(vj):
            define |= 1 << (bit if (vi > 0) == (vj > 0) else bit + 1)
    return define, hold | define


def covers(labs):
    """Sorted (upper, lower) index pairs, Delta_upper a maximal proper
    subspace of Delta_lower, as the lattice export lists them."""
    masks = [_fact_masks(lab) for lab in labs]
    k = len(labs)
    inside = [0] * k  # bit i set in inside[j]: Delta_i strictly inside Delta_j
    for j, (dj, _) in enumerate(masks):
        bits = 0
        for i, (_, hi) in enumerate(masks):
            if i != j and dj & ~hi == 0:
                bits |= 1 << i
        inside[j] = bits
    out = []
    for j in range(k):
        via = 0
        bits = inside[j]
        while bits:
            low = bits & -bits
            via |= inside[low.bit_length() - 1]
            bits ^= low
        direct = inside[j] & ~via
        while direct:
            low = direct & -direct
            out.append((low.bit_length() - 1, j))
            direct ^= low
    return sorted(out)


def characteristic_polynomial(labs, cover_pairs):
    """Coefficients (constant first) of sum_X mu(R^n, X) t^dim X, with the
    order taken from the given covers."""
    k = len(labs)
    above = [[] for _ in range(k)]  # lower -> uppers (smaller subspaces)
    for upper, lower in cover_pairs:
        above[lower].append(upper)
    dims = [dimension(lab) for lab in labs]
    order = sorted(range(k), key=lambda i: -dims[i])
    containers = [0] * k  # bitset of strictly larger subspaces
    for x in order:
        for u in above[x]:
            containers[u] |= containers[x] | (1 << x)
    mu = [0] * k
    coeffs = [0] * (max(dims) + 1 if dims else 1)
    for x in order:
        bits = containers[x]
        total = 0
        while bits:
            low = bits & -bits
            total += mu[low.bit_length() - 1]
            bits ^= low
        mu[x] = 1 if containers[x] == 0 else -total
        coeffs[dims[x]] += mu[x]
    return coeffs


def type_b_polynomial(n):
    """(t-1)(t-3)...(t-2n+1), constant first."""
    coeffs = [1]
    for i in range(1, n + 1):
        r = -(2 * i - 1)
        coeffs = [a + b for a, b in zip([0] + coeffs, [c * r for c in coeffs] + [0])]
    return coeffs


# ---------------------------------------------------------------------------
# automorphisms and orbits


def automorphisms(m):
    """All permutations phi (0-based images) with m[phi i][phi j] = m[i][j]."""
    n = len(m)
    found = []

    def extend(img, used):
        v = len(img)
        if v == n:
            found.append(tuple(img))
            return
        for u in range(n):
            if used >> u & 1 or m[u][u] != m[v][v]:
                continue
            if all(m[u][img[x]] == m[v][x] and m[img[x]][u] == m[x][v] for x in range(v)):
                img.append(u)
                extend(img, used | 1 << u)
                img.pop()

    extend([], 0)
    return found


def relabel(lab, phi):
    out = [0] * len(lab)
    for cell, v in enumerate(lab):
        out[phi[cell]] = v
    return canonical(out)


def orbit(lab, group):
    return {relabel(lab, phi) for phi in group}


# ---------------------------------------------------------------------------
# dynamics reference: plain-float RK4, no numpy


def vdp_field(eps):
    def f(u, v):
        return v, -eps * (1.0 - u * u) * v - u

    return f


def lorenz_field(sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    def f(u, v, w):
        return sigma * (v - u), u * (rho - w) - v, u * v - beta * w

    return f


def rk4_final(field, m, h_diag, x0, k, dt, steps):
    """Final state of xdot_i = f(x_i) + H sum_j m[i][j] x_j, where H adds
    the coupling of coordinate h_diag[a] into coordinate a."""
    n = len(m)

    def rhs(x):
        out = []
        for i in range(n):
            cell = x[i * k : (i + 1) * k]
            fx = field(*cell)
            for a in range(k):
                src = h_diag[a]
                c = 0.0 if src is None else sum(m[i][j] * x[j * k + src] for j in range(n))
                out.append(fx[a] + c)
        return out

    x = list(x0)
    h = dt
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs([a + 0.5 * h * b for a, b in zip(x, k1)])
        k3 = rhs([a + 0.5 * h * b for a, b in zip(x, k2)])
        k4 = rhs([a + h * b for a, b in zip(x, k3)])
        x = [a + (h / 6.0) * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
    return x
