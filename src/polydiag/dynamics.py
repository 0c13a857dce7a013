"""Coupled cell ODE integration and numeric invariance checks.

Systems have the form xdot_i = f(x_i) + H sum_j M[i,j] x_j with identical
internal dynamics f on R^k, a k x k coupling matrix H, and an n x n network
matrix M.  A system takes f, H and M; n and k follow from M and f.  A
twisted subspace takes P and N; its n and k must be the system's.
Everything here is floating point; the exact machinery hands over tagged
partitions and matrices once, at the boundary.

Integration is classical fixed-step RK4.  When the vector field maps an
invariant linear subspace into itself, RK4 stays on the subspace up to
round-off, so tight invariance tolerances are meaningful.

The systems of the paper's examples are tiny (two van der Pol or Lorenz
cells, 4-6 floats of state), so the RK4 loop runs on plain Python floats,
not numpy arrays: a numpy call on a handful of floats costs about 1 us of
overhead whatever it computes.  A preset is source text: the names of a
cell's k coordinates and one rational expression per coordinate, with
every parameter written as a parenthesised ``repr(float)``.  The same text gives ``Preset.func``, which
maps the k floats of one cell to f's k values (the equivariance check
samples f through it, row by row), and is inlined into one generated
function per :class:`CoupledSystem` that runs the whole RK4 loop with the
n*k coordinates in locals and each nonzero ``kron(M, H)`` weight as a
literal.  It makes the same IEEE operations in the same order as
:meth:`CoupledSystem.rhs` called four times per step.  A step takes
about 1.5 us for the van der Pol pair and 2.2 us for the Lorenz pair,
and building a system with its function 0.63 ms and 0.94 ms, on a shared
2-vCPU Xeon VM with Python 3.11 (minimum of 400 runs).  The path from a
system to its CSV is plain floats too: the states are written one after
another into a preallocated flat ``array('d')`` (8 bytes a value, as in a
float64 array), and :meth:`Trajectory.to_csv` formats a column that
repeats once, so the copies and negations that an invariant polydiagonal
makes of a column cost no formatting of their own.  The twisted-subspace
tools and the invariance, equivariance and convergence tests work on
plain floats too: :func:`subspace_distances`, the one distance, takes
states in the trajectory's flat layout and reads its columns
``states[j::n*k]`` with a few list comprehensions per column, and every
random start comes from :class:`polydiag._pcg64.PCG64`, numpy's default
seeded uniform draw in plain Python, so no module here needs numpy.
"""

from __future__ import annotations

import ast
import math
import operator
from array import array
from collections import Counter
from dataclasses import dataclass, field
from numbers import Real

from ._pcg64 import PCG64
from .partitions import TaggedPartition

BLOWUP_NORM = 1e9


class BlowupError(RuntimeError):
    def __init__(self, time, norm=math.nan):
        super().__init__("state norm %.3g exceeds %.1g at t=%.6g" % (norm, BLOWUP_NORM, time))
        self.time = time
        self.norm = norm


# ---------------------------------------------------------------------------
# internal dynamics presets


def _arithmetic(node, args) -> bool:
    """Whether an ast node may appear in a preset expression: a coordinate
    name, an int or float literal, ``+ - * /``, a unary sign, or ``**`` to a
    non-negative int literal, so that f is a rational function of the
    coordinates."""
    if isinstance(node, ast.Name):
        return node.id in args
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        e = node.right
        return isinstance(e, ast.Constant) and type(e.value) is int and e.value >= 0
    return isinstance(node, (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load, ast.Add, ast.Sub, ast.Mult,
                             ast.Div, ast.Pow, ast.USub, ast.UAdd))


@dataclass(frozen=True)
class Preset:
    """Internal dynamics f on R^k as source text: ``args`` names the k
    coordinates of one cell and ``exprs`` gives f's components as
    arithmetic expressions in them, for example ``("u", "v")`` and
    ``("v", "-(2.0) * (1.0 - u * u) * v - u")``.  ``func`` is compiled from
    that text, so the same definition evaluates on floats and inside the
    generated RK4 loop."""

    name: str
    args: tuple
    exprs: tuple
    func: callable = field(init=False, repr=False, compare=False)  # per cell: func(c_1, ..., c_k) -> k values
    templates: tuple = field(init=False, repr=False, compare=False)  # exprs with args as {0}, {1}, ...

    def __post_init__(self):
        if not self.args or len(self.exprs) != len(self.args) or not all(a.isidentifier() for a in self.args):
            raise ValueError("a preset needs k >= 1 coordinate names and one expression per name")
        templates = []
        for expr in self.exprs:
            tree = ast.parse(expr, mode="eval")
            for node in ast.walk(tree):
                if not _arithmetic(node, self.args):
                    raise ValueError("preset expression %r is not arithmetic in %s" % (expr, ", ".join(self.args)))
                if isinstance(node, ast.Name):
                    node.id = "{%d}" % self.args.index(node.id)
            templates.append("(%s)" % ast.unparse(tree))
        func = eval("lambda %s: [%s]" % (", ".join(self.args), ", ".join(self.exprs)), {"__builtins__": {}})
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "templates", tuple(templates))

    @property
    def k(self):
        return len(self.args)


def preset_f(name: str, **params) -> Preset:
    """Named internal dynamics.

    vanderpol(eps=2): k=2, f(u,v) = (v, -eps (1-u^2) v - u), odd.
    lorenz(sigma=10, rho=28, beta=8/3): k=3, standard chaotic parameters.
    singular_osc: k=2, f(u,v) = (v, -v - u + 1/u), odd with 0 outside dom f.
    zero(k=1): f = 0.  cubic_odd(k=1): componentwise x - x*x*x (products
    rather than a power, because pinned trajectory CSV bytes were computed
    with the products).

    Parameters must be finite (ValueError otherwise); they enter the
    preset's text as parenthesised ``repr(float)`` literals.
    """
    if name == "vanderpol":
        eps = _literal(params, "eps", 2.0)
        _reject_extra(params)
        return Preset("vanderpol", ("u", "v"), ("v", "-%s * (1.0 - u * u) * v - u" % eps))
    if name == "lorenz":
        sigma = _literal(params, "sigma", 10.0)
        rho = _literal(params, "rho", 28.0)
        beta = _literal(params, "beta", 8.0 / 3.0)
        _reject_extra(params)
        exprs = ("%s * (v - u)" % sigma, "u * (%s - w) - v" % rho, "u * v - %s * w" % beta)
        return Preset("lorenz", ("u", "v", "w"), exprs)
    if name == "singular_osc":
        _reject_extra(params)
        return Preset("singular_osc", ("u", "v"), ("v", "-v - u + 1.0 / u"))
    if name in ("zero", "cubic_odd"):
        args = tuple("c%d" % (a + 1) for a in range(int(params.pop("k", 1))))
        _reject_extra(params)
        exprs = ["0.0" if name == "zero" else "%s - %s * %s * %s" % (c, c, c, c) for c in args]
        return Preset(name, args, tuple(exprs))
    raise KeyError("unknown preset %r" % name)


def _literal(params, key, default):
    value = float(params.pop(key, default))
    if not math.isfinite(value):
        raise ValueError("preset parameter %s must be finite, got %r" % (key, value))
    return "(%r)" % value


def _reject_extra(params):
    if params:
        raise TypeError("unknown preset parameters: %s" % sorted(params))


VDP_H = ((0.0, 0.0), (1.0, 0.0))
LORENZ_H_PLUS = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))  # couples the w equation
LORENZ_H_MINUS = ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0))  # couples the v equation


# ---------------------------------------------------------------------------
# systems and trajectories


def _side(a) -> int:
    """n when a is a sequence of n rows of n entries each, else 0."""
    try:
        n = len(a)
        return n if all(len(row) == n for row in a) else 0
    except TypeError:  # a or one of its rows has no length
        return 0


@dataclass
class CoupledSystem:
    """n = len(M) cells of k = f.k coordinates each.  M (n x n) and H
    (k x k) are rows of real numbers, such as nested lists or 2-d arrays;
    they are kept as given and read as floats.  States are flat:
    coordinate a of cell i (0-based) sits at i*k + a."""

    f: Preset
    H: object
    M: object

    def __post_init__(self):
        if _side(self.H) != self.k:
            raise ValueError("coupling dimensions inconsistent with k=%d" % self.k)
        if _side(self.M) < 1:
            raise ValueError("a system needs a square network matrix of n >= 1 cells")
        self._cells = tuple(range(0, self.n * self.k, self.k))
        self._coupling = _coupling_terms(self.M, self.H)
        self._rk4 = _compile_rk4(self)

    @property
    def n(self):
        return len(self.M)

    @property
    def k(self):
        return self.f.k

    def rhs(self, x):
        """The vector field at a flat list of n*k floats, as a flat list: f on
        each cell, plus each coordinate's coupling sum taken in column order."""
        f, k = self.f.func, self.k
        out = [v for i in self._cells for v in f(*x[i : i + k])]
        for p, terms in self._coupling:
            c = 0.0
            for q, w in terms:
                c += w * x[q]
            out[p] += c
        return out


def _coupling_terms(M, H):
    """The nonzero entries of kron(M, H) per row, found from the nonzero
    entries of M and H: row p = i*k + a holds (j*k + b, M[i, j] * H[a, b])
    in column order, the same IEEE products as the dense kron, without
    those that underflow to (signed) zero.  An inf or NaN in M or H, or a
    product that overflows, is a ValueError: each puts inf or NaN into the
    kron (inf * 0 is NaN).  A row of M whose ``math.hypot`` is 0.0 is all
    zeros (0.0 or -0.0: an inf or a NaN makes it inf or NaN, and an entry
    that is no number a TypeError) and is passed over whole, so a sparse M
    costs no float per zero row."""
    k = len(H)
    H = [[float(h) for h in row] for row in H]
    finite = all(math.isfinite(h) for row in H for h in row)
    m_rows = []
    for row in M:
        if math.hypot(*row) == 0.0:
            m_rows.append(())
            continue
        row = [float(m) for m in row]
        finite = finite and all(map(math.isfinite, row))
        m_rows.append([(j * k, m) for j, m in enumerate(row) if m != 0.0])
    h_rows = [[(b, h) for b, h in enumerate(row) if h != 0.0] for row in H]
    rows = (
        (i * k + a, tuple((jk + b, w) for jk, m in m_row for b, h in h_row if (w := m * h) != 0.0))
        for i, m_row in enumerate(m_rows)
        for a, h_row in enumerate(h_rows)
    )
    coupling = tuple((p, terms) for p, terms in rows if terms)
    if not (finite and all(math.isfinite(w) for _, terms in coupling for _, w in terms)):
        raise ValueError("M, H and kron(M, H) must have finite entries")
    return coupling


# A coupling sum is written as one chain of additions per line of at most
# this many terms: Python's compiler recurses once per operator, and a
# chain of a few thousand exceeds its recursion limit.
_TERMS_PER_LINE = 100


def _rk4_source(sys: CoupledSystem) -> str:
    """Source text of the whole fixed-step RK4 loop of sys as one Python
    function ``rk4(x0, ..., x{nk-1}, h, steps, out)``.

    Stage j's derivative of coordinate p sits in the local a_p, b_p, c_p or
    d_p.  It is the preset's expression for coordinate p % k, with the cell's
    coordinates (x or the stage state y) in place of its names, plus the
    coupling sum ``(0.0 + w1 * y_q1 + w2 * y_q2 ...)`` over the nonzero
    entries of row p of kron(M, H) in column order: the IEEE operations of
    :meth:`CoupledSystem.rhs`, in the same order.  Each step checks the
    state norm and writes the state to ``out[s*nk : (s+1)*nk]``, a flat
    float array; a division by zero or an overflowing
    power becomes a BlowupError at that step.  Only the preset's checked
    arithmetic, ``repr`` of finite floats and the names of ``_RK4_GLOBALS``
    reach the source.
    """
    k, nk = sys.k, sys.n * sys.k
    coupling = dict(sys._coupling)

    def stage(dst, src):
        lines = []
        for p in range(nk):
            first = p - p % k
            value = sys.f.templates[p % k].format(*("%s%d" % (src, q) for q in range(first, first + k)))
            terms = ["(%r) * %s%d" % (w, src, q) for q, w in coupling.get(p, ())]
            total = "0.0"
            while len(terms) > _TERMS_PER_LINE:
                lines.append("%s%d = %s + %s" % (dst, p, total, " + ".join(terms[:_TERMS_PER_LINE])))
                total, terms = "%s%d" % (dst, p), terms[_TERMS_PER_LINE:]
            if terms:
                value = "%s + (%s + %s)" % (value, total, " + ".join(terms))
            lines.append("%s%d = %s" % (dst, p, value))
        return lines

    def shift(step, der):
        return ["y%d = x%d + %s * %s%d" % (p, p, step, der, p) for p in range(nk)]

    xs = ", ".join("x%d" % p for p in range(nk))
    body = (
        stage("a", "x") + shift("hh", "a") + stage("b", "y") + shift("hh", "b") + stage("c", "y")
        + shift("h", "c") + stage("d", "y")
        + ["x%d = x%d + h6 * (a%d + 2.0 * b%d + 2.0 * c%d + d%d)" % ((p,) * 6) for p in range(nk)]
    )
    return "\n".join(
        ["def rk4(%s, h, steps, out):" % xs,
         "    hh = 0.5 * h",
         "    h6 = h / 6.0",
         "    for s in range(1, steps + 1):",
         "        try:"]
        + ["            " + line for line in body]
        + ["        except (OverflowError, ZeroDivisionError):",
           "            break",
           "        if not hypot(%s) <= BLOWUP_NORM:" % xs,
           "            raise BlowupError(s * h, hypot(%s))" % xs,
           "        i = s * %d" % nk,
           "        out[i] = x0"]
        + ["        out[i + %d] = x%d" % (p, p) for p in range(1, nk)]
        + ["    else:",
           "        return",
           "    raise BlowupError(s * h)",
           ""]
    )


_RK4_GLOBALS = {"__builtins__": {}, "range": range, "hypot": math.hypot, "BLOWUP_NORM": BLOWUP_NORM,
                "BlowupError": BlowupError, "OverflowError": OverflowError, "ZeroDivisionError": ZeroDivisionError}


def _compile_rk4(sys: CoupledSystem):
    """Compile :func:`_rk4_source` once; neither the text nor a reference
    cycle through the function's globals outlives the call."""
    namespace = dict(_RK4_GLOBALS)
    exec(compile(_rk4_source(sys), "<rk4 %s n=%d>" % (sys.f.name, sys.n), "exec"), namespace)
    return namespace.pop("rk4")


def _toggled(text):
    """The %g texts of a column's negation: the leading minus toggled."""
    return [t[1:] if t[0] == "-" else "-" + t for t in text]


def _negated(key: bytes, signs: int) -> bytes:
    """The binary64 bytes of the negation of the floats whose bytes are
    key.  Negating a float flips its sign bit, and signs, read in the same
    byte order as key, holds the sign bit of each."""
    return (int.from_bytes(key, "little") ^ signs).to_bytes(len(key), "little")


@dataclass
class Trajectory:
    """``times[s]`` is ``s * dt``.  ``states`` holds the states one after
    another as one flat float array of len(times) * n*k values: coordinate
    a of cell i at times[s] is ``states[s*n*k + i*k + a]``, and column j,
    one coordinate over time, is the slice ``states[j::n*k]``.

    On an invariant polydiagonal whole columns repeat bit for bit: x_i =
    x_j copies a column, x_i = -x_j negates it.  :meth:`to_csv` formats
    such a column once and shares its text with the equal and opposite
    columns."""

    times: array
    states: array

    def state(self, s) -> list:
        """The state at times[s] as a list of n*k floats; s may be
        negative, as in a list index."""
        nk = len(self.states) // len(self.times)
        s = range(len(self.times))[s]
        return self.states[s * nk : s * nk + nk].tolist()

    def to_csv(self) -> str:
        """A header ``t,x1,...`` and per state the line
        ``("%.10g" + ",%.16g" * nk) % (t, *state)``, for finite states.

        Columns are matched on their binary64 bytes, which tell apart the
        zeros that %.16g writes as ``0`` and ``-0``.  A column that is
        equal or opposite to no other one is formatted by the row format;
        the others are formatted once per group of equal and opposite
        columns, and the row format takes that text through ``%s``, with
        each leading minus toggled in a negated column."""
        m = len(self.times)
        nk = len(self.states) // m
        states = self.states
        signs = int.from_bytes(array("d", [-0.0] * m).tobytes(), "little")
        first = {}  # column bytes -> (the first column equal or opposite to it, whether opposite)
        source = []
        for j in range(nk):
            key = states[j::nk].tobytes()
            if key not in first:
                first[key] = (j, False)
                first.setdefault(_negated(key, signs), (j, True))
            source.append(first[key])
        copies = Counter(i for i, _ in source)
        values = [None] * (m * (nk + 1))
        values[:: nk + 1] = self.times
        row, texts = "%.10g", {}
        for j, (i, negated) in enumerate(source):
            if copies[i] == 1:
                values[j + 1 :: nk + 1] = states[j::nk]
                row += ",%.16g"
                continue
            if i not in texts:
                texts[i] = ("\n".join(["%.16g"] * m) % tuple(states[i::nk])).split("\n")
            values[j + 1 :: nk + 1] = _toggled(texts[i]) if negated else texts[i]
            row += ",%s"
        head = "t," + ",".join("x%d" % (j + 1) for j in range(nk))
        return head + "\n" + (row + "\n") * m % tuple(values)


def _flat_state(x0, n, k) -> list:
    """x0 as a flat list of n*k floats.  ValueError unless x0 is a
    sequence of n*k real numbers or of n rows of k real numbers."""
    try:
        if len(x0) == n * k and all(isinstance(v, Real) for v in x0):
            return [float(v) for v in x0]
        if len(x0) == n and all(not isinstance(r, Real) and len(r) == k and all(isinstance(v, Real) for v in r)
                                for r in x0):
            return [float(v) for r in x0 for v in r]
    except TypeError:  # x0 or one of its rows has no length
        pass
    raise ValueError("x0 must have shape (%d,) or (%d, %d)" % (n * k, n, k))


def integrate(sys: CoupledSystem, x0, dt: float, T: float) -> Trajectory:
    """Fixed-step RK4 from x0 over [0, T] in round(T/dt) steps.

    Raises ValueError unless x0 has shape (n*k,) or (n, k), dt and T are
    positive, and the step count is at least 1 and small enough for the
    output to be allocated.  Raises BlowupError when the state norm passes
    1e9 or turns into NaN, and when float arithmetic faults during a step
    (a division by zero or an overflowing power), where arrays would have
    carried inf or NaN into the state at that same step.
    """
    if not (dt > 0 and T > 0):
        raise ValueError("dt and T must be positive")
    nk = sys.n * sys.k
    x = _flat_state(x0, sys.n, sys.k)
    try:
        steps = round(T / dt)
        states = array("d", [0.0]) * ((steps + 1) * nk)
    except (OverflowError, MemoryError, ValueError):
        raise ValueError("T/dt = %.3g RK4 steps do not fit in memory" % (T / dt)) from None
    if steps < 1:
        raise ValueError("T/dt = %.3g rounds to no RK4 step" % (T / dt))
    states[:nk] = array("d", x)
    sys._rk4(*x, dt, steps, states)
    return Trajectory(array("d", (s * dt for s in range(steps + 1))), states)


# ---------------------------------------------------------------------------
# twisted polydiagonal subspaces of (R^k)^n


def _dot(u, v) -> float:
    """The sum of the products u_a v_a, taken left to right from 0.0.  (The
    sum() of floats is compensated from Python 3.12 on, so it is not used.)"""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _apply(N, v) -> list:
    """N v for a matrix N given as rows and a vector v."""
    return [_dot(row, v) for row in N]


def _matmul(A, B) -> list:
    return [[_dot(row, col) for col in zip(*B)] for row in A]


def _close(A, B, sign=1.0) -> bool:
    """Whether A and sign * B, matrices given as rows, agree to 1e-12 in
    every entry; a NaN agrees with nothing."""
    return all(abs(a - sign * b) <= 1e-12 for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def _involution(N) -> tuple:
    """N as a tuple of k tuples of k floats; ValueError unless it is a k x k
    matrix with k >= 1 and N^2 = I."""
    k = _side(N)
    try:
        N = tuple(tuple(map(float, row)) for row in N) if k else ()
    except TypeError:  # an entry that is no number, such as a row of a 3-d array
        N = ()
    if not (N and _close(_matmul(N, N), [[float(a == b) for b in range(k)] for a in range(k)])):
        raise ValueError("N must be a k x k matrix with k >= 1 and N^2 = I")
    return N


@dataclass
class TwistedSubspace:
    """Delta_P^N of (R^k)^n: x_i = x_j on shared classes, x_i = N x_j across
    starred pairs, x_i = N x_i on the fixed class.  P has n cells and the
    k x k involution N gives k; N = -I gives the plain tensor product
    R^k (x) Delta_P."""

    partition: TaggedPartition
    N: object  # read by _involution, kept as a tuple of k tuples of k floats

    def __post_init__(self):
        self.N = _involution(self.N)

    @property
    def k(self):
        return len(self.N)


def _combination(row, cols, m) -> list:
    """The column sum_b row[b] * cols[b] of m entries, each summed left to
    right from 0.0.  Zero weights are passed over: for finite columns they
    add only a signed zero, which no distance sees."""
    total = [0.0] * m
    for w, col in zip(row, cols):
        if w:
            total = [t + w * v for t, v in zip(total, col)]
    return total


def _squares(cols, m) -> list:
    """Per entry, the sum of the squares of the columns, left to right from
    0.0; two columns a pass, which halves the passes and keeps the order."""
    total = [0.0] * m
    for i in range(0, len(cols) - 1, 2):
        total = [t + u * u + v * v for t, u, v in zip(total, cols[i], cols[i + 1])]
    if len(cols) % 2:
        total = [t + u * u for t, u in zip(total, cols[-1])]
    return total


def subspace_distances(states, s: TwistedSubspace) -> list:
    """Normalized residual of the defining constraints at each state of a
    flat sequence of m*n*k real numbers, one state of n*k coordinates after
    another as in :attr:`Trajectory.states`.  TypeError for an entry that
    is no number (such as a nested row), ValueError for a length that is no
    multiple of s's n*k.

    Same-class residuals x_i - x_rep, pair residuals x_i - N x_j, and fixed
    class residuals (x_i - N x_i)/2 (which is just x_i when N = -I), all
    stacked, measured in the Euclidean norm and divided by ||x|| + 1.  Each
    state's squares are summed left to right in that order, which is
    numpy's sum for fewer than 8 terms.  The states are read on their
    columns ``states[j::n*k]``: a few list comprehensions per column, not a
    loop per state.
    """
    states = array("d", states)
    p, k, N = s.partition, s.k, s.N
    nk, classes = p.n * k, p.classes
    m, extra = divmod(len(states), nk)
    if extra:
        raise ValueError("%d values do not fit states of %d cells in R^%d" % (len(states), p.n, k))
    cols = [states[j::nk] for j in range(nk)]
    rep = [cols[(cls[0] - 1) * k : cls[0] * k] for cls in classes]
    res = [[a - b for a, b in zip(x, r)] for ci, cls in enumerate(classes) for c in cls[1:]
           for x, r in zip(cols[(c - 1) * k : c * k], rep[ci])]
    for i, j in p.pairs:
        res += [[a - b for a, b in zip(x, _combination(row, rep[j], m))] for x, row in zip(rep[i], N)]
    if p.fixed is not None:
        x = rep[p.fixed]
        res += [[0.5 * (a - b) for a, b in zip(y, _combination(row, x, m))] for y, row in zip(x, N)]
    sqrt = math.sqrt
    return [sqrt(r) / (sqrt(x) + 1.0) for r, x in zip(_squares(res, m), _squares(cols, m))]


def sample_in_subspace(s: TwistedSubspace, rng, scale=1.0) -> list:
    """Random state inside the subspace as n lists of k floats: one
    coefficient block per class, ``rng.uniform(-scale, scale, size=k)`` in
    class order, propagated through the constraints."""
    p = s.partition
    classes = p.classes
    values = [rng.uniform(-scale, scale, size=s.k) for _ in classes]
    for i, j in p.pairs:
        values[i] = _apply(s.N, values[j])
    if p.fixed is not None:
        v = values[p.fixed]
        values[p.fixed] = [0.5 * (a + b) for a, b in zip(v, _apply(s.N, v))]  # project onto the N-fixed space
    x = [None] * p.n
    for ci, cls in enumerate(classes):
        for cell in cls:
            x[cell - 1] = list(values[ci])
    return x


@dataclass
class InvarianceReport:
    subspace: TwistedSubspace
    trials: int
    tol: float
    max_distance: float
    blowups: int = 0

    @property
    def passed(self):
        return self.blowups == 0 and self.max_distance <= self.tol


def invariance_test(sys, s: TwistedSubspace, trials=3, dt=1e-3, T=50.0, tol=1e-6, seed=0):
    """Integrate from random starts inside s and track the worst subspace
    distance along the way.  A trial that blows up is counted in blowups
    and left out of max_distance, and the report does not pass.
    ValueError before any draw unless trials >= 1 and s fits sys's n and
    k."""
    if trials < 1:
        raise ValueError("trials must be >= 1, got %r" % (trials,))
    if (s.partition.n, s.k) != (sys.n, sys.k):
        raise ValueError("a subspace of %d cells in R^%d and a system of %d cells in R^%d do not fit"
                         % (s.partition.n, s.k, sys.n, sys.k))
    rng = PCG64(seed)
    worst = 0.0
    blowups = 0
    for _ in range(trials):
        x0 = sample_in_subspace(s, rng)
        try:
            traj = integrate(sys, x0, dt, T)
        except BlowupError:
            blowups += 1
            continue
        worst = max(worst, *subspace_distances(traj.states, s))
    return InvarianceReport(s, trials, tol, worst, blowups)


# ---------------------------------------------------------------------------
# cell-symmetry equivariance


@dataclass
class EquivarianceReport:
    reason: str | None  # the failed hypothesis, None when both hold
    max_residual: float
    tol: float

    @property
    def hypotheses_met(self):
        return self.reason is None

    @property
    def passed(self):
        return self.hypotheses_met and self.max_residual <= self.tol


def _cell(sys, i) -> int:
    """A 1-based cell index of sys, checked: an int in 1..n that is no bool
    (a numpy int is taken through ``operator.index``), else ValueError."""
    try:
        cell = operator.index(i)
    except TypeError:  # a float, a string, None
        cell = 0
    if isinstance(i, bool) or not 1 <= cell <= sys.n:
        raise ValueError("cell %r is not in 1..%d" % (i, sys.n))
    return cell


def equivariance_check(sys, N, ell, seed=0):
    """Check F(gamma_ell(x)) = gamma_ell(F(x)) for the single-cell map
    gamma_ell applying N in slot ell (1..n), at 50 random points, assuming
    f(Nx) = Nf(x) and HN = NH = H.  Hypothesis failures are reported and
    the residual check is skipped.  ValueError before any draw unless ell
    is a cell of sys (see :func:`_cell`) and N is a k x k involution for
    sys's k."""
    ell = _cell(sys, ell)
    N = _involution(N)
    k = sys.k
    if len(N) != k:
        raise ValueError("N is %dx%d but the cells are in R^%d" % (len(N), len(N), k))
    rng = PCG64(seed)
    draws = rng.uniform(-2, 2, 50 * k)
    f = sys.f.func
    f_res = max(abs(a - b) for i in range(0, 50 * k, k)
                for a, b in zip(f(*_apply(N, draws[i : i + k])), _apply(N, f(*draws[i : i + k]))))
    if f_res > 1e-10:
        return EquivarianceReport("f is not N-equivariant (residual %.3g)" % f_res, math.inf, 0.0)
    h = [[float(v) for v in row] for row in sys.H]
    hn, nh = _matmul(h, N), _matmul(N, h)
    if not (_close(hn, h) and _close(nh, h)):
        reason = "HN = NH = H fails"
        if _close(hn, h, -1.0) and _close(nh, h, -1.0):
            reason += " (found HN = NH = -H instead)"
        return EquivarianceReport(reason, math.inf, 0.0)

    def gamma(y):  # N applied to cell ell of a flat state
        e = (ell - 1) * k
        return y[:e] + _apply(N, y[e : e + k]) + y[e + k :]

    worst = 0.0
    tol = 0.0
    for _ in range(50):
        x = rng.uniform(-2, 2, sys.n * k)
        fx = sys.rhs(x)
        worst = max(worst, max(abs(a - b) for a, b in zip(sys.rhs(gamma(x)), gamma(fx))))
        tol = max(tol, 1e-10 * (1.0 + math.sqrt(_dot(fx, fx))))
    return EquivarianceReport(None, worst, tol)


def antisynchrony_convergence(sys, pair, sign, dt=1e-3, T=400.0, seed=0, tail=0.1, x0=None):
    """Max of |u_i + sign * u_j| over the trailing fraction tail (0 < tail
    <= 1) of a trajectory, at least its last state, where u is the first
    coordinate of each cell.  Measures which of the synchrony (sign=-1) /
    anti-synchrony (sign=+1) subspaces attracts.  The cells of pair are
    1-based.  ValueError before any draw for other cells or tails."""
    i, j = (_cell(sys, c) for c in pair)
    if not 0.0 < tail <= 1.0:
        raise ValueError("tail must be in (0, 1], got %r" % (tail,))
    k, nk = sys.k, sys.n * sys.k
    if x0 is None:
        x0 = PCG64(seed).uniform(-1, 1, nk)
    traj = integrate(sys, x0, dt, T)
    m = len(traj.times)
    start = min(int(m * (1.0 - tail)), m - 1) * nk
    u_i = traj.states[start + (i - 1) * k :: nk]
    u_j = traj.states[start + (j - 1) * k :: nk]
    return max(abs(a + sign * b) for a, b in zip(u_i, u_j))
