"""Coupled cell ODE integration and numeric invariance checks.

Systems have the form xdot_i = f(x_i) + H sum_j M[i,j] x_j with identical
internal dynamics f on R^k, a k x k coupling matrix H, and an n x n network
matrix M.  Everything here is floating point; the exact machinery hands over
tagged partitions and matrices once, at the boundary.

Integration is classical fixed-step RK4.  When the vector field maps an
invariant linear subspace into itself, RK4 stays on the subspace up to
round-off, so tight invariance tolerances are meaningful.

The RK4 step runs on plain Python floats, not on numpy arrays.  The systems
of the paper's examples are tiny (two van der Pol or Lorenz cells, 4-6
floats of state), and a numpy call on a handful of floats costs about 1 us
of overhead whatever it computes: the array step took 88-107 us for either
pair, and preallocated buffers with in-place operations still 75-95 us.
The float step makes the same IEEE operations in the same order in 12-16 us
(van der Pol pair) and 15-22 us (Lorenz pair), measured on a shared 2-vCPU
Xeon VM with Python 3.11.  Arrays stay at the edges: each state is written
into a preallocated (steps+1, n, k) output, and a preset evaluates on
arrays of cell states too, for the equivariance check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partitions import TaggedPartition

BLOWUP_NORM = 1e9


class BlowupError(RuntimeError):
    def __init__(self, time, norm):
        super().__init__("state norm %.3g exceeds %.1g at t=%.6g" % (norm, BLOWUP_NORM, time))
        self.time = time
        self.norm = norm


# ---------------------------------------------------------------------------
# internal dynamics presets


@dataclass(frozen=True)
class Preset:
    """Internal dynamics f on R^k.  ``func`` is the per-cell map written in
    plain arithmetic, so the same definition evaluates on floats (the
    integrator) and on arrays of coordinates (``__call__``)."""

    name: str
    k: int
    func: callable  # per cell: func(c_1, ..., c_k) -> k values
    odd: bool
    fixes_origin: bool
    domain_excludes_zero: bool = False

    def __call__(self, x):
        """f applied to every cell state of an array (..., k)."""
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for a, value in enumerate(self.func(*np.moveaxis(x, -1, 0))):
            out[..., a] = value
        return out


def preset_f(name: str, **params) -> Preset:
    """Named internal dynamics.

    vanderpol(eps=2): k=2, f(u,v) = (v, -eps (1-u^2) v - u), odd.
    lorenz(sigma=10, rho=28, beta=8/3): k=3, standard chaotic parameters.
    singular_osc: k=2, f(u,v) = (v, -v - u + 1/u), odd with 0 outside dom f.
    zero(k=1): f = 0.  cubic_odd(k=1): componentwise x - x*x*x (products
    rather than a power, because numpy's vectorized pow and the C library's
    pow can round differently in the last bit).
    """
    if name == "vanderpol":
        eps = float(params.pop("eps", 2.0))
        _reject_extra(params)
        return Preset("vanderpol", 2, lambda u, v: (v, -eps * (1.0 - u * u) * v - u), odd=True, fixes_origin=True)
    if name == "lorenz":
        sigma = float(params.pop("sigma", 10.0))
        rho = float(params.pop("rho", 28.0))
        beta = float(params.pop("beta", 8.0 / 3.0))
        _reject_extra(params)

        def f(u, v, w):
            return sigma * (v - u), u * (rho - w) - v, u * v - beta * w

        return Preset("lorenz", 3, f, odd=False, fixes_origin=True)
    if name == "singular_osc":
        _reject_extra(params)

        def f(u, v):
            return v, -v - u + 1.0 / u

        return Preset("singular_osc", 2, f, odd=True, fixes_origin=False, domain_excludes_zero=True)
    if name == "zero":
        k = int(params.pop("k", 1))
        _reject_extra(params)
        zeros = (0.0,) * k
        return Preset("zero", k, lambda *x: zeros, odd=True, fixes_origin=True)
    if name == "cubic_odd":
        k = int(params.pop("k", 1))
        _reject_extra(params)
        return Preset("cubic_odd", k, lambda *x: [c - c * c * c for c in x], odd=True, fixes_origin=True)
    raise KeyError("unknown preset %r" % name)


def _reject_extra(params):
    if params:
        raise TypeError("unknown preset parameters: %s" % sorted(params))


VDP_H = np.array([[0.0, 0.0], [1.0, 0.0]])
LORENZ_H_PLUS = np.diag([0.0, 0.0, 1.0])  # couples the w equation
LORENZ_H_MINUS = np.diag([0.0, 1.0, 0.0])  # couples the v equation


# ---------------------------------------------------------------------------
# systems and trajectories


@dataclass
class CoupledSystem:
    """States are flat: coordinate a of cell i (0-based) sits at i*k + a."""

    n: int
    k: int
    f: Preset
    H: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.M = np.asarray(self.M, dtype=float)
        if self.f.k != self.k or self.H.shape != (self.k, self.k):
            raise ValueError("coupling dimensions inconsistent with k=%d" % self.k)
        if self.M.shape != (self.n, self.n):
            raise ValueError("network matrix must be %dx%d" % (self.n, self.n))
        self._cells = tuple(range(0, self.n * self.k, self.k))
        # the nonzero entries of kron(M, H) per output coordinate, in column order
        rows = (tuple((q, w) for q, w in enumerate(row) if w != 0.0) for row in np.kron(self.M, self.H).tolist())
        self._coupling = tuple((p, terms) for p, terms in enumerate(rows) if terms)

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


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), n, k)

    def to_csv(self) -> str:
        m, n, k = self.states.shape
        head = "t," + ",".join("x%d" % (j + 1) for j in range(n * k))
        row = "%.10g" + ",%.16g" * (n * k)
        flat = self.states.reshape(m, n * k).tolist()
        return head + "\n" + "\n".join([row % (t, *x) for t, x in zip(self.times.tolist(), flat)]) + "\n"


def integrate(sys: CoupledSystem, x0, dt: float, T: float) -> Trajectory:
    """Fixed-step RK4 from x0 over [0, T] in round(T/dt) steps.

    Raises ValueError unless dt and T are positive and the step count is at
    least 1 and small enough for the output to be allocated.  Raises
    BlowupError when the state norm passes 1e9 or turns into NaN, and when
    float arithmetic faults during a step (a division by zero or an
    overflowing power), where arrays would have carried inf or NaN into the
    state at that same step.
    """
    if not (dt > 0 and T > 0):
        raise ValueError("dt and T must be positive")
    nk = sys.n * sys.k
    x = np.array(x0, dtype=float).reshape(nk).tolist()
    try:
        steps = round(T / dt)
        out = np.empty((steps + 1, nk))
    except (OverflowError, MemoryError, ValueError):
        raise ValueError("T/dt = %.3g RK4 steps do not fit in memory" % (T / dt)) from None
    if steps < 1:
        raise ValueError("T/dt = %.3g rounds to no RK4 step" % (T / dt))
    out[0] = x
    rhs = sys.rhs
    h = dt
    hh, h6 = 0.5 * h, h / 6.0
    try:
        for s in range(1, steps + 1):
            k1 = rhs(x)
            k2 = rhs([a + hh * b for a, b in zip(x, k1)])
            k3 = rhs([a + hh * b for a, b in zip(x, k2)])
            k4 = rhs([a + h * b for a, b in zip(x, k3)])
            x = [a + h6 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
            norm = math.hypot(*x)
            if not norm <= BLOWUP_NORM:
                raise BlowupError(s * h, norm)
            out[s] = x
    except (OverflowError, ZeroDivisionError):
        raise BlowupError(s * h, math.nan) from None
    return Trajectory(np.arange(steps + 1) * dt, out.reshape(steps + 1, sys.n, sys.k))


# ---------------------------------------------------------------------------
# twisted polydiagonal subspaces of (R^k)^n


@dataclass
class TwistedSubspace:
    """Delta_P^N: x_i = x_j on shared classes, x_i = N x_j across starred
    pairs, x_i = N x_i on the fixed class.  N defaults to -I, which gives
    the plain tensor product R^k (x) Delta_P."""

    partition: TaggedPartition
    k: int
    N: np.ndarray | None = None

    def __post_init__(self):
        if self.N is None:
            self.N = -np.eye(self.k)
        self.N = np.asarray(self.N, dtype=float)
        if self.N.shape != (self.k, self.k):
            raise ValueError("N must be %dx%d" % (self.k, self.k))
        if np.max(np.abs(self.N @ self.N - np.eye(self.k))) > 1e-12:
            raise ValueError("N^2 must equal the identity")


def _residuals(states, s: TwistedSubspace):
    """Stacked constraint residuals for a batch of states (m, n, k)."""
    p = s.partition
    res = []
    rep = {ci: states[:, cls[0] - 1, :] for ci, cls in enumerate(p.classes)}
    for ci, cls in enumerate(p.classes):
        for cell in cls[1:]:
            res.append(states[:, cell - 1, :] - rep[ci])
    for i, j in p.pairs:
        res.append(rep[i] - rep[j] @ s.N.T)
    if p.fixed is not None:
        res.append(0.5 * (rep[p.fixed] - rep[p.fixed] @ s.N.T))
    if not res:
        return np.zeros((states.shape[0], 0))
    return np.concatenate(res, axis=1)


def subspace_distances(states, s: TwistedSubspace):
    """Normalized constraint residual per state of a batch (m, n, k)."""
    states = np.asarray(states, dtype=float)
    res = _residuals(states, s)
    norms = np.linalg.norm(states.reshape(states.shape[0], -1), axis=1)
    return np.linalg.norm(res, axis=1) / (norms + 1.0)


def subspace_distance(x, s: TwistedSubspace) -> float:
    """Normalized residual of the defining constraints at a state x.

    Same-class residuals x_i - x_rep, pair residuals x_i - N x_j, and fixed
    class residuals (x_i - N x_i)/2 (which is just x_i when N = -I), all
    stacked, measured in the Euclidean norm and divided by ||x|| + 1.
    """
    p = s.partition
    x = np.asarray(x, dtype=float).reshape(1, p.n, s.k)
    return float(subspace_distances(x, s)[0])


def sample_in_subspace(s: TwistedSubspace, rng, scale=1.0):
    """Random state inside the subspace: one coefficient block per class,
    uniform in [-scale, scale]^k, propagated through the constraints."""
    p = s.partition
    x = np.zeros((p.n, s.k))
    values = {}
    for ci in range(len(p.classes)):
        values[ci] = rng.uniform(-scale, scale, size=s.k)
    for i, j in p.pairs:
        values[i] = s.N @ values[j]
    if p.fixed is not None:
        v = values[p.fixed]
        values[p.fixed] = 0.5 * (v + s.N @ v)  # project onto the N-fixed space
    for ci, cls in enumerate(p.classes):
        for cell in cls:
            x[cell - 1] = values[ci]
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
    distance along the way.  Blow-ups are counted as inconclusive rather
    than failures."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    blowups = 0
    for _ in range(trials):
        x0 = sample_in_subspace(s, rng)
        try:
            traj = integrate(sys, x0, dt, T)
        except BlowupError:
            blowups += 1
            continue
        worst = max(worst, float(np.max(subspace_distances(traj.states, s))))
    return InvarianceReport(s, trials, tol, worst, blowups)


# ---------------------------------------------------------------------------
# cell-symmetry equivariance


@dataclass
class EquivarianceReport:
    hypotheses_met: bool
    reason: str | None
    max_residual: float
    tol: float

    @property
    def passed(self):
        return self.hypotheses_met and self.max_residual <= self.tol


def equivariance_check(sys, N, ell, seed=0):
    """Check F(gamma_ell(x)) = gamma_ell(F(x)) for the single-cell map
    gamma_ell applying N in slot ell, at 50 random points, assuming
    f(Nx) = Nf(x) and HN = NH = H.  Hypothesis failures are reported and
    the residual check is skipped."""
    N = np.asarray(N, dtype=float)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2, 2, size=(50, sys.k))
    f_res = float(np.max(np.abs(sys.f(pts @ N.T) - sys.f(pts) @ N.T)))
    if f_res > 1e-10:
        return EquivarianceReport(False, "f is not N-equivariant (residual %.3g)" % f_res, np.inf, 0.0)
    hn, nh = sys.H @ N, N @ sys.H
    if np.max(np.abs(hn - sys.H)) > 1e-12 or np.max(np.abs(nh - sys.H)) > 1e-12:
        reason = "HN = NH = H fails"
        if np.max(np.abs(hn + sys.H)) <= 1e-12 and np.max(np.abs(nh + sys.H)) <= 1e-12:
            reason += " (found HN = NH = -H instead)"
        return EquivarianceReport(False, reason, np.inf, 0.0)

    def field(y):  # the vector field at an (n, k) array
        return np.reshape(sys.rhs(y.ravel().tolist()), y.shape)

    worst = 0.0
    tol = 0.0
    for _ in range(50):
        x = rng.uniform(-2, 2, size=(sys.n, sys.k))
        gx = x.copy()
        gx[ell - 1] = N @ gx[ell - 1]
        fx = field(x)
        gfx = fx.copy()
        gfx[ell - 1] = N @ gfx[ell - 1]
        worst = max(worst, float(np.max(np.abs(field(gx) - gfx))))
        tol = max(tol, 1e-10 * (1.0 + float(np.linalg.norm(fx))))
    return EquivarianceReport(True, None, worst, tol)


def antisynchrony_convergence(sys, pair, sign, dt=1e-3, T=400.0, seed=0, tail=0.1, x0=None):
    """Max of |u_i + sign * u_j| over the trailing fraction of a trajectory,
    where u is the first coordinate of each cell.  Measures which of the
    synchrony (sign=-1) / anti-synchrony (sign=+1) subspaces attracts."""
    i, j = pair
    if x0 is None:
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, size=(sys.n, sys.k))
    traj = integrate(sys, x0, dt, T)
    start = int(len(traj.times) * (1.0 - tail))
    u_i = traj.states[start:, i - 1, 0]
    u_j = traj.states[start:, j - 1, 0]
    return float(np.max(np.abs(u_i + sign * u_j)))
