"""Named check suites: executable versions of the structural theorems.

Each suite generates a batch of randomized (seeded) or fixed instances and
returns a SuiteReport with falsifying witnesses instead of raising, so a
failure is actionable.  The suites only generate instances and format
witnesses: the scan, theorem reports and dichotomy rows of
:mod:`polydiag.invariance` decide the hypotheses and conclusions of the
theorem suites, once per instance, and no suite tests membership or
orthogonality itself.  The CLI ``check`` command and the test suite both
run these.

Instances are drawn on ints: weights, matrices and the unimodular
conjugations are int arithmetic, and connectivity is decided on vertex
bitmasks (:func:`graph.arrow_masks`).  They become Fractions and
WeightedDigraphs at the report boundary, where a theorem report or a
witness needs them.  numpy and :mod:`polydiag.dynamics` are imported by
the dynamics suites and their systems alone, so the theorem suites start
without them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import graph
from .graph import (
    adjacency_matrix,
    laplacian_matrix,
    random_connected_graph,
    random_in_regular_digraph,
)
from .invariance import (
    check_constant_column_sums_theorem,
    check_main_lemma,
    dichotomy_rows,
    eigendata,
    invariant_polydiagonals,
)
from .partitions import parse_typical_element, typical_element


@dataclass
class SuiteReport:
    name: str
    trials: int
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """No witness and no note: a suite that came up short fails."""
        return not self.failures and not self.notes

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = ["%s: %s (%d trials)" % (self.name, status, self.trials)]
        lines += ["  witness: %s" % w for w in self.failures]
        lines += ["  note: %s" % n for n in self.notes]
        return "\n".join(lines)


def _run(name, trials, draw, witnesses, factor=40) -> SuiteReport:
    """The one sampling loop of the theorem suites: up to ``trials``
    instances from ``draw()``, which returns None for a rejected draw,
    giving up after ``trials * factor`` draws; then the witnesses of each
    instance found, ``witnesses(*instance)``.  Every draw comes before
    any decision, so ``witnesses`` must not read the rng that ``draw``
    uses.  A shortfall is a note, so the suite fails."""
    found = []
    attempts = 0
    while len(found) < trials and attempts < trials * factor:
        attempts += 1
        inst = draw()
        if inst is not None:
            found.append(inst)
    failures = [w for inst in found for w in witnesses(*inst)]
    notes = ["only %d of %d instances found" % (len(found), trials)] if len(found) < trials else []
    return SuiteReport(name, len(found), failures, notes)


def _uneven_anti_synchrony(m):
    """The m-invariant anti-synchrony subspaces that are not evenly tagged,
    in canonical order: the witnesses against Conjecture 5.3 and its
    input-output case."""
    return [p for p, cls in invariant_polydiagonals(m).subspaces if cls.anti_synchrony and not cls.evenly_tagged]


def suite_conjecture53(trials=200, n_max=7, seed=7) -> SuiteReport:
    """Laplacians of random connected graphs: every L-invariant
    anti-synchrony subspace must be evenly tagged."""
    rng = random.Random(seed)
    trial = itertools.count()

    def draw():
        return next(trial), random_connected_graph(rng.randint(2, n_max), rng)

    def witnesses(t, g):
        return ["trial %d: graph %s has invariant %s not evenly tagged" % (t, graph.to_json(g), typical_element(p))
                for p in _uneven_anti_synchrony(laplacian_matrix(g))]

    return _run("conjecture53", trials, draw, witnesses)


def _random_constant_column_sum_matrix(rng, n):
    """Integer matrix with constant column sums, drawn from -2..2; the last
    row absorbs the difference."""
    lam = rng.randint(-2, 2)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
    last = [lam - sum(r[j] for r in rows) for j in range(n)]
    rows.append(last)
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def suite_column_sums(trials=200, n_max=5, seed=11) -> SuiteReport:
    """Constant-column-sums dichotomy on random integer matrices whose
    eigenvalue lam is simple and whose eigenvector v has v_i + v_j != 0;
    draws that miss a hypothesis are rejected."""
    rng = random.Random(seed)

    def draw():
        m = _random_constant_column_sum_matrix(rng, rng.randint(2, n_max))
        report = check_constant_column_sums_theorem(m)
        return (m, report) if report.hypotheses_met else None

    def witnesses(m, report):
        return ["matrix %s: %s (%s) violates the dichotomy" % (m, typical_element(row.partition), row.label)
                for row in report.violations()]

    return _run("column-sums", trials, draw, witnesses, 60)


def _random_unimodular(rng, n):
    """(S, S^-1) as int matrices (lists of rows): S is a product of 12
    elementary row operations row_i += c*row_j, so det S = 1, and S^-1 is
    built alongside by undoing each one on the right, column_j -= c*column_i."""
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in s]
    for _ in range(12):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            s[i][k] += c * s[j][k]
            inv[k][j] -= c * inv[k][i]
    return s, inv


def _int_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def suite_main_lemma(trials=100, n_max=5, seed=3) -> SuiteReport:
    """Random integer matrices with a known simple rational eigenvalue,
    built by conjugating block companion forms: every invariant
    polydiagonal W of M must satisfy v_R in W or v_L perp W.

    lam is simple by construction: the companion block's eigenvalues are
    the (n-1)-th roots of the prime c, and the only rational one, c itself
    at n = 2, lies outside -2..2.  So every draw is an instance, and
    :func:`invariance.check_main_lemma` decides it (one eigendata call).
    M = S B S^-1 is an int product, made Fractions once for the report."""
    rng = random.Random(seed)

    def draw():
        n = rng.randint(2, n_max)
        lam = rng.randint(-2, 2)
        block = [[0] * n for _ in range(n)]
        block[0][0] = lam
        # companion block of x^(n-1) - c on the remaining coordinates
        c = rng.choice([3, 5, 7])
        for i in range(1, n - 1):
            block[i + 1][i] = 1
        block[1][n - 1] = c
        s, inv = _random_unimodular(rng, n)
        return tuple(tuple(map(Fraction, row)) for row in _int_mul(_int_mul(s, block), inv)), lam

    def witnesses(m, lam):
        return ["matrix %s lam=%s: %s fails the dichotomy" % (m, lam, typical_element(row.partition))
                for row in check_main_lemma(m, lam).violations()]

    return _run("main-lemma", trials, draw, witnesses)


def _balanced_draw(rng, n_max):
    """(n, weight, masks) for the int weights of a random weight-balanced
    digraph on 2..n_max vertices and their arrow masks, or None when the
    digraph is not weakly connected."""
    n = rng.randint(2, n_max)
    weight = graph.random_balanced_weights(n, rng)
    masks = graph.arrow_masks(n, weight)
    return (n, weight, masks) if graph.weakly_connected(*masks) else None


def suite_input_output(trials=100, n_max=6, seed=5) -> SuiteReport:
    """Laplacians of random weight-balanced digraphs with simple eigenvalue
    0: every L-invariant anti-synchrony subspace must be evenly tagged.

    With positive weights and weight balance, each weak component is
    strongly connected and adds one kernel vector, so 0 is simple exactly
    when the digraph is weakly connected."""
    rng = random.Random(seed)

    def witnesses(n, weight, masks):
        g = graph.from_weight_map(n, weight)
        return ["digraph %s: invariant %s not evenly tagged" % (graph.to_json(g), typical_element(p))
                for p in _uneven_anti_synchrony(laplacian_matrix(g))]

    return _run("input-output", trials, lambda: _balanced_draw(rng, n_max), witnesses)


def suite_frobenius_perron(trials=60, n_max=6, seed=13) -> SuiteReport:
    """Strongly connected unweighted digraphs with constant in-degree, so
    the Perron eigenvalue is the (rational) degree: invariant synchrony
    subspaces contain the right Perron vector, invariant anti-synchrony
    subspaces are orthogonal to the left one."""
    rng = random.Random(seed)

    def draw():
        n = rng.randint(2, n_max)
        d = rng.randint(1, max(1, n - 1))
        g = random_in_regular_digraph(n, d, rng)
        if not graph.is_strongly_connected(g):
            return None
        a = adjacency_matrix(g)
        eig = eigendata(a, d)
        if len(eig.right_basis) != 1:
            return None
        return g, a, eig

    def witnesses(g, a, eig):
        out = []
        for row in dichotomy_rows(a, eig):
            p, cls = row.partition, row.cls
            if cls.synchrony and not row.right_in_subspace:
                out.append("digraph %s: synchrony %s misses v_R" % (graph.to_json(g), typical_element(p)))
            if cls.anti_synchrony and not row.left_in_perp:
                out.append("digraph %s: anti-synchrony %s not perp v_L" % (graph.to_json(g), typical_element(p)))
        return out

    return _run("frobenius-perron", trials, draw, witnesses)


def suite_strong_connectivity(trials=200, n_max=7, seed=17) -> SuiteReport:
    """Weight-balanced, weakly connected digraphs with positive weights and
    no loops must be strongly connected."""
    rng = random.Random(seed)

    def witnesses(n, weight, masks):
        if graph.strongly_connected(*masks):
            return []
        return ["digraph %s weakly but not strongly connected" % graph.to_json(graph.from_weight_map(n, weight))]

    return _run("strong-connectivity", trials, lambda: _balanced_draw(rng, n_max), witnesses)


# ---------------------------------------------------------------------------
# dynamics suites (the worked two-cell examples)


def vdp_example_system(use_laplacian=False):
    """Two coupled van der Pol cells with M = 0.5 A or M = 0.5 L: cell 1
    autonomous, cell 2 driven by cell 1 and itself (A = [[0,0],[1,1]],
    L = [[0,0],[-1,1]])."""
    from . import dynamics

    m = [[0.0, 0.0], [-0.5 if use_laplacian else 0.5, 0.5]]
    return dynamics.CoupledSystem(dynamics.preset_f("vanderpol"), dynamics.VDP_H, m)


def lorenz_pair_system(h, kappa):
    """Two Lorenz cells with symmetric Laplacian coupling M = kappa*L."""
    import numpy as np

    from . import dynamics

    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return dynamics.CoupledSystem(dynamics.preset_f("lorenz"), h, kappa * lap)


def _dynamics_report(name, outcomes) -> SuiteReport:
    """The report on the checks a dynamics suite ran: outcomes holds one
    witness, or None for a check that passed, per check."""
    return SuiteReport(name, len(outcomes), [w for w in outcomes if w is not None])


def suite_dynamics_vdp(dt=1e-3, T=50.0, tol=1e-6, seed=0) -> SuiteReport:
    """Anti-phase subspace of the van der Pol pair stays invariant; the
    (not M-invariant) in-phase subspace serves as the negative control."""
    import numpy as np

    from . import dynamics

    sys = vdp_example_system()
    anti = dynamics.TwistedSubspace(parse_typical_element("(a,-a)"), -np.eye(2))
    sync = dynamics.TwistedSubspace(parse_typical_element("(a,a)"), -np.eye(2))
    rep = dynamics.invariance_test(sys, anti, trials=3, dt=dt, T=T, tol=tol, seed=seed)
    neg = dynamics.invariance_test(sys, sync, trials=3, dt=dt, T=min(T, 20.0), tol=tol, seed=seed)
    return _dynamics_report("dynamics-vdp", [
        None if rep.passed else "(a,-a) drift %.3g exceeds %.1g (blowups %d)" % (rep.max_distance, tol, rep.blowups),
        "negative control (a,a) stayed within 1e-2 (%.3g)" % neg.max_distance if neg.max_distance <= 1e-2 else None,
    ])


def suite_dynamics_lorenz(dt=1e-3, T=50.0, tol=1e-6, seed=0) -> SuiteReport:
    """Twisted subspace ((u,v,w),(-u,-v,w)) of the Lorenz pair: invariant
    for the v-coupled system with M = 2L, and for the w-coupled system via
    the cell symmetry; the w-coupling satisfies HN = NH = H."""
    import numpy as np

    from . import dynamics

    n_sym = np.diag([-1.0, -1.0, 1.0])
    twisted = dynamics.TwistedSubspace(parse_typical_element("(a,-a)"), n_sym)
    outcomes = []
    sys_v = lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0)
    sys_w = lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0)
    for label, sys_ in (("H-", sys_v), ("H+", sys_w)):
        rep = dynamics.invariance_test(sys_, twisted, trials=3, dt=dt, T=T, tol=tol, seed=seed)
        outcomes.append(None if rep.passed else "%s system drift %.3g exceeds %.1g (blowups %d)"
                        % (label, rep.max_distance, tol, rep.blowups))
    eq = dynamics.equivariance_check(sys_w, n_sym, ell=1, seed=seed)
    outcomes.append(None if eq.passed else "H+ equivariance: %s" % (eq.reason or "residual %.3g" % eq.max_residual))
    eq_minus = dynamics.equivariance_check(sys_v, n_sym, ell=1, seed=seed)
    outcomes.append("H- unexpectedly satisfied HN = NH = H" if eq_minus.hypotheses_met else None)
    return _dynamics_report("dynamics-lorenz", outcomes)


def suite_dynamics_attractors(seed=2, dt=1e-3) -> SuiteReport:
    """Long-time checks from the worked examples; a trajectory that blows
    up is a failure witness.  The Lorenz case asks that |u1+u2| settle
    near the anti-synchrony subspace.  The two van der Pol cases do not
    probe attraction: the ``vanderpol`` preset is the time-reversed van
    der Pol oscillator, whose origin attracts small states, so both decay
    to a whole-state tail of about 1e-41 and pass with any subspace."""
    import numpy as np

    from . import dynamics

    sys_w = lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0)
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1, 1, size=3) + np.array([1.0, 1.0, 25.0])
    x0 = np.stack([base, np.diag([-1.0, -1.0, 1.0]) @ base + rng.uniform(-0.05, 0.05, size=3)])
    cases = (
        ("vdp M=0.5A", "|u1+u2|", "1e-2", vdp_example_system(), +1,
         dict(T=400.0, seed=seed, tail=0.2)),
        ("vdp M=0.5L", "|u1-u2|", "1e-2", vdp_example_system(use_laplacian=True), -1,
         dict(T=400.0, seed=seed, tail=0.2)),
        ("lorenz H+ M=-2L", "|u1+u2|", "1e-1", sys_w, +1, dict(T=100.0, x0=x0, tail=0.1)),
    )
    outcomes = []
    for label, measure, bound, sys_, sign, kwargs in cases:
        try:
            tail = dynamics.antisynchrony_convergence(sys_, (1, 2), sign, dt=dt, **kwargs)
        except dynamics.BlowupError as exc:
            outcomes.append("%s blew up at t=%.6g" % (label, exc.time))
            continue
        outcomes.append("%s tail %s = %.3g > %s" % (label, measure, tail, bound) if tail > float(bound) else None)
    return _dynamics_report("dynamics-attractors", outcomes)


SUITES = {
    "conjecture53": suite_conjecture53,
    "column-sums": suite_column_sums,
    "main-lemma": suite_main_lemma,
    "input-output": suite_input_output,
    "frobenius-perron": suite_frobenius_perron,
    "strong-connectivity": suite_strong_connectivity,
    "dynamics-vdp": suite_dynamics_vdp,
    "dynamics-lorenz": suite_dynamics_lorenz,
    "dynamics-attractors": suite_dynamics_attractors,
}
