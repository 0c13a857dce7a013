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
witness needs them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import dynamics, graph
from .graph import (
    adjacency_matrix,
    laplacian_matrix,
    random_connected_graph,
    random_in_regular_digraph,
    random_weight_balanced_digraph,
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
    passed: bool
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = ["%s: %s (%d trials)" % (self.name, status, self.trials)]
        lines += ["  witness: %s" % w for w in self.failures]
        lines += ["  note: %s" % n for n in self.notes]
        return "\n".join(lines)


def _uneven_anti_synchrony(m):
    """The m-invariant anti-synchrony subspaces that are not evenly tagged,
    in canonical order: the witnesses against Conjecture 5.3 and its
    input-output case."""
    return [p for p, cls in invariant_polydiagonals(m).subspaces if cls.anti_synchrony and not cls.evenly_tagged]


def suite_conjecture53(trials=200, n_max=7, seed=7) -> SuiteReport:
    """Laplacians of random connected graphs: every L-invariant
    anti-synchrony subspace must be evenly tagged."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        g = random_connected_graph(rng.randint(2, n_max), rng)
        for p in _uneven_anti_synchrony(laplacian_matrix(g)):
            failures.append(
                "trial %d: graph %s has invariant %s not evenly tagged"
                % (t, graph.to_json(g), typical_element(p))
            )
    return SuiteReport("conjecture53", trials, not failures, failures)


def _random_constant_column_sum_matrix(rng, n):
    """Integer matrix with constant column sums, drawn from -2..2; the last
    row absorbs the difference."""
    lam = rng.randint(-2, 2)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
    last = [lam - sum(r[j] for r in rows) for j in range(n)]
    rows.append(last)
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _sample(draw, trials, factor=40):
    """Up to ``trials`` instances from ``draw()``, which returns None for a
    rejected draw; gives up after ``trials * factor`` draws."""
    out = []
    attempts = 0
    while len(out) < trials and attempts < trials * factor:
        attempts += 1
        inst = draw()
        if inst is not None:
            out.append(inst)
    return out


def suite_column_sums(trials=200, n_max=5, seed=11) -> SuiteReport:
    """Constant-column-sums dichotomy on random integer matrices whose
    eigenvalue lam is simple and whose eigenvector v has v_i + v_j != 0;
    draws that miss a hypothesis are rejected."""
    rng = random.Random(seed)

    def draw():
        m = _random_constant_column_sum_matrix(rng, rng.randint(2, n_max))
        report = check_constant_column_sums_theorem(m)
        return (m, report) if report.hypotheses_met else None

    failures, notes = [], []
    found = _sample(draw, trials, 60)
    for m, report in found:
        for row in report.violations():
            failures.append(
                "matrix %s: %s (%s) violates the dichotomy"
                % (m, typical_element(row.partition), row.label)
            )
    done = len(found)
    if done < trials:
        notes.append("only %d of %d instances found" % (done, trials))
    return SuiteReport("column-sums", done, not failures and done == trials, failures, notes)


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
    failures = []
    for _ in range(trials):
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
        m = tuple(tuple(map(Fraction, row)) for row in _int_mul(_int_mul(s, block), inv))
        for row in check_main_lemma(m, lam).violations():
            failures.append(
                "matrix %s lam=%s: %s fails the dichotomy"
                % (m, lam, typical_element(row.partition))
            )
    return SuiteReport("main-lemma", trials, not failures, failures)


def suite_input_output(trials=100, n_max=6, seed=5) -> SuiteReport:
    """Laplacians of random weight-balanced digraphs with simple eigenvalue
    0: every L-invariant anti-synchrony subspace must be evenly tagged.

    With positive weights and weight balance, each weak component is
    strongly connected and adds one kernel vector, so 0 is simple exactly
    when the digraph is weakly connected."""
    rng = random.Random(seed)

    def draw():
        g = random_weight_balanced_digraph(rng.randint(2, n_max), rng)
        return (g, laplacian_matrix(g)) if graph.is_weakly_connected(g) else None

    failures = []
    found = _sample(draw, trials)
    for g, lap in found:
        for p in _uneven_anti_synchrony(lap):
            failures.append("digraph %s: invariant %s not evenly tagged" % (graph.to_json(g), typical_element(p)))
    return SuiteReport("input-output", len(found), not failures and len(found) == trials, failures)


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

    failures = []
    found = _sample(draw, trials)
    for g, a, eig in found:
        for row in dichotomy_rows(a, eig):
            p, cls = row.partition, row.cls
            if cls.synchrony and not row.right_in_subspace:
                failures.append("digraph %s: synchrony %s misses v_R" % (graph.to_json(g), typical_element(p)))
            if cls.anti_synchrony and not row.left_in_perp:
                failures.append("digraph %s: anti-synchrony %s not perp v_L" % (graph.to_json(g), typical_element(p)))
    return SuiteReport("frobenius-perron", len(found), not failures and len(found) == trials, failures)


def suite_strong_connectivity(trials=200, n_max=7, seed=17) -> SuiteReport:
    """Weight-balanced, weakly connected digraphs with positive weights and
    no loops must be strongly connected."""
    rng = random.Random(seed)

    def draw():
        n = rng.randint(2, n_max)
        weight = graph.random_balanced_weights(n, rng)
        masks = graph.arrow_masks(n, weight)
        return (n, weight, masks) if graph.weakly_connected(*masks) else None

    found = _sample(draw, trials)
    failures = [
        "digraph %s weakly but not strongly connected" % graph.to_json(graph.from_weight_map(n, weight))
        for n, weight, masks in found
        if not graph.strongly_connected(*masks)
    ]
    return SuiteReport("strong-connectivity", len(found), not failures and len(found) == trials, failures)


# ---------------------------------------------------------------------------
# dynamics suites (the worked two-cell examples)


def vdp_example_system(use_laplacian=False):
    """Two coupled van der Pol cells with M = 0.5 A or M = 0.5 L: cell 1
    autonomous, cell 2 driven by cell 1 and itself (A = [[0,0],[1,1]],
    L = [[0,0],[-1,1]])."""
    m = [[0.0, 0.0], [-0.5 if use_laplacian else 0.5, 0.5]]
    return dynamics.CoupledSystem(dynamics.preset_f("vanderpol"), dynamics.VDP_H, m)


def lorenz_pair_system(h, kappa):
    """Two Lorenz cells with symmetric Laplacian coupling M = kappa*L."""
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return dynamics.CoupledSystem(dynamics.preset_f("lorenz"), h, kappa * lap)


def suite_dynamics_vdp(dt=1e-3, T=50.0, tol=1e-6, seed=0) -> SuiteReport:
    """Anti-phase subspace of the van der Pol pair stays invariant; the
    (not M-invariant) in-phase subspace serves as the negative control."""
    sys = vdp_example_system()
    anti = dynamics.TwistedSubspace(parse_typical_element("(a,-a)"), -np.eye(2))
    sync = dynamics.TwistedSubspace(parse_typical_element("(a,a)"), -np.eye(2))
    failures = []
    rep = dynamics.invariance_test(sys, anti, trials=3, dt=dt, T=T, tol=tol, seed=seed)
    if not rep.passed:
        failures.append("(a,-a) drift %.3g exceeds %.1g (blowups %d)" % (rep.max_distance, tol, rep.blowups))
    neg = dynamics.invariance_test(sys, sync, trials=3, dt=dt, T=min(T, 20.0), tol=tol, seed=seed)
    if neg.max_distance <= 1e-2:
        failures.append("negative control (a,a) stayed within 1e-2 (%.3g)" % neg.max_distance)
    return SuiteReport("dynamics-vdp", 2, not failures, failures)


def suite_dynamics_lorenz(dt=1e-3, T=50.0, tol=1e-6, seed=0) -> SuiteReport:
    """Twisted subspace ((u,v,w),(-u,-v,w)) of the Lorenz pair: invariant
    for the v-coupled system with M = 2L, and for the w-coupled system via
    the cell symmetry; the w-coupling satisfies HN = NH = H."""
    n_sym = np.diag([-1.0, -1.0, 1.0])
    twisted = dynamics.TwistedSubspace(parse_typical_element("(a,-a)"), n_sym)
    failures = []
    sys_v = lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0)
    sys_w = lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0)
    for label, sys_ in (("H-", sys_v), ("H+", sys_w)):
        rep = dynamics.invariance_test(sys_, twisted, trials=3, dt=dt, T=T, tol=tol, seed=seed)
        if not rep.passed:
            failures.append("%s system drift %.3g exceeds %.1g (blowups %d)"
                            % (label, rep.max_distance, tol, rep.blowups))
    eq = dynamics.equivariance_check(sys_w, n_sym, ell=1, seed=seed)
    if not eq.passed:
        failures.append("H+ equivariance: %s" % (eq.reason or "residual %.3g" % eq.max_residual))
    eq_minus = dynamics.equivariance_check(sys_v, n_sym, ell=1, seed=seed)
    if eq_minus.hypotheses_met:
        failures.append("H- unexpectedly satisfied HN = NH = H")
    return SuiteReport("dynamics-lorenz", 5, not failures, failures)


def suite_dynamics_attractors(seed=2, dt=1e-3) -> SuiteReport:
    """Qualitative attractor checks from the worked examples: which of the
    synchrony / anti-synchrony subspaces wins at long times.  A trajectory
    that blows up is a failure witness."""
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
    failures = []
    for label, measure, bound, sys_, sign, kwargs in cases:
        try:
            tail = dynamics.antisynchrony_convergence(sys_, (1, 2), sign, dt=dt, **kwargs)
        except dynamics.BlowupError as exc:
            failures.append("%s blew up at t=%.6g" % (label, exc.time))
            continue
        if tail > float(bound):
            failures.append("%s tail %s = %.3g > %s" % (label, measure, tail, bound))
    return SuiteReport("dynamics-attractors", 3, not failures, failures)


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
