"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated tolerance and time budget."""

import time
from fractions import Fraction as F

import numpy as np

from polydiag import checks, counting, dynamics, graph, invariance
from polydiag.partitions import (
    classify,
    enumerate_tagged_partitions,
    orthogonal,
    parse_typical_element,
    typical_element,
)

from btype_oracle import enumerate_btype_partitions, from_btype, to_btype

FIGURE = {
    "polydiagonal": [1, 2, 6, 24, 116, 648, 4088, 28640, 219920],
    "synchrony": [1, 1, 2, 5, 15, 52, 203, 877, 4140],
    "anti_synchrony": [0, 1, 4, 19, 101, 596, 3885, 27763, 215780],
    "minimally": [0, 1, 3, 10, 37, 151, 674, 3263, 17007],
    "fully": [1, 1, 2, 7, 29, 136, 737, 4537, 30914],
    "evenly": [1, 1, 2, 4, 13, 41, 176, 722, 3774],
}


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, "%s took %.1fs (budget %ds)" % (
                self.name,
                elapsed,
                self.seconds,
            )
            print("ACCEPTANCE %s: PASS (%.1fs)" % (self.name, elapsed))
        else:
            print("ACCEPTANCE %s: FAIL (%.1fs)" % (self.name, elapsed))
        return False


def test_01_count_table_matches_figure():
    with Budget("1 counting table n<=8", 60):
        table = counting.count_table(8)
        for kind, vals in FIGURE.items():
            assert table.rows[kind] == vals, kind
        assert all(table.cross_checked.values())


def test_02_three_way_count_agreement():
    with Budget("2 three-way count agreement", 90):
        for kind in counting.FIGURE_KINDS:
            for n in range(9):
                by_egf = counting.egf_count(kind, n)
                by_rec = counting.recurrence_count(kind, n)
                by_enum = counting.enumeration_count(kind, n)
                assert by_egf == by_rec == by_enum, (kind, n)


def test_03_dirichlet_example():
    with Budget("3 symmetric 3-cell example", 1):
        a = graph.from_adjacency([[3, -1, 0], [-1, 2, -1], [0, -1, 3]])
        inv = invariance.invariant_polydiagonals(graph.adjacency_matrix(a))
        got = {typical_element(p): invariance.type_label(p, c) for p, c in inv.subspaces}
        assert got == {
            "(0,0,0)": "trivial",
            "(a,0,-a)": "evenly tagged",
            "(a,-a,a)": "fully tagged",
            "(a,b,a)": "synchrony",
            "(a,b,c)": "synchrony",
        }


def test_04_feedforward_dichotomy_tables():
    with Budget("4 feed-forward eigenvector dichotomy", 1):
        m = graph.adjacency_matrix(graph.from_adjacency([[1, 0, 0], [1, 0, 0], [0, 1, 0]]))
        inv = invariance.invariant_polydiagonals(m)
        assert len(inv.subspaces) == 6
        expect = {
            0: (
                {"(0,0,a)", "(0,a,b)", "(a,a,b)", "(a,b,c)"},
                {"(0,0,0)", "(0,0,a)", "(a,a,a)", "(a,a,b)"},
            ),
            1: (
                {"(a,a,a)", "(a,a,b)", "(a,b,c)"},
                {"(0,0,0)", "(0,0,a)", "(0,a,b)"},
            ),
        }
        for lam, (want_in, want_perp) in expect.items():
            rep = invariance.check_main_lemma(m, lam)
            assert rep.passed
            got_in = {typical_element(r.partition) for r in rep.rows if r.right_in_subspace}
            got_perp = {typical_element(r.partition) for r in rep.rows if r.left_in_perp}
            assert got_in == want_in and got_perp == want_perp


def test_05_disconnected_graph_counterexample():
    with Budget("5 disconnected-graph counterexample", 1):
        lap = graph.laplacian_matrix(graph.digraph_of_graph(3, [(2, 3)]))
        inv = invariance.invariant_polydiagonals(lap)
        assert len(inv.subspaces) == 10
        not_evenly = {
            typical_element(p)
            for p, c in inv.subspaces
            if c.anti_synchrony and not c.evenly_tagged
        }
        assert not_evenly == {"(a,0,0)", "(0,a,a)", "(0,a,b)", "(a,-a,-a)", "(a,b,-b)"}


def test_06_constant_column_sum_cycle():
    with Budget("6 weighted 3-cycle with column sums 3", 1):
        m = graph.adjacency_matrix(graph.from_adjacency([[0, 1, 1], [2, 0, 2], [1, 2, 0]]))
        inv = invariance.invariant_polydiagonals(m)
        got = {typical_element(p): c for p, c in inv.subspaces}
        assert set(got) == {"(a,b,c)", "(0,0,0)", "(0,a,-a)", "(a,0,-a)"}
        synchrony = [t for t, c in got.items() if c.synchrony]
        assert synchrony == ["(a,b,c)"]
        assert all(c.evenly_tagged for t, c in got.items() if c.anti_synchrony)


def test_07_dihedral_cayley_orbits():
    with Budget("7 dihedral Cayley digraph orbits", 10):
        table = graph.dihedral_group_table(3)
        g = graph.cayley_digraph(table, [(3, F(1)), (4, F(1))])
        autos = graph.automorphisms(g)
        assert len(autos) == 12
        inv = invariance.invariant_polydiagonals(graph.adjacency_matrix(g))
        orbs = invariance.orbits(inv, autos)
        assert len(inv.subspaces) == 31
        assert len(orbs) == 15
        anti = {i for i, (p, c) in enumerate(inv.subspaces) if c.anti_synchrony}
        anti_orbs = [o for o in orbs if o[0] in anti]
        assert len(anti) == 18
        assert len(anti_orbs) == 8


def test_08_connected_graph_laplacian_suite():
    with Budget("8 connected-graph Laplacian property suite", 300):
        rep = checks.suite_conjecture53(trials=200, n_max=7, seed=7)
        assert rep.passed, rep.summary()


def test_09_column_sums_suite():
    with Budget("9 constant-column-sums property suite", 300):
        rep = checks.suite_column_sums(trials=200, seed=11)
        assert rep.passed, rep.summary()


def test_10_orthogonality_biconditional():
    with Budget("10 evenly tagged iff orthogonal to ones, n<=6", 10):
        for n in range(7):
            for p in enumerate_tagged_partitions(n):
                assert classify(p).evenly_tagged == orthogonal(p, [1] * p.n)


def test_11_btype_bijection():
    with Budget("11 B-type partition bijection", 30):
        for n in range(6):
            for p in enumerate_tagged_partitions(n):
                assert from_btype(to_btype(p)) == p
        for n in range(5):
            direct = sum(1 for _ in enumerate_btype_partitions(n))
            assert direct == counting.recurrence_count("polydiagonal", n)


def test_12_dynamical_invariance():
    with Budget("12 dynamical invariance of invariant subspaces", 60):
        sys_vdp = checks.vdp_example_system()
        anti = dynamics.TwistedSubspace(parse_typical_element("(a,-a)"), -np.eye(2))
        rep = dynamics.invariance_test(sys_vdp, anti, trials=3, dt=1e-3, T=50.0, tol=1e-6, seed=0)
        assert rep.passed, rep.max_distance
        n_sym = np.diag([-1.0, -1.0, 1.0])
        twisted = dynamics.TwistedSubspace(parse_typical_element("(a,-a)"), n_sym)
        sys_lor = checks.lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0)
        rep2 = dynamics.invariance_test(sys_lor, twisted, trials=3, dt=1e-3, T=50.0, tol=1e-6, seed=0)
        assert rep2.passed, rep2.max_distance


def test_13_attractor_convergence():
    with Budget("13 qualitative attractor convergence", 120):
        rep = checks.suite_dynamics_attractors(seed=2)
        assert rep.passed, rep.summary()


def test_14_negative_control():
    with Budget("14 negative control", 10):
        sys_vdp = checks.vdp_example_system()
        sync = dynamics.TwistedSubspace(parse_typical_element("(a,a)"), -np.eye(2))
        rep = dynamics.invariance_test(sys_vdp, sync, trials=2, dt=1e-3, T=8.0, tol=1e-6, seed=0)
        assert rep.max_distance > 1e-2, rep.max_distance
