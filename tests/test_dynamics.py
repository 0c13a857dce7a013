import ast
import hashlib
import math
import os
import random
import re
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiag import checks, dynamics
from polydiag.dynamics import (
    BlowupError,
    CoupledSystem,
    TwistedSubspace,
    antisynchrony_convergence,
    equivariance_check,
    integrate,
    invariance_test,
    preset_f,
    sample_in_subspace,
    subspace_distances,
)
from polydiag.partitions import parse_typical_element


def _on_rows(f, x):
    """f at each row of an (m, k) array, through Preset.func on floats."""
    return np.array([f.func(*row) for row in x.tolist()], dtype=float)


def test_vanderpol_preset_values():
    f = preset_f("vanderpol", eps=2)
    assert f.func(1.0, 0.0) == [0.0, -1.0]


def test_lorenz_preset_fixes_origin():
    f = preset_f("lorenz")
    assert f.func(0.0, 0.0, 0.0) == [0.0, 0.0, 0.0]


def test_presets_odd_where_declared():
    # the presets that preset_f's docstring calls odd
    rng = np.random.default_rng(0)
    for name, kwargs in (("vanderpol", {"eps": 2}), ("cubic_odd", {"k": 3}), ("zero", {"k": 2})):
        f = preset_f(name, **kwargs)
        x = rng.uniform(-2, 2, size=(100, f.k))
        assert np.allclose(_on_rows(f, -x), -_on_rows(f, x))
    g = preset_f("singular_osc")
    x = rng.uniform(0.2, 2, size=(100, 2))  # keep u away from 0
    assert np.allclose(_on_rows(g, -x), -_on_rows(g, x))


def test_unknown_preset_and_params():
    with pytest.raises(KeyError):
        preset_f("pendulum")
    with pytest.raises(TypeError):
        preset_f("lorenz", eps=1)


def vdp_system():
    return checks.vdp_example_system()


def _cell_states(traj, sys):
    """The flat states of a trajectory as an (m, n, k) array."""
    return np.reshape(traj.states, (-1, sys.n, sys.k))


def test_integrate_linear_flow_stays_in_subspace():
    # zero internal dynamics, H = I: pure linear network flow
    m = np.array([[0.0, 0.0], [1.0, 1.0]])
    sys = CoupledSystem(preset_f("zero", k=2), np.eye(2), m)
    s = TwistedSubspace(parse_typical_element("(a,-a)"), -np.eye(2))
    x0 = sample_in_subspace(s, np.random.default_rng(1))
    traj = integrate(sys, x0, 1e-2, 5.0)
    assert max(subspace_distances(traj.states, s)) < 1e-12


def test_integrate_single_lorenz_bounded():
    sys = CoupledSystem(preset_f("lorenz"), np.zeros((3, 3)), np.zeros((1, 1)))
    traj = integrate(sys, np.array([1.0, 1.0, 1.0]), 1e-3, 50.0)
    assert np.all(np.isfinite(traj.states))
    assert np.max(np.abs(traj.states)) < 100.0


def test_integrate_coupled_vdp_bounded():
    traj = integrate(vdp_system(), np.array([0.1, 0.0, -0.2, 0.1]), 1e-3, 50.0)
    assert np.max(np.abs(traj.states)) < 10.0


def test_integrate_blowup_detected():
    bad = dynamics.Preset("explode", ("x",), ("x ** 3",))
    sys = CoupledSystem(bad, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(BlowupError):
        integrate(sys, np.array([2.0]), 1e-2, 50.0)


def test_integrate_rejects_bad_steps():
    with pytest.raises(ValueError):
        integrate(vdp_system(), np.zeros(4), -1.0, 1.0)


def test_trajectory_csv():
    traj = integrate(vdp_system(), np.array([0.1, 0.0, -0.2, 0.1]), 1e-2, 0.1)
    text = traj.to_csv()
    assert text.splitlines()[0] == "t,x1,x2,x3,x4"
    assert len(text.splitlines()) == len(traj.times) + 1


def _rows(traj):
    """The states of a trajectory, one tuple per time."""
    nk = len(traj.states) // len(traj.times)
    return [tuple(traj.states[i : i + nk]) for i in range(0, len(traj.states), nk)]


def _trajectory(times, cols):
    """A Trajectory with the given times and columns."""
    return dynamics.Trajectory(array("d", times), array("d", [v for row in zip(*cols) for v in row]))


def _csv_by_rows(traj):
    """The CSV of a trajectory by its defining formula, one % per row."""
    nk = len(traj.states) // len(traj.times)
    row = "%.10g" + ",%.16g" * nk
    lines = ["t," + ",".join("x%d" % (j + 1) for j in range(nk))]
    return "\n".join(lines + [row % (t, *x) for t, x in zip(traj.times, _rows(traj))]) + "\n"


CSV_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
                       st.floats(allow_nan=False, allow_infinity=False))


def _zero_signs_flipped(col):
    """col with the sign of each zero flipped: equal to col under ==, not
    in the bits that %.16g writes."""
    return [-v if v == 0.0 else v for v in col]


PLANTS = {
    "copy": lambda col: list(col),
    "negation": lambda col: [-v for v in col],
    "zeros": lambda col: [0.0] * len(col),
    "negative zeros": lambda col: [-0.0] * len(col),
    "copy with zero signs flipped": _zero_signs_flipped,
    "negation with zero signs flipped": lambda col: _zero_signs_flipped([-v for v in col]),
}


@st.composite
def planted_trajectories(draw):
    """Columns of finite floats, with copies, negations, all-zero columns
    of either sign and zero-sign twins of earlier columns planted among
    them; zeros are frequent, so twins and -0.0 columns often hold some."""
    m = draw(st.integers(1, 12))
    column = st.lists(st.one_of(CSV_FLOATS, st.sampled_from([0.0, -0.0])), min_size=m, max_size=m)
    cols = draw(st.lists(column, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 6))):
        plant = PLANTS[draw(st.sampled_from(sorted(PLANTS)))]
        cols.append(plant(draw(st.sampled_from(cols))))
    cols = draw(st.permutations(cols))
    times = draw(st.lists(CSV_FLOATS, min_size=m, max_size=m))
    return _trajectory(times, cols)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(planted_trajectories())
def test_csv_equals_the_per_row_formula(traj):
    assert traj.to_csv() == _csv_by_rows(traj)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(
    lambda m: st.lists(st.lists(CSV_FLOATS, min_size=m, max_size=m), min_size=1, max_size=6, unique_by=tuple)))
def test_csv_without_planted_columns_equals_the_per_row_formula(cols):
    traj = _trajectory([0.01 * s for s in range(len(cols[0]))], cols)
    assert traj.to_csv() == _csv_by_rows(traj)


@pytest.mark.parametrize(
    "cols",
    [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],  # no column repeats: each one in the row format
     [[1.0, 2.0, 3.0], [-1.0, 7.0, 3.0]],  # ends agree up to sign, the middle does not
     [[-0.0, 1.0, -0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [-0.0, -1.0, -0.0]]],  # == but not bits
    ids=["distinct", "ends-only", "signed-zeros"],
)
def test_csv_of_near_repeats_equals_the_per_row_formula(cols):
    traj = _trajectory([0.0, 0.5, 1.0], cols)
    assert traj.to_csv() == _csv_by_rows(traj)


def test_states_are_one_flat_float_array():
    """8 bytes a value, as in a float64 array; times are s * dt as numpy
    computes them, and state(s) reads the values of one time."""
    traj = integrate(vdp_system(), [0.3, -0.2, -0.1, 0.2], 0.01, 1.0)
    assert traj.states.itemsize == 8 and len(traj.states) == 101 * 4
    assert traj.times.tobytes() == (np.arange(101) * 0.01).tobytes()
    assert traj.state(0) == [0.3, -0.2, -0.1, 0.2]
    assert traj.state(-1) == traj.state(100) == traj.states[-4:].tolist()
    with pytest.raises(IndexError):
        traj.state(101)


def test_csv_formats_an_antisynchronous_pair_once(monkeypatch):
    """On (a,-a) x R^2 the van der Pol pair's states are (u, v, -u, -v)
    bit for bit: the last two columns reuse the text of the first two."""
    toggled, toggle = [], dynamics._toggled
    monkeypatch.setattr(dynamics, "_toggled", lambda text: toggled.append(text) or toggle(text))
    traj = integrate(vdp_system(), [0.3, -0.2, -0.3, 0.2], 0.005, 5.0)
    assert all(x[2] == -x[0] and x[3] == -x[1] for x in _rows(traj))
    assert traj.to_csv() == _csv_by_rows(traj)
    assert len(toggled) == 2


def test_subspace_distance_examples():
    # one state of n*k flat coordinates each
    same = TwistedSubspace(parse_typical_element("(a,a)"), -np.eye(3))
    assert subspace_distances([1.0, 2.0, 3.0, 1.0, 2.0, 3.0], same) == [0.0]
    n_sym = np.diag([-1.0, -1.0, 1.0])
    twisted = TwistedSubspace(parse_typical_element("(a,-a)"), n_sym)
    assert subspace_distances(np.array([1.0, 2.0, 3.0, -1.0, -2.0, 3.0]), twisted) == [0.0]
    plain = TwistedSubspace(parse_typical_element("(a,-a)"), -np.eye(1))
    assert subspace_distances(array("d", [1.0, 1.0]), plain)[0] > 0.1


def test_subspace_distance_dimension_mismatch():
    # states are m*n*k flat numbers: a length that is no multiple of n*k = 4
    # is a ValueError, and a nested batch or an entry that is no number a
    # TypeError
    s = TwistedSubspace(parse_typical_element("(a,a)"), -np.eye(2))
    for length in (1, 2, 3, 5, 6, 7, 9, 18):
        with pytest.raises(ValueError, match="do not fit"):
            subspace_distances(np.ones(length), s)
    for states in (np.ones((5, 4)), np.ones((1, 2, 2)), [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0, "1"],
                   [1.0, 1.0, 1.0, None], "1111"):
        with pytest.raises(TypeError):
            subspace_distances(states, s)
    for states in (np.ones(20), [1.0] * 20, array("d", [1.0]) * 20):
        d = subspace_distances(states, s)
        assert d == [0.0] * 5 and type(d) is list
    assert subspace_distances([], s) == []


def test_twisted_subspace_requires_involution():
    p = parse_typical_element("(a,-a)")
    for n_bad in ([[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]], np.ones((2, 2, 2)), [-1.0], np.zeros((0, 0)),
                  [[np.nan]]):
        with pytest.raises(ValueError):
            TwistedSubspace(p, n_bad)
    s = TwistedSubspace(p, [[0.0, 1.0], [1.0, 0.0]])
    assert s.k == len(s.N) == 2 and s.N == ((0.0, 1.0), (1.0, 0.0))
    assert all(type(v) is float for row in s.N for v in row)


def test_twisted_subspace_takes_partition_and_n_only():
    with pytest.raises(TypeError):
        TwistedSubspace(parse_typical_element("(a,-a)"))
    with pytest.raises(TypeError):
        TwistedSubspace(parse_typical_element("(a,-a)"), 2, -np.eye(2))


def test_sample_in_subspace_fixed_class():
    s = TwistedSubspace(parse_typical_element("(a,0)"), -np.eye(2))
    x = sample_in_subspace(s, np.random.default_rng(2))
    assert np.allclose(x[1], 0.0)
    assert subspace_distances([v for cell in x for v in cell], s)[0] < 1e-15


def test_invariance_short_runs():
    # odd f and an M-invariant anti-synchrony subspace
    rep = invariance_test(
        vdp_system(), TwistedSubspace(parse_typical_element("(a,-a)"), -np.eye(2)),
        trials=2, dt=1e-3, T=5.0, tol=1e-6, seed=3,
    )
    assert rep.passed
    # synchrony subspace with a non-odd f (invariant for any f)
    sys_l = checks.lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0)
    rep2 = invariance_test(
        sys_l, TwistedSubspace(parse_typical_element("(a,a)"), -np.eye(3)),
        trials=2, dt=1e-3, T=5.0, tol=1e-6, seed=3,
    )
    assert rep2.passed
    # minimally tagged subspace with a non-odd f that fixes the origin
    m = 0.5 * np.array([[0.0, 0.0], [1.0, 1.0]])
    sys_min = CoupledSystem(preset_f("lorenz"), dynamics.LORENZ_H_MINUS, m)
    rep3 = invariance_test(
        sys_min, TwistedSubspace(parse_typical_element("(0,a)"), -np.eye(3)),
        trials=2, dt=1e-3, T=5.0, tol=1e-6, seed=3,
    )
    assert rep3.passed


def test_invariance_all_invariant_subspaces_of_example():
    # forward direction of the dynamical-invariance statement, quantified
    # over the whole invariant set of the example network (f odd)
    from polydiag import graph, invariance

    from polydiag.partitions import typical_element

    a = graph.adjacency_matrix(graph.from_adjacency([[0, 0], [1, 1]]))
    sys = vdp_system()
    for p, _cls in invariance.invariant_polydiagonals(a).subspaces:
        rep = invariance_test(
            sys, TwistedSubspace(p, -np.eye(2)), trials=1, dt=1e-3, T=5.0, tol=1e-6, seed=4
        )
        assert rep.passed, typical_element(p)


def test_invariance_negative_control_short():
    rep = invariance_test(
        vdp_system(), TwistedSubspace(parse_typical_element("(a,a)"), -np.eye(2)),
        trials=2, dt=1e-3, T=10.0, tol=1e-6, seed=3,
    )
    assert not rep.passed
    assert rep.max_distance > 1e-2


# max_distance and blowups of invariance_test for every subspace and system
# of the dynamics-vdp and dynamics-lorenz suites, three trials of T = 1 as
# the suites draw them; the values were computed before TwistedSubspace took
# (P, N) alone.
SUITE_SUBSPACES = {
    "vdp-anti": (checks.vdp_example_system, "(a,-a)", -np.eye(2), ["0.0"] * 3, [0, 0, 0]),
    "vdp-sync": (checks.vdp_example_system, "(a,a)", -np.eye(2),
                 ["0.3598946965149821", "0.12631953484904326", "0.17783371475418644"], [1, 0, 0]),
    "lorenz-H-minus": (lambda: checks.lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0), "(a,-a)",
                       np.diag([-1.0, -1.0, 1.0]), ["0.0"] * 3, [0, 0, 0]),
    "lorenz-H-plus": (lambda: checks.lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0), "(a,-a)",
                      np.diag([-1.0, -1.0, 1.0]), ["0.0"] * 3, [0, 0, 0]),
}


@pytest.mark.parametrize("case", SUITE_SUBSPACES)
def test_suite_invariance_reports_pinned(case):
    make, te, n, distances, blowups = SUITE_SUBSPACES[case]
    sys, s = make(), TwistedSubspace(parse_typical_element(te), n)
    reps = [invariance_test(sys, s, trials=3, dt=1e-3, T=1.0, tol=1e-6, seed=seed) for seed in range(3)]
    assert [repr(r.max_distance) for r in reps] == distances
    assert [r.blowups for r in reps] == blowups


@pytest.mark.parametrize("te, k", [("(a)", 4), ("(a,a,-a,-a)", 1)], ids=["one-cell-k4", "four-cells-k1"])
def test_invariance_test_refuses_a_subspace_of_other_sizes(monkeypatch, te, k):
    # the van der Pol pair has n = 2 cells of k = 2 coordinates; the check
    # comes before any start is drawn or integrated
    def unreachable(*args, **kwargs):
        raise AssertionError("drew or integrated a start")

    monkeypatch.setattr(dynamics, "sample_in_subspace", unreachable)
    monkeypatch.setattr(dynamics, "integrate", unreachable)
    s = TwistedSubspace(parse_typical_element(te), -np.eye(k))
    with pytest.raises(ValueError, match="do not fit"):
        invariance_test(vdp_system(), s, trials=1, T=1.0)


def test_integrate_accepts_flat_or_per_cell_x0_only():
    # the Lorenz pair: n = 2 cells of k = 3 coordinates
    sys = checks.lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0)
    flat = [1.0, 2.0, 20.0, -1.0, -2.0, 20.0]
    ends = [integrate(sys, x0, 1e-3, 0.01).state(-1) for x0 in (flat, np.reshape(flat, (2, 3)))]
    assert ends[0] == ends[1]
    for shape in ((3, 2), (6, 1), (1, 6), (1, 2, 3), (5,), (7,)):
        with pytest.raises(ValueError, match="x0 must have shape"):
            integrate(sys, np.ones(shape), 1e-3, 0.01)


def test_equivariance_lorenz():
    n_sym = np.diag([-1.0, -1.0, 1.0])
    sys_w = checks.lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0)
    for ell in (1, 2):
        rep = equivariance_check(sys_w, n_sym, ell)
        assert rep.passed
    sys_v = checks.lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0)
    rep = equivariance_check(sys_v, n_sym, 1)
    assert not rep.hypotheses_met
    assert "-H" in rep.reason


def test_equivariance_trivial():
    sys = CoupledSystem(preset_f("zero", k=2), np.zeros((2, 2)), np.zeros((2, 2)))
    rep = equivariance_check(sys, -np.eye(2), 1)
    assert rep.passed and rep.max_residual == 0.0


def test_singular_oscillator_freely_tagged_invariant_set():
    # f odd with 0 outside its domain: motion started in the freely tagged
    # A-invariant set D_P for (a,-a) stays there and u never crosses 0
    sys = CoupledSystem(preset_f("singular_osc"), dynamics.VDP_H, 0.5 * np.array([[0.0, 0.0], [1.0, 1.0]]))
    s = TwistedSubspace(parse_typical_element("(a,-a)"), -np.eye(2))
    x0 = np.array([[1.2, 0.3], [-1.2, -0.3]])
    traj = integrate(sys, x0, 1e-3, 20.0)
    assert max(subspace_distances(traj.states, s)) < 1e-9
    u = _cell_states(traj, sys)[:, :, 0]
    assert np.min(np.abs(u)) > 1e-3


def test_integrator_fourth_order():
    sys = vdp_system()
    x0 = np.array([0.3, -0.1, 0.4, 0.2])
    ends = []
    for dt in (4e-3, 2e-3, 1e-3):
        ends.append(np.array(integrate(sys, x0, dt, 1.0).state(-1)))
    e1 = np.linalg.norm(ends[0] - ends[1])
    e2 = np.linalg.norm(ends[1] - ends[2])
    assert 10.0 < e1 / e2 < 24.0  # ~16 for a 4th order method


def test_antisynchrony_convergence_direction():
    tail = antisynchrony_convergence(vdp_system(), (1, 2), +1, dt=2e-3, T=120.0, seed=2, tail=0.1)
    assert tail < 1e-2


@pytest.mark.xfail(strict=True, reason="the vanderpol preset is the time-reversed oscillator; its states decay to 0")
def test_vdp_attractor_cases_keep_their_amplitude():
    """The two van der Pol cases of dynamics-attractors, from the start the
    suite draws: a van der Pol cell settles on its limit cycle, so the
    whole state keeps an amplitude of at least 0.1 over the last fifth of
    the run (T = 40 here, 400 in the suite)."""
    for use_laplacian in (False, True):
        x0 = np.random.default_rng(2).uniform(-1, 1, size=(2, 2))
        sys = checks.vdp_example_system(use_laplacian)
        traj = integrate(sys, x0, 1e-3, 40.0)
        assert np.max(np.abs(_cell_states(traj, sys)[int(len(traj.times) * 0.8):])) >= 0.1, use_laplacian


# ---------------------------------------------------------------------------
# the plain-float integrator against an independent reference


DEMO_DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "data")
LORENZ_X0 = [1.0, 2.0, 20.0, -3.0, 1.5, 25.0]


def _rk4_reference(cell, m, h, x0, dt, steps):
    """Every state of a fixed-step RK4 run of xdot_i = cell(x_i) + H sum_j m[i][j] x_j,
    flat (coordinate a of cell i at i*k + a), with each coupling sum taken over
    (j, b) in order and skipping zero weights."""
    n, k = len(m), len(h)

    def field(x):
        out = []
        for i in range(n):
            for a, fa in enumerate(cell(*x[i * k : (i + 1) * k])):
                terms = [(m[i][j] * h[a][b], j * k + b) for j in range(n) for b in range(k)]
                terms = [(w, q) for w, q in terms if w != 0.0]
                c = 0.0
                for w, q in terms:
                    c += w * x[q]
                out.append(fa + c if terms else fa)
        return out

    states = [list(x0)]
    for _ in range(steps):
        x = states[-1]
        k1 = field(x)
        k2 = field([a + 0.5 * dt * b for a, b in zip(x, k1)])
        k3 = field([a + 0.5 * dt * b for a, b in zip(x, k2)])
        k4 = field([a + dt * b for a, b in zip(x, k3)])
        states.append([a + dt / 6.0 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)])
    return states


def _vdp_cell(u, v):
    return v, -2.0 * (1.0 - u * u) * v - u


def _lorenz_cell(u, v, w):
    return 10.0 * (v - u), u * (28.0 - w) - v, u * v - 8.0 / 3.0 * w


def _z7_system():
    from polydiag import graph

    g = graph.load_digraph(os.path.join(DEMO_DATA, "z7_cayley_unequal.json"))
    lap = np.array([[float(v) for v in row] for row in graph.laplacian_matrix(g)])
    return CoupledSystem(preset_f("vanderpol", eps=2), np.eye(2), -0.25 * lap)


@pytest.mark.parametrize(
    "make, cell, x0",
    [
        (vdp_system, _vdp_cell, [0.3, -0.1, 0.4, 0.2]),
        (lambda: checks.lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0), _lorenz_cell, LORENZ_X0),
        (lambda: checks.lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0), _lorenz_cell, LORENZ_X0),
        (_z7_system, _vdp_cell, [0.1 * (i % 5) - 0.2 for i in range(14)]),
    ],
    ids=["vdp-pair", "lorenz-h-minus", "lorenz-h-plus", "z7-cayley-identity"],
)
def test_integrate_matches_float_reference_bit_for_bit(make, cell, x0):
    sys = make()
    dt, steps = 0.005, 400
    ref = _rk4_reference(cell, np.asarray(sys.M, dtype=float).tolist(), np.asarray(sys.H, dtype=float).tolist(), x0,
                         dt, steps)
    traj = integrate(sys, np.array(x0), dt, steps * dt)
    assert traj.states.tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--preset", "vanderpol", "--digraph", "vdp_pair.json", "--scale", "1/2", "--dt", "0.01", "--T", "5",
          "--seed", "3"], "dc95a19a9e359d1af331b6132431df533e067927fdfd38161bd852c8eeab9737"),
        (["--preset", "lorenz", "--digraph", "lorenz_pair.json", "--matrix", "laplacian", "--scale", "2",
          "--coupling", "lorenz_v", "--dt", "0.005", "--T", "2", "--seed", "4"],
         "cf634fb0d9998a8cb14719c34441a70499e0a79fbec13886da35087157530b24"),
    ],
    ids=["vdp", "lorenz"],
)
def test_simulate_csv_bytes_pinned(tmp_path, argv, digest):
    from polydiag.cli import main

    out = tmp_path / "traj.csv"
    argv = [os.path.join(DEMO_DATA, a) if a.endswith(".json") else a for a in argv]
    assert main(["simulate", *argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


PRESETS = [
    ("vanderpol", {"eps": 2}),
    ("vanderpol", {"eps": 0.3}),
    ("lorenz", {}),
    ("lorenz", {"rho": 99.96}),
    ("singular_osc", {}),
    ("zero", {"k": 2}),
    ("cubic_odd", {"k": 3}),
]


def _on_arrays(f, x):
    """f applied to a whole (..., k) array at once, by Preset.func on the k
    coordinate arrays."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for a, value in enumerate(f.func(*np.moveaxis(x, -1, 0))):
        out[..., a] = value
    return out


@pytest.mark.parametrize("name, params", PRESETS, ids=["%s%s" % (n, p) for n, p in PRESETS])
def test_preset_on_arrays_equals_per_cell_floats(name, params):
    # numpy's elementwise arithmetic gives the bits of float arithmetic, so
    # equivariance_check's row-by-row sampling of f equals the whole-array
    # evaluation
    f = preset_f(name, **params)
    x = np.random.default_rng(5).uniform(-3, 3, size=(200, f.k))
    if name == "singular_osc":  # keep u away from 0, outside its domain
        x[:, 0] = np.copysign(np.abs(x[:, 0]) + 0.1, x[:, 0])
    per_cell = _on_rows(f, x)
    assert _on_arrays(f, x).tobytes() == per_cell.tobytes()
    assert _on_arrays(f, x[7]).tobytes() == per_cell[7].tobytes()
    if name == "zero":
        assert not np.signbit(per_cell).any()


def _blowup_time(sys, x0, dt):
    with pytest.raises(BlowupError) as info:
        integrate(sys, np.array(x0), dt, 1.0)
    return info.value.time


def test_float_faults_are_blowups_at_that_step():
    sing = CoupledSystem(preset_f("singular_osc"), dynamics.VDP_H, 0.5 * np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert _blowup_time(sing, [0.0, 0.5, 0.0, 0.5], 1e-2) == 0.01  # 1/u at u = 0
    cubic = CoupledSystem(preset_f("cubic_odd"), np.zeros((1, 1)), np.zeros((1, 1)))
    assert _blowup_time(cubic, [1e60], 1e-2) == 0.01
    assert _blowup_time(cubic, [-3e3], 1e-2) == 0.01


def test_integrate_rejects_horizons_without_a_step_or_beyond_memory():
    with pytest.raises(ValueError, match="no RK4 step"):
        integrate(vdp_system(), np.zeros(4), 0.5, 0.2)
    with pytest.raises(ValueError, match="memory"):
        integrate(vdp_system(), np.zeros(4), 1e-15, 50.0)


# ---------------------------------------------------------------------------
# the generated RK4 loop against a textbook RK4 over CoupledSystem.rhs


def _rk4_over_rhs(sys, x0, dt, steps):
    """Every state of a textbook RK4 run that calls sys.rhs four times per
    step, and the time of the step that faulted or left the norm bound
    (None when no step did)."""
    x = [float(v) for v in x0]
    states, h = [x], dt
    hh, h6 = 0.5 * h, h / 6.0
    for s in range(1, steps + 1):
        try:
            k1 = sys.rhs(x)
            k2 = sys.rhs([a + hh * b for a, b in zip(x, k1)])
            k3 = sys.rhs([a + hh * b for a, b in zip(x, k2)])
            k4 = sys.rhs([a + h * b for a, b in zip(x, k3)])
        except (OverflowError, ZeroDivisionError):
            return states, s * h
        x = [a + h6 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        if not math.hypot(*x) <= dynamics.BLOWUP_NORM:
            return states, s * h
        states.append(x)
    return states, None


def _assert_integrate_matches_rhs_oracle(sys, x0, dt, steps):
    """integrate's states equal the oracle's byte for byte, or both blow up
    at the same step."""
    states, blowup = _rk4_over_rhs(sys, x0, dt, steps)
    if blowup is None:
        traj = integrate(sys, np.array(x0), dt, steps * dt)
        assert traj.states.tobytes() == np.array(states).tobytes()
    else:
        with pytest.raises(BlowupError) as info:
            integrate(sys, np.array(x0), dt, steps * dt)
        assert info.value.time == blowup


def _three_cell_system(f):
    """Three cells with signed weights and a full k x k coupling, so most
    coordinates have a coupling sum of several terms."""
    m = np.array([[0.5, -1.25, 0.0], [0.75, 0.0, 0.3], [0.0, -0.6, 0.1]])
    h = np.array([[0.5 * (a == b) + 0.125 * (b - a) for b in range(f.k)] for a in range(f.k)])
    return CoupledSystem(f, h, m)


def _start(f, n, seed):
    x = np.random.default_rng(seed).uniform(-1, 1, size=(n, f.k))
    if f.name == "singular_osc":
        x[:, 0] = np.copysign(np.abs(x[:, 0]) + 0.5, x[:, 0])
    return x.ravel().tolist()


ORACLE_PRESETS = PRESETS + [("vanderpol", {"eps": -0.5})]


@pytest.mark.parametrize("name, params", ORACLE_PRESETS, ids=["%s%s" % (n, p) for n, p in ORACLE_PRESETS])
def test_integrate_matches_rk4_over_rhs_bit_for_bit(name, params):
    f = preset_f(name, **params)
    _assert_integrate_matches_rhs_oracle(_three_cell_system(f), _start(f, 3, 6), 0.01, 150)


# -0.0 and 0.0 (skipped as weights), subnormals, the smallest normal and huge values
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]
FINITE = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(eps=FINITE, weights=st.lists(FINITE, min_size=4, max_size=4))
def test_integrate_matches_rk4_over_rhs_for_any_finite_numbers(eps, weights):
    sys = CoupledSystem(preset_f("vanderpol", eps=eps), dynamics.VDP_H, np.reshape(weights, (2, 2)))
    _assert_integrate_matches_rhs_oracle(sys, [0.3, -0.1, 0.4, 0.2], 0.01, 40)


@pytest.mark.parametrize("name, params", [("vanderpol", {}), ("lorenz", {}), ("cubic_odd", {"k": 3})])
def test_integrate_matches_rk4_over_rhs_with_split_coupling_sums(monkeypatch, name, params):
    # two terms per line: a coupling sum of four or six terms spans two or
    # three lines of the generated source
    monkeypatch.setattr(dynamics, "_TERMS_PER_LINE", 2)
    f = preset_f(name, **params)
    sys = _three_cell_system(f)
    assert max(len(terms) for _, terms in sys._coupling) > dynamics._TERMS_PER_LINE
    _assert_integrate_matches_rhs_oracle(sys, _start(f, 3, 7), 0.01, 150)


RK4_NAMES = {"h", "hh", "h6", "s", "i", "steps", "out", "range", "hypot", "BLOWUP_NORM", "BlowupError",
             "OverflowError", "ZeroDivisionError"}


@pytest.mark.parametrize("terms_per_line", [dynamics._TERMS_PER_LINE, 2])
@pytest.mark.parametrize(
    "make",
    [lambda name=name, params=params: _three_cell_system(preset_f(name, **params)) for name, params in ORACLE_PRESETS]
    + [lambda: CoupledSystem(preset_f("vanderpol", eps=5e-324), dynamics.VDP_H,
                             np.array([[-0.0, 1e300], [-5e-324, 2.2250738585072014e-308]]))],
    ids=["%s%s" % (n, p) for n, p in ORACLE_PRESETS] + ["special-floats"],
)
def test_generated_source_holds_only_known_names_and_numbers(monkeypatch, make, terms_per_line):
    monkeypatch.setattr(dynamics, "_TERMS_PER_LINE", terms_per_line)
    sys = make()
    nk = sys.n * sys.k
    stores = {"out[i]"} | {"out[i + %d]" % p for p in range(1, nk)}
    tree = ast.parse(dynamics._rk4_source(sys))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            coordinate = re.fullmatch(r"[xyabcd](\d+)", node.id)
            assert node.id in RK4_NAMES or (coordinate and int(coordinate.group(1)) < nk), node.id
        elif isinstance(node, ast.Constant):
            assert type(node.value) in (int, float), node.value
        elif isinstance(node, ast.Call):
            assert node.func.id in ("range", "hypot", "BlowupError")
        assert not isinstance(node, (ast.Attribute, ast.Subscript)) or ast.unparse(node) in stores


@pytest.mark.parametrize(
    "name, params",
    [("vanderpol", {"eps": math.inf}), ("vanderpol", {"eps": math.nan}), ("lorenz", {"sigma": -math.inf}),
     ("lorenz", {"rho": math.nan}), ("lorenz", {"beta": math.inf})],
)
def test_preset_refuses_non_finite_parameters(name, params):
    with pytest.raises(ValueError, match="finite"):
        preset_f(name, **params)


def _kron_terms(M, H):
    """The dense route: the nonzero entries of each row of kron(M, H) in
    column order, or None where the kron holds inf or NaN."""
    with np.errstate(all="ignore"):
        kron = np.kron(M, H)
    if not np.isfinite(kron).all():
        return None
    rows = (tuple((q, w) for q, w in enumerate(row) if w != 0.0) for row in kron.tolist())
    return tuple((p, terms) for p, terms in enumerate(rows) if terms)


@pytest.mark.parametrize(
    "h, m",
    [(dynamics.VDP_H, [[0.0, math.inf], [1.0, 1.0]]),
     (dynamics.VDP_H, [[0.0, 0.0], [math.nan, 1.0]]),
     ([[0.0, 0.0], [math.nan, 0.0]], [[0.0, 0.0], [1.0, 1.0]]),
     ([[0.0, 0.0], [-math.inf, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
     ([[0.0, 0.0], [0.0, 0.0]], [[math.inf, 0.0], [1.0, 1.0]]),  # inf * 0 is NaN in the kron
     ([[0.0, 0.0], [0.0, 0.0]], [[0.0, math.nan], [0.0, 0.0]]),
     ([[0.0, 0.0], [1e300, 0.0]], [[0.0, 0.0], [1e10, 1.0]]),  # the product overflows
     ([[1e-300, 0.0], [0.0, 1e200]], [[-1e200, 1e-300], [0.0, 1.0]])],  # 1e-600 underflows, -1e400 overflows
    ids=["M-inf", "M-nan", "H-nan", "H-inf-M-zero", "M-inf-H-zero", "M-nan-H-zero", "kron-overflow",
         "underflow-and-overflow"],
)
def test_system_refuses_non_finite_coupling(h, m):
    assert _kron_terms(np.array(m), np.array(h)) is None
    with pytest.raises(ValueError, match="finite"):
        CoupledSystem(preset_f("vanderpol"), np.array(h), np.array(m))


def _assert_coupling_is_the_dense_krons(m, h):
    """M and H as arrays and as nested lists give the terms of the dense
    kron."""
    m, h = np.array(m, dtype=float), np.array(h, dtype=float)
    expected = _kron_terms(m, h)
    for spelling in ((h, m), (h.tolist(), m.tolist())):
        if expected is None:
            with pytest.raises(ValueError, match="finite"):
                CoupledSystem(preset_f("zero", k=len(h)), *spelling)
            continue
        got = CoupledSystem(preset_f("zero", k=len(h)), *spelling)._coupling
        assert [(p, [(q, w.hex()) for q, w in terms]) for p, terms in got] == [
            (p, [(q, w.hex()) for q, w in terms]) for p, terms in expected
        ]


@pytest.mark.parametrize(
    "m, h",
    [([[1e-200, 2.0], [0.0, 3.0]], [[1e-200]]),  # M[0, 0] * H underflows to 0.0
     ([[-5e-324, 1.0], [5e-324, 0.0]], [[0.5, -0.5], [0.0, 1.0]]),  # products round to 0.0 and -0.0
     ([[-0.0, 1.0], [2.0, -0.0]], [[-0.0, 1.0], [-1.0, 0.0]])],
    ids=["underflow", "subnormal-to-signed-zero", "negative-zero"],
)
def test_coupling_terms_drop_the_zeros_of_the_dense_kron(m, h):
    _assert_coupling_is_the_dense_krons(m, h)


COUPLING_FLOATS = SPECIAL_FLOATS + [1e-200, -1e-170, 1e200, -1e160, 0.5, -3.0]


@pytest.mark.parametrize("seed", range(60))
def test_coupling_terms_are_the_dense_krons_bit_for_bit(seed):
    """Seeded M and H with zeros of both signs, subnormals and huge values;
    odd seeds also draw inf and NaN."""
    rng = random.Random(seed)
    specials = COUPLING_FLOATS + ([math.inf, -math.inf, math.nan] if seed % 2 else [])

    def entry():
        r = rng.random()
        if r < 0.4:
            return rng.choice([0.0, -0.0])
        if r < 0.55:
            return rng.choice(specials)
        return rng.gauss(0, 1) * 10.0 ** rng.randint(-3, 3)

    n, k = rng.randint(1, 5), rng.randint(1, 3)
    _assert_coupling_is_the_dense_krons([[entry() for _ in range(n)] for _ in range(n)],
                                        [[entry() for _ in range(k)] for _ in range(k)])


def test_coupling_terms_of_a_dense_row_need_no_dense_kron(monkeypatch):
    """1,500 cells, one of them coupled to all: kron(M, H) would hold 2.25
    million floats (18 MB), above the 8 MB bound.  The terms come from M's
    1,500 nonzero entries.  Compiling the generated RK4 loop is left out of
    the measurement: its source text grows with n*k, not with the kron."""
    n = 1500
    m = np.zeros((n, n))
    m[0] = 1.0
    monkeypatch.setattr(dynamics, "_compile_rk4", lambda sys: None)
    tracemalloc.start()
    try:
        sys = CoupledSystem(preset_f("zero"), np.eye(1), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys._coupling == ((0, tuple((q, 1.0) for q in range(n))),)
    assert peak < 8e6, peak


def test_system_refuses_no_cells_or_no_coordinates():
    with pytest.raises(ValueError, match="n >= 1"):
        CoupledSystem(preset_f("zero", k=2), np.zeros((2, 2)), np.zeros((0, 0)))
    with pytest.raises(ValueError, match="k >= 1"):
        CoupledSystem(preset_f("zero", k=0), np.zeros((0, 0)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="k >= 1"):
        dynamics.Preset("none", (), ())


@pytest.mark.parametrize(
    "args, exprs",
    [(("u",), ("__import__('os')",)), (("u",), ("u.real",)), (("u",), ("w",)), (("u",), ("'1'",)),
     (("u",), ("True",)), (("u",), ("[u][0]",)), (("u", "v"), ("v",)), (("u v",), ("0.0",))],
)
def test_preset_text_must_be_arithmetic_in_its_coordinates(args, exprs):
    with pytest.raises(ValueError):
        dynamics.Preset("bad", args, exprs)


@pytest.mark.parametrize(
    "expr",
    ["u ^ u", "u @ u", "u << 1", "u >> 1", "u | u", "u & u", "u % 2.0", "u // 1.0", "~u", "not u",
     "u ** 0.5", "u ** 2.0", "u ** -1", "u ** u", "2 ** u", "u ** (1 + 1)"],
)
def test_preset_grammar_is_rational_arithmetic(expr):
    with pytest.raises(ValueError, match="not arithmetic"):
        dynamics.Preset("bad", ("u",), (expr,))


def test_preset_grammar_allows_signs_quotients_and_int_powers():
    f = dynamics.Preset("ok", ("u", "v"), ("+u - -v / 2 * u ** 3", "u ** 0 + v ** (2)"))
    assert f.func(2.0, 4.0) == [18.0, 17.0]


def test_system_takes_n_and_k_from_m_and_f():
    sys = checks.lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0)
    assert (sys.n, sys.k) == (2, 3)
    assert len(sys.rhs([0.5] * 6)) == 6
    for m in (np.zeros((2, 3)), np.zeros(2), np.zeros(()), [[0.0, 0.0], [0.0]]):
        with pytest.raises(ValueError, match="square"):
            CoupledSystem(preset_f("lorenz"), dynamics.LORENZ_H_PLUS, m)
    for m in (np.zeros((2, 2, 1)), np.ones((2, 2, 1)), [["0", "0"], ["0", "0"]]):  # entries that are no numbers
        with pytest.raises(TypeError):
            CoupledSystem(preset_f("lorenz"), dynamics.LORENZ_H_PLUS, m)
    with pytest.raises(ValueError, match="k=3"):
        CoupledSystem(preset_f("lorenz"), dynamics.VDP_H, np.zeros((2, 2)))


def test_cell_indices_are_checked(monkeypatch):
    # a cell is an int in 1..n, not a float or a bool, and is checked before
    # any point is drawn or integrated
    sys = vdp_system()

    def unreachable(*args, **kwargs):
        raise AssertionError("drew or integrated")

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "PCG64", unreachable)
        patch.setattr(dynamics, "integrate", unreachable)
        for ell in (0, -1, 3, 1.0, 1.5, True):
            with pytest.raises(ValueError, match="1..2"):
                equivariance_check(sys, -np.eye(2), ell)
        for pair in ((0, 2), (1, 3), (-1, 1), (1.0, 2), (1, 1.5), (True, 2)):
            with pytest.raises(ValueError, match="1..2"):
                antisynchrony_convergence(sys, pair, +1, dt=1e-2, T=0.1)
    assert equivariance_check(sys, np.eye(2), 2).passed
    assert equivariance_check(sys, np.eye(2), np.int64(2)).passed


N_LORENZ = np.diag([-1.0, -1.0, 1.0])
N_ROTATION = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
N_REFLECTION = np.array([[0.6, 0.8], [0.8, -0.6]])  # N^2 = I up to float rounding
EQUIVARIANCE_SYSTEMS = {
    "vdp-minus-I": (vdp_system, -np.eye(2), 1),
    "vdp-I-cell2": (vdp_system, np.eye(2), 2),
    "vdp-flip-v": (vdp_system, np.diag([1.0, -1.0]), 2),
    "lorenz-H+-cell1": (lambda: checks.lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0), N_LORENZ, 1),
    "lorenz-H+-cell2": (lambda: checks.lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0), N_LORENZ, 2),
    "lorenz-H+-minus-I": (lambda: checks.lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0), -np.eye(3), 1),
    "lorenz-H--cell1": (lambda: checks.lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0), N_LORENZ, 1),
    # a linear f = 5N commuting with an involution N that is not exact in floats
    "reflection": (lambda: CoupledSystem(dynamics.Preset("refl", ("u", "v"), ("3 * u + 4 * v", "4 * u - 3 * v")),
                                         np.zeros((2, 2)), np.array([[0.0, 0.5], [0.5, 0.0]])), N_REFLECTION, 1),
}
HN_FAILS = "HN = NH = H fails (found HN = NH = -H instead)"
# (reason, repr(max_residual), repr(tol)) at seeds 0, 1, 2, as the array
# route of equivariance_check gave them, except the tol of vdp-I-cell2 at
# seed 1 (see below)
EQUIVARIANCE_PINS = {
    "vdp-minus-I": [(HN_FAILS, "inf", "0.0")] * 3,
    # tol is 1e-10 * (1 + ||F(x)||) with ||F(x)||^2 summed left to right
    # without fused multiply-adds (test_equivariance_tol_is_the_plain_norm).
    # The array route's 1.122099786246675e-09 came from np.linalg.norm,
    # which calls BLAS ddot; where that kernel fuses each multiply-add, the
    # last bit of the sum differs here, so that literal held only on such
    # a BLAS.
    "vdp-I-cell2": [(None, "0.0", "1.1261608584204218e-09"), (None, "0.0", "1.1220997862466752e-09"),
                    (None, "0.0", "1.4468745708893822e-09")],
    "vdp-flip-v": [("f is not N-equivariant (residual %s)" % r, "inf", "0.0") for r in ("3.98", "3.95", "3.95")],
    "lorenz-H+-cell1": [(None, "0.0", "8.04564831860361e-09"), (None, "0.0", "7.76462063259546e-09"),
                        (None, "0.0", "8.126281045579468e-09")],
    "lorenz-H+-cell2": [(None, "0.0", "8.04564831860361e-09"), (None, "0.0", "7.76462063259546e-09"),
                        (None, "0.0", "8.126281045579468e-09")],
    "lorenz-H+-minus-I": [("f is not N-equivariant (residual %s)" % r, "inf", "0.0") for r in ("7.3", "6.38", "7.64")],
    "lorenz-H--cell1": [(HN_FAILS, "inf", "0.0")] * 3,
    "reflection": [(None, "1.7763568394002505e-15", "1.7465608201225298e-09"),
                   (None, "3.552713678800501e-15", "1.7475346439806864e-09"),
                   (None, "2.6645352591003757e-15", "1.8291269393359194e-09")],
}


@pytest.mark.parametrize("name", EQUIVARIANCE_PINS)
def test_equivariance_report_fields_pinned(name):
    make, N, ell = EQUIVARIANCE_SYSTEMS[name]
    sys = make()
    for seed, want in enumerate(EQUIVARIANCE_PINS[name]):
        rep = equivariance_check(sys, N, ell, seed=seed)
        assert (rep.reason, repr(rep.max_residual), repr(rep.tol)) == want
        assert rep.hypotheses_met == (rep.reason is None)


def test_equivariance_tol_is_the_plain_norm():
    """tol is the largest 1e-10 * (1 + ||F(x)||) over the 50 points that
    numpy's generator draws after the 50 of the f check, with ||F(x)||^2
    summed left to right from 0.0: all 12 passing pinned cases."""
    cases = 0
    for name, pins in EQUIVARIANCE_PINS.items():
        make, N, ell = EQUIVARIANCE_SYSTEMS[name]
        sys = make()
        for seed, (reason, _, _) in enumerate(pins):
            if reason is not None:
                continue
            rng = np.random.default_rng(seed)
            rng.uniform(-2, 2, size=(50, sys.k))
            tol = 0.0
            for _ in range(50):
                squares = 0.0
                for v in sys.rhs(rng.uniform(-2, 2, size=(sys.n, sys.k)).ravel().tolist()):
                    squares += v * v
                tol = max(tol, 1e-10 * (1.0 + math.sqrt(squares)))
            assert equivariance_check(sys, N, ell, seed=seed).tol == tol, (name, seed)
            cases += 1
    assert cases == 12


@pytest.mark.parametrize(
    "N",
    [-np.eye(1), -np.eye(3), [[1.0, 0.0, 0.0]], np.diag([2.0, 1.0]), N_ROTATION],
    ids=["1x1", "3x3", "1x3", "diag-2-1", "rotation"],
)
def test_equivariance_check_refuses_n_that_is_not_a_k_by_k_involution(monkeypatch, N):
    # the van der Pol pair has k = 2; the check comes before any point is drawn
    def unreachable(*args, **kwargs):
        raise AssertionError("drew a point")

    monkeypatch.setattr(dynamics, "PCG64", unreachable)
    with pytest.raises(ValueError, match="N must be a k x k matrix|N is"):
        equivariance_check(vdp_system(), N, 1)


def test_invariance_test_refuses_no_trials(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("drew or integrated a start")

    monkeypatch.setattr(dynamics, "sample_in_subspace", unreachable)
    monkeypatch.setattr(dynamics, "integrate", unreachable)
    s = TwistedSubspace(parse_typical_element("(a,-a)"), -np.eye(2))
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            invariance_test(vdp_system(), s, trials=trials, T=1.0)


@pytest.mark.parametrize("tail", [1.5, 2.0, 0.0, -0.5, math.nan])
def test_antisynchrony_convergence_refuses_a_tail_outside_0_1(monkeypatch, tail):
    def unreachable(*args, **kwargs):
        raise AssertionError("drew or integrated a start")

    monkeypatch.setattr(dynamics, "PCG64", unreachable)
    monkeypatch.setattr(dynamics, "integrate", unreachable)
    with pytest.raises(ValueError, match=r"tail must be in \(0, 1\]"):
        antisynchrony_convergence(vdp_system(), (1, 2), +1, dt=1e-2, T=1.0, tail=tail)


def test_antisynchrony_convergence_reads_the_trailing_states():
    """From numpy's draw at the same seed: tail 1.0 reads all 101 states,
    0.5 the last 51, and a tail too short for one state the last one."""
    sys = vdp_system()
    states = _cell_states(integrate(sys, np.random.default_rng(4).uniform(-1, 1, size=(2, 2)), 1e-2, 1.0), sys)
    u = np.abs(states[:, 0, 0] + states[:, 1, 0])
    for tail, want in ((1.0, u.max()), (0.5, u[50:].max()), (1e-20, u[-1])):
        assert antisynchrony_convergence(sys, (1, 2), +1, dt=1e-2, T=1.0, seed=4, tail=tail) == want, tail
    assert u.max() > u[50:].max() > u[-1]


@pytest.mark.parametrize("seed", [0, 2, 7])
def test_attractor_suite_starts_are_numpys_draws(monkeypatch, seed):
    # every start the suite integrates, against numpy's generator and the
    # array formula of the Lorenz start
    starts = []

    def record(sys, x0, dt, T):
        starts.append(np.array(x0, dtype=float).ravel())
        raise BlowupError(0.0)

    monkeypatch.setattr(dynamics, "integrate", record)
    assert len(checks.suite_dynamics_attractors(seed=seed).failures) == 3
    vdp = np.random.default_rng(seed).uniform(-1, 1, size=(2, 2)).ravel()
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1, 1, size=3) + np.array([1.0, 1.0, 25.0])
    lorenz = np.stack([base, N_LORENZ @ base + rng.uniform(-0.05, 0.05, size=3)]).ravel()
    assert [x.tobytes() for x in starts] == [vdp.tobytes(), vdp.tobytes(), lorenz.tobytes()]


def _numpy_distances(states, s):
    """The distances by the array formula: the residuals of each state
    stacked by np.concatenate and measured by np.linalg.norm."""
    states = np.asarray(states, dtype=float)
    p, n_t = s.partition, np.array(s.N).T
    rep = {ci: states[:, cls[0] - 1, :] for ci, cls in enumerate(p.classes)}
    res = [np.zeros((len(states), 0))]
    for ci, cls in enumerate(p.classes):
        res += [states[:, cell - 1, :] - rep[ci] for cell in cls[1:]]
    res += [rep[i] - rep[j] @ n_t for i, j in p.pairs]
    if p.fixed is not None:
        res.append(0.5 * (rep[p.fixed] - rep[p.fixed] @ n_t))
    norms = np.linalg.norm(states.reshape(len(states), -1), axis=1)
    return np.linalg.norm(np.concatenate(res, axis=1), axis=1) / (norms + 1.0)


SWAP = [[0.0, 1.0], [1.0, 0.0]]
# n*k < 8, and N with entries 0 and +-1, whose products are exact
EXACT_DISTANCE_CASES = [("(a,-a,b,-b,0,a,c)", -np.eye(1)), ("(a,a,-a)", SWAP), ("(a,-a,0)", np.diag([1.0, -1.0])),
                        ("(a,b)", -np.eye(3)), ("(a,0)", N_LORENZ), ("(a,-a)", N_LORENZ), ("(0,0,a)", -np.eye(2)),
                        ("(a,a,b)", SWAP), ("(a)", -np.eye(4))]


def _batches(s, seed):
    """Random states, and states near s, as (m, n, k) arrays."""
    rng = np.random.default_rng(seed)
    n, k = s.partition.n, s.k
    near = [np.array(sample_in_subspace(s, rng, scale=3.0)) + 1e-6 * rng.standard_normal((n, k)) for _ in range(100)]
    return rng.uniform(-5, 5, size=(100, n, k)), np.array(near)


@pytest.mark.parametrize("te, N", EXACT_DISTANCE_CASES, ids=[te for te, _ in EXACT_DISTANCE_CASES])
def test_distances_are_the_array_formula_bit_for_bit(te, N):
    s = TwistedSubspace(parse_typical_element(te), N)
    for batch in _batches(s, 8):
        want = _numpy_distances(batch, s)
        for states in (batch.ravel(), batch.ravel().tolist(), array("d", batch.ravel())):
            assert np.array(subspace_distances(states, s)).tobytes() == want.tobytes()


@pytest.mark.parametrize("te, N", [("(a,-a,b,c,-c,0,d,b,a)", -np.eye(1)), ("(a,-a,0,b)", -np.eye(2)),
                                   ("(a,-a,0)", N_REFLECTION), ("(a,b,-b)", N_ROTATION @ N_REFLECTION @ N_ROTATION.T)],
                         ids=["n9", "n4-k2", "reflection", "rotated-reflection"])
def test_distances_are_the_array_formula_to_rounding(te, N):
    # 8 or more squares (numpy sums them pairwise), or a non-exact N, whose
    # products round: a distance is normalized by ||x|| + 1, so its
    # rounding is a few ulps of 1 near the subspace
    s = TwistedSubspace(parse_typical_element(te), N)
    for batch in _batches(s, 9):
        assert np.allclose(subspace_distances(batch.ravel(), s), _numpy_distances(batch, s), rtol=1e-13, atol=1e-15)
