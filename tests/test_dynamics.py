import hashlib
import os

import numpy as np
import pytest

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
    subspace_distance,
)
from polydiag.partitions import parse_typical_element


def test_vanderpol_preset_values():
    f = preset_f("vanderpol", eps=2)
    out = f(np.array([[1.0, 0.0]]))
    assert np.allclose(out, [[0.0, -1.0]])


def test_lorenz_preset_fixes_origin():
    f = preset_f("lorenz")
    assert np.allclose(f(np.zeros((1, 3))), 0.0)


def test_presets_odd_where_declared():
    rng = np.random.default_rng(0)
    for name, kwargs in (("vanderpol", {"eps": 2}), ("cubic_odd", {"k": 3}), ("zero", {"k": 2})):
        f = preset_f(name, **kwargs)
        x = rng.uniform(-2, 2, size=(100, f.k))
        assert f.odd
        assert np.allclose(f(-x), -f(x))
    g = preset_f("singular_osc")
    x = rng.uniform(0.2, 2, size=(100, 2))  # keep u away from 0
    assert np.allclose(g(-x), -g(x))


def test_unknown_preset_and_params():
    with pytest.raises(KeyError):
        preset_f("pendulum")
    with pytest.raises(TypeError):
        preset_f("lorenz", eps=1)


def vdp_system(scale=0.5, laplacian=False):
    return checks.vdp_example_system(scale=scale, use_laplacian=laplacian)


def test_integrate_linear_flow_stays_in_subspace():
    # zero internal dynamics, H = I: pure linear network flow
    m = np.array([[0.0, 0.0], [1.0, 1.0]])
    sys = CoupledSystem(2, 2, preset_f("zero", k=2), np.eye(2), m)
    s = TwistedSubspace(parse_typical_element("(a,-a)"), 2)
    x0 = sample_in_subspace(s, np.random.default_rng(1))
    traj = integrate(sys, x0, 1e-2, 5.0)
    assert max(subspace_distance(x, s) for x in traj.states[::50]) < 1e-12


def test_integrate_single_lorenz_bounded():
    sys = CoupledSystem(1, 3, preset_f("lorenz"), np.zeros((3, 3)), np.zeros((1, 1)))
    traj = integrate(sys, np.array([1.0, 1.0, 1.0]), 1e-3, 50.0)
    assert np.all(np.isfinite(traj.states))
    assert np.max(np.abs(traj.states)) < 100.0


def test_integrate_coupled_vdp_bounded():
    traj = integrate(vdp_system(), np.array([0.1, 0.0, -0.2, 0.1]), 1e-3, 50.0)
    assert np.max(np.abs(traj.states)) < 10.0


def test_integrate_blowup_detected():
    grow = preset_f("cubic_odd", k=1)

    def explode(x):
        return (x**3,)

    bad = dynamics.Preset("explode", 1, explode, odd=True, fixes_origin=True)
    sys = CoupledSystem(1, 1, bad, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(BlowupError):
        integrate(sys, np.array([2.0]), 1e-2, 50.0)
    assert grow.odd


def test_integrate_rejects_bad_steps():
    with pytest.raises(ValueError):
        integrate(vdp_system(), np.zeros(4), -1.0, 1.0)


def test_trajectory_csv():
    traj = integrate(vdp_system(), np.array([0.1, 0.0, -0.2, 0.1]), 1e-2, 0.1)
    text = traj.to_csv()
    assert text.splitlines()[0] == "t,x1,x2,x3,x4"
    assert len(text.splitlines()) == len(traj.times) + 1


def test_subspace_distance_examples():
    same = TwistedSubspace(parse_typical_element("(a,a)"), 3)
    x = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert subspace_distance(x, same) == 0.0
    n_sym = np.diag([-1.0, -1.0, 1.0])
    twisted = TwistedSubspace(parse_typical_element("(a,-a)"), 3, n_sym)
    y = np.array([[1.0, 2.0, 3.0], [-1.0, -2.0, 3.0]])
    assert subspace_distance(y, twisted) == 0.0
    plain = TwistedSubspace(parse_typical_element("(a,-a)"), 1)
    assert subspace_distance(np.array([[1.0], [1.0]]), plain) > 0.1


def test_subspace_distance_dimension_mismatch():
    s = TwistedSubspace(parse_typical_element("(a,a)"), 2)
    with pytest.raises(ValueError):
        subspace_distance(np.ones(3), s)


def test_twisted_subspace_requires_involution():
    with pytest.raises(ValueError):
        TwistedSubspace(parse_typical_element("(a,-a)"), 2, np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_sample_in_subspace_fixed_class():
    s = TwistedSubspace(parse_typical_element("(a,0)"), 2)
    x = sample_in_subspace(s, np.random.default_rng(2))
    assert np.allclose(x[1], 0.0)
    assert subspace_distance(x, s) < 1e-15


def test_invariance_short_runs():
    # odd f and an M-invariant anti-synchrony subspace
    rep = invariance_test(
        vdp_system(), TwistedSubspace(parse_typical_element("(a,-a)"), 2), trials=2, dt=1e-3, T=5.0, tol=1e-6, seed=3
    )
    assert rep.passed
    # synchrony subspace with a non-odd f (invariant for any f)
    sys_l = checks.lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0)
    rep2 = invariance_test(
        sys_l, TwistedSubspace(parse_typical_element("(a,a)"), 3), trials=2, dt=1e-3, T=5.0, tol=1e-6, seed=3
    )
    assert rep2.passed
    # minimally tagged subspace with a non-odd f that fixes the origin
    m = 0.5 * np.array([[0.0, 0.0], [1.0, 1.0]])
    sys_min = CoupledSystem(2, 3, preset_f("lorenz"), dynamics.LORENZ_H_MINUS, m)
    rep3 = invariance_test(
        sys_min, TwistedSubspace(parse_typical_element("(0,a)"), 3), trials=2, dt=1e-3, T=5.0, tol=1e-6, seed=3
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
            sys, TwistedSubspace(p, 2), trials=1, dt=1e-3, T=5.0, tol=1e-6, seed=4
        )
        assert rep.passed, typical_element(p)


def test_invariance_negative_control_short():
    rep = invariance_test(
        vdp_system(), TwistedSubspace(parse_typical_element("(a,a)"), 2), trials=2, dt=1e-3, T=10.0, tol=1e-6, seed=3
    )
    assert not rep.passed
    assert rep.max_distance > 1e-2


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
    sys = CoupledSystem(2, 2, preset_f("zero", k=2), np.zeros((2, 2)), np.zeros((2, 2)))
    rep = equivariance_check(sys, -np.eye(2), 1)
    assert rep.passed and rep.max_residual == 0.0


def test_singular_oscillator_freely_tagged_invariant_set():
    # f odd with 0 outside its domain: motion started in the freely tagged
    # A-invariant set D_P for (a,-a) stays there and u never crosses 0
    sys = CoupledSystem(2, 2, preset_f("singular_osc"), dynamics.VDP_H, 0.5 * np.array([[0.0, 0.0], [1.0, 1.0]]))
    s = TwistedSubspace(parse_typical_element("(a,-a)"), 2)
    x0 = np.array([[1.2, 0.3], [-1.2, -0.3]])
    traj = integrate(sys, x0, 1e-3, 20.0)
    assert max(subspace_distance(x, s) for x in traj.states[::100]) < 1e-9
    u = traj.states[:, :, 0]
    assert np.min(np.abs(u)) > 1e-3


def test_integrator_fourth_order():
    sys = vdp_system()
    x0 = np.array([0.3, -0.1, 0.4, 0.2])
    ends = []
    for dt in (4e-3, 2e-3, 1e-3):
        ends.append(integrate(sys, x0, dt, 1.0).states[-1])
    e1 = np.linalg.norm(ends[0] - ends[1])
    e2 = np.linalg.norm(ends[1] - ends[2])
    assert 10.0 < e1 / e2 < 24.0  # ~16 for a 4th order method


def test_antisynchrony_convergence_direction():
    tail = antisynchrony_convergence(vdp_system(), (1, 2), +1, dt=2e-3, T=120.0, seed=2, tail=0.1)
    assert tail < 1e-2


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
    return CoupledSystem(7, 2, preset_f("vanderpol", eps=2), np.eye(2), -0.25 * lap)


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
    ref = _rk4_reference(cell, sys.M.tolist(), sys.H.tolist(), x0, dt, steps)
    traj = integrate(sys, np.array(x0), dt, steps * dt)
    got = traj.states.reshape(steps + 1, -1)
    assert got.tobytes() == np.array(ref).tobytes()


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


@pytest.mark.parametrize("name, params", PRESETS, ids=["%s%s" % (n, p) for n, p in PRESETS])
def test_preset_on_arrays_equals_per_cell_floats(name, params):
    f = preset_f(name, **params)
    x = np.random.default_rng(5).uniform(-3, 3, size=(200, f.k))
    if f.domain_excludes_zero:
        x[:, 0] = np.copysign(np.abs(x[:, 0]) + 0.1, x[:, 0])
    per_cell = np.array([[float(v) for v in f.func(*row)] for row in x.tolist()])
    assert f(x).tobytes() == per_cell.tobytes()
    assert f(x[7]).tobytes() == per_cell[7].tobytes()
    if name == "zero":
        assert not np.signbit(f(x)).any()


def _blowup_time(sys, x0, dt):
    with pytest.raises(BlowupError) as info:
        integrate(sys, np.array(x0), dt, 1.0)
    return info.value.time


def test_float_faults_are_blowups_at_that_step():
    sing = CoupledSystem(2, 2, preset_f("singular_osc"), dynamics.VDP_H, 0.5 * np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert _blowup_time(sing, [0.0, 0.5, 0.0, 0.5], 1e-2) == 0.01  # 1/u at u = 0
    cubic = CoupledSystem(1, 1, preset_f("cubic_odd"), np.zeros((1, 1)), np.zeros((1, 1)))
    assert _blowup_time(cubic, [1e60], 1e-2) == 0.01
    assert _blowup_time(cubic, [-3e3], 1e-2) == 0.01


def test_integrate_rejects_horizons_without_a_step_or_beyond_memory():
    with pytest.raises(ValueError, match="no RK4 step"):
        integrate(vdp_system(), np.zeros(4), 0.5, 0.2)
    with pytest.raises(ValueError, match="memory"):
        integrate(vdp_system(), np.zeros(4), 1e-15, 50.0)


def test_integrate_calls_rhs_four_times_per_step(monkeypatch):
    calls = []
    rhs = CoupledSystem.rhs

    def counted(self, x):
        calls.append(1)
        return rhs(self, x)

    monkeypatch.setattr(CoupledSystem, "rhs", counted)
    traj = integrate(vdp_system(), np.array([0.1, 0.0, -0.2, 0.1]), 0.01, 1.23)
    assert len(traj.times) == 124 and len(calls) == 4 * 123
