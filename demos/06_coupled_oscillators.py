#!/usr/bin/env python3
"""Coupled van der Pol and Lorenz cells: invariance seen dynamically.

An M-invariant polydiagonal subspace lifts to a dynamically invariant
subspace of the coupled system (tensored with R^k for odd internal
dynamics, or twisted by a matrix N with f(Nx) = Nf(x)).  Trajectories
started inside stay inside to round-off; trajectories started on a
non-invariant subspace leave it quickly.

Usage: python3 demos/06_coupled_oscillators.py [OUT.csv]
The sample Lorenz trajectory goes to OUT.csv, by default lorenz_anti.csv
beside this script.
"""

import os
import sys

import numpy as np

from polydiag import checks, dynamics
from polydiag.partitions import parse_typical_element

print("Two van der Pol cells, M = 0.5 A with A = [[0,0],[1,1]]:")
sys_vdp = checks.vdp_example_system()
anti = dynamics.TwistedSubspace(parse_typical_element("(a,-a)"), -np.eye(2))
rep = dynamics.invariance_test(sys_vdp, anti, trials=3, dt=1e-3, T=50.0, tol=1e-6, seed=0)
print("  start in (a,-a) x R^2: max distance %.2e -> %s" % (rep.max_distance, "stays" if rep.passed else "leaves"))
sync = dynamics.TwistedSubspace(parse_typical_element("(a,a)"), -np.eye(2))
rep = dynamics.invariance_test(sys_vdp, sync, trials=3, dt=1e-3, T=10.0, tol=1e-6, seed=0)
print("  start in (a,a) x R^2 (not A-invariant): max distance %.2e -> leaves" % rep.max_distance)

tail = dynamics.antisynchrony_convergence(sys_vdp, (1, 2), +1, dt=1e-3, T=400.0, seed=2, tail=0.2)
print("  random start, tail max |u1 + u2| = %.2e (anti-synchrony attracts)" % tail)
sys_lap = checks.vdp_example_system(use_laplacian=True)
tail = dynamics.antisynchrony_convergence(sys_lap, (1, 2), -1, dt=1e-3, T=400.0, seed=2, tail=0.2)
print("  with M = 0.5 L instead: tail max |u1 - u2| = %.2e (synchrony attracts)" % tail)

print("\nTwo Lorenz cells, N = diag(-1,-1,1), subspace ((u,v,w),(-u,-v,w)):")
n_sym = np.diag([-1.0, -1.0, 1.0])
twisted = dynamics.TwistedSubspace(parse_typical_element("(a,-a)"), n_sym)
sys_v = checks.lorenz_pair_system(dynamics.LORENZ_H_MINUS, 2.0)
rep = dynamics.invariance_test(sys_v, twisted, trials=3, dt=1e-3, T=50.0, tol=1e-6, seed=0)
print("  v-coupled system, M = 2L (H N = N H = -H): max distance %.2e" % rep.max_distance)

sys_w = checks.lorenz_pair_system(dynamics.LORENZ_H_PLUS, -2.0)
rep = dynamics.invariance_test(sys_w, twisted, trials=3, dt=1e-3, T=50.0, tol=1e-6, seed=0)
print("  w-coupled system, M = -2L (H N = N H = +H): max distance %.2e" % rep.max_distance)
eq = dynamics.equivariance_check(sys_w, n_sym, ell=1)
print("  cell symmetry F(gamma_1 x) = gamma_1 F(x): residual %.2e" % eq.max_residual)

out = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(os.path.abspath(__file__)), "lorenz_anti.csv")
print("\nWriting a sample trajectory to %s (t, u1..w2)" % out)
x0 = dynamics.sample_in_subspace(twisted, np.random.default_rng(5), scale=5.0) + np.array([0, 0, 25.0])
traj = dynamics.integrate(sys_w, x0, 1e-3, 30.0)
with open(out, "w") as fh:
    fh.write(traj.to_csv())
print("  final state:", np.round(traj.state(-1), 3))
