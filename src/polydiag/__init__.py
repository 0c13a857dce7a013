"""polydiag: synchrony and anti-synchrony subspaces of weighted networks.

Enumerate and classify the polydiagonal subspaces of R^n, decide exact
M-invariance for the matrices induced by weighted digraphs, build lattices
and automorphism orbits of invariant subspaces, count subspace types by
independent methods, and validate dynamical invariance on coupled ODEs.

Importing the package loads none of its modules; import the one you use,
such as ``polydiag.invariance`` or ``from polydiag import graph``.
"""

__version__ = "0.1.0"
