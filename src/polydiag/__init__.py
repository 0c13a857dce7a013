"""polydiag: synchrony and anti-synchrony subspaces of weighted networks.

Enumerate and classify the polydiagonal subspaces of R^n, decide exact
M-invariance for the matrices induced by weighted digraphs, build lattices
and automorphism orbits of invariant subspaces, count subspace types by
independent methods, and validate dynamical invariance on coupled ODEs.
"""

from .counting import count_table, egf_count, enumeration_count, recurrence_count
from .graph import (
    WeightedDigraph,
    adjacency_matrix,
    automorphisms,
    cayley_digraph,
    digraph_of_graph,
    from_adjacency,
    is_strongly_connected,
    is_weight_balanced,
    laplacian_matrix,
)
from .invariance import (
    InvariantSet,
    build_lattice,
    check_constant_column_sums_theorem,
    check_main_lemma,
    eigendata,
    invariant_polydiagonals,
    is_invariant,
    orbits,
)
from .linalg import nullspace, span_contains
from .partitions import (
    SubspaceClass,
    TaggedPartition,
    basis,
    classify,
    contains,
    enumerate_tagged_partitions,
    parse_typical_element,
    tagged,
    typical_element,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
