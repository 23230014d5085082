"""Membership polynomials for (minimum-weight) perfect matchings.

The library builds, queries, and cross-verifies the unique real multilinear
polynomial of the Boolean function "does this subgraph of K_{n,n} contain a
(minimum-weight) perfect matching", together with the union-closure and
lattice machinery (Mobius numbers, ranks, Eulerian interval counts) that the
coefficients rest on, including the complete-graph K_6 counterexamples.
"""

from .errors import (
    CapExceededError,
    InfeasibleError,
    InputError,
    StructureViolationError,
)
from .graphs import (
    BIPARTITE,
    COMPLETE,
    Family,
    Graph,
    GroundGraph,
    bipartite_ground,
    canonical_key,
    complete_ground,
    component_count,
    cyclomatic_number,
    edge_list_str,
    format_graph,
    is_subgraph,
    parse_graph,
    parse_ground,
    union_graphs,
)
from .matching import (
    WeightFunction,
    contains_min_weight_pm,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
    format_weight_function,
    has_perfect_matching,
    hungarian,
    min_weight,
    min_weight_forced,
    parse_rational,
    parse_weight_function,
    pm_support,
    support_union,
)
from .covered import (
    CoveredSet,
    coefficient_query,
    covered_closure,
    format_covered_set,
    is_covered,
)
from .lattice import (
    EulerianCheck,
    Lattice,
    RankLabels,
    build_lattice,
)
from .polynomial import (
    MultilinearPolynomial,
    membership_oracle,
    membership_polynomial_general,
    min_weight_pm_polynomial,
    pm_polynomial,
    truth_table_transform,
)

__version__ = "0.1.0"
