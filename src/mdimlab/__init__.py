"""Exact metric, edge metric, and mixed metric dimension of graphs and
their subdivision, middle, and total derivatives."""

from .errors import (
    BadSpecError,
    ClassMismatchError,
    DisconnectedError,
    EnumerationOverflowError,
    GraphError,
    LoopEdgeError,
    NotABasisError,
    NotCactusError,
    ParseError,
    SearchBudgetExceededError,
    TooSmallError,
)
from .graph import (
    Graph,
    build_graph,
    edge_edge_distance,
    vertex_edge_distance,
)
from .transforms import (
    DerivedGraph,
    IdentityCheck,
    IdentityReport,
    check_distance_identities,
    line_graph,
    middle,
    subdivision,
    total,
)
from .solvers import (
    DIM,
    EDIM,
    MDIM,
    Certificate,
    PhiResult,
    SolveStats,
    forced_vertices_mdim,
    is_edge_resolving,
    is_mixed_resolving,
    is_resolving,
    phi_of_basis,
    phi_of_graph,
    phi_set,
    solve_dimension,
)
from .structural import (
    CactusReport,
    CycleInfo,
    GnFacts,
    cactus_decompose,
    closed_form,
    gn_family_facts,
    is_tree,
    leaf_count,
)
from .families import (
    Instance,
    complete_graph,
    cycle_graph,
    enumerate_small_trees,
    generate,
    gn_graph,
    path_graph,
    random_cactus,
    random_tree,
    star_graph,
)
from .formats import (
    emit_edge_list,
    emit_graph,
    emit_graph6,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    read_graphs,
)

from .harness import TOOL_VERSION

__version__ = TOOL_VERSION
