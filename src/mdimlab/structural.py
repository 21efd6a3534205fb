"""Tree and cactus recognition, cycle decomposition, and closed-form values.

A cactus is a connected graph whose cycles are pairwise edge-disjoint, or
equivalently one where every biconnected component is a single edge or a
cycle.  For such graphs the mixed metric dimension has a closed form:

    n1 + sum over cycles of max(3 - rt(C), 0) + epsilon

where n1 counts leaves, rt(C) counts cycle vertices of degree >= 3 in the
whole graph, and epsilon counts cycles with rt >= 3 that carry no geodesic
triple of such root vertices (three cycle vertices whose pairwise whole-
graph distances sum to the cycle length).

Formula evaluation is pure arithmetic on structure; the brute-force
solver is only consulted for the lower end of the total-graph dim bounds,
so tests can compare formulas against the solver as independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ClassMismatchError, GraphError, NotCactusError
from .graph import Graph
from .solvers import DIM, solve_dimension

MDIM_CACTUS = "mdim_cactus"
MDIM_TREE = "mdim_tree"
DIM_MIDDLE_TREE = "dim_middle_tree"
MDIM_TOTAL_TREE = "mdim_total_tree"
DIM_TOTAL_TREE_BOUNDS = "dim_total_tree_bounds"
CLAIMS = (MDIM_CACTUS, MDIM_TREE, DIM_MIDDLE_TREE, MDIM_TOTAL_TREE, DIM_TOTAL_TREE_BOUNDS)

# The middle/total leaf-count laws dim(M(T)) = n1 and mdim(T(T)) = 2*n1 need a
# tree on at least this many vertices: for the single-edge tree M(K2) is the
# 3-path (dim 1, not 2) and T(K2) the triangle (mdim 3, not 4).
LEAF_LAW_MIN_N = 3


@dataclass(frozen=True)
class CycleInfo:
    """One cycle of a cactus: its vertices in ring order, root count, triple flag."""

    vertices: tuple[int, ...]
    rt: int
    has_geodesic_triple: bool


@dataclass(frozen=True)
class CactusReport:
    n1: int
    cycles: tuple[CycleInfo, ...]
    epsilon: int
    mdim_formula: int


def leaf_count(g: Graph) -> int:
    """Number of degree-1 vertices."""
    return sum(1 for v in range(g.n) if g.degree(v) == 1)


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1


def _biconnected_components(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge sets of the biconnected components (iterative lowpoint DFS)."""
    disc = [-1] * g.n
    low = [0] * g.n
    comps: list[list[tuple[int, int]]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 0

    disc[0] = low[0] = timer
    timer += 1
    stack = [(0, -1, iter(g.adjacency[0]))]
    while stack:
        v, parent, it = stack[-1]
        descended = False
        for w in it:
            if w == parent:
                continue
            if disc[w] < 0:
                edge_stack.append((v, w))
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(g.adjacency[w])))
                descended = True
                break
            if disc[w] < disc[v]:
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        if descended:
            continue
        stack.pop()
        if stack:
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                comp = []
                while edge_stack:
                    e = edge_stack.pop()
                    comp.append(e)
                    if e == (u, v):
                        break
                comps.append(comp)
    return comps


def _order_cycle(comp: list[tuple[int, int]]) -> tuple[int, ...]:
    adj: dict[int, list[int]] = {}
    for u, v in comp:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    order = [start, min(adj[start])]
    while len(order) < len(adj):
        a, b = adj[order[-1]]
        order.append(b if a == order[-2] else a)
    return tuple(order)


def _geodesic(g: Graph, u: int, v: int, w: int, cycle_length: int) -> bool:
    """Do the whole-graph pairwise distances of u, v, w sum to the length of
    the cycle they lie on?"""
    d = g.distances
    return d[u][v] + d[v][w] + d[w][u] == cycle_length


def cactus_decompose(g: Graph) -> CactusReport:
    """Split into biconnected components and evaluate the cactus formula.

    Raises NotCactusError when some component has more edges than vertices
    (two cycles sharing an edge).
    """
    cycles = []
    for comp in _biconnected_components(g):
        vertices = {v for e in comp for v in e}
        if len(comp) == 1:
            continue
        if len(comp) > len(vertices):
            raise NotCactusError(
                f"biconnected component on vertices {sorted(vertices)} has "
                f"{len(comp)} edges; cycles share an edge"
            )
        ring = _order_cycle(comp)
        roots = [v for v in ring if g.degree(v) >= 3]
        triple = any(_geodesic(g, *uvw, len(ring)) for uvw in combinations(roots, 3))
        cycles.append(CycleInfo(vertices=ring, rt=len(roots), has_geodesic_triple=triple))

    cycles.sort(key=lambda c: c.vertices)
    n1 = leaf_count(g)
    epsilon = sum(1 for c in cycles if c.rt >= 3 and not c.has_geodesic_triple)
    formula = n1 + sum(max(3 - c.rt, 0) for c in cycles) + epsilon
    return CactusReport(n1=n1, cycles=tuple(cycles), epsilon=epsilon, mdim_formula=formula)


def is_geodesic_triple(g: Graph, cycle: CycleInfo, u: int, v: int, w: int) -> bool:
    """Do the whole-graph pairwise distances of u, v, w sum to the cycle length?"""
    if len({u, v, w}) != 3:
        raise GraphError("geodesic triple needs three distinct vertices")
    if not {u, v, w} <= set(cycle.vertices):
        raise GraphError("geodesic triple vertices must lie on the cycle")
    return _geodesic(g, u, v, w, len(cycle.vertices))


def closed_form(g: Graph, claim: str):
    """Evaluate a closed-form value or bound pair for trees and cacti.

    Claims: mdim_cactus, mdim_tree, dim_middle_tree, mdim_total_tree (all
    single integers) and dim_total_tree_bounds (a (lower, upper) pair with
    the lower end computed by the solver).  ClassMismatchError when the
    graph is outside the claim's class; dim_middle_tree and mdim_total_tree
    need a tree on at least LEAF_LAW_MIN_N vertices.
    """
    if claim == MDIM_CACTUS:
        try:
            return cactus_decompose(g).mdim_formula
        except NotCactusError as exc:
            raise ClassMismatchError(f"mdim_cactus needs a cactus: {exc}") from exc
    if claim not in CLAIMS:
        raise GraphError(f"unknown claim {claim!r}")
    if not is_tree(g):
        raise ClassMismatchError(f"{claim} needs a tree, got m={g.m}, n={g.n}")
    if claim in (DIM_MIDDLE_TREE, MDIM_TOTAL_TREE) and g.n < LEAF_LAW_MIN_N:
        raise ClassMismatchError(
            f"{claim} needs a tree on >= {LEAF_LAW_MIN_N} vertices, got n={g.n}"
        )
    n1 = leaf_count(g)
    if claim == MDIM_TREE or claim == DIM_MIDDLE_TREE:
        return n1
    if claim == MDIM_TOTAL_TREE:
        return 2 * n1
    return (solve_dimension(g, DIM).value, n1)


@dataclass(frozen=True)
class GnFacts:
    """Checkable facts about the two-hub family and its subdivision."""

    n: int
    mdim_value: int
    sn_vertices: tuple[int, ...] | None
    subdivision_upper: int | None
    gap_lower_bound: int | None


def gn_family_facts(n: int) -> GnFacts:
    """Closed-form mixed dimension n+2 of the two-hub graph, and for n >= 5
    the explicit n-element witness inside its subdivision graph, giving a
    checkable dimension drop of at least 2."""
    from .families import gn_graph
    from .transforms import subdivision

    g, names = gn_graph(n)
    if n < 5:
        return GnFacts(n=n, mdim_value=n + 2, sn_vertices=None,
                       subdivision_upper=None, gap_lower_bound=None)
    sg = subdivision(g)

    def split_of(a: str, b: str) -> int:
        return sg.subdivision_vertex(g.edge_index(names[a], names[b]))

    witness = [split_of("x", "z1"), split_of("x", "z2"),
               split_of("y", "z3"), split_of("y", "z4")]
    witness += [names[f"z{i}"] for i in range(5, n + 1)]
    assert len(witness) == n and len(set(witness)) == n
    assert all(0 <= v < sg.graph.n for v in witness)
    return GnFacts(n=n, mdim_value=n + 2, sn_vertices=tuple(sorted(witness)),
                   subdivision_upper=n, gap_lower_bound=2)
