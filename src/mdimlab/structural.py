"""Tree, cactus and two-hub recognition, cycle decomposition, and closed-form values.

A cactus is a connected graph whose cycles are pairwise edge-disjoint, or
equivalently one where every biconnected component is a single edge or a
cycle.  The cycles are read off the BFS tree from vertex 0 that the
distance table already holds: each edge outside the tree closes one ring,
and the graph is a cactus iff no two rings share an edge (a cycle is the
sum of the rings of its non-tree edges, so then every cycle is a ring).
For a cactus the mixed metric dimension has a closed form:

    n1 + sum over cycles of max(3 - rt(C), 0) + epsilon

where n1 counts leaves, rt(C) counts cycle vertices of degree >= 3 in the
whole graph, and epsilon counts cycles with rt >= 3 that carry no geodesic
triple of such root vertices (three cycle vertices whose pairwise whole-
graph distances sum to the cycle length).

Formula evaluation is pure arithmetic on structure and never calls the
solver, so tests can compare formulas against the solver as independent
routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ClassMismatchError, GraphError, NotCactusError
from .families import gn_graph
from .graph import Graph

MDIM_CACTUS = "mdim_cactus"
MDIM_TREE = "mdim_tree"
DIM_MIDDLE_TREE = "dim_middle_tree"
MDIM_TOTAL_TREE = "mdim_total_tree"
CLAIMS = (MDIM_CACTUS, MDIM_TREE, DIM_MIDDLE_TREE, MDIM_TOTAL_TREE)

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


def _cactus_rings(g: Graph) -> list[list[int]]:
    """The cycles of a cactus, read off the BFS tree from vertex 0.

    The parent of v is its first neighbour one step closer to 0.  Each edge
    outside that tree closes one ring, which runs from one end up to the
    common ancestor and down to the other end.  Only tree edges can lie on
    two rings: ``owner[x]`` is the first ring through the edge above x, and
    a union-find joins every later ring through it to that one.  When some
    edge is shared, NotCactusError names the block of the first ring that
    shares one: the rings joined to it and their edges."""
    depth = g.distances[0]
    parent = [next((w for w in g.adjacency[v] if depth[w] < depth[v]), v) for v in range(g.n)]
    owner = [-1] * g.n
    root: list[int] = []
    rings: list[list[int]] = []

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    first = g.m
    for u, v in g.edges:
        if parent[u] == v or parent[v] == u:
            continue
        i = len(rings)
        root.append(i)
        up, down = [u], [v]
        while up[-1] != down[-1]:
            deeper = up if depth[up[-1]] >= depth[down[-1]] else down
            x = deeper[-1]
            if owner[x] < 0:
                owner[x] = i
            else:
                first = min(first, owner[x])
                root[find(i)] = find(owner[x])
            deeper.append(parent[x])
        rings.append(up + down[-2::-1])
    if first < g.m:
        joined = find(first)
        block = [ring for i, ring in enumerate(rings) if find(i) == joined]
        tree_edges = sum(1 for i in owner if i >= 0 and find(i) == joined)
        raise NotCactusError(
            f"not a cactus (biconnected component on vertices "
            f"{sorted({v for ring in block for v in ring})} has {len(block) + tree_edges} "
            "edges; cycles share an edge)"
        )
    return rings


def _rotate(ring: list[int]) -> tuple[int, ...]:
    """The ring from its least vertex, heading toward the lesser neighbour."""
    i = ring.index(min(ring))
    ring = ring[i:] + ring[:i]
    return tuple(ring if ring[1] < ring[-1] else ring[:1] + ring[:0:-1])


def _geodesic(g: Graph, u: int, v: int, w: int, cycle_length: int) -> bool:
    """Do the whole-graph pairwise distances of u, v, w sum to the length of
    the cycle they lie on?"""
    d = g.distances
    return d[u][v] + d[v][w] + d[w][u] == cycle_length


def cactus_decompose(g: Graph) -> CactusReport:
    """Evaluate the cactus formula over the rings; NotCactusError when two
    rings share an edge."""
    cycles = []
    for ring in map(_rotate, _cactus_rings(g)):
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


def closed_form(g: Graph, claim: str) -> int:
    """Evaluate a closed-form value for trees and cacti.

    Claims: mdim_cactus, mdim_tree, dim_middle_tree and mdim_total_tree.
    ClassMismatchError, with the reason as its text, when the graph is
    outside the claim's class (NotCactusError for mdim_cactus);
    dim_middle_tree and mdim_total_tree need a tree on at least
    LEAF_LAW_MIN_N vertices.
    """
    if claim == MDIM_CACTUS:
        return cactus_decompose(g).mdim_formula
    if claim not in CLAIMS:
        raise GraphError(f"unknown claim {claim!r}")
    if not is_tree(g):
        raise ClassMismatchError("not a tree")
    if claim in (DIM_MIDDLE_TREE, MDIM_TOTAL_TREE) and g.n < LEAF_LAW_MIN_N:
        raise ClassMismatchError(
            "single-edge tree; the leaf-count formulas for middle/total graphs "
            f"need a tree on >= {LEAF_LAW_MIN_N} vertices"
        )
    n1 = leaf_count(g)
    return 2 * n1 if claim == MDIM_TOTAL_TREE else n1


@dataclass(frozen=True)
class GnFacts:
    """Checkable facts about a two-hub graph G_n, n >= 5, and its subdivision."""

    n: int
    mdim_value: int
    sn_vertices: tuple[int, ...]
    gap_lower_bound: int


def gn_family_facts(g: Graph) -> GnFacts:
    """Closed-form mixed dimension n+2 of a graph equal to the two-hub graph
    G_n as ``gn_graph`` labels it, and the explicit n-element witness inside
    S(G_n), giving a checkable dimension drop of at least 2.  The split of
    edge j is vertex g.n + j of S(G_n).  ClassMismatchError when g is not
    G_n for any n >= 2, or when n < 5."""
    n = g.n - 2
    gn, names = gn_graph(n) if n >= 2 and g.m == 2 * n + 1 else (None, None)
    if g != gn:
        raise ClassMismatchError("not a generated two-hub family instance")
    if n < 5:
        raise ClassMismatchError("two-hub gap statement needs n >= 5")

    def split_of(a: str, b: str) -> int:
        return g.n + g.edge_index(names[a], names[b])

    witness = [split_of("x", "z1"), split_of("x", "z2"),
               split_of("y", "z3"), split_of("y", "z4")]
    witness += [names[f"z{i}"] for i in range(5, n + 1)]
    return GnFacts(n=n, mdim_value=n + 2, sn_vertices=tuple(sorted(witness)), gap_lower_bound=2)
