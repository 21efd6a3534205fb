"""Subdivision, middle, total, and line graph constructions with provenance.

All three vertex-expanding constructions share one indexing convention:
original vertices keep their indices 0..n-1, and the new vertex that
splits edge j sits at index n + j.  Every edge of a derived graph carries
a class tag: ``"sedge"`` for the two half-edges of a split, ``"ledge"``
for edges joining splits of incident base edges, and ``"original"`` for
base edges re-added by the total construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import TooSmallError
from .graph import Graph, build_graph, vertex_edge_distance, edge_edge_distance

ORIGINAL = "original"
SUBDIVISION = "subdivision"

S_EDGE = "sedge"
L_EDGE = "ledge"
ORIGINAL_EDGE = "original"


@dataclass(frozen=True)
class DerivedGraph:
    """A derived graph plus maps back to the base graph.

    provenance[i] is ("original", base vertex) or ("subdivision", base edge
    index); edge_classes[j] tags edge j of ``graph``.
    """

    graph: Graph
    provenance: tuple[tuple[str, int], ...]
    edge_classes: tuple[str, ...]

    @cached_property
    def base_n(self) -> int:
        """Vertex count of the base graph; originals occupy 0..base_n-1."""
        return sum(1 for tag, _ in self.provenance if tag == ORIGINAL)

    def subdivision_vertex(self, base_edge: int) -> int:
        return self.base_n + base_edge


def _assemble(base: Graph, classed_edges: dict[tuple[int, int], str]) -> DerivedGraph:
    n, m = base.n, base.m
    graph = build_graph(n + m, classed_edges.keys())
    provenance = tuple(
        (ORIGINAL, i) if i < n else (SUBDIVISION, i - n) for i in range(n + m)
    )
    edge_classes = tuple(classed_edges[e] for e in graph.edges)
    return DerivedGraph(graph=graph, provenance=provenance, edge_classes=edge_classes)


def _split_edges(base: Graph) -> dict[tuple[int, int], str]:
    n = base.n
    out: dict[tuple[int, int], str] = {}
    for j, (u, w) in enumerate(base.edges):
        out[(u, n + j)] = S_EDGE
        out[(w, n + j)] = S_EDGE
    return out


def _incident_pairs(base: Graph):
    """Pairs of base edge indices sharing an endpoint, each pair once."""
    ids = {e: j for j, e in enumerate(base.edges)}
    for v in range(base.n):
        incident = sorted(ids[(v, w) if v < w else (w, v)] for w in base.adjacency[v])
        yield from combinations(incident, 2)


def subdivision(base: Graph) -> DerivedGraph:
    """Replace every edge by a length-2 path through a new vertex."""
    return _assemble(base, _split_edges(base))


def _middle_edges(base: Graph) -> dict[tuple[int, int], str]:
    n = base.n
    classed = _split_edges(base)
    for i, j in _incident_pairs(base):
        classed[(n + i, n + j)] = L_EDGE
    return classed


def middle(base: Graph) -> DerivedGraph:
    """Subdivision plus edges between splits of incident base edges."""
    return _assemble(base, _middle_edges(base))


def total(base: Graph) -> DerivedGraph:
    """Middle graph plus the base edges themselves."""
    return _assemble(base, _middle_edges(base) | dict.fromkeys(base.edges, ORIGINAL_EDGE))


def line_graph(base: Graph) -> Graph:
    """Graph on the edge indices of the base, adjacent iff incident."""
    if base.m < 2:
        raise TooSmallError("line graph of a single edge has one vertex")
    return build_graph(base.m, _incident_pairs(base))


@dataclass(frozen=True)
class IdentityCheck:
    identity: str
    pairs_checked: int
    counterexample: tuple | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.ok]


def check_distance_identities(
    base: Graph,
    sg: DerivedGraph | None = None,
    mg: DerivedGraph | None = None,
) -> IdentityReport:
    """Exhaustively verify the distance identities tying G to S(G) and M(G).

    On the subdivision graph, for original vertices x, y and base edges
    e, e' (split vertices written s_e):

      eq1:  d_S(x, y)      = 2 d_G(x, y)
      eq2:  d_S(x, s_e)    = 2 d_G(x, e) + 1
      eq3:  d_S(s_e, s_e') = 2 d_G(e, e') + 2          (e != e')
      eq4:  d_S(x, f)     in {2 d_G(x, e), 2 d_G(x, e) + 1}
                                          for f an S(G)-edge arising from e

    On the middle graph:

      eq5:  d_M(x, y)   = d_G(x, y) + 1                (x != y)
      eq6:  d_M(x, s_e) = d_G(x, e) + 1 when x is not an endpoint of e,
            and d_M(x, s_e) = 1 when it is.

    Failures are reported with the first counterexample; a failure would
    indicate a construction bug, so this doubles as a self-check.  ``sg``
    and ``mg`` are S(G) and M(G) when the caller has already built them.
    """
    n, m = base.n, base.m
    if sg is None:
        sg = subdivision(base)
    if mg is None:
        mg = middle(base)
    ds = sg.graph.distances
    dm = mg.graph.distances
    dg = base.distances
    checks = []

    bad = None
    for x in range(n):
        for y in range(n):
            if ds[x][y] != 2 * dg[x][y]:
                bad = bad or (x, y, ds[x][y], 2 * dg[x][y])
    checks.append(IdentityCheck("eq1", n * n, bad))

    bad = None
    for x in range(n):
        for j in range(m):
            expected = 2 * vertex_edge_distance(base, x, j) + 1
            if ds[x][n + j] != expected:
                bad = bad or (x, j, ds[x][n + j], expected)
    checks.append(IdentityCheck("eq2", n * m, bad))

    bad = None
    for e in range(m):
        for f in range(m):
            if e == f:
                continue
            expected = 2 * edge_edge_distance(base, e, f) + 2
            if ds[n + e][n + f] != expected:
                bad = bad or (e, f, ds[n + e][n + f], expected)
    checks.append(IdentityCheck("eq3", m * (m - 1), bad))

    bad = None
    for x in range(n):
        for k, (a, b) in enumerate(sg.graph.edges):
            split = a if sg.provenance[a][0] == SUBDIVISION else b
            j = sg.provenance[split][1]
            base_dist = vertex_edge_distance(base, x, j)
            got = min(ds[x][a], ds[x][b])
            if got not in (2 * base_dist, 2 * base_dist + 1):
                bad = bad or (x, k, got, (2 * base_dist, 2 * base_dist + 1))
    checks.append(IdentityCheck("eq4", n * sg.graph.m, bad))

    bad = None
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if dm[x][y] != dg[x][y] + 1:
                bad = bad or (x, y, dm[x][y], dg[x][y] + 1)
    checks.append(IdentityCheck("eq5", n * (n - 1), bad))

    bad = None
    for x in range(n):
        for j, (a, b) in enumerate(base.edges):
            if x in (a, b):
                expected = 1
            else:
                expected = vertex_edge_distance(base, x, j) + 1
            if dm[x][n + j] != expected:
                bad = bad or (x, j, dm[x][n + j], expected)
    checks.append(IdentityCheck("eq6", n * m, bad))

    return IdentityReport(tuple(checks))
