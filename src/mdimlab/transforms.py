"""Subdivision, middle, total, and line graph constructions with provenance.

All three vertex-expanding constructions share one indexing convention:
original vertices keep their indices 0..n-1, and the new vertex that
splits edge j sits at index n + j.  Every edge of a derived graph carries
a class tag: ``"sedge"`` for the two half-edges of a split, ``"ledge"``
for edges joining splits of incident base edges, and ``"original"`` for
base edges re-added by the total construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations, permutations, product

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

    ``base_n`` is the base graph's vertex count, so vertex i < base_n is
    original vertex i and vertex base_n + j splits base edge j;
    edge_classes[j] tags edge j of ``graph``.
    """

    graph: Graph
    base_n: int
    edge_classes: tuple[str, ...]

    @property
    def provenance(self) -> tuple[tuple[str, int], ...]:
        """("original", base vertex) or ("subdivision", base edge) per vertex."""
        n = self.base_n
        return tuple((ORIGINAL, i) if i < n else (SUBDIVISION, i - n) for i in range(self.graph.n))

    def subdivision_vertex(self, base_edge: int) -> int:
        return self.base_n + base_edge


def _assemble(base: Graph, classed_edges: dict[tuple[int, int], str]) -> DerivedGraph:
    graph = build_graph(base.n + base.m, classed_edges.keys())
    edge_classes = tuple(classed_edges[e] for e in graph.edges)
    return DerivedGraph(graph=graph, base_n=base.n, edge_classes=edge_classes)


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


def _first_bad(pairs, got, expected, holds=operator.eq) -> tuple | None:
    """The first ``(a, b, got, expected)`` over ``pairs`` where
    ``holds(expected, got)`` is false, or None when every pair holds."""
    for a, b in pairs:
        value, want = got(a, b), expected(a, b)
        if not holds(want, value):
            return a, b, value, want
    return None


def check_distance_identities(base: Graph, sg: DerivedGraph, mg: DerivedGraph) -> IdentityReport:
    """Exhaustively verify the distance identities tying ``base`` = G to
    ``sg`` = S(G) and ``mg`` = M(G).

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

    Each identity is reported with its first counterexample in pair order
    (``pairs_checked`` is the size of its domain); a failure would
    indicate a construction bug, so this doubles as a self-check.
    """
    n, m = base.n, base.m
    ds, dm, dg = sg.graph.distances, mg.graph.distances, base.distances
    xs, js, ks = range(n), range(m), range(sg.graph.m)
    ve = [[vertex_edge_distance(base, x, j) for j in js] for x in xs]

    def eq4_range(x, k):
        # the base edge S(G)-edge k arises from is the one its split end
        # splits, or its lower end's when both ends are splits; an edge with
        # no split end (only a wrong S(G) has one) arises from none, so no
        # distance is expected
        a, b = sg.graph.edges[k]
        if b < n:
            return ()
        d = 2 * ve[x][(a if a >= n else b) - n]
        return d, d + 1

    rows = (
        ("eq1", n * n, product(xs, xs),
         lambda x, y: ds[x][y], lambda x, y: 2 * dg[x][y]),
        ("eq2", n * m, product(xs, js),
         lambda x, j: ds[x][n + j], lambda x, j: 2 * ve[x][j] + 1),
        ("eq3", m * (m - 1), permutations(js, 2),
         lambda e, f: ds[n + e][n + f], lambda e, f: 2 * edge_edge_distance(base, e, f) + 2),
        ("eq4", n * len(ks), product(xs, ks),
         lambda x, k: vertex_edge_distance(sg.graph, x, k), eq4_range, operator.contains),
        ("eq5", n * (n - 1), permutations(xs, 2),
         lambda x, y: dm[x][y], lambda x, y: dg[x][y] + 1),
        ("eq6", n * m, product(xs, js),
         lambda x, j: dm[x][n + j], lambda x, j: 1 if x in base.edges[j] else ve[x][j] + 1),
    )
    return IdentityReport(tuple(
        IdentityCheck(name, size, _first_bad(pairs, *rules)) for name, size, pairs, *rules in rows
    ))
