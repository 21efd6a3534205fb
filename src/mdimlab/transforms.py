"""Subdivision, middle, total, and line graph constructions with provenance.

All three vertex-expanding constructions share one indexing convention:
original vertices keep their indices 0..n-1, and the new vertex that
splits edge j sits at index n + j.  Every edge of a derived graph carries
a class tag: ``"sedge"`` for the two half-edges of a split, ``"ledge"``
for edges joining splits of incident base edges, and ``"original"`` for
base edges re-added by the total construction.

The derived graphs' distances follow from the base graph's.  For original
vertices x, y and base edges e != f, with d(x, e) the distance from x to
the nearer end of e and d(e, f) the least distance between an end of e
and an end of f:

  S(G):  2 d(x, y),   2 d(x, e) + 1,   2 d(e, f) + 2
  M(G):  d(x, y) + 1, d(x, e) + 1,     d(e, f) + 1     (x != y)
  T(G):  d(x, y),     d(x, e) + 1,     d(e, f) + 1

so each derived table is read off the base graph's byte rows, with no BFS
on the derived graph, whenever each block's distances fit a byte under
its own map, and is otherwise found by BFS as for any other graph.  M(G)
and T(G) map the d(x, e) and d(e, f) blocks alike, so their split rows
are the same objects, built by whichever comes first and kept by the
base graph; so are their ledges and split adjacency lists.  The derived graph itself
is built in canonical form straight from the base's incidence lists (the
edges at each base vertex, kept by the base for all three), not passed
through ``build_graph``: its edges and adjacency come out sorted by
construction, and an edge's class follows from which of its ends are
original vertices.
``check_distance_identities`` checks the S and M identities against BFS
over the derived graphs' adjacency, not against their stored tables, and
compares each BFS row whole with the row ``graph._table_from_base`` reads
off G, so the identities are written down once, in ``graph``.
"""

from __future__ import annotations

import operator
from contextlib import suppress
from dataclasses import dataclass
from itertools import combinations, compress

from .errors import DisconnectedError, TooSmallError
from .graph import (Graph, _all_pairs_bfs, _bfs, _edge_rows, _table_from_base, build_graph,
                    edge_edge_distance)

ORIGINAL = "original"
SUBDIVISION = "subdivision"

S_EDGE = "sedge"
L_EDGE = "ledge"
ORIGINAL_EDGE = "original"


@dataclass(frozen=True)
class DerivedGraph:
    """A derived graph plus maps back to the base graph.

    ``base_n`` is the base graph's vertex count, so vertex i < base_n is
    original vertex i and vertex base_n + j splits base edge j.
    """

    graph: Graph
    base_n: int

    @property
    def edge_classes(self) -> tuple[str, ...]:
        """The class of each edge (u, v), u < v, of ``graph``: original when
        v < base_n, sedge when only u < base_n, and ledge otherwise."""
        n = self.base_n
        return tuple(ORIGINAL_EDGE if v < n else S_EDGE if u < n else L_EDGE
                     for u, v in self.graph.edges)

    @property
    def provenance(self) -> tuple[tuple[str, int], ...]:
        """("original", base vertex) or ("subdivision", base edge) per vertex."""
        n = self.base_n
        return tuple((ORIGINAL, i) if i < n else (SUBDIVISION, i - n) for i in range(self.graph.n))

    def subdivision_vertex(self, base_edge: int) -> int:
        return self.base_n + base_edge


# each construction's distances as (scale, offsets): scale * d + offset,
# with one offset per block of base distances d(x, y), d(x, e) and d(e, f)
_SUBDIVISION_DISTANCES = (2, (0, 1, 2))
_MIDDLE_DISTANCES = (1, (1, 1, 1))
_TOTAL_DISTANCES = (1, (0, 1, 1))


def _incidence(base: Graph, first: int) -> list[list[int]]:
    """Per base vertex v, first + j for each base edge j at v, ascending."""
    at: list[list[int]] = [[] for _ in range(base.n)]
    for j, (u, w) in enumerate(base.edges, start=first):
        at[u].append(j)
        at[w].append(j)
    return at


def _ledges(base: Graph, at: list[list[int]]) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """The ledges (s, t), s < t, by s and then t, and each split's
    adjacency, its base edge's ends and then the splits of the other edges
    at them, ascending; M(G) and T(G) share both, so base keeps them
    (``Graph._shared``)."""
    edges, adjacency = [], []
    for s, (a, b) in enumerate(base.edges, start=base.n):
        near = [t for t in sorted(at[a] + at[b]) if t != s]
        edges += [(s, t) for t in near if t > s]
        adjacency.append((a, b, *near))
    base._shared["ledges"] = edges, adjacency
    return edges, adjacency


def _derive(base: Graph, distances: tuple[int, tuple[int, int, int]],
            ledges: bool, originals: bool) -> DerivedGraph:
    """S(G), plus the ledges for M(G), plus the base edges for T(G), in
    canonical form straight from base's incidence lists, with no sort.

    Base vertex u lists its higher base neighbours (T only), then the splits
    of its edges, ascending, so its edges (u, v), u < v, come in order; the
    ledges (s, t), s < t, follow by s and then t.  Split s of edge ab is
    adjacent to a, b and the splits of the other edges at a or b, which in
    a simple graph share no edge but ab.  Those ledges and split adjacency
    lists are built once per base for M(G) and T(G) alike (``_ledges``),
    and the incidence lists once for all three;
    in S(G), split s is adjacent to a and b only, base's edge tuple."""
    n, N = base.n, base.n + base.m
    # at[v]: the splits adjacent to base vertex v, kept for S, M and T alike
    at = base._shared.get("incidence")
    if at is None:
        at = base._shared["incidence"] = _incidence(base, n)
    edges: list[tuple[int, int]] = []
    adjacency: list[tuple[int, ...]] = []
    for u, splits in enumerate(at):
        near = base.adjacency[u] if originals else ()
        edges += [(u, v) for v in near if v > u] + [(u, s) for s in splits]
        adjacency.append(near + tuple(splits))
    if ledges:
        split_edges, split_adjacency = base._shared.get("ledges") or _ledges(base, at)
        edges += split_edges
        adjacency += split_adjacency
    else:
        adjacency += base.edges
    neighbours = tuple(adjacency)
    # M(G) and T(G) share their split rows; no other graph maps G's blocks as S(G) does
    table = _table_from_base(base, *distances, shared=ledges)
    graph = Graph(n=N, edges=tuple(edges), adjacency=neighbours,
                  distances=_all_pairs_bfs(N, neighbours) if table is None else table)
    return DerivedGraph(graph=graph, base_n=n)


def subdivision(base: Graph) -> DerivedGraph:
    """Replace every edge by a length-2 path through a new vertex."""
    return _derive(base, _SUBDIVISION_DISTANCES, ledges=False, originals=False)


def middle(base: Graph) -> DerivedGraph:
    """Subdivision plus edges between splits of incident base edges."""
    return _derive(base, _MIDDLE_DISTANCES, ledges=True, originals=False)


def total(base: Graph) -> DerivedGraph:
    """Middle graph plus the base edges themselves."""
    return _derive(base, _TOTAL_DISTANCES, ledges=True, originals=True)


def line_graph(base: Graph) -> Graph:
    """Graph on the edge indices of the base, adjacent iff incident."""
    if base.m < 2:
        raise TooSmallError("line graph of a single edge has one vertex")
    return build_graph(base.m, (pair for at in _incidence(base, 0) for pair in combinations(at, 2)))


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
    indicate a construction bug, so this doubles as a self-check.  The
    derived tables are read off base's through these identities, so the
    distances checked here come from BFS over the derived graphs'
    adjacency, never from their stored tables: S(G)'s rows from one
    ``_all_pairs_bfs``, the routine that builds G's own table, and M(G)'s
    from one BFS per original vertex (M's blocks are cliques, around which
    ``_all_pairs_bfs`` would run BFS from most of its vertices).  A
    disconnected S(G), which only a wrong one is, takes one BFS per
    vertex, whose lists keep -1 for the vertices each misses.

    The expected rows are the ones ``graph._table_from_base`` builds for
    S(G) and M(G), so the identities are stated once, there.  Each row of
    an identity's domain (one x, or one e for eq3) is first compared whole
    with its part of the expected row, own entries 0 on both sides, and
    only a row that differs is scanned pair by pair, so the first
    counterexample is the pair scan's.  M(G)'s BFS lists become bytes
    unless one holds a -1 or a distance past 255; a list, like a tuple
    row, equals no byte row.  When ``_table_from_base`` returns None
    (tuple rows, or a distance past a byte), every row is scanned.

    eq4 has no expected row.  When every S(G)-edge is (a, s_e) with a an
    end of e, as in a true S(G), row x of eq4 holds whenever rows x of eq1
    and eq2 do: d_G(x, a) is d_G(x, e) or d_G(x, e) + 1, since the ends of
    e are adjacent, so d_S(x, f) = min(2 d_G(x, a), 2 d_G(x, e) + 1) is
    2 d_G(x, e) or 2 d_G(x, e) + 1.  Otherwise every row of eq4 is scanned.
    """
    n, m = base.n, base.m
    dg = base.distances
    try:
        ds = _all_pairs_bfs(sg.graph.n, sg.graph.adjacency)
    except DisconnectedError:
        ds = [_bfs(sg.graph.n, sg.graph.adjacency, v) for v in range(sg.graph.n)]
    dm = [_bfs(mg.graph.n, mg.graph.adjacency, x) for x in range(n)]  # eq5 and eq6 read x < n
    with suppress(ValueError):  # a -1 or a distance past 255 keeps the lists
        dm = list(map(bytes, dm))
    xs, js, ks = range(n), range(m), range(sg.graph.m)
    ve = _edge_rows(base)  # ve[j][x] = d_G(x, e_j)
    s_want = _table_from_base(base, *_SUBDIVISION_DISTANCES, shared=False)
    m_want = _table_from_base(base, *_MIDDLE_DISTANCES, shared=True)
    head, tail = slice(n), slice(n, None)

    def whole(got, want, rows, part):
        if want is None:
            return [False] * len(rows)
        return [got[r][part] == want[r][part] for r in rows]

    def eq4_range(x, k):
        # the base edge S(G)-edge k arises from is the one its split end
        # splits, or its lower end's when both ends are splits; an edge with
        # no split end (only a wrong S(G) has one) arises from none, so no
        # distance is expected
        a, b = sg.graph.edges[k]
        if b < n:
            return ()
        d = 2 * ve[(a if a >= n else b) - n][x]
        return d, d + 1

    def eq4_got(x, k):
        a, b = sg.graph.edges[k]
        return min(ds[x][a], ds[x][b])

    eq1, eq2 = whole(ds, s_want, xs, head), whole(ds, s_want, xs, tail)
    split_ends = all(a < n <= b < n + m and a in base.edges[b - n] for a, b in sg.graph.edges)
    # (identity, domain size, its rows, whether each holds whole, the pairs
    # of a row, got, expected[, holds])
    rows = (
        ("eq1", n * n, xs, eq1, lambda x: xs,
         lambda x, y: ds[x][y], lambda x, y: 2 * dg[x][y]),
        ("eq2", n * m, xs, eq2, lambda x: js,
         lambda x, j: ds[x][n + j], lambda x, j: 2 * ve[j][x] + 1),
        ("eq3", m * (m - 1), js, whole(ds, s_want, range(n, n + m), tail),
         lambda e: (f for f in js if f != e),
         lambda e, f: ds[n + e][n + f], lambda e, f: 2 * edge_edge_distance(base, e, f) + 2),
        ("eq4", n * len(ks), xs, map(operator.and_, eq1, eq2) if split_ends else [False] * n,
         lambda x: ks, eq4_got, eq4_range, operator.contains),
        ("eq5", n * (n - 1), xs, whole(dm, m_want, xs, head), lambda x: (y for y in xs if y != x),
         lambda x, y: dm[x][y], lambda x, y: dg[x][y] + 1),
        ("eq6", n * m, xs, whole(dm, m_want, xs, tail), lambda x: js,
         lambda x, j: dm[x][n + j], lambda x, j: 1 if x in base.edges[j] else ve[j][x] + 1),
    )
    checks = []
    for name, size, domain, held, pairs, *rules in rows:
        scan = ((a, b) for a in compress(domain, map(operator.not_, held)) for b in pairs(a))
        checks.append(IdentityCheck(name, size, _first_bad(scan, *rules)))
    return IdentityReport(tuple(checks))
