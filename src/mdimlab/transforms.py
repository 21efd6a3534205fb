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
compares each BFS row with the row that S(G) or M(G) is built from,
``graph._table_from_base``'s, or ``graph._mapped_rows``' where that gives
none, so the identities are written down once, as the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DisconnectedError, TooSmallError
from .graph import Graph, _all_pairs_bfs, _bfs, _mapped_rows, _table_from_base, build_graph

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

    The expected rows are S(G)'s and M(G)'s from ``graph._table_from_base``,
    or from ``graph._mapped_rows`` where it gives none, so the identities
    are stated once.  Each identity but eq4 reports the first (row, column)
    where a BFS row differs from its expected row on its vertex or split
    columns; own entries are 0 on both sides.  M(G)'s BFS lists become
    bytes, or tuples where one holds a -1 or a distance past 255.

    eq4 reads 2 d_G(x, e) as the expected S entry at (x, s_e), less one.
    When every S(G)-edge is (a, s_e) with a an end of e, as in a true S(G),
    row x of eq4 holds whenever rows x of eq1 and eq2 do, since d_G(x, a)
    is d_G(x, e) or d_G(x, e) + 1, so its scan starts at the first row
    where either fails.
    """
    n, m = base.n, base.m
    try:
        ds = _all_pairs_bfs(sg.graph.n, sg.graph.adjacency)
    except DisconnectedError:
        ds = [_bfs(sg.graph.n, sg.graph.adjacency, v) for v in range(sg.graph.n)]
    dm = [_bfs(mg.graph.n, mg.graph.adjacency, x) for x in range(n)]  # eq5 and eq6 read x < n
    try:
        dm = list(map(bytes, dm))
    except ValueError:  # a -1 or a distance past 255
        dm = list(map(tuple, dm))
    s_want, m_want = (_table_from_base(base, *maps, shared=shared) or _mapped_rows(base, *maps)
                      for maps, shared in ((_SUBDIVISION_DISTANCES, False), (_MIDDLE_DISTANCES, True)))
    xs, splits = range(n), range(n, n + m)

    def first_difference(got, want, rows, columns):
        # (row, column, got, expected), each index counted from its range's start
        part = slice(columns.start, columns.stop)
        for r in rows:
            if got[r][part] != want[r][part]:
                for c in columns:
                    if got[r][c] != want[r][c]:
                        return r - rows.start, c - columns.start, got[r][c], want[r][c]
        return None

    def eq4(start):
        for x in range(start, n):
            for k, (a, b) in enumerate(sg.graph.edges):
                # the base edge S(G)-edge k arises from is the one its split
                # end splits, or its lower end's when both ends are splits; an
                # edge with no split end (only a wrong S(G) has one) arises
                # from none, so no distance is expected
                got, d = min(ds[x][a], ds[x][b]), s_want[x][a if a >= n else b] - 1
                want = (d, d + 1) if b >= n else ()
                if got not in want:
                    return x, k, got, want
        return None

    eq1, eq2 = first_difference(ds, s_want, xs, xs), first_difference(ds, s_want, xs, splits)
    split_ends = all(a < n <= b < n + m and a in base.edges[b - n] for a, b in sg.graph.edges)
    return IdentityReport((
        IdentityCheck("eq1", n * n, eq1),
        IdentityCheck("eq2", n * m, eq2),
        IdentityCheck("eq3", m * (m - 1), first_difference(ds, s_want, splits, splits)),
        IdentityCheck("eq4", n * sg.graph.m,
                      eq4(min((c[0] for c in (eq1, eq2) if c), default=n) if split_ends else 0)),
        IdentityCheck("eq5", n * (n - 1), first_difference(dm, m_want, xs, xs)),
        IdentityCheck("eq6", n * m, first_difference(dm, m_want, xs, splits)),
    ))
