"""Immutable simple connected graphs with canonical indexing and distance primitives.

Vertices are integers 0..n-1.  Edges are stored as a lexicographically
sorted tuple of pairs (u, v) with u < v; the position of a pair in that
tuple is the edge's index, which is stable across runs and used by every
downstream provenance map.  All-pairs hop distances are computed eagerly
at construction and shared read-only, so distance queries are table
lookups.  BFS runs from every vertex outside a greedy independent set;
each vertex of the set takes one plus the least of its neighbours' rows.
All arithmetic is exact integer hop counts.

A disconnected input is rejected after at most one BFS: fewer than n - 1
distinct edges fail before any table is allocated, and otherwise the first
BFS row must reach every vertex.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .errors import DisconnectedError, GraphError, LoopEdgeError, TooSmallError


Row = bytes | tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph; construct via :func:`build_graph`.

    ``distances[u][v]`` is the hop distance from u to v.  Every row is
    ``bytes`` (one byte per entry) when the diameter is below 256, and every
    row is a tuple of ints otherwise; rows are only indexed and iterated, so
    the two read alike."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    distances: tuple[Row, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_index(self, u: int, v: int) -> int:
        """Index of edge {u, v} in the sorted edge list; GraphError if absent."""
        pair = (u, v) if u < v else (v, u)
        i = bisect_left(self.edges, pair)
        if i < len(self.edges) and self.edges[i] == pair:
            return i
        raise GraphError(f"no edge {pair}")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Canonicalize and validate an edge list into a Graph.

    Pairs are normalized to u < v, deduplicated, and sorted; loops,
    out-of-range endpoints, fewer than two vertices, and disconnected
    inputs are rejected.
    """
    if n < 2:
        raise TooSmallError(f"need at least 2 vertices, got {n}")
    normalized = set()
    for u, v in edges:
        if u == v:
            raise LoopEdgeError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        normalized.add((u, v) if u < v else (v, u))
    if len(normalized) < n - 1:
        raise DisconnectedError("graph is not connected")
    sorted_edges = tuple(sorted(normalized))

    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted_edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)

    distances = _all_pairs_bfs(n, adjacency)
    return Graph(n=n, edges=sorted_edges, adjacency=adjacency, distances=distances)


def _bfs(n: int, adjacency: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    """Hop distances from ``source``, one frontier at a time; -1 marks a
    vertex it does not reach."""
    dist = [-1] * n
    dist[source] = 0
    frontier, d = [source], 0
    while frontier:
        d += 1
        reached = []
        for u in frontier:
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = d
                    reached.append(w)
        frontier = reached
    return dist


def _independent_set(n: int, adjacency: tuple[tuple[int, ...], ...]) -> list[int]:
    """Greedy independent set: by ascending degree, then by index, take each
    vertex none of whose neighbours is taken yet."""
    degree = list(map(len, adjacency))
    taken, blocked = [], bytearray(n)
    for v in sorted(range(n), key=degree.__getitem__):
        if not blocked[v]:
            taken.append(v)
            for w in adjacency[v]:
                blocked[w] = 1
    return taken


def _all_pairs_bfs(n: int, adjacency: tuple[tuple[int, ...], ...]) -> tuple[Row, ...]:
    """Distance rows of a connected graph; DisconnectedError if the first
    BFS row misses a vertex.

    BFS runs only from the vertices outside a greedy independent set I, and
    each member of I gets its row from its neighbours' (see
    ``_rows_from_neighbours``).  Each BFS row is converted as soon as it is
    finished, so one list row is alive at a time.  Rows are ``bytes`` until
    a distance reaches 256; that row and every later one are tuples, and the
    rows built so far become tuples too.  Once a BFS row reaches 255, a row
    of I might need 256, so I gets BFS runs as well."""
    independent = _independent_set(n, adjacency)
    inside = set(independent)
    rows: list[Row | None] = [None] * n
    convert, highest = bytes, 0

    def run(sources: list[int]) -> None:
        nonlocal rows, convert, highest
        for source in sources:
            dist = _bfs(n, adjacency, source)
            if highest == 0 and -1 in dist:  # highest is 0 only before the first row
                raise DisconnectedError("graph is not connected")
            highest = max(highest, max(dist))
            try:
                rows[source] = convert(dist)
            except ValueError:  # a distance of 256 or more: no row fits a byte
                convert = tuple
                rows = [row if row is None else tuple(row) for row in rows]
                rows[source] = tuple(dist)

    run([v for v in range(n) if v not in inside])
    if highest < 255:
        _rows_from_neighbours(rows, adjacency, independent)
    else:
        run(independent)
    return tuple(rows)


def _rows_from_neighbours(rows: list, adjacency: tuple[tuple[int, ...], ...],
                          members: list[int]) -> None:
    """Fill the byte row of each member, no two of them adjacent, from the
    rows of its neighbours, whose distances are below 255.

    A shortest path from v to any other vertex leaves v through a neighbour,
    so v's row is one plus the lane-wise least of its neighbours' rows, with
    its own entry 0.  Rows are read as little-endian integers, one byte lane
    per vertex, and compared in all lanes at once (Lamport, *Multiple byte
    processing with full-word instructions*, CACM 1975)."""
    n = len(rows)
    top = int.from_bytes(b"\x80" * n, "little")
    ones = top >> 7
    rest = top - ones  # the low 7 bits of every lane
    for v in members:
        first, *others = adjacency[v]
        least = int.from_bytes(rows[first], "little")
        for w in others:
            b = int.from_bytes(rows[w], "little")
            # the top bit of each lane where least >= b: least's top bit is set
            # and b's is not, or both agree and least's low 7 bits are no less,
            # which (least | top) - (b & rest) shows without borrowing across lanes
            ge = ((least & ~b) | (~(least ^ b) & ((least | top) - (b & rest)))) & top
            least ^= (least ^ b) & (ge | ge - (ge >> 7))  # b in those lanes
        rows[v] = (least + ones - (2 << 8 * v)).to_bytes(n, "little")


def vertex_edge_distance(g: Graph, v: int, edge_idx: int) -> int:
    """Distance from a vertex to an edge: the nearer of the two endpoints."""
    a, b = g.edges[edge_idx]
    row = g.distances[v]
    return min(row[a], row[b])


def edge_edge_distance(g: Graph, e: int, f: int) -> int:
    """Minimum distance over endpoint pairs; 0 iff the edges meet or coincide."""
    a, b = g.edges[e]
    c, d = g.edges[f]
    ra, rb = g.distances[a], g.distances[b]
    return min(ra[c], ra[d], rb[c], rb[d])
