"""Immutable simple connected graphs with canonical indexing and distance primitives.

Vertices are integers 0..n-1.  Edges are stored as a lexicographically
sorted tuple of pairs (u, v) with u < v; the position of a pair in that
tuple is the edge's index, which is stable across runs and used by every
downstream provenance map.  All-pairs hop distances are computed eagerly
at construction and shared read-only, so distance queries are table
lookups.  One BFS, from vertex 0, gives a BFS tree; a vertex on one of
its bridges or cycle blocks, found by one walk of the rings that its
other edges close, takes its row from the block's top vertex's row by a
few big-int sums, and every other vertex runs BFS, so a tree or a cactus
of any size takes one BFS.  Rows are read with one lane per vertex, of
one byte, or two where twice vertex 0's eccentricity needs them, and a
graph of more than 32,768 vertices is refused before its first BFS.
Input graphs go through ``build_graph``, which normalises and checks an
edge list.  The subdivision, middle and total graphs of ``transforms``
are built as ``Graph`` directly, valid by construction, and take no BFS:
their tables are read off the base graph's table and its vertex-edge and
edge-edge blocks, d(x, e) and d(e, f) (``_table_from_base``).  A graph
computes each block once, on first use, as one flat sequence of rows
(``Graph._vertex_edge`` and ``Graph._edge_edge``), and keeps it while it
lives, so S, M and T, the solvers' edge columns and the resolving tests
read one copy.  It also keeps the vertex-edge block laid out vertex by
vertex (``Graph._vertex_major``), so a derived vertex row and an
edge-edge row slice it contiguously, and the derived split rows that
M(G) and T(G) share (``Graph._shared``).  The two ends of an
edge have rows that differ by at most one in every lane, so each block
row is a lane-wise floor average (``_floor_means``).  All arithmetic is
exact integer hop counts.

A disconnected input is rejected after at most one BFS: fewer than n - 1
distinct edges fail before any table is allocated, and otherwise the first
BFS row must reach every vertex.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Iterable, Iterator

from .errors import DisconnectedError, GraphError, LoopEdgeError, TooSmallError


Row = bytes | tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph.  :func:`build_graph` makes one from
    any edge list; ``transforms`` builds derived graphs field by field, in
    the same canonical form.

    ``distances[u][v]`` is the hop distance from u to v.  Every row is
    ``bytes`` (one byte per entry) when the diameter is below 256, and every
    row is a tuple of ints below 32,768 otherwise (``_all_pairs_bfs``); rows
    are only indexed and iterated, so the two read alike.

    The vertex-edge and edge-edge blocks of the metric, and the pieces that
    the graphs derived from this one share, are computed on first use and
    kept in the instance's ``__dict__``, so they die with it; equality and
    hashing see only the fields."""

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

    @cached_property
    def _vertex_edge(self) -> bytes | tuple[int, ...]:
        """d(x, e_j) = min(d(x, a), d(x, b)) for every vertex x and edge
        e_j = ab, as one flat sequence of m rows of n entries, of the type
        of the distance rows: edge j's row is ``blob[n * j:n * j + n]`` and
        vertex x's column ``blob[x::n]``."""
        d, n = self.distances, self.n
        if isinstance(d[0], bytes):
            rows = [int.from_bytes(row, "little") for row in d]
            return _joined(_floor_means(((rows[a], rows[b]) for a, b in self.edges), n), n, self.m)
        return tuple(chain.from_iterable(map(min, d[a], d[b]) for a, b in self.edges))

    @cached_property
    def _vertex_major(self) -> bytes:
        """For byte rows only, ``_vertex_edge`` laid out vertex by vertex: n
        rows of m bytes, vertex x's row ``blob[m * x:m * x + m]`` holding
        d(x, e_j) for every edge j, built once from the n strided columns."""
        blob, n = self._vertex_edge, self.n
        return b"".join([blob[x::n] for x in range(n)])

    @cached_property
    def _edge_edge(self) -> bytes:
        """For byte rows only, d(e_j, e_k) for every pair of edges, 0 where
        they meet, as one blob of m rows of m bytes: edge j = ab's row is the
        lane-wise least of the rows of a and b in ``_vertex_major``."""
        blob, m = self._vertex_major, self.m
        rows = [int.from_bytes(blob[i:i + m], "little") for i in range(0, len(blob), m)]
        return _joined(_floor_means(((rows[a], rows[b]) for a, b in self.edges), m), m, m)

    @cached_property
    def _shared(self) -> dict:
        """Pieces of the graphs derived from this one that depend on it
        alone, keyed by what they are, built by the first derivation that
        needs them and kept while this graph lives (``_table_from_base``,
        ``transforms._derive``)."""
        return {}


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
    # already increasing: w's lower neighbours come from the edges (u, w),
    # which sort before the edges (w, v) that give its higher ones
    adjacency = tuple(map(tuple, neighbors))
    return Graph(n=n, edges=sorted_edges, adjacency=adjacency,
                 distances=_all_pairs_bfs(n, adjacency))


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


def _all_pairs_bfs(n: int, adjacency: tuple[tuple[int, ...], ...]) -> tuple[Row, ...]:
    """Distance rows of a connected graph; DisconnectedError if the first
    BFS row, from vertex 0, misses a vertex.

    That row gives a BFS tree, whose tree edges are bridges, lie on cycle
    blocks, or lie in larger blocks (``_rings``).  Around a cycle block
    p = w0, ..., w(L-1) from its top vertex p, each x hangs off the ring
    vertex w whose part holds it (w's subtree less its ring child's, p's
    part everything else), so d(wk, x) = d(p, x) + d_ring(wk, w) - d_ring(p, w).
    A step around the ring adds one to every lane, takes two off the lanes
    of the L // 2 parts ahead and, for odd L, one off the part opposite: a
    few big-int sums per row (``_around``).  A bridge (p, c) is the ring
    p, c.  A vertex whose tree edge lies in a larger block runs BFS, and
    rows below it are read from its row, so a tree or a cactus takes one BFS.

    Every distance is at most twice vertex 0's eccentricity, which sets
    the lanes: one byte below 256, two otherwise (``_read_rows``), which
    hold every distance of a graph of at most 32,768 vertices; a larger
    one, whose table would hold 10^9 entries, is refused before any BFS."""
    if n > 1 << 15:
        raise GraphError(f"graph has {n} vertices, more than the 32768 whose distances are tabled")
    first = _bfs(n, adjacency, 0)
    if -1 in first:
        raise DisconnectedError("graph is not connected")
    return _read_rows(n, adjacency, first, 1 if 2 * max(first) < 256 else 2)


def _read_rows(n: int, adjacency: tuple[tuple[int, ...], ...], dist: list[int],
               width: int) -> tuple[Row, ...]:
    """The rows of ``_all_pairs_bfs`` read around the bridges and rings of
    the BFS tree that the row ``dist`` of its root gives, each a
    little-endian int of n lanes of ``width`` bytes, one or two, while it
    is read.  At one byte the rows are ``bytes`` as they stand.  Two-byte
    rows become ``bytes`` of their low bytes when no distance in the table
    reaches 256, and tuples of ints otherwise, so the diameter alone sets
    the row type.  Each row is checked for such a distance as it is made:
    a BFS row by its largest entry, a row read as an int by its lanes'
    higher bytes."""
    order = sorted(range(n), key=dist.__getitem__)
    parent, owner, rings, block = _rings(adjacency, dist, settle=True)
    subtree = [1 << v for v in range(n)]
    for c in reversed(order[1:]):  # children before their parents
        subtree[parent[c]] |= subtree[c]

    def parts(arm: list[int]) -> list[int]:
        # a ring vertex's part is its subtree less its ring child's, the one before it
        below = [0, *map(subtree.__getitem__, arm)]
        return [_lanes(subtree[x] - b, width) for x, b in zip(arm, below)]

    shape = struct.Struct(f"<{n}{'BH'[width - 1]}")  # n lanes of width bytes
    pack = bytes if width == 1 else lambda row: shape.pack(*row)
    rows = [b""] * n
    rows[order[0]] = pack(dist)
    wide = max(dist) > 255
    ones = int.from_bytes(b"\x01".ljust(width, b"\0") * n, "little")
    high = ones * ((1 << 8 * width) - 256)  # every byte of a lane but its lowest
    for v in order[1:]:
        if rows[v]:
            continue
        i = owner[v]
        if i < 0:  # the ring of the bridge (p, v) has length 2: take two off v's part
            row = int.from_bytes(rows[parent[v]], "little") + ones - (_lanes(subtree[v], width) << 1)
            rows[v], subtree[v] = row.to_bytes(width * n, "little"), 0  # one mask fewer alive
            wide = wide or (row & high) > 0
        elif block[i] >= 0:
            row = _bfs(n, adjacency, v)
            rows[v] = pack(row)
            wide = wide or max(row) > 255
        else:
            u, w, p = rings[i]
            down, up = _climb(parent, u, p), _climb(parent, w, p)
            walk = _around(int.from_bytes(rows[p], "little"), parts(down)[::-1] + parts(up), ones)
            for x, row in zip(down[::-1] + up, walk):
                rows[x], subtree[x] = row.to_bytes(width * n, "little"), 0
                wide = wide or (row & high) > 0
    if width > 1:
        rows = [shape.unpack(row) if wide else row[::width] for row in rows]
    return tuple(rows)


def _climb(parent: list[int], x: int, top: int) -> list[int]:
    """x and its tree ancestors below ``top``, from x up."""
    path = []
    while x != top:
        path.append(x)
        x = parent[x]
    return path


def _around(row: int, parts: list[int], ones: int) -> Iterator[int]:
    """The rows of w1, ..., w(L-1) around a ring from w0, whose row is
    ``row``, given the lane ints of the parts of w1 to w(L-1)."""
    size = len(parts) + 1
    half, odd = size // 2, size % 2
    parts = [ones - sum(parts), *parts] * 2
    window = sum(parts[1:half + 1])  # the parts ahead of w0
    for k in range(size - 1):
        if k:
            window += parts[k + half] - parts[k]
        row += ones - (window << 1) - (parts[k + half + 1] if odd else 0)
        yield row


# binary digits, least significant first, to a byte of 1 per bit that is set
_TO_ONES = bytes.maketrans(b"01", b"\x00\x01")


def _lanes(mask: int, width: int) -> int:
    """An n-bit mask as a little-endian int with a lane of ``width`` bytes
    per bit, holding 1 where the bit is set."""
    ones = bin(mask)[:1:-1].encode().translate(_TO_ONES)
    if width > 1:
        wide = bytearray(width * len(ones))
        wide[::width] = ones
        ones = wide
    return int.from_bytes(ones, "little")


def _rings(adjacency: tuple[tuple[int, ...], ...], depth: list[int], settle: bool = False
           ) -> tuple[list[int], list[int], list[tuple[int, int, int]], list[int]]:
    """The BFS tree that a BFS row ``depth`` gives, each vertex's parent its
    first neighbour one step nearer the source, and the rings that the edges
    (u, v), u < v, outside it close, in their order: up from u and v to
    where they meet.  A ring that shares no tree edge with another is a
    cycle block (a cycle through a path outside it would be a sum of rings,
    one sharing its tree edges).  ``owner[x]`` is the first ring through the
    tree edge above x, or -1.  A union-find joins the rings that share an
    edge; a class's root is its last ring, whose walk ended at the class's
    top vertex, and a walk jumps from an owned edge to that top, so no edge
    is walked twice.  Ring i is (u, v, the vertex its walk ended at, the
    common ancestor unless it met another), and ``block[i]`` its class, or
    -1 if it shares no edge.  With ``settle`` the walk stops once every tree
    edge but the bridges outside the 2-core, peeled when a ring first meets
    another, lies in a class of two or more rings, which no later ring undoes."""
    n = len(adjacency)
    parent = list(range(n))
    for v, d in enumerate(depth):
        for w in adjacency[v]:
            if depth[w] < d:
                parent[v] = w
                break
    owner, root, rings = [-1] * n, [], []
    lone = {}  # the rings that met no other, to the tree edges each owns
    loose, peeled = n - 1, not settle  # tree edges on no ring or on a lone one
    closing = ((u, v) for u in range(n) for v in adjacency[u]
               if u < v and parent[v] != u and parent[u] != v)
    for u, v in closing:
        i, x, y, met, new = len(rings), u, v, [], 0
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            j = owner[x]
            if j < 0:
                owner[x], x, new = i, parent[x], new + 1
                continue
            while root[j] != j:
                root[j] = j = root[root[j]]
            met.append(j)
            x = rings[j][2]
        rings.append((u, v, x))
        root.append(i)
        if not met:
            lone[i] = new
            continue
        if not peeled:  # one bridge outside the 2-core per vertex outside it; no cactus gets here
            loose, peeled = loose - _outside_core(adjacency), True
        loose -= new
        for j in met:
            loose -= lone.pop(j, 0)
            root[j] = i
        if settle and not loose:
            break
    block = []
    for j in range(len(rings)):
        while root[j] != j:
            root[j] = j = root[root[j]]
        block.append(-1 if j in lone else j)
    return parent, owner, rings, block


def _outside_core(adjacency: tuple[tuple[int, ...], ...]) -> int:
    """How many vertices of a graph other than a tree lie outside its 2-core."""
    degree = list(map(len, adjacency))
    peel = [v for v, d in enumerate(degree) if d == 1]
    for v in peel:
        for w in adjacency[v]:
            degree[w] -= 1
            if degree[w] == 1:
                peel.append(w)
    return len(peel)


def _floor_means(pairs: Iterable[tuple[int, int]], width: int) -> Iterator[int]:
    """For each pair of little-endian integers with ``width`` byte lanes
    whose lanes differ by at most one, as the rows of two adjacent vertices
    do, their lane-wise least.  That is the floor of the mean,
    (x & y) + ((x ^ y) >> 1) lane by lane, where masking each lane's top bit
    drops the low bit that the shift moves in from the lane above, and no
    lane carries, since the sum is at most the larger entry."""
    low = int.from_bytes(b"\x7f" * width, "little")
    for x, y in pairs:
        yield (x & y) + ((x ^ y) >> 1 & low)


def _joined(rows: Iterable[int], width: int, count: int) -> bytes:
    """``count`` rows, each a little-endian int of ``width`` byte lanes, as
    one blob; written in place, so no list of row objects is held."""
    out = bytearray(width * count)
    for i, row in enumerate(rows):
        out[width * i:width * i + width] = row.to_bytes(width, "little")
    return bytes(out)


def _edge_rows(g: Graph) -> list[Row]:
    """One row per edge j = ab of g: d(v, e_j) = min(d(v, a), d(v, b)) for
    every vertex v, of the type of g's rows, read off ``g._vertex_edge``."""
    blob, n = g._vertex_edge, g.n
    return [blob[i:i + n] for i in range(0, len(blob), n)]


@cache
def _affine_maps(scale: int, offsets: tuple[int, ...]
                 ) -> tuple[tuple[bytes, ...], tuple[bytes | None, ...]]:
    """Per offset of the maps d -> scale * d + offset, the base distances
    that it takes to a byte, and its translate table.  The first table, of
    d(x, y), sends 0 to 0, since a vertex's own entry is the only 0 in its
    row, and is None when it maps every byte to itself."""
    fits = tuple(bytes(range((255 - b) // scale + 1)) for b in offsets)
    vertex, *tables = (bytes(min(scale * d + b, 255) for d in range(256)) for b in offsets)
    vertex = b"\0" + vertex[1:]
    return fits, (None if vertex == bytes(range(256)) else vertex, *tables)


def _blocks_fit(base: Graph, fits: tuple[bytes, ...]) -> bool:
    """Whether base's blocks d(x, y), d(x, e) and d(e, f) hold only the
    distances that their maps take to a byte (``fits``, from
    ``_affine_maps``).  Their largest entries fall from block to block,
    d(e, f) <= d(x, e) <= d(x, y) <= 2 ecc(0), so a block is scanned only
    when the bound known from the block before it, or 2 ecc(0) for the
    first, is past its own; on most graphs none is."""
    reach = 2 * max(base.distances[0])
    blocks = (lambda: base.distances, lambda: (base._vertex_edge,), lambda: (base._edge_edge,))
    for keep, block in zip(fits, blocks):
        if reach >= len(keep):
            # deleting the distances that fit leaves a byte only in a row holding one too large
            if any(row.translate(None, keep) for row in block()):
                return False
            reach = len(keep) - 1
    return True


def _table_from_base(base: Graph, scale: int, offsets: tuple[int, int, int],
                     shared: bool) -> tuple[bytes, ...] | None:
    """The byte rows of a graph on base's vertices and then one vertex per
    base edge, whose distances are scale * d + offset with the offsets of
    three blocks: d(x, y), d(x, e) and d(e, f) for base vertices x, y and
    base edges e != f; or None when base's rows are not bytes or a block
    holds a distance that its own map takes past 255 (``_blocks_fit``).

    Row x of a base vertex is its base row, then its row of base's
    vertex-major vertex-edge block (``Graph._vertex_major``), each mapped
    by its translate table; the vertex map keeps the own entry 0, and
    where it is the identity, as in T(G), the base row is used as it
    stands.  Row n + j, of base edge e_j, is its row of base's vertex-edge
    block, then its row of base's edge-edge block (``Graph._vertex_edge``
    and ``Graph._edge_edge``), each translated whole, the diagonal of the
    second, the own entries, zeroed at once.  The split rows depend only
    on the two maps, so when another derived graph maps both blocks alike
    (``shared``, as M(G) and T(G) do) base keeps them (``Graph._shared``)
    and both hold the same row objects; S(G)'s are not kept.
    ``transforms.check_distance_identities`` compares BFS rows with these
    rows, or with ``_mapped_rows`` where they are None."""
    fits, (vertex_map, split_map, pair_map) = _affine_maps(scale, offsets)
    rows, m = base.distances, base.m
    if not isinstance(rows[0], bytes) or not _blocks_fit(base, fits):
        return None
    splits = base._shared.get((split_map, pair_map)) or _split_rows(base, split_map, pair_map, shared)
    blob = base._vertex_major
    return (*[row.translate(vertex_map) + blob[m * x:m * x + m].translate(split_map)
              for x, row in enumerate(rows)], *splits)


def _mapped_rows(base: Graph, scale: int, offsets: tuple[int, int, int]) -> tuple[tuple[int, ...], ...]:
    """The rows of ``_table_from_base`` as tuples, each distance mapped on
    its own, so for either row type and past a byte.  Row x is base row x
    and then vertex x's column of ``Graph._vertex_edge``; row n + j is edge
    j's row of that block and then the lane-wise least of the columns of
    its ends, d(e_j, e_k).  An entry takes the offset of as many splits as
    it joins, and own entries are 0."""
    n, blob = base.n, base._vertex_edge
    columns = [blob[x::n] for x in range(n)]  # d(x, e_k) for every edge k
    heads = (*base.distances, *_edge_rows(base))
    tails = (*columns, *(map(min, columns[a], columns[b]) for a, b in base.edges))
    rows = []
    for i, (head, tail) in enumerate(zip(heads, tails)):
        near, far = offsets[i >= n], offsets[1 + (i >= n)]
        row = [scale * d + near for d in head] + [scale * d + far for d in tail]
        row[i] = 0
        rows.append(tuple(row))
    return tuple(rows)


def _split_rows(base: Graph, split_map: bytes, pair_map: bytes, shared: bool) -> tuple[bytes, ...]:
    """Row n + j of ``_table_from_base`` for every base edge e_j, kept in
    ``base._shared`` when ``shared``; the translated blocks are freed on
    return, before any vertex row is built."""
    n, m = base.n, base.m
    heads, tails = base._vertex_edge.translate(split_map), bytearray(base._edge_edge.translate(pair_map))
    tails[::m + 1] = bytes(m)  # each split's own entry
    rows = tuple([heads[n * j:n * j + n] + tails[m * j:m * j + m] for j in range(m)])
    if shared:
        base._shared[split_map, pair_map] = rows
    return rows


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
