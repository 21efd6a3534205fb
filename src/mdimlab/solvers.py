"""Exact solvers for metric, edge metric, and mixed metric dimension.

A vertex set W resolves a universe of elements when the distance vectors
from the elements to W are pairwise distinct.  The three dimensions use
three universes: all vertices (dim), all edges (edim), and vertices plus
edges (mdim).  ``is_resolving``, ``is_edge_resolving`` and
``is_mixed_resolving`` share one test: one row of distances per witness
vertex, and the universe is resolved when the columns are pairwise distinct.

Every minimum search runs on one core that treats a resolving set as a
hitting set (Khuller, Raghavachari and Rosenfeld, *Landmarks in graphs*,
1996).  Each pair of universe elements has a separator mask, the bitmask
of vertices at different distances from the two, and W resolves exactly
when it meets every separator mask.  The masks are built from packed
columns: the distances from one element to all vertices sit in one int,
one field per vertex, each field wide enough for the graph's diameter.
The xor of two columns is nonzero in exactly the fields of the separating
vertices.  Only the inclusion-minimal masks are kept.

Masks that share no vertex, even through other masks, form independent
groups: a minimum hitting set is one minimum hitting set per group, and
the lexicographically smallest one is the union of the groups' smallest.
Each group is searched alone.

The search of a group picks vertices in increasing order, depth first,
for k = L, L + 1, ... where L counts pairwise disjoint masks.  Its
pruning loses no solution: a pick must lie at or below the last vertex
of every open mask (the last chance to hit it), must hit an open mask (at
the minimum k a pick hitting none would leave a smaller resolving set),
and the final pick must hit every open mask; a branch ends when more
open masks are pairwise disjoint above the next pick than picks are
left.  A group's hitting sets therefore come out in lexicographic order,
the first one found is its smallest, and repeated runs are
byte-identical.  The walk yields them lazily and ends with the first
cardinality that has one: a solve takes the first set of each group, and
phi drains the same walks, so every metric basis of S(G) is one set from
each group and no cardinality is walked twice.

A partial set's open masks, those it does not meet yet, are one int of
mask ids, so a pick is one AND with the ids of the masks the picked vertex
misses.

For mdim, the forced vertices (Kelenc, Kuziak, Taranenko and Yero, *Mixed
metric dimension of graphs*, 2017) lie in every mixed resolving set; when
they resolve the graph on their own they are the unique minimum, and no
masks are built.

The budget counts search nodes: every partial set the search visits,
the empty set of each cardinality included.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain, compress, count, product
from typing import Iterable, Iterator, Sequence

from .errors import (
    EnumerationOverflowError,
    GraphError,
    NotABasisError,
    SearchBudgetExceededError,
)
from .graph import Graph, MixedElement, mixed_distance
from .transforms import DerivedGraph

DIM = "dim"
EDIM = "edim"
MDIM = "mdim"
KINDS = (DIM, EDIM, MDIM)

DEFAULT_BUDGET = 10**8
DEFAULT_PHI_CAP = 10**7


@dataclass(frozen=True)
class SolveStats:
    """How a minimum was found: search nodes visited, separator masks kept
    after dropping non-minimal ones, and the cardinality the search started
    from.  The mdim forced-set shortcut builds no masks and visits no node."""

    search_nodes: int
    masks_kept: int
    lower_bound: int


@dataclass(frozen=True)
class Certificate:
    """A verified minimum resolving set of the given kind."""

    kind: str
    vertices: tuple[int, ...]
    value: int
    forced: tuple[int, ...] = ()
    stats: SolveStats | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PhiResult:
    """Minimum footprint in G over all metric bases of the subdivision graph."""

    phi_value: int
    bases_enumerated: int
    witness_basis: tuple[int, ...]
    witness_phi_set: tuple[int, ...]


def signature(g: Graph, x: MixedElement, witness: Sequence[int]) -> tuple[int, ...]:
    """Distance vector from element x to the witness vertices, in their order."""
    if not witness:
        raise GraphError("witness set must be nonempty")
    return tuple(mixed_distance(g, x, w) for w in witness)


def _resolves(g: Graph, kind: str, witness: Iterable[int]) -> bool:
    """True iff the witness gives the elements of the kind's universe pairwise
    distinct distance vectors.  One row per witness vertex: its distances to
    the universe, vertices first, then edges, as in ``_universe_columns``."""
    ws = sorted(set(witness))
    if not ws:
        raise GraphError("witness set must be nonempty")
    if ws[0] < 0 or ws[-1] >= g.n:
        raise GraphError("witness contains a vertex outside 0..n-1")
    rows = []
    for w in ws:
        dw = g.distances[w]
        edges = [] if kind == DIM else [min(dw[a], dw[b]) for a, b in g.edges]
        rows.append(edges if kind == EDIM else [*dw, *edges])
    return len(set(zip(*rows))) == len(rows[0])


def is_resolving(g: Graph, witness: Iterable[int]) -> bool:
    """True iff every pair of vertices gets distinct distance vectors to W."""
    return _resolves(g, DIM, witness)


def is_edge_resolving(g: Graph, witness: Iterable[int]) -> bool:
    """True iff every pair of edges gets distinct distance vectors to W."""
    return _resolves(g, EDIM, witness)


def is_mixed_resolving(g: Graph, witness: Iterable[int]) -> bool:
    """True iff all vertices and edges get pairwise distinct vectors to W."""
    return _resolves(g, MDIM, witness)


def forced_vertices_mdim(g: Graph) -> tuple[int, ...]:
    """Vertices with a maximal neighbor; they lie in every mixed resolving set."""
    closed = [frozenset(g.adjacency[v]) | {v} for v in range(g.n)]
    forced = []
    for v in range(g.n):
        if any(closed[v] <= closed[u] for u in g.adjacency[v]):
            forced.append(v)
    return tuple(forced)


def _universe_columns(g: Graph, kind: str) -> list[Sequence[int]]:
    """Per-element distances to every vertex, over the kind's universe, each
    of the distance rows' type."""
    d = g.distances
    if kind == DIM:
        return list(d)
    row = type(d[0])
    edges = [row(map(min, d[a], d[b])) for a, b in g.edges]
    return edges if kind == EDIM else list(d) + edges


def _mask_order(m: int) -> tuple[int, int]:
    return m.bit_count(), m


# binary digits to one 0/1 byte per bit, and back
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _separator_masks(g: Graph, kind: str) -> list[int]:
    """Inclusion-minimal separator masks of the kind's universe, smallest first."""
    diameter = max(map(max, g.distances))
    code = next(c for c in "BHIQ" if diameter < 1 << 8 * struct.calcsize(f"<{c}"))
    step = struct.calcsize(f"<{code}")
    width = 8 * step
    low = int.from_bytes((b"\x01" + bytes(step - 1)) * g.n, "little")  # bit 0 of every field
    high = low << (width - 1)
    rest = high - low  # the other width - 1 bits of every field

    # little-endian, one field per vertex: bytes rows (diameter below 256)
    # are that already, and only tuple rows are packed
    packed = _universe_columns(g, kind)
    if step > 1:
        pack = struct.Struct(f"<{g.n}{code}").pack
        packed = [pack(*c) for c in packed]
    columns = [int.from_bytes(c, "little") for c in packed]
    fields = set()
    for i, a in enumerate(columns):
        # a field of a ^ b is nonzero iff adding `rest` to its low bits
        # carries into the top bit, or the top bit is already set
        fields.update([((((x := a ^ b) & rest) + rest) | x) & high for b in columns[i + 1:]])
    # the field tops keep the vertex order, so subsets and order carry over;
    # every pending field of the least size is minimal, and its supersets go
    pending, kept = sorted(fields, key=int.bit_count), []
    while pending:
        cut = bisect_right(pending, pending[0].bit_count(), key=int.bit_count)
        layer, pending = pending[:cut], pending[cut:]
        kept += layer
        for least in layer:
            pending = [f for f in pending if f & least != least]
    kept.sort(key=_mask_order)
    # one 0/1 byte per vertex, read as a binary numeral with vertex 0 last
    flags = ((f >> (width - 1)).to_bytes(step * g.n, "little")[::step] for f in kept)
    return [int(f.translate(_TO_DIGITS)[::-1], 2) for f in flags]


def _packing(masks: Iterable[int], above: int = -1) -> int:
    """Greedy count of masks pairwise disjoint on the vertices in ``above``;
    each of them needs its own pick."""
    used = count = 0
    for m in masks:
        m &= above
        if not m & used:
            used |= m
            count += 1
    return count


def _components(masks: list[int]) -> list[list[int]]:
    """Masks grouped by shared vertices, transitively.  Groups have disjoint
    vertex sets, so a minimum hitting set is a union of one minimum hitting
    set per group, and the lexicographically smallest one is the union of
    the groups' smallest ones."""
    groups: list[tuple[int, list[int]]] = []
    for m in masks:
        union, members, apart = m, [m], []
        for group in groups:
            if group[0] & m:
                union |= group[0]
                members += group[1]
            else:
                apart.append(group)
        groups = apart + [(union, members)]
    return [sorted(members, key=_mask_order) for _, members in groups]


def _index(masks: list[int]) -> tuple[list[int], list[int], list[int]]:
    """The masks' vertices, ascending, and for the j-th of them the ids
    (positions in ``masks``) of the masks that hold it, ``hits[j]``, and of
    those it is the last vertex of, ``ends[j]``."""
    union = 0
    for m in masks:
        union |= m
    n = union.bit_length()
    verts = [v for v in range(n) if union >> v & 1]
    # row i from the end is mask i in binary, so column n - 1 - v, read
    # down, is the ids of the masks that hold v in binary
    digits = "".join([format(m, f"0{n}b") for m in reversed(masks)])
    ends = [0] * len(verts)
    for i, m in enumerate(masks):
        ends[bisect_left(verts, m.bit_length() - 1)] |= 1 << i
    return verts, [int(digits[n - 1 - v::n], 2) for v in verts], ends


class _Search:
    """Depth-first hitting-set search of one group of masks; every visited
    partial set costs one node of the shared budget.  Open masks are one
    int of ids in the group's order, and ``_packing`` reads them in that
    order."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nodes = 0

    def _visit(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceededError(self.nodes, self.budget)

    def minimum_sets(self, masks: list[int]) -> Iterator[tuple[int, ...]]:
        """Every minimum set meeting all masks, in lexicographic order.  The
        walk tries k = L, L + 1, ... and ends after the first k that has a
        set; one vertex from each mask meets every mask, so that k comes."""
        group = (masks, *_index(masks))
        for k in count(max(1, _packing(masks))):
            self._visit()
            found = ()
            for found in self._extend(group, (1 << len(masks)) - 1, 0, k, ()):
                yield found
            if found:
                return

    def _extend(self, group: tuple, open_ids: int, start: int, left: int,
                picked: tuple) -> Iterator[tuple]:
        """The sets of ``left`` more picks, from position ``start`` on, that
        meet every open mask; ``group`` is the masks and their ``_index``."""
        masks, verts, hits, ends = group
        # the next pick is the vertex at position start or later, and no
        # later than the last vertex of any open mask, since later picks
        # only grow; each open mask ends at or after start, since the
        # last pick, at start - 1, came no later and missed it
        end = start
        while not open_ids & ends[end]:
            end += 1
        if left == 1:
            for j in range(start, end + 1):
                if hits[j] & open_ids == open_ids:
                    self._visit()
                    yield picked + (verts[j],)
            return
        # no mask holds a vertex between the last pick and verts[start]
        flags = bin(open_ids)[:1:-1].encode().translate(_TO_FLAGS)
        if _packing(compress(masks, flags), -1 << verts[start]) > left:
            return
        for j in range(start, end + 1):
            if hits[j] & open_ids:
                self._visit()
                rest = open_ids & ~hits[j]
                if rest and left > 2:
                    yield from self._extend(group, rest, j + 1, left - 1, picked + (verts[j],))
                elif rest:
                    # the last pick, as at left == 1 but made in this
                    # loop: the walk's most numerous level then starts
                    # no generator of its own
                    last = j + 1
                    while not rest & ends[last]:
                        last += 1
                    for i in range(j + 1, last + 1):
                        if hits[i] & rest == rest:
                            self._visit()
                            yield picked + (verts[j], verts[i])


def solve_dimension(g: Graph, kind: str, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Minimum resolving set of the given kind, lexicographically smallest.

    Budget counts search nodes across the whole search and raises
    SearchBudgetExceededError when exhausted.
    """
    if kind not in KINDS:
        raise GraphError(f"unknown kind {kind!r}")
    forced: tuple[int, ...] = ()
    if kind == MDIM:
        forced = forced_vertices_mdim(g)
        if forced and is_mixed_resolving(g, forced):
            stats = SolveStats(search_nodes=0, masks_kept=0, lower_bound=len(forced))
            return Certificate(kind=kind, vertices=forced, value=len(forced), forced=forced,
                               stats=stats)
    masks = _separator_masks(g, kind)
    parts = _components(masks)
    search = _Search(budget)
    # with no pair to separate, any single vertex resolves
    witness = tuple(sorted(v for part in parts for v in next(search.minimum_sets(part)))) or (0,)
    stats = SolveStats(search_nodes=search.nodes, masks_kept=len(masks),
                       lower_bound=max(1, sum(map(_packing, parts))))
    return Certificate(kind=kind, vertices=witness, value=len(witness), forced=forced, stats=stats)


def phi_set(sg: DerivedGraph, vertex_set: Iterable[int]) -> tuple[int, ...]:
    """Original vertices in the set, plus both endpoints of every split edge in it."""
    out = set()
    for v in vertex_set:
        if v >= sg.base_n:
            # in S(G) the neighbors of a split vertex are its base edge's endpoints
            out.update(sg.graph.adjacency[v])
        else:
            out.add(v)
    if any(v >= sg.base_n for v in out):
        raise GraphError("split vertex adjacent to a non-original vertex; not a subdivision graph")
    return tuple(sorted(out))


def phi_of_basis(sg: DerivedGraph, basis: Iterable[int]) -> tuple[int, ...]:
    """phi of a resolving set of the subdivision graph; NotABasisError otherwise."""
    bs = tuple(sorted(set(basis)))
    if not is_resolving(sg.graph, bs):
        raise NotABasisError(f"{bs} is not a resolving set of the subdivision graph")
    return phi_set(sg, bs)


def phi_of_graph(sg: DerivedGraph, cap: int = DEFAULT_PHI_CAP,
                 budget: int = DEFAULT_BUDGET) -> PhiResult:
    """Enumerate every metric basis of the subdivision graph ``sg`` = S(G)
    and minimize the phi footprint in G.

    Raises EnumerationOverflowError when the count of candidate k-subsets
    of V(S(G)) exceeds the cap, with k = dim(S(G)).  Search nodes of the
    minimum search and of the enumeration both count against the budget.
    """
    parts = _components(_separator_masks(sg.graph, DIM))
    search = _Search(budget)
    walks = [search.minimum_sets(part) for part in parts]
    firsts = [next(walk) for walk in walks]
    total = math.comb(sg.graph.n, sum(map(len, firsts)))
    if total > cap:
        raise EnumerationOverflowError(total, cap)

    # every metric basis is one minimum hitting set per mask group
    choices = [[first, *walk] for first, walk in zip(firsts, walks)]
    bases = (tuple(sorted(chain(*combo))) for combo in product(*choices))
    best_basis = min(bases, key=lambda b: (len(phi_set(sg, b)), b))
    best_phi = phi_set(sg, best_basis)
    return PhiResult(
        phi_value=len(best_phi),
        bases_enumerated=math.prod(map(len, choices)),
        witness_basis=best_basis,
        witness_phi_set=best_phi,
    )
