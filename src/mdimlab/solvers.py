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

Every search of a group is one depth-first recursion over partial sets
(``_Search._branch``), for k = L, L + 1, ... where L counts pairwise
disjoint masks.  A partial set's open masks, those it does not meet yet,
are one int of mask ids, so a pick is one AND with the ids of the masks
the picked vertex misses; its allowed vertices are those its branch may
still pick.  A branching rule names the candidates for the next pick.  A
candidate that meets no open mask is skipped, and every candidate, tried,
skipped or cut by symmetry (below), leaves the allowed vertices as the
loop passes it.  A branch ends when more open masks are pairwise disjoint
on the allowed vertices than picks are left, as each needs a pick of its
own.  The greedy count (``_packing``) reads mask ids alone: it counts the
open mask of least id, drops from the open ids that mask and every mask
that holds one of its allowed vertices (the OR of their ids), and repeats
until no id is left or the count passes the picks left.  The last pick is
read off bits (``_completions``): it lies in every open mask, so its
candidates are the allowed vertices in the AND of the two open masks of
least id, the two smallest since a group's masks are in (size, value)
order, and one is kept when the ids of the masks that hold it cover the
open ones.

The walk rule picks vertices in increasing order.  Its candidates are the
window: the allowed vertices up to the least last vertex of any open
mask, read off the bitset of the vertices some mask ends at.  The walk
starts from the union of the group's masks, so on each open mask the
allowed vertices are exactly those above the last pick.  Its pruning
loses no solution: a pick must lie at or below the last vertex of every
open mask (the last chance to hit it), must hit an open mask (at the
minimum k a pick hitting none would leave a smaller resolving set), and
the final pick must hit every open mask.  A group's hitting sets
therefore come out in lexicographic order, the first one found is its
smallest, and repeated runs are byte-identical.  The walk stops at that
first set (``minimum_set``), the one set of each group a solve takes.

To refute a cardinality the walk must visit every increasing prefix its
bounds let through, and most of its nodes go to the cardinalities below
the value.  The existence rule therefore runs first, in every search
(Weihe's set-cover branching, *Covering trains by stations or the power
of data reduction*, ALENEX 1998, without his reductions): for k = L,
L + 1, ... it asks whether at most k vertices meet every mask.  Its
candidates are the allowed vertices of the open mask of least id: the
branch of the i-th picks it and drops those before it from the allowed
vertices.  This loses no set: a set S that meets every open mask holds a
vertex of that mask, and the branch of the least such vertex leaves out
only vertices that S does not hold, so S stays in reach.  As it may pick
in any order, it need not pass every set that sorts before a hitting
set, as the walk must.  One routine finds a group's size
(``_Search.least_size``): the existence search stops at its first set,
or once the group has spent 4 |V(group)| nodes (``_refute_cap``), and
only in that case does the walk run, from the cardinality the existence
search reached, to its first set.  Every cardinality below that one has
no set, and the walk at one cardinality does not depend on the ones
before it, so the walk lists the same sets in the same order as a walk
from L, and its first set is still the group's lexicographically least.
A solve walks at the size only when it has no set yet.  The cap keeps
the existence search cheap where it cannot win: on graphs with many
twins the walk's symmetry pruning (below) cuts far more.

phi needs every minimum set of every group, since every metric basis of
S(G) is one set from each group, and it lists them with the existence
rule (``every_set``).  Per group, a solve's search gives the group's
value k, and its walk may prune, as only the size is kept; once the cap
on candidate bases passes, the existence search runs again at k and
appends every set instead of stopping.  Each hitting set S is reached by
one path.  At a node that S's path reaches, the branch of the least
vertex u of S in the branching mask keeps S in reach, as above.  The
branch of another vertex of S comes after u's and leaves u out, and the
branch of a vertex outside S picks a vertex S lacks, so neither reaches
S.  The listing therefore misses no set and holds none twice, at about
one node per set, where the walk passes every increasing prefix of every
set.  The listing never walks, so it never prunes, and the sets that are
no lex-leader are listed too.  phi's result is a minimum over the tied
bases, so the listing's order does not matter.

For mdim, the forced vertices (Kelenc, Kuziak, Taranenko and Yero, *Mixed
metric dimension of graphs*, 2017) lie in every mixed resolving set, and
they seed the search: masks are built only for the pairs of elements at
equal distances to every forced vertex, and the witness is the forced
vertices plus one minimum set per mask group.  A forced vertex v with a
dominating neighbour u is the whole separator mask of u and the edge uv,
so seeding drops exactly the one-vertex masks {v}; the masks left miss
the forced vertices, so the union stays the lexicographically smallest.
When the forced vertices resolve the graph on their own, no pair is left
and no mask is built.

A solve also prunes by symmetry, with the lex-leader rule (Crawford,
Ginsberg, Luks and Roy, KR 1996; Margot, *Pruning by isomorphism in
branch-and-cut*, Math. Programming 2002).  An automorphism of the graph
maps the separator masks onto themselves, so an involution sigma that
maps a group's vertices onto themselves maps its minimum hitting sets
onto its minimum hitting sets, and the group's lexicographically least
one S* satisfies S* <= sigma(S*).  Sets of one size compare by the least
vertex of their symmetric difference, and the symmetric difference of S
and sigma(S) is the moved pairs (a, sigma(a)) that S holds one end of.
Before visiting a child with picks P, the walk cuts it when, for some
involution, the first such pair of P, a < sigma(a), has sigma(a) in P
and a not in P: the least vertex of P xor sigma(P) lies outside P.  Both
ends are then decided, at most the newest pick.  An earlier pair splits
only in a completion S that adds its undecided sigma(a), with a decided
and left out, which again puts the least vertex outside S.  So
sigma(S) < S for every completion S, and no prefix of S* is ever cut.
The walk is the same walk with some children cut, so it finds the same
set first.  ``_leaders`` finds a node's cut children, as a bitmask,
before its loop, with a few ANDs per involution: every candidate lies
above the picks, so whether its pick is cut depends only on the least
vertex of P xor sigma(P), on whether P holds it, and on where sigma
takes the candidate, which precomputed bitmasks answer for the whole
window at once; only the candidates in sigma(P) are tested one by one.
``_involutions`` takes the swaps of twins, and reads further
involutions off the graph's distance rows, keeping only those that map
every edge onto an edge.  Finding them costs more than the few nodes
they save a short walk, so a walk prunes, from its first node, only
when its group's existence search ran out of its cap, as on graphs with
many twins; a walk after an existence search that found the size never
prunes, and a solve whose existence searches all settle never looks.

The budget counts search nodes: every partial set either rule visits,
the empty set of each cardinality included.  ``SolveStats.refute_nodes``
counts the existence search's share.  A node past the existence search's
cap is not counted: the cap wins over the budget when both run out at
that node, and the walk's first node then counts against the budget.  A
child cut by symmetry is no node; ``SolveStats.symmetry_pruned`` counts
each cut child that meets an open mask when its node's loop reaches it,
and a loop that returns a set reaches no later child.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, count, product
from operator import itemgetter, or_
from typing import Iterable, Sequence

from .errors import (
    EnumerationOverflowError,
    GraphError,
    NotABasisError,
    SearchBudgetExceededError,
)
from .graph import Graph, _edge_rows
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
    after dropping non-minimal ones, the cardinality the search started
    from, the children skipped by symmetry, and the share of the search
    nodes that the existence search spent.  For mdim the masks are those
    the forced vertices leave open, and the starting cardinality counts
    the forced vertices."""

    search_nodes: int
    masks_kept: int
    lower_bound: int
    symmetry_pruned: int
    refute_nodes: int


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


def _rows(g: Graph, kind: str, ws: Sequence[int]) -> list[Sequence[int]]:
    """One row per vertex of ``ws``: its distances to the kind's universe,
    vertices first, then edges, as in ``_universe_columns``.  A vertex w's
    edge distances are column w of g's vertex-edge rows."""
    if kind == DIM:
        return [g.distances[w] for w in ws]
    rows = [g._vertex_edge[w::g.n] for w in ws]
    if kind == MDIM:
        rows = [g.distances[w] + edges for w, edges in zip(ws, rows)]
    return rows


def _resolves(g: Graph, kind: str, witness: Iterable[int]) -> bool:
    """True iff the witness gives the elements of the kind's universe pairwise
    distinct distance vectors."""
    ws = sorted(set(witness))
    if not ws:
        raise GraphError("witness set must be nonempty")
    if ws[0] < 0 or ws[-1] >= g.n:
        raise GraphError("witness contains a vertex outside 0..n-1")
    rows = _rows(g, kind, ws)
    return len(set(zip(*rows))) == len(rows[0])


def _first_removable(g: Graph, witness: Sequence[int], candidates: Iterable[int]) -> int | None:
    """The first of ``candidates``, vertices of the sorted witness W, whose
    removal leaves a nonempty mixed resolving set, or None.  W's rows are
    transposed once, into one key per vertex and edge, and a removal drops
    that vertex's coordinate from every key.  As ``is_mixed_resolving`` of
    W less a candidate would, raises GraphError when that set holds a
    vertex outside 0..n-1."""
    inside = [w for w in witness if 0 <= w < g.n]
    rows = _rows(g, MDIM, inside)
    size = len(rows[0]) if rows else 0
    blob = b"".join(rows) if rows and isinstance(rows[0], bytes) else tuple(chain(*rows))
    keys = [blob[x::size] for x in range(size)]
    for v in candidates:
        if len(witness) == 1:
            continue  # nothing left to test
        if len(witness) - len(inside) > (not 0 <= v < g.n):
            raise GraphError("witness contains a vertex outside 0..n-1")
        # a vertex outside 0..n-1 has no coordinate to drop
        i = bisect_left(inside, v) if 0 <= v < g.n else size
        if len({key[:i] + key[i + 1:] for key in keys}) == size:
            return v
    return None


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
    closed = [{v, *near} for v, near in enumerate(g.adjacency)]
    forced = []
    for v, near in enumerate(g.adjacency):
        mine = closed[v]
        for u in near:
            if mine <= closed[u]:
                forced.append(v)
                break
    return tuple(forced)


def _universe_columns(g: Graph, kind: str) -> list[Sequence[int]]:
    """Per-element distances to every vertex, over the kind's universe, each
    of the distance rows' type."""
    if kind == DIM:
        return list(g.distances)
    edges = _edge_rows(g)
    return edges if kind == EDIM else list(g.distances) + edges


def _mask_order(m: int) -> tuple[int, int]:
    return m.bit_count(), m


# one 0/1 byte per bit to binary digits
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _separator_masks(g: Graph, kind: str, forced: Sequence[int] = ()) -> list[int]:
    """Inclusion-minimal separator masks of the pairs of the kind's universe
    that the forced vertices leave unseparated, smallest first: of every
    pair when there is no forced vertex."""
    classes = None  # every pair
    if forced:
        rows = _rows(g, kind, forced)
        if len(set(zip(*rows))) == len(rows[0]):
            return []  # the forced vertices separate every pair
        # pair only the elements at equal distances to every forced vertex
        by_key: dict[tuple, list[int]] = {}
        for x, key in enumerate(zip(*rows)):
            by_key.setdefault(key, []).append(x)
        classes = [c for c in by_key.values() if len(c) > 1]
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
    fields = set()
    for group in [packed] if classes is None else [[packed[x] for x in c] for c in classes]:
        columns = [int.from_bytes(c, "little") for c in group]
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


def _packing(masks: list[int], byv: list[int], open_ids: int, allowed: int = -1,
             stop: float = math.inf) -> int:
    """Greedy count of open masks pairwise disjoint on the vertices in
    ``allowed``, each of which needs its own pick; ``byv`` is the masks'
    ``_index``.  The open mask of least id is counted, and it and every
    mask that holds one of its allowed vertices leave the open ids, until
    none is left or the count passes ``stop``.  A mask with no allowed
    vertex counts, and leaves alone."""
    count = 0
    while open_ids:
        count += 1
        if count > stop:
            break
        low = open_ids & -open_ids
        open_ids ^= low
        m = masks[low.bit_length() - 1] & allowed
        while m:
            bit = m & -m
            m ^= bit
            open_ids &= ~byv[bit.bit_length() - 1]
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


def _index(masks: list[int]) -> tuple[list[int], list[int], int]:
    """For each vertex v, the ids (positions in ``masks``) of the masks that
    hold it, ``byv[v]``, and of those it is the last vertex of,
    ``ends[v]``, both 0 for a vertex no mask holds; and ``lasts``, the
    bitset of the vertices some mask ends at."""
    n = reduce(or_, masks, 0).bit_length()
    # row i from the end is mask i in binary, so column n - 1 - v, read
    # down, is the ids of the masks that hold v in binary
    digits = "".join([format(m, f"0{n}b") for m in reversed(masks)])
    byv = [int(digits[n - 1 - v::n], 2) for v in range(n)]
    ends = [0] * n
    lasts = 0
    for i, m in enumerate(masks):
        last = m.bit_length() - 1
        ends[last] |= 1 << i
        lasts |= 1 << last
    return byv, ends, lasts


def _completions(masks: list[int], byv: list[int], open_ids: int, allowed: int) -> list[int]:
    """The vertices of ``allowed`` that lie in every open mask, ascending:
    the possible last picks.  Each lies in the two open masks of least id,
    the two smallest, so only the bits of their AND are read."""
    low = open_ids & -open_ids
    other = open_ids ^ low
    both = masks[low.bit_length() - 1] & masks[(other & -other or low).bit_length() - 1]
    both &= allowed
    found = []
    while both:
        u = (both & -both).bit_length() - 1
        both &= both - 1
        if byv[u] & open_ids == open_ids:
            found.append(u)
    return found


def _swapping(g: Graph, u: int, v: int) -> list[int] | None:
    """The automorphism of g that swaps u and v, fixes every vertex at equal
    distances from the two, and keeps each other vertex's distances to the
    fixed ones, or None.  Each moved vertex w goes to the w' whose
    distances to (u, v) are w's swapped; w' must be unique, and the map must
    take every edge at a moved vertex onto an edge (an edge between fixed
    vertices stays put)."""
    rows = g.distances
    same = list(map(int.__eq__, rows[u], rows[v]))
    fixed = list(compress(range(g.n), same))
    moved = [w for w, stays in enumerate(same) if not stays]
    # the rows are symmetric, so row w read at (u, v, fixed...) is w's key;
    # a fixed vertex stays put, and a moved one's key differs from a fixed
    # one's in its first two places, so only moved vertices are keyed
    ahead = [rows[w] for w in moved]
    at = dict(zip(map(itemgetter(u, v, *fixed), ahead), moved))
    if len(at) < len(moved):
        return None  # two vertices alike: an image would not be unique
    sigma = list(range(g.n))
    for w, image in zip(moved, map(at.get, map(itemgetter(v, u, *fixed), ahead))):
        if image is None:
            return None
        sigma[w] = image
    near = g.adjacency
    if all(sigma[b] in near[sigma[a]] for a in moved for b in near[a]):
        return sigma
    return None


def _involutions(g: Graph) -> list[list[int]]:
    """Involutive automorphisms of g, each a permutation of its vertices.
    Twins come first: swapping two vertices with equal open or equal
    closed neighbourhoods is always an automorphism, and each class of
    them gives one transposition per consecutive pair, which generate
    every permutation of the class.  Then vertices with equal sorted
    distance rows are candidates for a swap; each consecutive pair of such
    a class that the swaps found so far do not already join (a union-find
    over their moved pairs) is tried with ``_swapping``."""
    twins: dict[tuple, list[int]] = {}  # keyed by (closed?, neighbourhood)
    rows: dict[tuple, list[int]] = {}
    for v, (near, row) in enumerate(zip(g.adjacency, g.distances)):
        twins.setdefault((False, frozenset(near)), []).append(v)
        twins.setdefault((True, frozenset((v, *near))), []).append(v)
        rows.setdefault(tuple(sorted(row)), []).append(v)
    root = list(range(g.n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    found = []
    for members in twins.values():
        for u, v in zip(members, members[1:]):
            sigma = list(range(g.n))
            sigma[u], sigma[v] = v, u
            found.append(sigma)
            root[find(u)] = find(v)
    for members in rows.values():
        for u, v in zip(members, members[1:]):
            if find(u) == find(v):
                continue
            sigma = _swapping(g, u, v)
            if sigma is not None:
                found.append(sigma)
                for a, b in enumerate(sigma):
                    if a < b:
                        root[find(a)] = find(b)
    return found


def _guard(sigma: list[int]) -> tuple[list[int], int, int, list[int]]:
    """For an involution ``sigma``: the bit of each vertex's image, the
    bitmasks of the vertices it moves and of those it moves down, and for
    each t, the bitmask of the vertices it maps below t."""
    bits = [1 << w for w in sigma]
    moved = down = below_t = 0
    below = []
    for v, w in enumerate(sigma):
        below.append(below_t)
        below_t |= bits[v]  # sigma(v) maps to v, below v + 1
        if w != v:
            moved |= 1 << v
            if w < v:
                down |= 1 << v
    return bits, moved, down, below


def _refute_cap(size: int) -> int:
    """Search nodes the existence search of a group of ``size`` vertices
    spends before the lex walk takes over: enough to refute the levels
    below the value on trees and cacti, and little next to the walk on
    graphs with many twins, where the walk prunes by symmetry and the
    existence search does not."""
    return 4 * size


class _Capped(Exception):
    """The existence search of a group has spent its cap."""


class _Search:
    """Depth-first hitting-set search of one group of masks at a time;
    every visited partial set costs one node of the shared budget.  One
    recursion, ``_branch``, serves every search by one of two branching
    rules: the existence rule refutes the cardinalities below the value,
    up to its cap, and lists phi's minimum sets; the walk rule finds the
    least set.  Given the graph, a walk after a capped existence search
    cuts, from its first node, the children that an involution of the
    graph maps to a smaller set.  Open masks are one int of ids in the
    group's order, which ``_packing`` reads with the index's ``byv``."""

    def __init__(self, budget: int, graph: Graph | None = None):
        self.budget = budget
        self.nodes = 0
        self.symmetry_pruned = 0
        self.refute_nodes = 0
        self.packed = 0  # the sum of the packing bounds the existence searches started from
        self.graph = graph
        self._found: list[list[int]] | None = None  # the graph's involutions
        self._stop = math.inf  # the node count at which the existence search hands over
        self._limit = budget  # the lesser of the budget and the stop
        self._prune = False  # whether the walk cuts by symmetry: its existence search ran out

    def _visit(self) -> None:
        """One node, or ``_Capped`` once the existence search has spent its
        cap, which wins when both run out at once."""
        self.nodes += 1
        if self.nodes > self._limit:
            if self.nodes > self._stop:
                self.nodes -= 1
                raise _Capped
            raise SearchBudgetExceededError(self.nodes, self.budget)

    def _load(self, masks: list[int], index: tuple, walk: bool) -> None:
        """Search ``masks``, whose ``_index`` is ``index``, by the walk rule
        or the existence rule; ``_leaders`` builds a walk's guards anew."""
        self._masks = masks
        self._byv, self._ends, self._lasts = index
        self._walk, self._guards = walk, None

    def least_size(self, masks: list[int], index: tuple) -> tuple[int, tuple[int, ...] | None]:
        """The least number of vertices that meet every one of the
        (nonempty) ``masks``, whose ``_index`` is ``index``, and the walk's
        first set of that size, or None when the existence search found it.

        From the packing bound L on, added to ``packed``, the existence
        search refutes one cardinality after another until it finds a set
        or spends the group's ``_refute_cap``; only then does the walk,
        pruned by symmetry from its first node, try k, k + 1, ... and stop
        at its first set, the one it would find from L, as no smaller set
        exists.  One vertex from each mask meets every mask, so the
        existence search never asks about as many vertices as there are
        masks.
        """
        self._load(masks, index, False)
        before = self.nodes
        self._stop = before + _refute_cap(reduce(or_, masks).bit_count())
        self._limit = min(self.budget, self._stop)
        everything = (1 << len(masks)) - 1
        k = _packing(masks, index[0], everything)
        self.packed += k
        settled = True
        try:
            while k < len(masks):
                self._visit()
                if self._branch(everything, -1, k):
                    break
                k += 1
        except _Capped:
            settled = False
        self._stop, self._limit = math.inf, self.budget
        self.refute_nodes += self.nodes - before
        self._prune = not settled and self.graph is not None  # for the walk after it
        if settled:
            return k, None
        found = self._first(masks, index, k)
        return len(found), found

    def minimum_set(self, masks: list[int]) -> tuple[int, ...]:
        """The lexicographically least minimum set meeting all masks: the
        walk runs at the least size only when ``least_size`` has no set."""
        index = _index(masks)
        k, found = self.least_size(masks, index)
        return found or self._first(masks, index, k)

    def _first(self, masks: list[int], index: tuple, k: int) -> tuple[int, ...]:
        """The walk's first set, trying k, k + 1, ... from ``k``."""
        union = reduce(or_, masks)
        self._load(masks, index, True)
        everything = (1 << len(masks)) - 1
        for k in count(k):
            self._visit()
            found = self._branch(everything, union, k)
            if found:
                return found

    def every_set(self, masks: list[int], index: tuple, k: int) -> list[tuple[int, ...]]:
        """Every set of ``k`` vertices meeting all masks, where no fewer
        meet them, each as the tuple of its vertices in the order the
        existence search picked them; ``index`` is ``_index(masks)``.  Each
        set is reached by one path of the search, so the list holds no set
        twice."""
        self._load(masks, index, False)
        found: list = []
        self._branch((1 << len(masks)) - 1, -1, k, (), found)
        return found

    def _branch(self, open_ids: int, allowed: int, left: int, picked: tuple = (),
                found: list[tuple] | None = None) -> tuple | None:
        """The first set of at most ``left`` vertices of ``allowed`` that
        meets every open mask, ``picked`` followed by its own picks, or
        None: under the existence rule whenever one exists, under the walk
        rule the lexicographically least when ``left`` is the least size.
        Given ``found``, it appends every such set of ``left`` picks
        instead and returns None.  The candidates for the next pick are
        the window of the walk rule or the branching mask of the existence
        rule; a candidate that meets no open mask is skipped, and each
        candidate leaves ``allowed`` as the loop passes it."""
        masks, byv = self._masks, self._byv
        if left == 1:  # k = 1: the first pick is the last
            for u in _completions(masks, byv, open_ids, allowed):
                self._visit()
                if found is None:
                    return picked + (u,)
                found.append(picked + (u,))
            return None
        if _packing(masks, byv, open_ids, allowed, left) > left:
            return None
        cut = 0
        if self._walk:
            # the window: the next pick is an allowed vertex no later than
            # the last vertex of any open mask, since later picks only grow
            ends = self._ends
            above = self._lasts & -(allowed & -allowed)
            while above:
                end = above & -above
                if ends[end.bit_length() - 1] & open_ids:
                    break
                above ^= end
            else:
                return None  # every open mask ends below every allowed vertex
            candidates = allowed & ((end << 1) - 1)
            if self._prune:
                cut = self._leaders(candidates, picked)
        else:
            # every set that meets the open masks meets the one of least id
            low = open_ids & -open_ids
            candidates = masks[low.bit_length() - 1] & allowed
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            allowed ^= bit
            u = bit.bit_length() - 1
            rest = open_ids & ~byv[u]
            if rest == open_ids:
                continue
            if bit & cut:
                self.symmetry_pruned += 1
                continue
            self._visit()
            if not rest:
                if found is None:
                    return picked + (u,)
                found.append(picked + (u,))
            elif left > 2:
                got = self._branch(rest, allowed, left - 1, picked + (u,), found)
                if got:
                    return got
            else:
                # the last pick, made in this loop: the search's most
                # numerous level then makes no call of its own
                for w in _completions(masks, byv, rest, allowed):
                    self._visit()
                    if found is None:
                        return picked + (u, w)
                    found.append(picked + (u, w))
        return None

    def _leaders(self, candidates: int, picked: tuple) -> int:
        """The bits of ``candidates``, all above the picks P, whose pick v
        leaves a set that some involution sigma maps to a smaller one: the
        least vertex of Q xor sigma(Q), Q = P + v, lies outside Q.  As v is
        not in P, nor sigma(v) in sigma(P), Q xor sigma(Q) is D xor {v,
        sigma(v)}, D = P xor sigma(P).  When sigma(v) is not in P, neither
        v nor sigma(v) lies in D, so with l the least vertex of D the cut
        reads off bitmasks: sigma(v) < v when D is empty; otherwise
        sigma(v) < min(v, l), or l outside P and either sigma(v) = v or
        both v and sigma(v) above l (sigma(v) = l would put v in P).  The
        few candidates v with sigma(v) in P are tested one by one.

        The group's guards are built at the first call, one ``_guard`` for
        each involution that maps the group's vertices onto themselves and
        moves one.  A group no involution moves turns the walk's pruning
        off."""
        guards = self._guards
        if guards is None:
            if self._found is None:
                self._found = _involutions(self.graph)
            verts = [v for v, ids in enumerate(self._byv) if ids]
            inside = set(verts)
            guards = self._guards = [_guard(sigma) for sigma in self._found
                                     if all(sigma[v] in inside for v in verts)
                                     and any(sigma[v] != v for v in verts)]
            if not guards:
                self._prune = False
                return 0
        picks = sum(1 << v for v in picked)
        cut = 0
        for bits, moved, down, below in guards:
            image = sum(map(bits.__getitem__, picked))
            d = picks ^ image
            if not d:
                cut |= candidates & down
                continue
            low = d & -d
            under = below[low.bit_length() - 1]
            rule = down & under
            if not low & picks:
                rule |= ~moved | (-(low << 1) & ~under)
            cut |= candidates & ~image & rule
            back = candidates & image  # sigma(v) in P
            while back:
                bit = back & -back
                back ^= bit
                now = picks | bit
                d = now ^ (image | bits[bit.bit_length() - 1])
                if d & -d & ~now:
                    cut |= bit
        return cut


def solve_dimension(g: Graph, kind: str, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Minimum resolving set of the given kind, lexicographically smallest.

    Budget counts search nodes across the whole search and raises
    SearchBudgetExceededError when exhausted.
    """
    if kind not in KINDS:
        raise GraphError(f"unknown kind {kind!r}")
    forced = forced_vertices_mdim(g) if kind == MDIM else ()
    masks = _separator_masks(g, kind, forced)
    parts = _components(masks)
    search = _Search(budget, g)
    picks = (search.minimum_set(part) for part in parts)
    # with no forced vertex and no pair to separate, any single vertex resolves
    witness = tuple(sorted(chain(forced, *picks))) or (0,)
    stats = SolveStats(search_nodes=search.nodes, masks_kept=len(masks),
                       lower_bound=max(1, len(forced) + search.packed),
                       symmetry_pruned=search.symmetry_pruned,
                       refute_nodes=search.refute_nodes)
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


def _footprints(group: list[tuple[int, ...]], footprint: list[int]) -> list[int]:
    """The footprint bitmask of each set of ``group``, the OR of its
    vertices' ``footprint``; a group's minimum sets share one size, so the
    ORs run one pick position at a time across the whole group."""
    masks = [0] * len(group)
    for i in range(len(group[0])):
        masks = list(map(or_, masks, map(footprint.__getitem__, map(itemgetter(i), group))))
    return masks


def phi_of_graph(sg: DerivedGraph, cap: int = DEFAULT_PHI_CAP,
                 budget: int = DEFAULT_BUDGET) -> PhiResult:
    """Enumerate every metric basis of the subdivision graph ``sg`` = S(G)
    and minimize the phi footprint in G.

    Raises GraphError, before any search, when a split vertex has a
    neighbour that is not an original vertex (``sg`` is not a subdivision
    graph), and EnumerationOverflowError when the count of candidate
    k-subsets of V(S(G)) exceeds the cap, with k = dim(S(G)), before any
    basis is listed: each group's share of k comes from a solve's search
    (``_Search.least_size``).  Search nodes of those searches and of the
    listing both count against the budget.

    A basis is one minimum set per mask group (``_Search.every_set``), and
    its footprint the union of theirs.  Each group's sets become bitmasks
    over V(G) once (``_footprints``), every basis is scored by an OR and
    ``int.bit_count``, one size per basis held, and only the bases tied at
    the least size are sorted, so the witness is the lexicographically
    least of them.
    """
    n = sg.base_n
    near = sg.graph.adjacency
    if any(v >= n for ends in near[n:] for v in ends):
        raise GraphError("split vertex adjacent to a non-original vertex; not a subdivision graph")
    # each vertex of S(G) in G: an original vertex itself, a split its base edge's ends
    footprint = [1 << v for v in range(n)] + [sum(1 << v for v in ends) for ends in near[n:]]
    parts = _components(_separator_masks(sg.graph, DIM))
    search = _Search(budget, sg.graph)
    indexed = [(part, _index(part)) for part in parts]
    ks = [search.least_size(part, index)[0] for part, index in indexed]
    total = math.comb(sg.graph.n, sum(ks))
    if total > cap:
        raise EnumerationOverflowError(total, cap)

    # every metric basis is one minimum hitting set per mask group
    choices = [search.every_set(part, index, k) for (part, index), k in zip(indexed, ks)]
    feet = [_footprints(group, footprint) for group in choices]
    # the bases' footprint sizes in product order: the groups but the last
    # folded into one list of footprints, then the last one ORed onto it
    prefix = [0]
    for masks in feet[:-1]:
        prefix = [a | b for a in prefix for b in masks]
    sizes = [(a | b).bit_count() for a in prefix for b in feet[-1]]
    least = min(sizes)
    tied = compress(product(*choices), map(least.__eq__, sizes))
    best_basis = min(tuple(sorted(chain(*combo))) for combo in tied)
    return PhiResult(
        phi_value=least,
        bases_enumerated=math.prod(map(len, choices)),
        witness_basis=best_basis,
        witness_phi_set=phi_set(sg, best_basis),
    )
