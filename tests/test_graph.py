import gc
import tracemalloc
import weakref
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from mdimlab import graph
from mdimlab import (
    DisconnectedError,
    GraphError,
    LoopEdgeError,
    TooSmallError,
    build_graph,
    edge_edge_distance,
    gn_graph,
    middle,
    path_graph,
    complete_graph,
    cycle_graph,
    random_cactus,
    random_tree,
    star_graph,
    subdivision,
    total,
    vertex_edge_distance,
)

from conftest import connected_graphs, oracle_distances


def test_smallest_graph_is_a_single_edge():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.edges == ((0, 1),)


def test_edge_list_is_canonicalized():
    a = build_graph(4, [(3, 2), (1, 0), (2, 0)])
    b = build_graph(4, [(0, 1), (0, 2), (2, 3)])
    assert a == b
    assert a.edges == ((0, 1), (0, 2), (2, 3))


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    assert g.m == 2


def test_rejects_loops():
    with pytest.raises(LoopEdgeError):
        build_graph(3, [(0, 1), (1, 1), (1, 2)])


def test_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        build_graph(3, [(0, 1)])


def test_rejects_single_vertex():
    with pytest.raises(TooSmallError):
        build_graph(1, [])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 3)])


def test_path_distances():
    g = path_graph(4)
    assert g.distances[0][3] == 3
    assert g.distances[0][1] == 1


def test_even_cycle_antipodal_distance():
    assert cycle_graph(6).distances[0][3] == 3


def test_gn_construction_matches_counts():
    g5, names = gn_graph(5)
    assert g5.n == 7 and g5.m == 11
    assert names["x"] == 0 and names["y"] == 1 and names["z5"] == 6


@pytest.mark.parametrize(
    "n, edges, v, edge, expected",
    [
        (4, [(0, 1), (1, 2), (2, 3)], 0, (2, 3), 2),
        (4, [(0, 1), (1, 2), (2, 3)], 2, (2, 3), 0),
        (6, [(i, (i + 1) % 6) for i in range(6)], 0, (2, 3), 2),
        (4, [(0, 1), (1, 2), (2, 3)], 0, (1, 2), 1),
        # G_5: z3 (vertex 4) to the hub edge x-y
        (7, gn_graph(5)[0].edges, 4, (0, 1), 1),
    ],
)
def test_vertex_edge_distance(n, edges, v, edge, expected):
    g = build_graph(n, edges)
    assert vertex_edge_distance(g, v, g.edge_index(*edge)) == expected
    # independent route: min over endpoints of BFS distances
    dist = oracle_distances(n, edges)
    assert expected == min(dist[edge[0]][v], dist[edge[1]][v])


def test_edge_edge_distance_examples(g2):
    p4 = path_graph(4)
    assert edge_edge_distance(p4, p4.edge_index(0, 1), p4.edge_index(2, 3)) == 1
    assert edge_edge_distance(p4, p4.edge_index(1, 2), p4.edge_index(1, 2)) == 0
    # two-hub graph: x-z1 vs y-z2 meet after one hop (brute force over endpoint pairs)
    e = g2.edge_index(0, 2)
    f = g2.edge_index(1, 3)
    dist = oracle_distances(g2.n, g2.edges)
    brute = min(dist[a][b] for a in (0, 2) for b in (1, 3))
    assert edge_edge_distance(g2, e, f) == brute == 1


@given(connected_graphs())
def test_distance_matrix_properties(g):
    d = g.distances
    for u in range(g.n):
        assert d[u][u] == 0
        for v in range(g.n):
            assert d[u][v] == d[v][u] >= 0
    for u, v, w in combinations(range(g.n), 3):
        assert d[u][w] <= d[u][v] + d[v][w]
        assert d[u][v] <= d[u][w] + d[w][v]
        assert d[v][w] <= d[v][u] + d[u][w]


@given(connected_graphs())
def test_vertex_edge_zero_iff_endpoint(g):
    for j, (a, b) in enumerate(g.edges):
        for v in range(g.n):
            hit = vertex_edge_distance(g, v, j) == 0
            assert hit == (v in (a, b))


@given(connected_graphs())
def test_edge_edge_zero_iff_sharing(g):
    for e in range(g.m):
        for f in range(g.m):
            share = bool(set(g.edges[e]) & set(g.edges[f]))
            assert (edge_edge_distance(g, e, f) == 0) == share


@st.composite
def _with_pendant_paths(draw):
    """A connected graph with up to three paths of 1-4 new vertices hung on it."""
    g = draw(connected_graphs())
    n, edges = g.n, list(g.edges)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=n - 1))
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            edges.append((at, n))
            at, n = n, n + 1
    return build_graph(n, edges)


@given(_with_pendant_paths(), st.sampled_from([None, subdivision, middle, total]))
def test_distances_match_oracle(g, derive):
    if derive is not None:
        g = derive(g).graph
    assert all(a < b for ns in g.adjacency for a, b in zip(ns, ns[1:]))
    oracle = oracle_distances(g.n, g.edges)
    for u in range(g.n):
        assert list(g.distances[u]) == [oracle[u][v] for v in range(g.n)]


def _path(order):
    """The path visiting the vertices 0..len(order)-1 in the given order."""
    return build_graph(len(order), zip(order, order[1:]))


@pytest.mark.parametrize("g, row_type", [
    (path_graph(256), bytes),  # diameter 255
    (path_graph(257), tuple),  # diameter 256: row 0 already needs it
    # vertex 0 is the middle of a 257-path, so its row fits a byte and
    # must turn into a tuple when row 1 does not
    (_path([*range(1, 129), 0, *range(129, 257)]), tuple),
], ids=["path256", "path257", "path257-middle-first"])
def test_distance_rows_are_bytes_below_diameter_256(g, row_type):
    assert {type(row) for row in g.distances} == {row_type}
    oracle = oracle_distances(g.n, g.edges)
    for u in range(g.n):
        assert list(g.distances[u]) == [oracle[u][v] for v in range(g.n)]


def _c4_with_tail(diameter):
    """The 4-cycle 0-1-2-3 with a path of diameter - 2 edges hung on vertex 0.

    Its far ends are vertex 2 and the path's leaf, and vertex 0's BFS row
    reaches diameter - 2.  Every other row is read from that row, around
    the 4-cycle and across the tail's bridges, in byte lanes up to
    diameter 129 and in two-byte lanes past it.  At diameter 256, rows 0
    and 1 fit a byte and vertex 2's row is the first that does not."""
    tail = [(0, 4)] + [(v, v + 1) for v in range(4, diameter + 1)]
    return build_graph(diameter + 2, [(0, 1), (1, 2), (2, 3), (0, 3), *tail])


@pytest.mark.parametrize("diameter", [126, 127, 128, 129, 254, 255, 256])
@pytest.mark.parametrize("shape", ["path", "c4-tail"])
def test_distance_rows_at_the_lane_and_byte_boundaries(shape, diameter):
    g = path_graph(diameter + 1) if shape == "path" else _c4_with_tail(diameter)
    assert {type(row) for row in g.distances} == {bytes if diameter < 256 else tuple}
    assert max(map(max, g.distances)) == diameter
    oracle = oracle_distances(g.n, g.edges)
    for u in range(g.n):
        assert list(g.distances[u]) == [oracle[u][v] for v in range(g.n)]


def test_floor_means_take_every_equal_and_neighbouring_byte_pair_at_once():
    pairs = [(a, a) for a in range(256)] + [(a, a + 1) for a in range(255)]
    pairs += [(a + 1, a) for a in range(255)]
    xs, ys = bytes(x for x, _ in pairs), bytes(y for _, y in pairs)
    width = len(pairs)
    (low,) = graph._floor_means([(int.from_bytes(xs, "little"), int.from_bytes(ys, "little"))], width)
    assert low.to_bytes(width, "little") == bytes(map(min, xs, ys))


def _assert_edge_rows(g):
    rows = graph._edge_rows(g)
    assert len(rows) == g.m
    assert {type(row) for row in rows} == {type(g.distances[0])}
    for j in range(g.m):
        assert list(rows[j]) == [vertex_edge_distance(g, v, j) for v in range(g.n)]


@given(connected_graphs(), st.sampled_from([None, subdivision, middle, total]))
def test_edge_rows_match_vertex_edge_distance(g, derive):
    _assert_edge_rows(g if derive is None else derive(g).graph)


def test_edge_rows_of_tuple_rows_match_vertex_edge_distance():
    g = path_graph(257)
    assert type(g.distances[0]) is tuple
    _assert_edge_rows(g)


def _assert_cached_blocks(g):
    d, n, m = g.distances, g.n, g.m
    fresh = [[min(d[a][x], d[b][x]) for x in range(n)] for a, b in g.edges]
    block = g._vertex_edge
    assert block is g._vertex_edge  # computed once, then read
    assert list(block) == [x for row in fresh for x in row]  # m rows of n, flat
    assert type(block) is type(d[0])
    if type(d[0]) is bytes:  # the edge-edge block serves only byte rows
        assert g._edge_edge == bytes(edge_edge_distance(g, j, k) for j in range(m) for k in range(m))


@given(connected_graphs(), st.sampled_from([None, subdivision, middle, total]))
def test_cached_blocks_match_a_fresh_computation(g, derive):
    _assert_cached_blocks(g if derive is None else derive(g).graph)


def test_cached_blocks_of_tuple_rows_match_a_fresh_computation():
    g = path_graph(257)
    assert type(g.distances[0]) is tuple
    _assert_cached_blocks(g)


@pytest.mark.parametrize("base", [random_tree(60, 3), random_cactus(40, 6, 2)],
                         ids=["tree60", "cactus40"])
def test_s_m_and_t_compute_the_base_blocks_once(monkeypatch, base):
    base = build_graph(base.n, base.edges)  # nothing cached yet
    widths = []
    means = graph._floor_means

    def counting(pairs, width):
        return means((widths.append(width) or pair for pair in pairs), width)

    monkeypatch.setattr(graph, "_floor_means", counting)
    for _ in range(2):
        for derive in (subdivision, middle, total):
            derive(base)
    # one pair per edge for the vertex-edge rows, one per edge for the edge-edge rows
    assert sorted(widths) == sorted([base.n] * base.m + [base.m] * base.m)


def test_the_cached_blocks_live_and_die_with_their_graph():
    base = random_tree(60, 3)
    derived = [derive(base) for derive in (subdivision, middle, total)]
    assert {"_vertex_edge", "_edge_edge"} <= vars(base).keys()
    twin = build_graph(base.n, base.edges)  # nothing cached
    assert twin == base and hash(twin) == hash(base)
    ref = weakref.ref(base)
    del base, derived
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("first, second", [(middle, total), (total, middle)],
                         ids=["M-then-T", "T-then-M"])
def test_m_and_t_share_their_split_rows(first, second):
    base = random_tree(60, 3)
    a, b = first(base).graph, second(base).graph
    for rows in ("distances", "adjacency"):  # both hold one row per split
        splits = zip(getattr(a, rows)[base.n:], getattr(b, rows)[base.n:], strict=True)
        assert all(x is y for x, y in splits), rows


def _assert_built_as_from_a_fresh_base(g, orders, check_oracle):
    fresh = {derive: derive(build_graph(g.n, g.edges)).graph for derive in orders[0]}
    for order in orders:
        base = build_graph(g.n, g.edges)  # nothing cached yet
        for derive in order:
            d = derive(base).graph
            assert d == fresh[derive], (derive.__name__, [f.__name__ for f in order])
            if check_oracle:
                _assert_oracle_rows(d, d.distances)


@given(connected_graphs())
def test_s_m_and_t_built_in_any_order_equal_fresh_builds(g):
    _assert_built_as_from_a_fresh_base(g, list(permutations((subdivision, middle, total))),
                                       check_oracle=True)


def test_s_m_and_t_of_tuple_rows_built_in_any_position_equal_fresh_builds():
    g = path_graph(300)  # tuple rows: every derived table by BFS
    assert type(g.distances[0]) is tuple
    rotations = [(subdivision, middle, total), (middle, total, subdivision), (total, subdivision, middle)]
    _assert_built_as_from_a_fresh_base(g, rotations, check_oracle=False)


def test_the_shared_pieces_live_and_die_with_their_graph():
    base = random_tree(600, 1)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        derived = [derive(base) for derive in (subdivision, middle, total)]
        assert {"_vertex_major", "_shared"} <= vars(base).keys()
        # M's and T's split rows and ledges, and the incidence lists of all three
        assert len(base._shared) == 3 and {"incidence", "ledges"} <= base._shared.keys()
        ref = weakref.ref(base)
        del base, derived
        gc.collect()
        assert ref() is None
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 << 10  # the blocks and split rows alone take about 2.4 MiB


def test_s_leaves_no_split_rows_in_its_base():
    # no other derived graph maps G's blocks as S does, so G keeps none of
    # its rows, only the incidence lists that M and T read too
    base = random_tree(60, 3)
    subdivision(base)
    assert base._shared.keys() == {"incidence"}


def _counting_bfs(monkeypatch):
    """Patch graph._bfs to record the maximum of each row it returns."""
    maxima = []
    original = graph._bfs

    def counting(n, adjacency, source):
        dist = original(n, adjacency, source)
        maxima.append(max(dist))
        return dist

    monkeypatch.setattr(graph, "_bfs", counting)
    return maxima


@pytest.mark.parametrize("derive", [subdivision, middle, total])
def test_derived_tables_take_no_bfs(monkeypatch, derive):
    base = random_tree(60, 3)
    maxima = _counting_bfs(monkeypatch)
    derive(base)
    assert maxima == []


def _no_bfs(n, adjacency, source):
    raise AssertionError("BFS ran on a derived graph")


@given(connected_graphs())
def test_derived_tables_match_oracle_without_bfs(g):
    for derive in (subdivision, middle, total):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "_bfs", _no_bfs)
            d = derive(g).graph
        assert {type(row) for row in d.distances} == {bytes}
        oracle = oracle_distances(d.n, d.edges)
        for u in range(d.n):
            assert list(d.distances[u]) == [oracle[u][v] for v in range(d.n)]


def test_single_edge_derived_tables(monkeypatch):
    # one base edge: a single split, whose vertex-edge rows are one byte long
    k2 = path_graph(2)
    monkeypatch.setattr(graph, "_bfs", _no_bfs)
    assert subdivision(k2).graph.distances == (b"\0\2\1", b"\2\0\1", b"\1\1\0")
    assert middle(k2).graph.distances == (b"\0\2\1", b"\2\0\1", b"\1\1\0")
    assert total(k2).graph.distances == (b"\0\1\1", b"\1\0\1", b"\1\1\0")


@pytest.mark.parametrize("derive, n, bfs", [
    (subdivision, 127, False),  # base diameter 126: 2 * 126 + 2 fits a byte
    (subdivision, 128, False),  # 127: 2 * 127 fits, and d(e, f) <= 125
    (subdivision, 129, True),  # S(G) has diameter 256
    (middle, 255, False),  # 254: 254 + 1 fits
    (middle, 256, True),  # 255: M(G) has diameter 256
    (total, 255, False),
    (total, 256, False),  # T(G) has diameter 255, and d(x, e) + 1 <= 255
    (total, 257, True),  # the base rows are tuples
], ids=lambda v: getattr(v, "__name__", v))
def test_derived_tables_at_the_byte_limits(monkeypatch, derive, n, bfs):
    base = path_graph(n)
    maxima = _counting_bfs(monkeypatch)
    d = derive(base).graph
    assert bool(maxima) == bfs
    oracle = oracle_distances(d.n, d.edges)
    diameter = max(max(row.values()) for row in oracle.values())
    assert {type(row) for row in d.distances} == {bytes if diameter < 256 else tuple}
    for u in range(d.n):
        assert list(d.distances[u]) == [oracle[u][v] for v in range(d.n)]


@pytest.mark.parametrize("derive", [subdivision, middle, total])
def test_derived_edge_lists_as_input_take_bfs_off_their_bridges(monkeypatch, derive):
    # the derived graph's edge list taken through build_graph like any input,
    # 119 vertices.  S of a tree is a tree: one BFS.  M's blocks are G's
    # leaf edges, bridges, and per vertex of degree d >= 2 the clique on it
    # and its d edges, a triangle when d = 2, so 63 runs; T's are larger.
    derived = derive(random_tree(60, 3)).graph
    maxima = _counting_bfs(monkeypatch)
    g = build_graph(derived.n, derived.edges)
    assert len(maxima) == _block_bfs_runs(g) == {subdivision: 1, middle: 63, total: 119}[derive]


def _bfs_runs(g):
    """The BFS runs that building g's table anew takes, and the table."""
    with pytest.MonkeyPatch.context() as patch:
        maxima = _counting_bfs(patch)
        rebuilt = build_graph(g.n, g.edges)
    return len(maxima), rebuilt.distances


def _assert_oracle_rows(g, rows, oracle=None):
    oracle = oracle or oracle_distances(g.n, g.edges)
    for u in range(g.n):
        assert list(rows[u]) == [oracle[u][v] for v in range(g.n)]


@given(st.integers(min_value=2, max_value=120), st.integers(min_value=0, max_value=2**30))
def test_a_tree_takes_one_bfs(n, seed):
    g = random_tree(n, seed)
    runs, rows = _bfs_runs(g)
    assert runs == 1
    _assert_oracle_rows(g, rows)


@pytest.mark.parametrize("g", [star_graph(40), random_tree(600, 1)], ids=["star40", "tree600"])
def test_a_star_and_a_large_tree_take_one_bfs(g):
    runs, rows = _bfs_runs(g)
    assert runs == 1
    assert {type(row) for row in rows} == {bytes}
    _assert_oracle_rows(g, rows)


def _blocks(g):
    """Each edge of g mapped to a label of its block.  Two edges lie in one
    block iff no vertex x separates them: after deleting x, the ends of
    each other than x lie in one component.  So an edge's label is, per x,
    the component of G - x that holds it."""
    adjacency = {v: [] for v in range(g.n)}
    for a, b in g.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    labels = {e: [] for e in g.edges}
    for x in range(g.n):
        comp = {x: -1}
        for s in range(g.n):
            if s in comp:
                continue
            comp[s], frontier = s, [s]
            while frontier:
                reached = []
                for u in frontier:
                    for w in adjacency[u]:
                        if w not in comp:
                            comp[w] = s
                            reached.append(w)
                frontier = reached
        for a, b in g.edges:
            labels[(a, b)].append(comp[b] if a == x else comp[a])
    return {e: tuple(label) for e, label in labels.items()}


def _block_bfs_runs(g):
    """The BFS runs that g's table should take, from a brute-force block
    search: one from vertex 0, and one from each other vertex whose edge to
    its parent in vertex 0's BFS tree (its first neighbour one step nearer
    0) lies in a block that is neither one edge nor a cycle."""
    depth = oracle_distances(g.n, g.edges)[0]
    adjacency = {v: [w for e in g.edges if v in e for w in e if w != v] for v in range(g.n)}
    blocks = _blocks(g)
    vertices, edges = {}, {}
    for (a, b), label in blocks.items():
        vertices.setdefault(label, set()).update((a, b))
        edges[label] = edges.get(label, 0) + 1
    runs = 1
    for v in range(1, g.n):
        p = min(w for w in adjacency[v] if depth[w] < depth[v])
        label = blocks[(min(v, p), max(v, p))]
        runs += edges[label] > 1 and edges[label] != len(vertices[label])
    return runs


def _ladder(k):
    """The 2 x k grid: two k-paths, rung i joining vertex i to k + i."""
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return build_graph(2 * k, rails + [(i, k + i) for i in range(k)])


@st.composite
def _cacti(draw, chord=False):
    """A cactus of up to six blocks, each a bridge or a cycle of up to 12
    vertices hung on a vertex already there, with its vertices relabelled;
    with ``chord``, one more edge joins two vertices not yet adjacent, so
    the blocks it closes a path through become one block of several rings."""
    edges, n = [], 1
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        at, size = draw(st.integers(min_value=0, max_value=n - 1)), draw(st.integers(2, 12))
        ring = [at, *range(n, n + size - 1)]
        edges += zip(ring, ring[1:] + ring[:1] if size > 2 else ring[1:])
        n += size - 1
    label = draw(st.permutations(range(n)))
    edges = [(label[a], label[b]) for a, b in edges]
    if chord:
        present = {frozenset(e) for e in edges}
        absent = [(u, v) for u in range(n) for v in range(u + 1, n) if {u, v} not in present]
        if absent:
            edges.append(draw(st.sampled_from(absent)))
    return build_graph(n, edges)


_RINGS_AND_CHORDS = st.one_of(_cacti(), _cacti(chord=True),
                              st.integers(3, 60).map(cycle_graph))


@settings(deadline=None)  # the 300-vertex cactus alone takes about half the default deadline
@given(st.one_of(_with_pendant_paths(), _RINGS_AND_CHORDS))
@example(random_cactus(300, 75, 3))  # a cactus: one run
@example(_ladder(100))  # one block of 99 rings: every vertex runs BFS
def test_bfs_runs_from_the_root_and_each_vertex_not_below_a_bridge(g):
    # BFS runs from vertex 0, and from each other vertex whose edge to its
    # parent in vertex 0's BFS tree is neither a bridge nor on a cycle block
    runs, rows = _bfs_runs(g)
    assert runs == _block_bfs_runs(g)
    _assert_oracle_rows(g, rows)


@given(_RINGS_AND_CHORDS)
def test_rows_match_the_oracle_on_cacti_cycles_and_chorded_cacti(g):
    _assert_oracle_rows(g, g.distances)


@given(_RINGS_AND_CHORDS)
def test_rows_read_in_every_lane_width_equal_the_byte_rows(g):
    # the rows read in two-byte lanes, which these graphs do not need,
    # are narrowed to the byte rows
    assert graph._read_rows(g.n, g.adjacency, list(g.distances[0]), 2) == g.distances


def _fail_to_read(*args):
    raise AssertionError("rows were read")


def test_a_table_past_two_byte_lanes_is_refused_before_any_row_is_read(monkeypatch):
    # the 32,769-path's rows from an end reach 32,768, so 2 ecc(0) is 65,536
    monkeypatch.setattr(graph, "_read_rows", _fail_to_read)
    with pytest.raises(GraphError, match="graph has 32769 vertices, more than the 32768 whose"):
        path_graph(32769)


def _path_from_its_centre(n):
    # the n-path with vertex 0 at its centre: position p is labelled by its
    # rank in distance from the centre, so 2 ecc(0) is n - 1
    order = sorted(range(n), key=lambda p: abs(2 * p - (n - 1)))
    label = {p: i for i, p in enumerate(order)}
    return build_graph(n, [(label[p], label[p + 1]) for p in range(n - 1)])


@pytest.mark.parametrize("make", [_path_from_its_centre, star_graph], ids=["centre-path", "star"])
def test_a_graph_past_32768_vertices_is_refused_whatever_its_labelling(monkeypatch, make):
    # twice vertex 0's eccentricity fits two-byte lanes in both, yet each
    # table would hold 1.07e9 entries; both are refused before any BFS
    monkeypatch.setattr(graph, "_read_rows", _fail_to_read)
    monkeypatch.setattr(graph, "_bfs", _fail_to_read)
    with pytest.raises(GraphError, match="graph has 32769 vertices, more than the 32768 whose"):
        make(32769)


def test_a_table_at_the_two_byte_bound_is_read_in_two_byte_lanes(monkeypatch):
    # the 32,768-path's 2 ecc(0), 65,534, is the last that two bytes hold;
    # the table stands in for the lane width it would be read in
    monkeypatch.setattr(graph, "_read_rows", lambda n, adjacency, dist, width: width)
    assert path_graph(32768).distances == 2


@pytest.mark.parametrize("g", [cycle_graph(3), cycle_graph(100), cycle_graph(255),
                               cycle_graph(300), cycle_graph(400), random_cactus(600, 150, 3)],
                         ids=["C3", "C100", "C255", "C300", "C400", "cactus600-150"])
def test_a_cycle_and_a_cactus_take_one_bfs_run(g):
    # C255's rows reach 127, and 2 * 127 fits a byte lane; C300's and C400's
    # reach 150 and 200, so they are read in two-byte lanes and narrowed
    runs, rows = _bfs_runs(g)
    assert runs == 1
    assert {type(row) for row in rows} == {bytes}
    _assert_oracle_rows(g, rows)


# K6 and K80 are one block of many rings
@pytest.mark.parametrize("g", [complete_graph(6), complete_graph(80)], ids=["K6", "K80"])
def test_a_bridgeless_graph_takes_n_bfs_runs(g):
    runs, rows = _bfs_runs(g)
    assert runs == g.n
    _assert_oracle_rows(g, rows)


@pytest.mark.parametrize("pendant", [0, 5, 9])
def test_a_pendant_vertex_does_not_keep_the_ring_walk_from_settling(pendant):
    # K10's tree edges all lie in one class after 8 of its 36 rings; the
    # edge to a vertex of degree 1 is a bridge and lies on no ring
    k10 = complete_graph(10)
    g = build_graph(11, [*k10.edges, (pendant, 10)])
    for h in (k10, g):
        assert len(graph._rings(h.adjacency, list(h.distances[0]), settle=True)[2]) == 8
    assert len(graph._rings(g.adjacency, list(g.distances[0]))[2]) == 36
    _assert_oracle_rows(g, g.distances)


@pytest.mark.parametrize("tail", [2, 3])
@pytest.mark.parametrize("pendant", [0, 5, 9])
def test_a_pendant_path_does_not_keep_the_ring_walk_from_settling(pendant, tail):
    # the path's edges lie outside the 2-core, so they are bridges and lie
    # on no ring, as the edge to a pendant vertex does
    path = [pendant, *range(10, 10 + tail)]
    g = build_graph(10 + tail, [*complete_graph(10).edges, *zip(path, path[1:])])
    assert len(graph._rings(g.adjacency, list(g.distances[0]), settle=True)[2]) == 8
    assert len(graph._rings(g.adjacency, list(g.distances[0]))[2]) == 36
    _assert_oracle_rows(g, g.distances)


# on a path the one BFS runs from vertex 0, an end, at n - 1 from the
# other: 2 * 127 fits a byte lane, 2 * 128 takes two bytes.  The rows are
# bytes while the diameter, n - 1, is below 256, and tuples from n = 257
@pytest.mark.parametrize("n, row_type", [
    (128, bytes),
    (129, bytes),
    (130, bytes),
    (255, bytes),
    (256, bytes),
    (257, tuple),
])
def test_rows_are_read_across_bridges_on_both_sides_of_the_byte_bound(n, row_type):
    g = path_graph(n)
    bfs_runs, rows = _bfs_runs(g)
    assert bfs_runs == 1
    assert {type(row) for row in rows} == {row_type}
    _assert_oracle_rows(g, rows)


@settings(deadline=None, max_examples=25)  # oracle rows of up to 370 vertices
@given(st.one_of(connected_graphs(max_extra=0), _cacti()), st.integers(130, 300))
@example(path_graph(2), 254)  # diameter 255: two-byte lanes narrowed to bytes
@example(path_graph(2), 255)  # diameter 256: tuples
def test_a_tree_or_cactus_with_a_long_tail_on_vertex_0_takes_one_bfs_in_wide_lanes(g, length):
    # the tail makes 2 ecc(0) at least 260, past a byte lane; the diameter,
    # the tail's length plus vertex 0's eccentricity in the drawn graph,
    # falls on either side of 256
    tail = [(0, g.n), *((v, v + 1) for v in range(g.n, g.n + length - 1))]
    g = build_graph(g.n + length, [*g.edges, *tail])
    runs, rows = _bfs_runs(g)
    assert runs == 1
    oracle = oracle_distances(g.n, g.edges)
    diameter = max(max(row.values()) for row in oracle.values())
    assert {type(row) for row in rows} == {bytes if diameter < 256 else tuple}
    _assert_oracle_rows(g, rows, oracle)


def _two_trees_and_a_cycle():
    """600 vertices, two 300-vertex trees and one more edge: m = n - 1."""
    a, b = random_tree(300, 1), random_tree(300, 2)
    u, v = next((u, v) for u in range(300) for v in range(u + 1, 300)
                if v not in a.adjacency[u])
    return 600, [*a.edges, (u, v), *[(x + 300, y + 300) for x, y in b.edges]]


@pytest.mark.parametrize("n, edges", [
    (4, [(0, 1), (1, 2), (0, 2)]),  # the triangle plus an isolated vertex
    _two_trees_and_a_cycle(),
], ids=["triangle+vertex", "two-trees-600"])
def test_disconnected_input_with_n_minus_1_edges_takes_one_bfs(monkeypatch, n, edges):
    assert len(edges) >= n - 1
    maxima = _counting_bfs(monkeypatch)
    with pytest.raises(DisconnectedError):
        build_graph(n, edges)
    assert len(maxima) == 1


def test_distance_table_takes_a_byte_per_entry():
    base = random_tree(600, 1)
    for derive in (subdivision, middle, total):
        tracemalloc.start()
        try:
            dg = derive(base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dg.graph.n == 1199
        assert peak < 4 << 20, derive.__name__  # tuple rows take about 11.4 MiB here


def test_total_after_middle_allocates_only_its_vertex_rows():
    base = random_tree(600, 1)
    middle(base)
    tracemalloc.start()
    try:
        total(base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (1 << 20)  # 600 rows of 1,199 bytes, edges and adjacency


def test_too_few_edges_rejected_before_any_bfs(monkeypatch):
    def no_bfs(n, adjacency):
        raise AssertionError("all-pairs BFS ran on a graph with fewer than n - 1 edges")

    monkeypatch.setattr(graph, "_all_pairs_bfs", no_bfs)
    with pytest.raises(DisconnectedError):
        build_graph(1000, [])
    with pytest.raises(DisconnectedError):
        build_graph(4, [(0, 1), (1, 0), (2, 3)])  # a repeated edge counts once


def test_triangle_plus_isolated_vertex_rejected():
    # m = n - 1 passes the edge count, so the first BFS row must catch it
    with pytest.raises(DisconnectedError):
        build_graph(4, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("u, v", [(0, 2), (2, 3), (3, 2)])
def test_edge_index_of_an_absent_edge_is_a_graph_error(u, v):
    # (0, 2) falls inside the sorted edge list, (2, 3) past its end
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    assert g.edge_index(2, 1) == 1
    with pytest.raises(GraphError, match=rf"no edge \({min(u, v)}, {max(u, v)}\)"):
        g.edge_index(u, v)
