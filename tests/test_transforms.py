from dataclasses import fields, replace
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from mdimlab import (
    TooSmallError,
    build_graph,
    check_distance_identities,
    complete_graph,
    cycle_graph,
    gn_graph,
    line_graph,
    middle,
    path_graph,
    random_cactus,
    random_tree,
    star_graph,
    subdivision,
    total,
)
from mdimlab import graph, transforms
from mdimlab.graph import Graph
from mdimlab.transforms import L_EDGE, ORIGINAL_EDGE, S_EDGE, SUBDIVISION, IdentityCheck, IdentityReport

from conftest import connected_graphs, oracle_distances


def test_subdividing_an_edge_gives_a_path():
    sg = subdivision(path_graph(2))
    assert sg.graph.n == 3 and sg.graph.edges == ((0, 2), (1, 2))
    assert sg.provenance == (("original", 0), ("original", 1), ("subdivision", 0))
    assert sg.edge_classes == (S_EDGE, S_EDGE)


def test_subdividing_triangle_doubles_the_cycle():
    sg = subdivision(cycle_graph(3)).graph
    assert sg.n == 6 and sg.m == 6
    assert all(len(adj) == 2 for adj in sg.adjacency)
    assert sg.distances[0][1] == 2  # originals sit two hops apart


def test_subdivision_counts_for_two_hub_family():
    g5, _ = gn_graph(5)
    sg = subdivision(g5).graph
    assert sg.n == 18 and sg.m == 22


def test_middle_of_short_path_by_hand():
    mg = middle(path_graph(3))
    # splits 3 and 4 hang off the path and are joined to each other
    assert mg.graph.n == 5 and mg.graph.m == 5
    assert set(mg.graph.edges) == {(0, 3), (1, 3), (1, 4), (2, 4), (3, 4)}
    assert sorted(mg.edge_classes).count(S_EDGE) == 4
    assert sorted(mg.edge_classes).count(L_EDGE) == 1


def test_middle_of_claw():
    mg = middle(star_graph(4))
    assert mg.graph.n == 7 and mg.graph.m == 9  # 6 split halves + C(3,2) joins
    assert mg.edge_classes.count(L_EDGE) == 3


def test_total_of_single_edge_is_triangle():
    tg = total(path_graph(2))
    assert tg.graph.edges == ((0, 1), (0, 2), (1, 2))
    assert sorted(tg.edge_classes) == [ORIGINAL_EDGE, S_EDGE, S_EDGE]


def test_total_counts():
    assert total(path_graph(3)).graph.m == 7
    assert total(star_graph(4)).graph.m == 12


def test_line_graph_examples():
    assert line_graph(path_graph(3)).edges == ((0, 1),)
    c4 = line_graph(cycle_graph(4))
    assert c4.n == 4 and c4.m == 4 and all(c4.degree(v) == 2 for v in range(4))
    k3 = line_graph(star_graph(4))
    assert k3.n == 3 and k3.m == 3


def test_line_graph_of_single_edge_rejected():
    with pytest.raises(TooSmallError):
        line_graph(path_graph(2))


def test_split_vertices_sit_after_originals():
    g = cycle_graph(5)
    sg = subdivision(g)
    for j in range(g.m):
        v = sg.subdivision_vertex(j)
        assert v == g.n + j
        assert sg.provenance[v] == (SUBDIVISION, j)
        assert set(sg.graph.adjacency[v]) == set(g.edges[j])


@given(connected_graphs())
def test_vertex_and_edge_counts(g):
    n, m = g.n, g.m
    ml = sum(comb(g.degree(v), 2) for v in range(n))
    assert subdivision(g).graph.n == middle(g).graph.n == total(g).graph.n == n + m
    assert subdivision(g).graph.m == 2 * m
    assert middle(g).graph.m == 2 * m + ml
    assert total(g).graph.m == 3 * m + ml


@given(connected_graphs())
def test_subdivision_is_bipartite(g):
    sg = subdivision(g)
    for u, v in sg.graph.edges:
        assert sg.provenance[u][0] != sg.provenance[v][0]


@given(connected_graphs())
def test_subdivision_spans_middle_and_total(g):
    s_edges = set(subdivision(g).graph.edges)
    assert s_edges <= set(middle(g).graph.edges) <= set(total(g).graph.edges)


def _classes_by_dict(g, derive):
    """Edge classes from a dict keyed by edge, in sorted edge order."""
    n = g.n
    classed = {}
    for j, (u, w) in enumerate(g.edges):
        classed[(u, n + j)] = classed[(w, n + j)] = S_EDGE
    if derive is not subdivision:
        for i, k in combinations(range(g.m), 2):
            if set(g.edges[i]) & set(g.edges[k]):
                classed[(n + i, n + k)] = L_EDGE
    if derive is total:
        classed.update(dict.fromkeys(g.edges, ORIGINAL_EDGE))
    return tuple(classed[e] for e in sorted(classed))


def _assert_built_as_from_edges(g):
    for derive in (subdivision, middle, total):
        dg = derive(g)
        rebuilt = build_graph(dg.graph.n, dg.graph.edges)
        for field in fields(rebuilt):
            assert getattr(dg.graph, field.name) == getattr(rebuilt, field.name), field.name
        assert dg.edge_classes == _classes_by_dict(g, derive)


@given(connected_graphs())
def test_derived_graphs_equal_their_edge_lists_through_build_graph(g):
    _assert_built_as_from_edges(g)


@pytest.mark.parametrize("make", [
    lambda: path_graph(2),
    lambda: path_graph(128),  # S's diameter is 254: its table is read off G's
    lambda: path_graph(129),  # S's is 256: tuple rows by BFS
    lambda: path_graph(257),  # G's own rows are tuples
    lambda: gn_graph(5)[0],
], ids=["K2", "P128", "P129", "P257", "G5"])
def test_derived_graphs_equal_their_edge_lists_through_build_graph_at_the_limits(make):
    _assert_built_as_from_edges(make())


@given(connected_graphs(max_n=7))
def test_line_graph_is_the_split_induced_subgraph_of_middle(g):
    if g.m < 2:
        return
    lg = line_graph(g)
    mg = middle(g).graph
    induced = {
        (u - g.n, v - g.n)
        for u, v in mg.edges
        if u >= g.n and v >= g.n
    }
    assert induced == set(lg.edges)


@pytest.mark.parametrize(
    "make",
    [
        lambda: path_graph(4),
        lambda: gn_graph(2)[0],
        lambda: cycle_graph(5),
        lambda: build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]),
    ],
)
def test_distance_identities_hold(make):
    g = make()
    report = check_distance_identities(g, subdivision(g), middle(g))
    assert report.ok, report.failed()


def test_identity_pair_counts():
    g = path_graph(4)
    report = check_distance_identities(g, subdivision(g), middle(g))
    counts = {c.identity: c.pairs_checked for c in report.checks}
    assert counts == {
        "eq1": 16,  # 4x4 vertex pairs
        "eq2": 12,  # 4 vertices x 3 edges
        "eq3": 6,   # ordered distinct edge pairs
        "eq4": 24,  # 4 vertices x 6 split edges
        "eq5": 12,  # ordered distinct vertex pairs
        "eq6": 12,
    }


def test_subdividing_p4_gives_p7_distances():
    # S(P4) is the path 0-4-1-5-2-6-3; both ends are original vertices
    sg = subdivision(path_graph(4)).graph
    oracle = oracle_distances(7, [(0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (6, 3)])
    for u in range(7):
        for v in range(7):
            assert sg.distances[u][v] == oracle[u][v]
    assert sg.distances[0][3] == 6


def test_middle_distance_values_by_hand():
    # M(P3): ends reach each other through both splits in three hops
    mg = middle(path_graph(3)).graph
    assert mg.distances[0][2] == 3
    assert mg.distances[0][1] == 2


def test_identities_report_a_wrong_subdivision():
    g = path_graph(4)
    report = check_distance_identities(g, middle(g), middle(g))  # M(P4) posing as S(P4)
    assert not report.ok
    assert {c.identity: c.counterexample for c in report.failed()} == {
        "eq1": (0, 2, 3, 4),
        "eq2": (0, 1, 2, 3),
        "eq3": (0, 1, 1, 2),
        "eq4": (0, 4, 3, (4, 5)),
    }


@pytest.mark.parametrize(
    "make, as_s, as_m",
    [
        (lambda: cycle_graph(5),
         {"eq1": (0, 2, 3, 4), "eq2": (0, 2, 2, 3), "eq3": (0, 1, 1, 2),
          "eq4": (0, 5, 3, (4, 5))},
         {"eq5": (0, 2, 4, 3), "eq6": (0, 2, 3, 2)}),
        (lambda: complete_graph(4),
         {"eq2": (0, 3, 2, 3), "eq3": (0, 1, 1, 2), "eq4": (1, 17, 1, (2, 3))},
         {"eq6": (0, 3, 3, 2)}),
        (lambda: gn_graph(2)[0],
         {"eq1": (2, 3, 3, 4), "eq2": (0, 3, 2, 3), "eq3": (0, 1, 1, 2),
          "eq4": (1, 15, 1, (2, 3))},
         {"eq5": (2, 3, 4, 3), "eq6": (0, 3, 3, 2)}),
        (lambda: star_graph(5),
         {"eq1": (1, 2, 3, 4), "eq2": (1, 1, 2, 3), "eq3": (0, 1, 1, 2),
          "eq4": (2, 8, 1, (2, 3))},
         {"eq5": (1, 2, 4, 3), "eq6": (1, 1, 3, 2)}),
    ],
    ids=["C5", "K4", "G2", "star5"],
)
def test_identities_pin_first_counterexamples(make, as_s, as_m):
    # M(G) posing as S(G), and S(G) posing as M(G): each failing identity
    # reports the first pair, in visiting order, that breaks it
    g = make()
    swapped_s = check_distance_identities(g, middle(g), middle(g))
    swapped_m = check_distance_identities(g, subdivision(g), subdivision(g))
    assert {c.identity: c.counterexample for c in swapped_s.failed()} == as_s
    assert {c.identity: c.counterexample for c in swapped_m.failed()} == as_m


def test_eq4_reports_an_edge_with_no_split_end():
    # T(K2) posing as S(K2): its edge (0, 1) joins two original vertices, so
    # no base edge gives rise to it and no distance is expected for it
    g = path_graph(2)
    report = check_distance_identities(g, total(g), middle(g))
    eq4 = {c.identity: c for c in report.checks}["eq4"]
    assert eq4.counterexample == (0, 0, 0, ())


def test_identities_check_bfs_distances_not_the_stored_table():
    # S(P4) with its split half-edge (2, 5) moved to (3, 5), the path
    # 0-4-1-5-3-6-2, but with S(P4)'s table kept: the stored distances
    # satisfy eq1-eq3, so only BFS over the moved graph reports eq1 and eq2
    g = path_graph(4)
    sg = subdivision(g)
    edges = [(3, 5) if e == (2, 5) else e for e in sg.graph.edges]
    moved = replace(sg, graph=replace(build_graph(7, edges), distances=sg.graph.distances))
    report = check_distance_identities(g, moved, middle(g))
    assert {c.identity: c.counterexample for c in report.failed()} == {
        "eq1": (0, 2, 6, 4),
        "eq2": (2, 0, 5, 3),
        "eq4": (2, 0, 5, (2, 3)),
    }


@lru_cache(maxsize=3)
def _oracle_rows(g):
    bfs = oracle_distances(g.n, g.edges)
    return [[bfs[u].get(v, -1) for v in range(g.n)] for u in range(g.n)]


def _scan_identities(g, sg, mg):
    """check_distance_identities written pair by pair over every domain,
    with distances from the oracle's BFS (-1 for a vertex it misses)."""
    n, m = g.n, g.m
    dg, ds, dm = map(_oracle_rows, (g, sg.graph, mg.graph))
    to_edge = [[min(dg[x][a], dg[x][b]) for x in range(n)] for a, b in g.edges]
    between = [[min(dg[a][c], dg[a][d], dg[b][c], dg[b][d]) for c, d in g.edges] for a, b in g.edges]
    xs, js = range(n), range(m)

    def eq4(x, k):
        a, b = sg.graph.edges[k]
        d = 2 * to_edge[(a if a >= n else b) - n][x] if b >= n else None
        return min(ds[x][a], ds[x][b]), () if d is None else (d, d + 1)

    domains = {
        "eq1": ((x, y, ds[x][y], 2 * dg[x][y]) for x in xs for y in xs),
        "eq2": ((x, j, ds[x][n + j], 2 * to_edge[j][x] + 1) for x in xs for j in js),
        "eq3": ((e, f, ds[n + e][n + f], 2 * between[e][f] + 2) for e in js for f in js if f != e),
        "eq4": ((x, k, *eq4(x, k)) for x in xs for k in range(sg.graph.m)),
        "eq5": ((x, y, dm[x][y], dg[x][y] + 1) for x in xs for y in xs if y != x),
        "eq6": ((x, j, dm[x][n + j], 1 if x in g.edges[j] else to_edge[j][x] + 1)
                for x in xs for j in js),
    }
    sizes = {"eq1": n * n, "eq2": n * m, "eq3": m * (m - 1), "eq4": n * sg.graph.m,
             "eq5": n * (n - 1), "eq6": n * m}
    return IdentityReport(tuple(
        IdentityCheck(name, sizes[name], next(
            (pair for pair in pairs if not (pair[2] in pair[3] if name == "eq4" else pair[2] == pair[3])),
            None))
        for name, pairs in domains.items()))


def _graph_on(n, edges):
    """A Graph with these edges and no table, connected or not: the identity
    check reads only the adjacency of the derived graphs it is given."""
    edges = tuple(sorted((min(e), max(e)) for e in edges))
    near = [[] for _ in range(n)]
    for u, v in edges:
        near[u].append(v)
        near[v].append(u)
    return Graph(n=n, edges=edges, adjacency=tuple(map(tuple, map(sorted, near))), distances=())


def _moved(dg, k, to):
    """dg with the lower end of its edge k, a split half-edge's original
    end, moved to ``to``, unless that makes a loop or an edge already there."""
    edges = list(dg.graph.edges)
    a, b = edges[k]
    moved = (to, b) if a != to and b != to else (a, b)
    if (min(moved), max(moved)) not in edges:
        edges[k] = moved
    return replace(dg, graph=_graph_on(dg.graph.n, edges))


@st.composite
def identity_inputs(draw):
    """G with its true S(G) and M(G), or with a wrong one: M(G) or T(G)
    posing as S(G), S(G) posing as M(G), or one edge of S(G) or M(G) moved
    to another vertex, which may leave it disconnected."""
    g = draw(connected_graphs(max_n=7))
    sg, mg = subdivision(g), middle(g)
    which = draw(st.sampled_from(["true", "m as s", "t as s", "s as m", "move s", "move m"]))
    if which == "m as s":
        sg = mg
    elif which == "t as s":
        sg = total(g)
    elif which == "s as m":
        mg = sg
    elif which.startswith("move"):
        dg = sg if which == "move s" else mg
        k = draw(st.integers(0, dg.graph.m - 1))
        moved = _moved(dg, k, draw(st.integers(0, dg.graph.n - 1)))
        sg, mg = (moved, mg) if which == "move s" else (sg, moved)
    return g, sg, mg


@given(identity_inputs())
def test_identities_by_rows_equal_a_pair_scan(inputs):
    assert check_distance_identities(*inputs) == _scan_identities(*inputs)


@pytest.mark.parametrize("make", [
    *[lambda n=n: path_graph(n) for n in range(126, 131)],  # 2 diam + 2 = 252 ... 260
    lambda: cycle_graph(254),  # S's diameter is 254, and d(e, f) is at most 126
    lambda: cycle_graph(255),
    lambda: cycle_graph(256),
    lambda: path_graph(256),  # byte rows, and M's d(x, y) + 1 reaches 256
    lambda: path_graph(300),  # tuple rows
], ids=[*(f"P{n}" for n in range(126, 131)), "C254", "C255", "C256", "P256", "P300"])
def test_identities_equal_a_pair_scan_on_both_sides_of_the_byte_bound(monkeypatch, make):
    g = make()
    sg, mg = subdivision(g), middle(g)
    runs, tables = [], []
    bfs, all_pairs = transforms._bfs, transforms._all_pairs_bfs
    monkeypatch.setattr(transforms, "_bfs", lambda *args: runs.append(1) or bfs(*args))
    monkeypatch.setattr(transforms, "_all_pairs_bfs",
                        lambda n, adjacency: tables.append(adjacency) or all_pairs(n, adjacency))
    report = check_distance_identities(g, sg, mg)
    assert report == _scan_identities(g, sg, mg) and report.ok
    # one BFS per original of M, and S's rows from one all-pairs table
    assert len(runs) == g.n and tables == [sg.graph.adjacency]
    posing = check_distance_identities(g, mg, mg)  # M(G) posing as S(G)
    assert posing == _scan_identities(g, mg, mg) and not posing.ok


@given(connected_graphs())
def test_mapped_rows_equal_the_byte_rows_of_s_m_and_t(g):
    for maps in (transforms._SUBDIVISION_DISTANCES, transforms._MIDDLE_DISTANCES,
                 transforms._TOTAL_DISTANCES):
        table = graph._table_from_base(g, *maps, shared=False)
        assert table is not None and graph._mapped_rows(g, *maps) == tuple(map(tuple, table))


def test_identities_of_a_disconnected_subdivision_keep_its_missed_vertices():
    # S(P4) with its split half-edge (2, 5) moved to (0, 5): the ring
    # 0-4-1-5 and the path 2-6-3, which BFS from 0 does not reach
    g = path_graph(4)
    sg = subdivision(g)
    moved = replace(sg, graph=_graph_on(7, [(0, 5) if e == (2, 5) else e for e in sg.graph.edges]))
    report = check_distance_identities(g, moved, middle(g))
    assert report == _scan_identities(g, moved, middle(g))
    assert {c.identity: c.counterexample for c in report.failed()} == {
        "eq1": (0, 2, -1, 4),
        "eq2": (0, 1, 1, 3),
        "eq3": (0, 2, -1, 4),
        "eq4": (0, 1, 0, (2, 3)),
    }


@pytest.mark.parametrize("g", [random_tree(60, 3), random_cactus(60, 10, 1)],
                         ids=["tree60", "cactus60"])
def test_identities_take_one_bfs_run_on_the_subdivision(monkeypatch, g):
    # S of a tree is a tree and S of a cactus a cactus: one BFS run gives
    # every row of S's table; M's BFS runs are transforms' own
    sg, mg = subdivision(g), middle(g)
    runs = []
    bfs = graph._bfs
    monkeypatch.setattr(graph, "_bfs", lambda *args: runs.append(1) or bfs(*args))
    assert check_distance_identities(g, sg, mg).ok
    assert len(runs) == 1


def test_s_m_and_t_of_one_graph_build_its_incidence_lists_once(monkeypatch):
    g = random_tree(60, 3)
    calls = []
    incidence = transforms._incidence
    monkeypatch.setattr(transforms, "_incidence",
                        lambda *args: calls.append(args) or incidence(*args))
    fresh = [derive(build_graph(g.n, g.edges)).graph for derive in (subdivision, middle, total)]
    calls.clear()
    assert [derive(g).graph for derive in (subdivision, middle, total)] == fresh
    assert calls == [(g, g.n)]
