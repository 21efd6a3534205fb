from math import comb

import pytest
from hypothesis import given

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
    star_graph,
    subdivision,
    total,
)
from mdimlab.transforms import L_EDGE, ORIGINAL_EDGE, S_EDGE, SUBDIVISION

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
