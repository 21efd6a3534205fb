from itertools import combinations

import pytest
from hypothesis import given, settings

from mdimlab import (
    ClassMismatchError,
    GraphError,
    NotCactusError,
    build_graph,
    cactus_decompose,
    closed_form,
    complete_graph,
    cycle_graph,
    enumerate_small_trees,
    gn_family_facts,
    gn_graph,
    is_mixed_resolving,
    is_tree,
    leaf_count,
    path_graph,
    random_cactus,
    solve_dimension,
    star_graph,
    subdivision,
)
from mdimlab.structural import (
    DIM_MIDDLE_TREE,
    MDIM_CACTUS,
    MDIM_TOTAL_TREE,
    MDIM_TREE,
)

from conftest import connected_graphs, oracle_cactus, oracle_non_cactus_block


def test_leaf_count():
    assert leaf_count(path_graph(5)) == 2
    assert leaf_count(star_graph(5)) == 4
    assert leaf_count(cycle_graph(6)) == 0


def test_is_tree():
    assert is_tree(path_graph(4))
    assert not is_tree(cycle_graph(4))
    assert is_tree(star_graph(4))


def test_trees_decompose_with_no_cycles():
    report = cactus_decompose(path_graph(6))
    assert report.cycles == ()
    assert report.epsilon == 0
    assert report.mdim_formula == 2


def test_isolated_cycle_formula_matches_brute_force():
    c7 = cycle_graph(7)
    report = cactus_decompose(c7)
    assert len(report.cycles) == 1
    assert report.cycles[0].rt == 0
    assert report.mdim_formula == 3
    assert solve_dimension(c7, "mdim").value == 3


def test_complete_graph_is_not_a_cactus():
    with pytest.raises(NotCactusError):
        cactus_decompose(complete_graph(4))


def test_two_hub_graphs_are_not_cacti(g2):
    with pytest.raises(NotCactusError):
        cactus_decompose(g2)


def test_two_cycles_sharing_a_vertex_are_fine():
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    report = cactus_decompose(g)
    assert len(report.cycles) == 2


def test_pendant_cycle_formula_matches_brute_force():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    report = cactus_decompose(g)
    assert report.n1 == 1
    assert report.cycles[0].rt == 1
    assert report.mdim_formula == 1 + 2 + 0 == 3
    assert solve_dimension(g, "mdim").value == 3


def _hexagon_with_pendants(spots):
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(spot, 6 + i) for i, spot in enumerate(spots)]
    return build_graph(6 + len(spots), edges)


def test_clustered_roots_lack_a_geodesic_triple():
    g = _hexagon_with_pendants([0, 1, 2])
    report = cactus_decompose(g)
    assert report.cycles[0].rt == 3
    assert not report.cycles[0].has_geodesic_triple
    assert report.epsilon == 1
    assert report.mdim_formula == 3 + 0 + 1 == 4
    assert solve_dimension(g, "mdim").value == 4


def test_spread_roots_form_a_geodesic_triple():
    g = _hexagon_with_pendants([0, 2, 4])
    report = cactus_decompose(g)
    assert report.cycles[0].has_geodesic_triple
    assert report.epsilon == 0
    assert report.mdim_formula == 3
    assert solve_dimension(g, "mdim").value == 3


def test_subdividing_a_cactus_doubles_every_cycle():
    g = random_cactus(10, 2, seed=7)
    base = cactus_decompose(g)
    sub = cactus_decompose(subdivision(g).graph)
    assert len(sub.cycles) == len(base.cycles)
    base_lengths = sorted(len(c.vertices) for c in base.cycles)
    sub_lengths = sorted(len(c.vertices) for c in sub.cycles)
    assert sub_lengths == [2 * length for length in base_lengths]
    assert sorted(c.rt for c in sub.cycles) == sorted(c.rt for c in base.cycles)
    assert sub.n1 == base.n1


def test_closed_form_values():
    assert closed_form(path_graph(6), MDIM_TOTAL_TREE) == 4
    assert closed_form(star_graph(5), DIM_MIDDLE_TREE) == 4
    assert closed_form(path_graph(4), MDIM_TREE) == 2
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    assert closed_form(g, MDIM_CACTUS) == 3


def test_closed_form_class_mismatch():
    with pytest.raises(ClassMismatchError):
        closed_form(cycle_graph(4), MDIM_TREE)
    with pytest.raises(ClassMismatchError):
        closed_form(complete_graph(4), MDIM_CACTUS)
    # the middle/total leaf-count laws do not cover the single-edge tree
    for claim in (DIM_MIDDLE_TREE, MDIM_TOTAL_TREE):
        with pytest.raises(ClassMismatchError):
            closed_form(path_graph(2), claim)


def test_closed_form_unknown_claim():
    with pytest.raises(GraphError):
        closed_form(path_graph(3), "no_such_claim")
    with pytest.raises(GraphError):  # P4.5 checks these bounds with two solves
        closed_form(path_graph(3), "dim_total_tree_bounds")


def test_single_edge_tree_formulas():
    # the single-edge tree: both ends are leaves, the mixed formula holds
    k2 = path_graph(2)
    assert closed_form(k2, MDIM_TREE) == 2
    assert solve_dimension(k2, "mdim").value == 2
    # but its middle graph is a 3-path and its total graph a triangle, so the
    # leaf-count formulas overshoot there; pin the true solver values
    from mdimlab import middle, total

    assert solve_dimension(middle(k2).graph, "dim").value == 1
    assert solve_dimension(total(k2).graph, "mdim").value == 3


def test_gn_facts_small():
    with pytest.raises(ClassMismatchError, match="two-hub gap statement needs n >= 5"):
        gn_family_facts(gn_graph(2)[0])


def test_gn_facts_n5():
    g, _ = gn_graph(5)
    facts = gn_family_facts(g)
    assert facts.mdim_value == 7
    assert len(facts.sn_vertices) == 5
    sg = subdivision(g)
    assert is_mixed_resolving(sg.graph, facts.sn_vertices)


def test_gn_gap_verified_by_solver():
    g, _ = gn_graph(6)
    facts = gn_family_facts(g)
    mdim = solve_dimension(g, "mdim").value
    mdim_s = solve_dimension(subdivision(g).graph, "mdim").value
    assert mdim == facts.mdim_value
    assert mdim_s <= facts.n
    assert mdim - mdim_s >= facts.gap_lower_bound


def test_gn_facts_recognise_the_graph_by_its_labels():
    g = gn_graph(5)[0]
    assert gn_family_facts(build_graph(g.n, g.edges)).sn_vertices == gn_family_facts(g).sn_vertices
    swap = {0: 2, 2: 0}
    relabelled = build_graph(g.n, [(swap.get(u, u), swap.get(v, v)) for u, v in g.edges])
    for other in (relabelled, complete_graph(3), cycle_graph(3), path_graph(2), star_graph(7)):
        with pytest.raises(ClassMismatchError, match="^not a generated two-hub family instance$"):
            gn_family_facts(other)


def _decompose_or_none(g):
    try:
        report = cactus_decompose(g)
    except NotCactusError:
        return None
    rows = sorted((sorted(c.vertices), len(c.vertices), c.rt) for c in report.cycles)
    return report.n1, rows, report.mdim_formula


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_cactus_decompose_matches_cycle_enumeration(g):
    assert _decompose_or_none(g) == oracle_cactus(g.n, g.edges)


@pytest.mark.parametrize("n", range(2, 9))
def test_every_small_tree_decomposes_with_no_cycles(n):
    for g in enumerate_small_trees(n):
        assert _decompose_or_none(g) == oracle_cactus(g.n, g.edges) == (leaf_count(g), [], leaf_count(g))


@pytest.mark.parametrize("n,cycles,seed", [(10, 2, 1), (11, 3, 2), (12, 4, 3), (9, 1, 4), (13, 5, 5)])
def test_seeded_cacti_and_their_subdivisions_match_cycle_enumeration(n, cycles, seed):
    g = random_cactus(n, cycles, seed)
    for h in (g, subdivision(g).graph):
        facts = oracle_cactus(h.n, h.edges)
        assert facts is not None and len(facts[1]) == cycles
        assert _decompose_or_none(h) == facts


def _k4_with_pendant_path():
    return build_graph(6, [*combinations(range(4), 2), (3, 4), (4, 5)])


@pytest.mark.parametrize("g", [complete_graph(4), gn_graph(2)[0], _k4_with_pendant_path()],
                         ids=["K4", "G2", "K4+path"])
def test_not_cactus_error_names_the_block(g):
    vertices, edges = oracle_non_cactus_block(g.n, g.edges)
    with pytest.raises(NotCactusError) as exc:
        cactus_decompose(g)
    assert f"vertices {vertices} has {edges} edges" in str(exc.value)


def test_not_cactus_error_on_k4_text():
    with pytest.raises(NotCactusError, match=r"vertices \[0, 1, 2, 3\] has 6 edges"):
        cactus_decompose(complete_graph(4))


@pytest.mark.parametrize("g, vertices, edges", [
    (complete_graph(80), list(range(80)), 3160),
    # two diamonds on a path: the first shared edge the ring walk meets is in
    # the diamond on 2, 4, 5, 7, but the first ring, 0-1-8, is in the other
    (build_graph(9, [(0, 1), (0, 6), (0, 8), (1, 3), (1, 8), (2, 4), (2, 5), (2, 7),
                     (4, 5), (4, 6), (5, 7), (6, 8)]), [0, 1, 6, 8], 5),
    # the first ring, the triangle, shares no edge, so the diamond is named
    (build_graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]),
     [3, 4, 5, 6], 5),
], ids=["K80", "two-diamonds", "triangle-then-diamond"])
def test_not_cactus_error_names_the_block_of_the_first_ring(g, vertices, edges):
    with pytest.raises(NotCactusError) as exc:
        cactus_decompose(g)
    assert str(exc.value) == (f"not a cactus (biconnected component on vertices {vertices} "
                              f"has {edges} edges; cycles share an edge)")


def test_class_errors_carry_the_whole_reason():
    assert issubclass(NotCactusError, ClassMismatchError)
    with pytest.raises(ClassMismatchError, match="^not a tree$"):
        closed_form(cycle_graph(4), MDIM_TREE)
    with pytest.raises(ClassMismatchError, match="^single-edge tree; .* >= 3 vertices$"):
        closed_form(path_graph(2), MDIM_TOTAL_TREE)
    with pytest.raises(NotCactusError, match=r"^not a cactus \(biconnected .*\)$"):
        closed_form(complete_graph(4), MDIM_CACTUS)
