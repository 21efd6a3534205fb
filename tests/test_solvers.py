import gc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdimlab import (
    Certificate,
    EnumerationOverflowError,
    GraphError,
    NotABasisError,
    SearchBudgetExceededError,
    build_graph,
    complete_graph,
    cycle_graph,
    edge_element,
    forced_vertices_mdim,
    gn_graph,
    is_edge_resolving,
    is_mixed_resolving,
    is_resolving,
    leaf_count,
    middle,
    path_graph,
    phi_of_basis,
    phi_of_graph,
    phi_set,
    random_tree,
    signature,
    solve_dimension,
    star_graph,
    subdivision,
    total,
    vertex_element,
)

from mdimlab.solvers import _components, _Search, _separator_masks

from conftest import (
    connected_graphs,
    oracle_distances,
    oracle_element_distance,
    oracle_is_resolving,
    oracle_min_witnesses,
    oracle_universe,
)

KINDS = ("dim", "edim", "mdim")
DERIVED = {"G": lambda g: g, "S": lambda g: subdivision(g).graph,
           "M": lambda g: middle(g).graph, "T": lambda g: total(g).graph}


def test_signature_examples(g2):
    p3 = path_graph(3)
    assert signature(p3, vertex_element(0), [0]) == (0,)
    assert signature(p3, edge_element(0), [2]) == (1,)
    z1 = 2
    assert signature(g2, vertex_element(z1), [0, 1]) == (1, 1)


def test_signature_follows_witness_order():
    p4 = path_graph(4)
    assert signature(p4, vertex_element(0), [3, 1]) == (3, 1)


def test_path_resolved_by_one_leaf():
    for n in (2, 3, 5, 8):
        assert is_resolving(path_graph(n), [0])
        assert is_resolving(path_graph(n), [n - 1])


def test_cycle_not_resolved_by_one_vertex():
    assert not is_resolving(cycle_graph(4), [0])


def test_known_mixed_basis_of_subdivided_two_hub(g2):
    sg = subdivision(g2)
    splits = {g2.edges[j]: sg.subdivision_vertex(j) for j in range(g2.m)}
    basis = [splits[(0, 2)], splits[(0, 3)], splits[(1, 2)]]  # x-z1, x-z2, y-z1
    assert is_mixed_resolving(sg.graph, basis)


def test_empty_witness_rejected():
    with pytest.raises(GraphError):
        is_resolving(path_graph(3), [])


@pytest.mark.parametrize("call, message", [
    (lambda: signature(path_graph(3), vertex_element(0), []), "witness set must be nonempty"),
    (lambda: is_resolving(path_graph(3), [0, 3]), "witness contains a vertex outside 0..n-1"),
    (lambda: is_mixed_resolving(path_graph(3), [-1]), "witness contains a vertex outside 0..n-1"),
    (lambda: solve_dimension(path_graph(3), "rank"), "unknown kind 'rank'"),
    # in M(P3) the split of edge 0 is also adjacent to the split of edge 1
    (lambda: phi_set(middle(path_graph(3)), [3]), "not a subdivision graph"),
])
def test_solver_inputs_outside_their_domain_raise(call, message):
    with pytest.raises(GraphError, match=message):
        call()


def test_forced_vertices_examples():
    assert forced_vertices_mdim(star_graph(4)) == (1, 2, 3)
    for n in (2, 3, 5):
        assert forced_vertices_mdim(complete_graph(n)) == tuple(range(n))
    assert forced_vertices_mdim(path_graph(4)) == (0, 3)


ORACLE_CASES = [
    path_graph(4),
    path_graph(6),
    cycle_graph(4),
    cycle_graph(5),
    cycle_graph(7),
    star_graph(5),
    complete_graph(4),
    gn_graph(2)[0],
    gn_graph(3)[0],
    build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]),
    build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5)]),
    random_tree(7, seed=3),
    random_tree(8, seed=11),
]


@pytest.mark.parametrize("kind", ["dim", "edim", "mdim"])
@pytest.mark.parametrize("g", ORACLE_CASES, ids=lambda g: f"n{g.n}m{g.m}")
def test_solver_matches_exhaustive_oracle(g, kind):
    value, witnesses = oracle_min_witnesses(g.n, g.edges, kind)
    cert = solve_dimension(g, kind)
    assert cert.value == value
    assert cert.vertices == witnesses[0]  # lexicographically smallest minimum witness


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=5, max_extra=1))
def test_search_core_matches_oracle_on_base_and_derived_graphs(g):
    for name, derive in DERIVED.items():
        h = derive(g)
        for kind in KINDS:
            value, witnesses = oracle_min_witnesses(h.n, h.edges, kind)
            cert = solve_dimension(h, kind)
            assert (cert.value, cert.vertices) == (value, witnesses[0]), (name, kind, h.edges)


def test_single_edge_edim_has_no_masks():
    # K2 has one edge, so no pair of edges needs separating
    cert = solve_dimension(path_graph(2), "edim")
    assert (cert.value, cert.vertices) == (1, (0,))
    assert cert.stats.masks_kept == 0


def test_distances_beyond_one_byte():
    g = path_graph(300)  # diameter 299
    for kind in ("dim", "edim"):
        cert = solve_dimension(g, kind)
        assert (cert.value, cert.vertices) == (1, (0,))
        assert cert.stats.masks_kept > 0
    assert solve_dimension(g, "mdim").vertices == (0, 299)


def test_walks_leave_no_cyclic_garbage():
    # a walk recurses through generators of a method, which no object they
    # reach refers back to; a recursive closure would refer to itself, and
    # every walk would then leave its mask index to the cycle collector
    masks = _separator_masks(total(gn_graph(3)[0]).graph, "mdim")
    gc.collect()
    gc.disable()
    try:
        walk = _Search(10**6).minimum_sets(masks)
        next(walk)
        del walk  # partly consumed
        assert gc.collect() == 0
        for _ in _Search(10**6).minimum_sets(masks):  # drained
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_certificates_are_deterministic():
    g = gn_graph(3)[0]
    assert solve_dimension(g, "mdim") == solve_dimension(g, "mdim")


@pytest.mark.parametrize("g", ORACLE_CASES, ids=lambda g: f"n{g.n}m{g.m}")
def test_mixed_dimension_dominates_both_others(g):
    dim = solve_dimension(g, "dim").value
    edim = solve_dimension(g, "edim").value
    assert max(dim, edim) <= solve_dimension(g, "mdim").value


def test_mixed_dimension_of_two_hub_pair(g2):
    assert solve_dimension(g2, "mdim").value == 4
    assert solve_dimension(subdivision(g2).graph, "mdim").value == 3


def test_tree_mixed_dimension_is_leaf_count():
    for seed in (1, 2, 3, 4):
        t = random_tree(9, seed)
        assert solve_dimension(t, "mdim").value == leaf_count(t)


def test_total_graph_of_big_star_dim():
    tg = total(star_graph(6)).graph  # five leaves
    assert solve_dimension(tg, "dim").value == 4


def test_forced_vertices_are_unremovable():
    for g in (star_graph(4), gn_graph(2)[0], path_graph(5)):
        cert = solve_dimension(g, "mdim")
        assert set(cert.forced) <= set(cert.vertices)
        for v in cert.forced:
            rest = sorted(set(cert.vertices) - {v})
            assert not rest or not is_mixed_resolving(g, rest)


def test_budget_exhaustion_raises():
    with pytest.raises(SearchBudgetExceededError):
        solve_dimension(cycle_graph(8), "mdim", budget=3)


@settings(max_examples=60)
@given(connected_graphs(max_n=7), st.randoms(use_true_random=False))
def test_verifier_monotonicity(g, rnd):
    base = sorted(rnd.sample(range(g.n), rnd.randint(1, g.n)))
    extra = sorted(set(base) | {rnd.randrange(g.n)})
    for verify in (is_resolving, is_edge_resolving, is_mixed_resolving):
        if verify(g, base):
            assert verify(g, extra)


def test_phi_set_applies_the_definition(g2):
    sg = subdivision(g2)
    assert phi_set(sg, [0]) == (0,)
    j = g2.edge_index(1, 3)
    assert phi_set(sg, [sg.subdivision_vertex(j)]) == (1, 3)
    assert phi_set(sg, [0, sg.subdivision_vertex(j)]) == (0, 1, 3)


def test_phi_of_basis_guards_resolving(g2):
    sg = subdivision(g2)
    with pytest.raises(NotABasisError):
        phi_of_basis(sg, [sg.subdivision_vertex(0)])  # a lone split never resolves
    basis = [sg.subdivision_vertex(g2.edge_index(0, 2)),
             sg.subdivision_vertex(g2.edge_index(0, 3)),
             sg.subdivision_vertex(g2.edge_index(1, 2))]
    assert phi_of_basis(sg, basis) == (0, 1, 2, 3)


def test_phi_of_basis_single_original_leaf():
    sg = subdivision(path_graph(2))
    assert phi_of_basis(sg, [0]) == (0,)


def test_phi_of_single_edge_graph():
    result = phi_of_graph(subdivision(path_graph(2)))
    # S(K2) is a 3-path; exactly its two end vertices resolve it
    assert result.phi_value == 1
    assert result.bases_enumerated == 2
    assert result.witness_basis == (0,)
    assert result.witness_phi_set == (0,)


def test_phi_of_three_path():
    result = phi_of_graph(subdivision(path_graph(3)))
    assert result.phi_value == 1
    assert result.bases_enumerated == 2


def test_phi_chain_on_two_hub(g2):
    result = phi_of_graph(subdivision(g2))
    dim = solve_dimension(g2, "dim").value
    edim = solve_dimension(g2, "edim").value
    mdim_s = solve_dimension(subdivision(g2).graph, "mdim").value
    assert result.phi_value >= max(dim, edim)
    assert result.phi_value <= 2 * mdim_s
    assert is_resolving(subdivision(g2).graph, result.witness_basis)
    assert len(result.witness_phi_set) == result.phi_value


def test_phi_enumeration_cap():
    with pytest.raises(EnumerationOverflowError):
        phi_of_graph(subdivision(cycle_graph(6)), cap=1)


def test_phi_propagates_inner_search_budget():
    with pytest.raises(SearchBudgetExceededError):
        phi_of_graph(subdivision(cycle_graph(8)), budget=2)


def test_phi_budget_boundary_walks_each_minimum_cardinality_once():
    sg5 = subdivision(gn_graph(5)[0])
    assert phi_of_graph(sg5, budget=738) == phi_of_graph(sg5)
    with pytest.raises(SearchBudgetExceededError):
        phi_of_graph(sg5, budget=737)


def test_phi_checks_the_cap_before_listing_any_basis():
    sg8 = subdivision(gn_graph(8)[0])
    # enough nodes to find dim(S(G_8)), too few to list its metric bases
    nodes = solve_dimension(sg8.graph, "dim").stats.search_nodes
    with pytest.raises(EnumerationOverflowError):
        phi_of_graph(sg8, cap=1, budget=nodes)


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_n=6))
def test_phi_witness_consistency(g):
    sg = subdivision(g)
    result = phi_of_graph(sg)
    assert is_resolving(sg.graph, result.witness_basis)
    assert phi_set(sg, result.witness_basis) == result.witness_phi_set
    assert result.bases_enumerated >= 1


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=6))
def test_walks_list_every_minimum_set_of_each_kind(g):
    for kind in KINDS:
        masks = _separator_masks(g, kind)
        if not masks:
            continue
        search = _Search(budget=10**8)
        walks = [list(search.minimum_sets(part)) for part in _components(masks)]
        found = sorted(tuple(sorted(v for s in combo for v in s)) for combo in product(*walks))
        assert found == oracle_min_witnesses(g.n, g.edges, kind)[1], (kind, g.edges)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=6, max_extra=2))
def test_phi_counts_every_metric_basis(g):
    sg = subdivision(g)
    _, bases = oracle_min_witnesses(sg.graph.n, sg.graph.edges, "dim")
    result = phi_of_graph(sg)
    assert result.bases_enumerated == len(bases)
    best = min(bases, key=lambda b: len(phi_set(sg, b)))  # first of the smallest, in lex order
    assert (result.witness_basis, result.phi_value) == (best, len(phi_set(sg, best)))


def test_certificate_shape():
    cert = solve_dimension(path_graph(5), "edim")
    assert isinstance(cert, Certificate)
    assert cert.kind == "edim"
    assert cert.forced == ()
    assert cert.value == len(cert.vertices)


RESOLVING_TESTS = {"dim": is_resolving, "edim": is_edge_resolving, "mdim": is_mixed_resolving}


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_n=7), st.randoms(use_true_random=False))
def test_resolving_tests_match_oracle(g, rnd):
    witness = rnd.sample(range(g.n), rnd.randint(1, g.n))
    for kind, resolves in RESOLVING_TESTS.items():
        assert resolves(g, witness) == oracle_is_resolving(g.n, g.edges, witness, kind), kind


@pytest.mark.parametrize("g", [cycle_graph(5), gn_graph(2)[0], complete_graph(4),
                               total(path_graph(4)).graph], ids=["C5", "G2", "K4", "T(P4)"])
def test_resolving_tests_match_oracle_on_every_witness(g):
    outcomes = set()
    for mask in range(1, 1 << g.n):
        witness = [v for v in range(g.n) if mask >> v & 1]
        for kind, resolves in RESOLVING_TESTS.items():
            expected = oracle_is_resolving(g.n, g.edges, witness, kind)
            assert resolves(g, witness) == expected, (kind, witness)
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_library_budgets_below_one_still_raise():
    # the command line refuses such budgets; the library keeps counting nodes
    for budget in (0, -1):
        with pytest.raises(SearchBudgetExceededError):
            solve_dimension(cycle_graph(4), "dim", budget=budget)
    with pytest.raises(EnumerationOverflowError):
        phi_of_graph(subdivision(cycle_graph(4)), cap=0)


def _budget_cases():
    g5 = gn_graph(5)[0]
    return [
        pytest.param(total(g5).graph, "dim", id="dim T(G_5)"),
        pytest.param(subdivision(g5).graph, "edim", id="edim S(G_5)"),
        pytest.param(cycle_graph(8), "mdim", id="mdim C8"),
        pytest.param(middle(g5).graph, "mdim", id="mdim M(G_5)"),
        pytest.param(middle(random_tree(12, seed=3)).graph, "dim", id="dim M(random_tree 12)"),
    ]


@pytest.mark.parametrize("g, kind", _budget_cases())
def test_budget_boundary_is_one_node_per_visited_set(g, kind):
    cert = solve_dimension(g, kind)
    nodes = cert.stats.search_nodes
    assert nodes > 0
    exact = solve_dimension(g, kind, budget=nodes)
    assert (exact, exact.stats) == (cert, cert.stats)
    with pytest.raises(SearchBudgetExceededError):
        solve_dimension(g, kind, budget=nodes - 1)


def _oracle_minimal_masks(n, edges, kind):
    """Inclusion-minimal separator masks of the kind's universe, ordered by
    (size, value), from the oracle distances alone."""
    dist = oracle_distances(n, edges)
    columns = [[oracle_element_distance(dist, x, w) for w in range(n)]
               for x in oracle_universe(n, edges, kind)]
    masks = {sum(1 << w for w in range(n) if a[w] != b[w])
             for i, a in enumerate(columns) for b in columns[i + 1:]}
    minimal = [m for m in masks if not any(k != m and k & m == k for k in masks)]
    return sorted(minimal, key=lambda m: (bin(m).count("1"), m))


def _assert_masks_match_oracle(g):
    for kind in KINDS:
        assert _separator_masks(g, kind) == _oracle_minimal_masks(g.n, g.edges, kind), (kind, g.edges)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=8))
def test_separator_masks_match_oracle(g):
    _assert_masks_match_oracle(g)


@pytest.mark.parametrize("name", ["S", "M", "T"])
def test_separator_masks_match_oracle_on_derived_g3(name):
    _assert_masks_match_oracle(DERIVED[name](gn_graph(3)[0]))
