import gc
import math
from functools import cache
from itertools import chain, combinations, compress, count, product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
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
    random_cactus,
    random_tree,
    solve_dimension,
    star_graph,
    subdivision,
    total,
)

from mdimlab import solvers
from mdimlab.solvers import (
    _components,
    _index,
    _involutions,
    _mask_order,
    _packing,
    _Search,
    _separator_masks,
)

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


def _phi_listing(search, part):
    """phi's route through one mask group: a solve's search finds the
    group's least cardinality k, then the existence search lists every set
    of size k."""
    index = _index(part)
    k, _ = search.least_size(part, index)
    return search.every_set(part, index, k)


def test_walks_leave_no_cyclic_garbage():
    # both searches recurse through a method, which no object they reach
    # refers back to; a recursive closure would refer to itself, and every
    # search would then leave its mask index to the cycle collector
    masks = _separator_masks(total(gn_graph(3)[0]).graph, "mdim")
    gc.collect()
    gc.disable()
    try:
        assert _Search(10**6).minimum_set(masks)
        assert gc.collect() == 0
        assert _phi_listing(_Search(10**6), masks)
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


@pytest.mark.parametrize("derived", [middle(cycle_graph(4)), total(cycle_graph(4)),
                                     middle(path_graph(3))], ids=["M(C4)", "T(C4)", "M(P3)"])
def test_phi_refuses_a_graph_that_is_not_a_subdivision_graph(derived):
    # every split of these is adjacent to another split, whether or not a
    # metric basis holds one
    with pytest.raises(GraphError, match="^split vertex adjacent to a non-original vertex; "
                                         "not a subdivision graph$"):
        phi_of_graph(derived)


def test_phi_enumeration_cap():
    with pytest.raises(EnumerationOverflowError):
        phi_of_graph(subdivision(cycle_graph(6)), cap=1)


def test_phi_propagates_inner_search_budget():
    with pytest.raises(SearchBudgetExceededError):
        phi_of_graph(subdivision(cycle_graph(8)), budget=2)


def test_phi_budget_boundary_refutes_and_lists_each_group_once():
    sg5 = subdivision(gn_graph(5)[0])
    assert phi_of_graph(sg5, budget=290) == phi_of_graph(sg5)
    with pytest.raises(SearchBudgetExceededError):
        phi_of_graph(sg5, budget=289)


def test_phi_of_s_g8_lists_its_bases_by_the_existence_search():
    # the lex walk passed every prefix of every basis in order, 132,665
    # nodes; the existence search reaches each basis by one path
    sg8 = subdivision(gn_graph(8)[0])
    result = phi_of_graph(sg8, budget=16_387)
    assert (result.phi_value, result.bases_enumerated) == (9, 8736)
    with pytest.raises(SearchBudgetExceededError):
        phi_of_graph(sg8, budget=16_386)


def test_phi_checks_the_cap_before_listing_any_basis():
    sg8 = subdivision(gn_graph(8)[0])
    # enough nodes to find dim(S(G_8)) by phi's size searches, a solve's,
    # too few to list its metric bases
    search = _Search(10**8, sg8.graph)
    for part in _components(_separator_masks(sg8.graph, "dim")):
        search.least_size(part, _index(part))
    with pytest.raises(EnumerationOverflowError):
        phi_of_graph(sg8, cap=1, budget=search.nodes)


def test_phi_refuses_s_g16_by_the_cap_within_a_small_budget():
    # a solve's search sizes S(G_16) in 10,182 nodes, so the cap refuses
    # it long before the budget runs out
    with pytest.raises(EnumerationOverflowError):
        phi_of_graph(subdivision(gn_graph(16)[0]), budget=20_000)


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
        walks = [_phi_listing(search, part) for part in _components(masks)]
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


def _c4_with_tail_of_diameter_256():
    """The 4-cycle 0-1-2-3 with a path of 254 edges hung on vertex 0."""
    tail = [(0, 4)] + [(v, v + 1) for v in range(4, 257)]
    return build_graph(258, [(0, 1), (1, 2), (2, 3), (0, 3), *tail])


@pytest.mark.parametrize("g", [path_graph(257), _c4_with_tail_of_diameter_256()],
                         ids=["path257", "c4-tail256"])
def test_resolving_tests_match_oracle_on_tuple_rows(g):
    assert {type(row) for row in g.distances} == {tuple}
    leaf = g.n - 1
    outcomes = set()
    for kind, resolves in RESOLVING_TESTS.items():
        masks = _separator_masks(g, kind)
        for witness in ([0], [1], [leaf], [0, leaf], [1, 2, leaf]):
            expected = oracle_is_resolving(g.n, g.edges, witness, kind)
            assert resolves(g, witness) == expected, (kind, witness)
            hits = sum(1 << v for v in witness)
            assert all(mask & hits for mask in masks) == expected, (kind, witness)
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
    # around the existence search's share, where its cap and the budget
    # meet, the budget still runs out at its own next node
    for budget in range(cert.stats.refute_nodes - 1, cert.stats.refute_nodes + 2):
        with pytest.raises(SearchBudgetExceededError) as caught:
            solve_dimension(g, kind, budget=budget)
        assert caught.value.checked == budget + 1, budget
        assert caught.value.budget == budget, budget  # the caller's, never the cap


# pinned (search_nodes, masks_kept, lower_bound, symmetry_pruned,
# refute_nodes), with the witness: the search's node count and its budget
# point stay put
_PINNED_STATS = [
    pytest.param(lambda: total(gn_graph(6)[0]).graph, "dim", (0, 2, 10, 11, 18, 19),
                 (286, 142, 3, 382, 84), id="dim T(G_6)"),
    pytest.param(lambda: middle(gn_graph(6)[0]).graph, "dim", (2, 3, 11, 12, 19, 20),
                 (125, 86, 4, 78, 84), id="dim M(G_6)"),
    pytest.param(lambda: subdivision(gn_graph(5)[0]).graph, "dim", (8, 9, 15, 16),
                 (119, 41, 2, 83, 72), id="dim S(G_5)"),
    pytest.param(lambda: subdivision(gn_graph(5)[0]).graph, "edim", (8, 9, 15, 16),
                 (118, 21, 2, 83, 72), id="edim S(G_5)"),
    pytest.param(lambda: middle(gn_graph(10)[0]).graph, "dim", (2, 3, 4, 5, 6, 7, 19, 20, 31, 32),
                 (361, 200, 6, 711, 132), id="dim M(G_10)"),
    pytest.param(lambda: subdivision(gn_graph(8)[0]).graph, "dim", (2, 3, 4, 14, 15, 24, 25),
                 (544, 101, 4, 1041, 108), id="dim S(G_8)"),
    pytest.param(lambda: total(random_tree(40, 1)).graph, "dim", (0, 3, 7, 10, 42, 47),
                 (70, 99, 5, 0, 40), id="dim T(random_tree(40, 1))"),
    pytest.param(lambda: total(random_cactus(14, 3, 2)).graph, "dim", (0, 2, 11, 25),
                 (102, 50, 2, 0, 70), id="dim T(random_cactus(14, 3, 2))"),
]


@pytest.mark.parametrize("make, kind, witness, stats", _PINNED_STATS)
def test_solve_stats_pinned(make, kind, witness, stats):
    cert = solve_dimension(make(), kind)
    assert cert.vertices == witness
    s = cert.stats
    got = (s.search_nodes, s.masks_kept, s.lower_bound, s.symmetry_pruned, s.refute_nodes)
    assert got == stats


def _brute_minimum_sets(masks):
    """Every least-size subset of the masks' vertices that meets each mask,
    in lexicographic order."""
    union = 0
    for m in masks:
        union |= m
    verts = [v for v in range(union.bit_length()) if union >> v & 1]
    for k in count(1):
        found = [c for c in combinations(verts, k)
                 if all(any(m >> v & 1 for v in c) for m in masks)]
        if found:
            return found


@st.composite
def minimal_mask_families(draw):
    """Inclusion-minimal masks on up to 14 vertices, by (size, value)."""
    n = draw(st.integers(min_value=1, max_value=14))
    drawn = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1),
                          min_size=1, max_size=12))
    masks = sorted({sum(1 << v for v in vs) for vs in drawn}, key=_mask_order)
    return [m for i, m in enumerate(masks) if not any(o & m == o for o in masks[:i])]


@settings(max_examples=300, deadline=None)
@given(minimal_mask_families())
@example([0b1])  # one one-vertex mask
@example([0b10, 0b101])  # a one-vertex group and a two-vertex one
@example([0b011, 0b110, 0b1010])  # k = 1: every mask holds vertex 1
@example([0b0011, 0b1100, 0b0101, 0b1010])  # k = 2, two sets
def test_walk_lists_every_minimum_set_as_brute_force(masks):
    for part in _components(masks):
        brute = _brute_minimum_sets(part)
        assert _Search(10**7).minimum_set(part) == brute[0], part
        # phi's listing holds each set once, its vertices in pick order
        listed = [tuple(sorted(found)) for found in _phi_listing(_Search(10**7), part)]
        assert sorted(listed) == brute and len(set(listed)) == len(listed), part


def _least_hitting_size(masks, allowed):
    """The size of a least set of vertices of ``allowed`` that meets every
    mask, or None when some mask holds none of them."""
    verts = [v for v in range(allowed.bit_length()) if allowed >> v & 1]
    for k in range(len(masks) + 1):
        if any(all(any(m >> v & 1 for v in c) for m in masks) for c in combinations(verts, k)):
            return k
    return None


def _least_hitting_set(masks, allowed, k):
    """The lexicographically least set of ``k`` vertices of ``allowed``
    that meets every mask."""
    verts = [v for v in range(allowed.bit_length()) if allowed >> v & 1]
    return next(c for c in combinations(verts, k)
                if all(any(m >> v & 1 for v in c) for m in masks))


@settings(max_examples=300, deadline=None)
@given(minimal_mask_families(), st.integers(min_value=0, max_value=(1 << 14) - 1))
@example([0b0011, 0b1100, 0b0101, 0b1010], (1 << 14) - 1)  # least size 2
@example([0b011, 0b110], 0b101)  # vertex 1, in both masks, left out: two picks
@example([0b01, 0b10], 0b01)  # mask 0b10 holds no allowed vertex
# the branch of 0 fails; leaving out 0, and no other vertex, keeps {1, 3}
@example([0b1001, 0b10010, 0b100110, 0b111100], (1 << 14) - 1)
def test_existence_search_answers_as_brute_force(masks, allowed):
    index = _index(masks)
    least = _least_hitting_size(masks, allowed)
    for walk, k in product((False, True), range(1, len(masks) + 2)):
        search = _Search(10**7)
        search._load(masks, index, walk)
        picks = search._branch((1 << len(masks)) - 1, allowed, k)
        if picks is not None:  # either rule returns only sets that meet every mask
            assert len(picks) <= k and all(allowed >> v & 1 for v in picks), (masks, picks)
            assert all(any(m >> v & 1 for v in picks) for m in masks), (masks, picks)
        if walk:
            # the walk may miss a set above the least size, never at it, and
            # there its first set is the lexicographically least
            if least is None or k < least:
                assert picks is None, (masks, bin(allowed), k)
            elif k == least:
                assert picks == _least_hitting_set(masks, allowed, k), (masks, bin(allowed), k)
            continue
        found = picks is not None
        assert found == (least is not None and least <= k), (masks, bin(allowed), k)


def _greedy_packing(masks, above=-1, stop=math.inf):
    """Greedy count of masks pairwise disjoint on the vertices in
    ``above``, over the masks in order; stops once it passes ``stop``."""
    used = count = 0
    for m in masks:
        m &= above
        if not m & used:
            used |= m
            count += 1
            if count > stop:
                break
    return count


@settings(max_examples=300, deadline=None)
@given(minimal_mask_families(), st.integers(min_value=0, max_value=(1 << 12) - 1),
       st.integers(min_value=0, max_value=(1 << 14) - 1),
       st.one_of(st.integers(min_value=0, max_value=13), st.just(math.inf)))
@example([0b011, 0b110, 0b1100], (1 << 12) - 1, -1, math.inf)  # every mask and vertex
@example([0b011, 0b1100], 0b11, 0b1100, 1)  # mask 0b011 has no allowed vertex, and counts
def test_packing_by_mask_ids_counts_as_the_greedy_scan(masks, open_ids, allowed, stop):
    open_ids &= (1 << len(masks)) - 1
    flags = [open_ids >> i & 1 for i in range(len(masks))]
    want = _greedy_packing(compress(masks, flags), allowed, stop)
    assert _packing(masks, _index(masks)[0], open_ids, allowed, stop) == want


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


def _oracle_pair_mask(dist, n, x, y):
    return sum(1 << w for w in range(n)
               if oracle_element_distance(dist, x, w) != oracle_element_distance(dist, y, w))


def _assert_seeded_masks_match_oracle(g):
    forced = forced_vertices_mdim(g)
    hit = sum(1 << v for v in forced)
    open_masks = [m for m in _oracle_minimal_masks(g.n, g.edges, "mdim") if not m & hit]
    assert _separator_masks(g, "mdim", forced) == open_masks, g.edges


def _assert_forced_pairs_separate_only_their_vertex(g):
    # v is forced when a neighbour u has N[v] inside N[u]; then only v
    # separates u from the edge uv
    dist = oracle_distances(g.n, g.edges)
    closed = {v: {w for w in range(g.n) if dist[v][w] <= 1} for v in range(g.n)}
    dominated = set()
    for v in range(g.n):
        for u in closed[v] - {v}:
            if closed[v] <= closed[u]:
                dominated.add(v)
                edge = ("e", (min(u, v), max(u, v)))
                assert _oracle_pair_mask(dist, g.n, ("v", u), edge) == 1 << v, (u, v, g.edges)
    assert tuple(sorted(dominated)) == forced_vertices_mdim(g)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=8))
def test_seeded_masks_are_the_oracle_masks_that_miss_the_forced_vertices(g):
    _assert_seeded_masks_match_oracle(g)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=8))
def test_a_forced_vertex_alone_separates_its_dominating_neighbour_from_their_edge(g):
    _assert_forced_pairs_separate_only_their_vertex(g)


@pytest.mark.parametrize("name", ["S", "M", "T"])
def test_seeded_masks_and_forced_pairs_on_derived_g3(name):
    g = DERIVED[name](gn_graph(3)[0])
    _assert_seeded_masks_match_oracle(g)
    _assert_forced_pairs_separate_only_their_vertex(g)


_CACTUS_200_FORCED = (
    22, 52, 65, 66, 68, 69, 73, 74, 77, 79, 88, 92, 96, 97, 98, 99, 102, 106, 107, 108, 110, 111,
    114, 115, 116, 117, 118, 121, 124, 125, 126, 127, 132, 133, 135, 138, 141, 142, 145, 146, 147,
    149, 150, 153, 154, 155, 157, 158, 159, 160, 162, 163, 164, 165, 166, 167, 169, 170,
    *range(172, 200))


# (graph, value, witness, forced, lower bound, and the masks kept and the
# search nodes when every forced vertex was a one-vertex mask group)
_PINNED_MDIM = [
    pytest.param(lambda: middle(gn_graph(6)[0]).graph, 15, tuple(range(15)), tuple(range(8)),
                 14, 26, 27, id="M(G_6)"),
    pytest.param(lambda: middle(gn_graph(7)[0]).graph, 17, tuple(range(17)), tuple(range(9)),
                 16, 30, 30, id="M(G_7)"),
    pytest.param(lambda: middle(gn_graph(12)[0]).graph, 27, tuple(range(27)), tuple(range(14)),
                 26, 50, 45, id="M(G_12)"),
    pytest.param(lambda: subdivision(random_cactus(12, 3, 3)).graph, 6, (0, 4, 5, 7, 9, 11), (11,),
                 4, 13, 12, id="S(random_cactus(12, 3, 3))"),
    pytest.param(lambda: random_cactus(200, 20, 1), 90, tuple(sorted((23, 30, 33, 41) + _CACTUS_200_FORCED)),
                 _CACTUS_200_FORCED, 90, 92, 180, id="random_cactus(200, 20, 1)"),
    pytest.param(lambda: total(random_tree(18, 2)).graph, 14,
                 (1, 2, 6, 10, 13, 16, 17, 20, 21, 25, 26, 32, 33, 34),
                 (1, 2, 6, 10, 13, 16, 17, 20, 21, 25, 26, 32, 33, 34), 14, 14, 28,
                 id="T(random_tree(18, 2))"),
]


@pytest.mark.parametrize("make, value, witness, forced, lower, all_masks, all_nodes", _PINNED_MDIM)
def test_mdim_certificates_pinned_across_seeding(make, value, witness, forced, lower, all_masks,
                                                  all_nodes):
    cert = solve_dimension(make(), "mdim")
    assert (cert.value, cert.vertices, cert.forced) == (value, witness, forced)
    assert cert.stats.lower_bound == lower
    # seeding drops the forced vertices' one-vertex masks and the two walk
    # nodes of each; with the existence search off, the walk is the search
    assert cert.stats.masks_kept == all_masks - len(forced)
    with patch.object(solvers, "_refute_cap", lambda size: 0):
        walk = solve_dimension(make(), "mdim")
    assert walk.stats.search_nodes == all_nodes - 2 * len(forced)


def _unpruned_certificate(g, kind):
    """(value, vertices, forced) from the forced vertices and the first set
    of each group's walk, with no symmetry pruning."""
    forced = forced_vertices_mdim(g) if kind == "mdim" else ()
    search = _Search(10**8)
    picks = [search.minimum_set(part) for part in _components(_separator_masks(g, kind, forced))]
    witness = tuple(sorted(chain(forced, *picks))) or (0,)
    return len(witness), witness, forced


# the shipped allowance, and none: every walk then prunes from its first node
GATES = {"shipped": solvers._refute_cap, "from-first-node": lambda size: 0}


def _assert_pruned_solves_match_unpruned(g, gate, unpruned=_unpruned_certificate):
    with patch.object(solvers, "_refute_cap", GATES[gate]):
        for kind in KINDS:
            cert = solve_dimension(g, kind)
            assert (cert.value, cert.vertices, cert.forced) == unpruned(g, kind), (kind, g.edges)


@st.composite
def graphs_with_planted_twins(draw):
    """A connected graph and one to three planted twins: each new vertex
    copies the neighbours of an earlier one, and is joined to it or not."""
    g = draw(connected_graphs(max_n=6))
    n, edges = g.n, list(g.edges)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        edges += [(n, b if a == v else a) for a, b in edges if v in (a, b)]
        if draw(st.booleans()):
            edges.append((v, n))
        n += 1
    return build_graph(n, edges)


def _gn_derived_cases():
    return [pytest.param(name, n, id=f"{name}(G_{n})") for n in range(2, 9) for name in "SMT"]


@cache
def _gn_derived(name, n):
    return DERIVED[name](gn_graph(n)[0])


@cache
def _gn_derived_unpruned(name, n, kind):
    return _unpruned_certificate(_gn_derived(name, n), kind)


@pytest.mark.parametrize("gate", GATES)
@settings(max_examples=60, deadline=None)
@given(st.one_of(connected_graphs(max_n=8), graphs_with_planted_twins()))
def test_pruned_solves_match_unpruned_walks(gate, g):
    for derive in DERIVED.values():
        _assert_pruned_solves_match_unpruned(derive(g), gate)


@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize("name, n", _gn_derived_cases())
def test_pruned_solves_match_unpruned_walks_on_gn(name, n, gate):
    _assert_pruned_solves_match_unpruned(
        _gn_derived(name, n), gate, lambda g, kind: _gn_derived_unpruned(name, n, kind))


def _assert_involutive_automorphisms(g):
    edges = set(g.edges)
    found = _involutions(g)
    for sigma in found:
        assert sorted(sigma) == list(range(g.n)), g.edges
        assert all(sigma[sigma[v]] == v for v in range(g.n)), (sigma, g.edges)
        assert any(sigma[v] != v for v in range(g.n)), g.edges
        assert {(min(sigma[a], sigma[b]), max(sigma[a], sigma[b])) for a, b in g.edges} == edges
    return found


@settings(max_examples=60, deadline=None)
@given(st.one_of(connected_graphs(max_n=8), graphs_with_planted_twins()))
def test_involutions_are_automorphisms(g):
    for derive in DERIVED.values():
        _assert_involutive_automorphisms(derive(g))


@pytest.mark.parametrize("name, n", _gn_derived_cases())
def test_involutions_are_automorphisms_on_gn(name, n):
    # the two hubs and the pairwise-twin middle vertices lift to S, M and T
    assert _assert_involutive_automorphisms(_gn_derived(name, n))


def test_involutions_of_a_path_with_tuple_rows():
    g = path_graph(300)
    assert {type(row) for row in g.distances} == {tuple}
    assert _assert_involutive_automorphisms(g) == [[299 - v for v in range(300)]]


def test_involutions_swap_twins_that_are_not_consecutive_in_their_row_class():
    # 0 and 2 have equal open neighbourhoods, 1 and 4 equal closed ones; the
    # class of equal sorted distance rows is [0, 1, 2, 4], and none of its
    # consecutive pairs swaps to an automorphism
    g = build_graph(5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4)])
    found = _assert_involutive_automorphisms(g)
    assert [2, 1, 0, 3, 4] in found and [0, 4, 2, 3, 1] in found


def _reference_cut(involutions, picked, window):
    """The candidates of ``window`` whose pick leaves a set Q that some
    involution maps to a smaller one, one candidate and one involution at
    a time: the least vertex of Q xor sigma(Q) lies outside Q."""
    picks = sum(1 << v for v in picked)
    cut = 0
    for v in range(window.bit_length()):
        if window >> v & 1:
            now = picks | 1 << v
            for sigma in involutions:
                d = now ^ sum(1 << sigma[w] for w in range(len(sigma)) if now >> w & 1)
                if d & -d & ~now:
                    cut |= 1 << v
                    break
    return cut


@st.composite
def involutions_with_picks(draw):
    """One to three involutions of up to 14 vertices, increasing picks,
    and a window of candidates above the last pick."""
    n = draw(st.integers(min_value=1, max_value=14))
    involutions = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        order = draw(st.permutations(range(n)))
        sigma = list(range(n))
        for i in range(draw(st.integers(min_value=0, max_value=n // 2))):
            a, b = order[2 * i], order[2 * i + 1]
            sigma[a], sigma[b] = b, a
        involutions.append(sigma)
    picked = tuple(sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1)))))
    above = ~((2 << picked[-1]) - 1) if picked else -1
    window = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) & above
    return n, involutions, picked, window


@settings(max_examples=500, deadline=None)
@given(involutions_with_picks())
# sigma = (0 3)(1 2) maps P = {0, 2} to {1, 3}: candidate 3 lies in sigma(P),
# and Q = {0, 2, 3} xor sigma(Q) = {1, 2}, so the pick of 3 is cut
@example((4, [[3, 2, 1, 0]], (0, 2), 0b1000))
def test_bitmask_cut_matches_the_per_candidate_rule(case):
    n, involutions, picked, window = case
    search = _Search(1)
    everyone = (1 << n) - 1  # one mask holding every vertex: the group is all n
    search._load([everyone], _index([everyone]), True)
    search._found = involutions
    assert search._leaders(window, picked) == _reference_cut(involutions, picked, window)


def test_symmetry_pruning_solves_dim_of_total_g10_within_a_small_budget():
    # the unpruned walk takes 1,637,015 nodes; pruning keeps its witness
    cert = solve_dimension(total(gn_graph(10)[0]).graph, "dim", budget=10_000)
    assert (cert.value, cert.vertices) == (9, (2, 3, 4, 5, 6, 18, 19, 30, 31))
    assert cert.stats.symmetry_pruned > 0


def _no_involutions(g):
    raise AssertionError("a walk after a settled existence search looked for involutions")


@pytest.mark.parametrize("make, kind, witness, nodes", [
    pytest.param(lambda: subdivision(gn_graph(6)[0]).graph, "mdim", (2, 3, 11, 12, 19, 20), 171,
                 id="mdim S(G_6)"),
    pytest.param(lambda: total(random_cactus(12, 3, 2)).graph, "dim", (0, 6, 10, 12), 136,
                 id="dim T(random_cactus(12, 3, 2))"),
])
def test_a_walk_after_a_settled_existence_search_never_prunes(make, kind, witness, nodes):
    # every group's existence search finds its size within the cap, so each
    # walk runs unpruned and never looks for the graph's involutions
    g = make()
    with patch.object(solvers, "_involutions", _no_involutions):
        cert = solve_dimension(g, kind)
    assert (cert.vertices, cert.value, cert.forced) == (witness, len(witness), ())
    assert (cert.stats.search_nodes, cert.stats.symmetry_pruned) == (nodes, 0)


def test_a_walk_after_a_capped_existence_search_prunes_from_its_first_node():
    # T(G_6)'s one group spends the existence search's cap; its walk looks
    # for the involutions once and cuts children from its first node on
    g = total(gn_graph(6)[0]).graph
    calls = []
    with patch.object(solvers, "_involutions", lambda h: calls.append(h) or _involutions(h)):
        cert = solve_dimension(g, "dim")
    assert calls == [g]
    assert (cert.stats.search_nodes, cert.stats.symmetry_pruned, cert.stats.refute_nodes) == (286, 382, 84)


# the existence search off, as shipped, and with no cap
CAPS = {"walk-only": lambda size: 0, "shipped": solvers._refute_cap,
        "uncapped": lambda size: math.inf}


def _assert_caps_agree(g):
    by_cap = {}
    for name, cap in CAPS.items():
        with patch.object(solvers, "_refute_cap", cap):
            by_cap[name] = [solve_dimension(g, kind) for kind in KINDS]
    walk = [(c.value, c.vertices, c.forced) for c in by_cap["walk-only"]]
    for name, certs in by_cap.items():
        assert [(c.value, c.vertices, c.forced) for c in certs] == walk, (name, g.edges)
    assert all(c.stats.refute_nodes == 0 for c in by_cap["walk-only"])


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=8))
def test_certificates_do_not_depend_on_the_existence_search_cap(g):
    _assert_caps_agree(g)


@pytest.mark.parametrize("name, n", _gn_derived_cases())
def test_certificates_do_not_depend_on_the_existence_search_cap_on_gn(name, n):
    _assert_caps_agree(_gn_derived(name, n))


def test_existence_search_solves_dim_of_total_tree40_within_a_small_budget():
    # the lex walk alone refutes k = 5 in 2,889 nodes
    cert = solve_dimension(total(random_tree(40, 1)).graph, "dim", budget=500)
    assert (cert.value, cert.vertices) == (6, (0, 3, 7, 10, 42, 47))
    assert 0 < cert.stats.refute_nodes < cert.stats.search_nodes
