from itertools import permutations, product

import pytest

from mdimlab import (
    BadSpecError,
    cactus_decompose,
    complete_graph,
    cycle_graph,
    enumerate_small_trees,
    generate,
    gn_graph,
    is_tree,
    path_graph,
    random_cactus,
    random_tree,
    star_graph,
)
from mdimlab.cli import main
from mdimlab.rng import SplitMix64


def test_fixed_family_shapes():
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle_graph(4).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert star_graph(4).edges == ((0, 1), (0, 2), (0, 3))
    assert complete_graph(3).m == 3


def test_two_hub_edge_set():
    g, names = gn_graph(2)
    assert g.n == 4 and g.m == 5
    assert set(g.edges) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)}
    assert names == {"x": 0, "y": 1, "z1": 2, "z2": 3}


def test_generate_dispatch():
    (path,) = generate("path:n=4")
    assert (path.id, path.graph) == ("path:n=4", path_graph(4))
    (tree,) = generate("random_tree:n=6,seed=9")
    assert (tree.id, tree.graph) == ("random_tree:n=6,seed=009", random_tree(6, 9))
    (cactus,) = generate("random_cactus:n=10,cycles=2,seed=7")
    assert cactus.graph == random_cactus(10, 2, 7)
    (default_seed,) = generate("random_tree:n=5")  # a parameter left out is 1
    assert (default_seed.id, default_seed.graph) == ("random_tree:n=5,seed=001", random_tree(5, 1))


BAD_SPECS = [
    "path:n=1",
    "cycle:n=2",
    "star:n=1",
    "gn:n=1",
    "random_tree:n=1,seed=1",
    "random_cactus:n=4,cycles=2,seed=1",  # needs 5 vertices
    "moebius:n=5",
]


@pytest.mark.parametrize("spec", BAD_SPECS, ids=[f"spec{i}" for i in range(len(BAD_SPECS))])
def test_bad_specs_rejected(spec):
    with pytest.raises(BadSpecError):
        generate(spec)


@pytest.mark.parametrize("call, message", [
    (lambda: complete_graph(1), "complete needs n >= 2, got 1"),
    (lambda: random_cactus(1, 0, 1), "random_cactus needs n >= 2, got 1"),
    (lambda: random_cactus(5, -1, 1), "cycle count must be nonnegative, got -1"),
])
def test_generators_reject_parameters_out_of_range(call, message):
    with pytest.raises(BadSpecError, match=message):
        call()


def test_seeds_outside_64_bits_are_rejected(capsys):
    # SplitMix64 keeps 64 bits of its seed, so these would build seeds 2**64 - 1 and 0
    for spec in ("random_tree:n=5,seed=-1", "random_cactus:n=7,cycles=1,seed=18446744073709551616"):
        with pytest.raises(BadSpecError, match="needs 0 <= seed < 2\\*\\*64"):
            generate(spec)
        assert main(["generate", "--family", spec]) == 2
    assert "seed < 2**64, got -1" in capsys.readouterr().err


def test_same_seed_same_graph():
    assert random_tree(10, 123) == random_tree(10, 123)
    assert random_cactus(12, 3, 5) == random_cactus(12, 3, 5)


def test_seeds_vary_the_output():
    graphs = {random_tree(9, s).edges for s in range(20)}
    assert len(graphs) > 10


def test_random_trees_are_trees():
    for seed in range(1, 30):
        assert is_tree(random_tree(2 + seed % 9, seed))


def test_random_cacti_have_requested_cycles():
    for seed in range(1, 30):
        cycles = seed % 4
        n = max(2, 1 + 2 * cycles) + seed % 5
        report = cactus_decompose(random_cactus(n, cycles, seed))
        assert len(report.cycles) == cycles


def test_documented_cactus_example():
    report = cactus_decompose(random_cactus(10, 2, seed=7))
    assert len(report.cycles) == 2


def test_splitmix64_reference_stream():
    # frozen stream for seed 1234567; guards the generator against drift
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_bounded_draws_cover_range():
    rng = SplitMix64(99)
    draws = [rng.below(7) for _ in range(500)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)


TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


@pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
def test_tree_enumeration_counts(n, count):
    trees = list(enumerate_small_trees(n))
    assert len(trees) == count
    assert all(is_tree(t) and t.n == n for t in trees)


def test_tree_enumeration_bounds():
    with pytest.raises(BadSpecError):
        list(enumerate_small_trees(1))
    with pytest.raises(BadSpecError):
        list(enumerate_small_trees(11))


def test_enumeration_is_deterministic():
    first = [t.edges for t in enumerate_small_trees(7)]
    second = [t.edges for t in enumerate_small_trees(7)]
    assert first == second


def _isomorphic(a, b):
    """Brute-force isomorphism over all vertex permutations; tiny graphs only."""
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(a.degree(v) for v in range(a.n)) != sorted(b.degree(v) for v in range(b.n)):
        return False
    eb = set(b.edges)
    for perm in permutations(range(a.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in a.edges}
        if mapped == eb:
            return True
    return False


def _centroids(n, adj):
    """Vertices minimizing the largest remaining component; one or two of them."""
    best, out = n + 1, []
    for v in range(n):
        worst = 0
        for root in adj[v]:
            size, stack, seen = 0, [root], {v, root}
            while stack:
                u = stack.pop()
                size += 1
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            worst = max(worst, size)
        if worst < best:
            best, out = worst, [v]
        elif worst == best:
            out.append(v)
    return out


def _centroid_canon(n, edges):
    """Canonical form rooted at the centroid(s); independent of the package's
    center-rooted encoding."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def encode(v, parent):
        return tuple(sorted(encode(w, v) for w in adj[v] if w != parent))

    return tuple(sorted(encode(c, -1) for c in _centroids(n, adj)))


def _all_labeled_tree_edge_sets(n):
    """Decode every length-(n-2) sequence over [0, n); covers all labeled trees."""
    import heapq

    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        work = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(work)
        edges = []
        for x in seq:
            leaf = heapq.heappop(work)
            edges.append((leaf, x) if leaf < x else (x, leaf))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(work, x)
        a, b = heapq.heappop(work), heapq.heappop(work)
        edges.append((a, b) if a < b else (b, a))
        yield edges


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_enumerated_trees_are_pairwise_nonisomorphic(n):
    enumerated = list(enumerate_small_trees(n))
    for i, a in enumerate(enumerated):
        for b in enumerated[i + 1 :]:
            assert not _isomorphic(a, b)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_enumeration_against_labeled_exhaustion(n):
    enumerated = [_centroid_canon(t.n, t.edges) for t in enumerate_small_trees(n)]
    assert len(set(enumerated)) == len(enumerated)
    exhaustive = {_centroid_canon(n, e) for e in _all_labeled_tree_edge_sets(n)}
    assert set(enumerated) == exhaustive
