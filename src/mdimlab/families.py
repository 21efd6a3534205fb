"""Deterministic graph generators: fixed families, seeded random families,
and exhaustive enumeration of small non-isomorphic trees."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterator

from .errors import BadSpecError
from .graph import Graph, build_graph
from .rng import SplitMix64


@dataclass(frozen=True)
class Instance:
    """A corpus member: the graph and the id that names it in reports."""

    id: str
    graph: Graph


@dataclass(frozen=True)
class Recipe:
    """How a family builds: ``build(n, *values)`` takes the values of the
    parameters besides n that the family reads, in instance-id order, and
    returns one graph, or yields every graph on n for an exhaustive family."""

    build: Callable
    params: tuple[str, ...] = ()
    exhaustive: bool = False


# every family; each builder is looked up when called, so it may be defined below
RECIPES = {
    "path": Recipe(lambda n: path_graph(n)),
    "cycle": Recipe(lambda n: cycle_graph(n)),
    "star": Recipe(lambda n: star_graph(n)),
    "complete": Recipe(lambda n: complete_graph(n)),
    "gn": Recipe(lambda n: gn_graph(n)[0]),
    "random_tree": Recipe(lambda n, seed: random_tree(n, seed), ("seed",)),
    "random_cactus": Recipe(lambda n, cycles, seed: random_cactus(n, cycles, seed),
                            ("cycles", "seed")),
    "trees": Recipe(lambda n: enumerate_small_trees(n), exhaustive=True),
}


# digits a value fills in an instance id; other values are written as they are
_ID_DIGITS = {"seed": 3, "i": 3}


def _id_field(key: str, value: int) -> str:
    return f"{key}={value:0{_ID_DIGITS.get(key, 1)}d}"


def _spec_values(text: str, spec: str) -> list[int]:
    """A number, or every number of a range ``A..B``."""
    lo, dots, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        values = []
    if not values:
        raise BadSpecError(f"family value {text!r} in {spec!r} is not a number or a nonempty range A..B")
    return values


def generate(spec: str) -> list[Instance]:
    """The corpus members ``NAME:n=N[,cycles=C][,seed=S]`` names, each value
    a number or a range ``A..B``: one graph per combination of values, or
    every graph on n for an exhaustive family.  A parameter the family
    reads and the spec leaves out is 1.  Same spec, byte-identical graphs."""
    name, _, rest = spec.partition(":")
    recipe = RECIPES.get(name)
    if recipe is None:
        raise BadSpecError(f"unknown family {name!r}; known: {', '.join(sorted(RECIPES))}")
    keys = ("n", *recipe.params)
    given: dict[str, list[int]] = {}
    for part in rest.split(",") if rest else ():
        key, _, value = (text.strip() for text in part.partition("="))
        if not value:
            raise BadSpecError(f"bad family parameter {part!r} in {spec!r}")
        if key not in keys:
            raise BadSpecError(f"family {name!r} takes no parameter {key!r} in {spec!r}")
        if key in given:
            raise BadSpecError(f"repeated family parameter {key!r} in {spec!r}")
        given[key] = _spec_values(value, spec)
    if "n" not in given:
        raise BadSpecError(f"family spec {spec!r} needs n=...")
    out: list[Instance] = []
    for values in product(*(given.get(key, [1]) for key in keys)):
        stem = f"{name}:" + ",".join(map(_id_field, keys, values))
        built = recipe.build(*values)
        members = ([(f"{stem},{_id_field('i', i)}", g) for i, g in enumerate(built)]
                   if recipe.exhaustive else [(stem, built)])
        out += [Instance(id=ident, graph=g) for ident, g in members]
    return out


def path_graph(n: int) -> Graph:
    if n < 2:
        raise BadSpecError(f"path needs n >= 2, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise BadSpecError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star with center 0 and n - 1 leaves."""
    if n < 2:
        raise BadSpecError(f"star needs n >= 2, got {n}")
    return build_graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise BadSpecError(f"complete needs n >= 2, got {n}")
    return build_graph(n, combinations(range(n), 2))


def gn_graph(n: int) -> tuple[Graph, dict[str, int]]:
    """Two hubs x, y joined to each other and to n shared neighbors z1..zn.

    Returns the graph and the name map x -> 0, y -> 1, zi -> 1 + i.
    """
    if n < 2:
        raise BadSpecError(f"gn needs n >= 2, got {n}")
    names = {"x": 0, "y": 1}
    edges = [(0, 1)]
    for i in range(1, n + 1):
        names[f"z{i}"] = 1 + i
        edges.append((0, 1 + i))
        edges.append((1, 1 + i))
    return build_graph(n + 2, edges), names


def _generator(family: str, seed: int) -> SplitMix64:
    """The generator a seed names; BadSpecError outside 0 <= seed < 2**64,
    where SplitMix64 would read the seed modulo 2**64 as another seed."""
    if not 0 <= seed < 1 << 64:
        raise BadSpecError(f"{family} needs 0 <= seed < 2**64, got {seed}")
    return SplitMix64(seed)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree: decode a random length-(n-2) integer sequence."""
    if n < 2:
        raise BadSpecError(f"random_tree needs n >= 2, got {n}")
    rng = _generator("random_tree", seed)
    if n == 2:
        return build_graph(2, [(0, 1)])
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(n, edges)


def random_cactus(n: int, cycles: int, seed: int) -> Graph:
    """Seeded cactus with exactly the requested number of cycles.

    Cycles (length 3..6, budget permitting) are attached one by one at a
    random existing vertex; remaining vertices join as pendant edges at
    random spots, which also lands them on cycle vertices and varies the
    per-cycle root counts.  Cycles meet at single vertices only, so the
    result always decomposes as a cactus.
    """
    if n < 2:
        raise BadSpecError(f"random_cactus needs n >= 2, got {n}")
    if cycles < 0:
        raise BadSpecError(f"cycle count must be nonnegative, got {cycles}")
    if 1 + 2 * cycles > n:
        raise BadSpecError(f"{cycles} cycles need at least {1 + 2 * cycles} vertices, got {n}")
    rng = _generator("random_cactus", seed)
    edges: list[tuple[int, int]] = []
    k = 1
    for i in range(cycles):
        remaining = cycles - i - 1
        budget = n - k - 2 * remaining  # new vertices this cycle may consume
        max_len = min(6, budget + 1)
        length = 3 + (rng.below(max_len - 2) if max_len > 3 else 0)
        attach = rng.below(k)
        ring = [attach] + list(range(k, k + length - 1))
        for a, b in zip(ring, ring[1:]):
            edges.append((a, b))
        edges.append((ring[-1], attach))
        k += length - 1
    while k < n:
        edges.append((rng.below(k), k))
        k += 1
    return build_graph(n, edges)


def _ahu_encoding(adjacency: dict[int, list[int]], root: int) -> str:
    def encode(v: int, parent: int) -> str:
        return "(" + "".join(sorted(encode(w, v) for w in adjacency[v] if w != parent)) + ")"

    return encode(root, -1)


def _tree_centers(n: int, adjacency: dict[int, list[int]]) -> list[int]:
    degree = {v: len(adjacency[v]) for v in range(n)}
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for w in adjacency[v]:
                if degree[w] > 1:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _tree_key(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[str, ...]:
    """Isomorphism-canonical key: sorted center-rooted AHU encodings."""
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return tuple(sorted(_ahu_encoding(adjacency, c) for c in _tree_centers(n, adjacency)))


def enumerate_small_trees(n: int) -> Iterator[Graph]:
    """All non-isomorphic trees on n vertices, each exactly once.

    Grows every (k-1)-vertex tree by one leaf and deduplicates with the
    center-rooted canonical form; emission order follows that form.
    """
    if not (2 <= n <= 10):
        raise BadSpecError(f"tree enumeration supports 2 <= n <= 10, got {n}")
    level: dict[tuple[str, ...], tuple[tuple[int, int], ...]] = {
        _tree_key(2, ((0, 1),)): ((0, 1),)
    }
    for k in range(3, n + 1):
        grown: dict[tuple[str, ...], tuple[tuple[int, int], ...]] = {}
        for edges in level.values():
            for v in range(k - 1):
                candidate = edges + ((v, k - 1),)
                key = _tree_key(k, candidate)
                if key not in grown:
                    grown[key] = candidate
        level = grown
    for key in sorted(level):
        yield build_graph(n, level[key])
