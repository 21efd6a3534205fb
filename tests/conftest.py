"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own distance and search
machinery: distances come from a dict-based BFS, resolving checks apply
the raw definition, and minimum dimensions come from plain smallest-first
subset enumeration.  Tests compare package results against these.
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

# let the suite run from a clean checkout without an editable install
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mdimlab import build_graph


def oracle_distances(n, edges):
    """BFS distances as {source: {vertex: dist}}, frontier-by-frontier."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    table = {}
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        table[s] = dist
    return table


def oracle_element_distance(dist, element, w):
    kind, payload = element
    if kind == "v":
        return dist[payload][w]
    a, b = payload
    return min(dist[a][w], dist[b][w])


def oracle_universe(n, edges, kind):
    vs = [("v", v) for v in range(n)]
    es = [("e", e) for e in sorted(edges)]
    if kind == "dim":
        return vs
    if kind == "edim":
        return es
    return vs + es


def oracle_is_resolving(n, edges, witness, kind):
    dist = oracle_distances(n, edges)
    seen = set()
    for element in oracle_universe(n, edges, kind):
        sig = tuple(oracle_element_distance(dist, element, w) for w in witness)
        if sig in seen:
            return False
        seen.add(sig)
    return True


def oracle_min_witnesses(n, edges, kind):
    """(value, all minimum witnesses in lexicographic order) by exhaustion."""
    for k in range(1, n + 1):
        found = [
            combo
            for combo in combinations(range(n), k)
            if oracle_is_resolving(n, edges, combo, kind)
        ]
        if found:
            return k, found
    raise AssertionError("no resolving set found, even the full vertex set")


def oracle_cycles(n, edges):
    """Every simple cycle as (vertex tuple in walk order, frozenset of edges).

    Each cycle is walked from its least vertex through larger vertices only,
    and kept once although both directions reach it."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    found = {}

    def walk(path):
        for w in adj[path[-1]]:
            if w == path[0] and len(path) >= 3:
                ring = frozenset(frozenset(p) for p in zip(path, path[1:] + [path[0]]))
                found.setdefault(ring, tuple(path))
            elif w > path[0] and w not in path:
                walk(path + [w])

    for s in range(n):
        walk([s])
    return [(path, ring) for ring, path in found.items()]


def oracle_cactus(n, edges):
    """Brute-force cactus facts: None unless every two cycles are
    edge-disjoint; else (n1, sorted (vertex set, length, rt) per cycle,
    formula value n1 + sum max(3 - rt, 0) + epsilon)."""
    cycles = oracle_cycles(n, edges)
    if any(a & b for (_, a), (_, b) in combinations(cycles, 2)):
        return None
    degree = {v: 0 for v in range(n)}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    dist = oracle_distances(n, edges)
    n1 = sum(1 for d in degree.values() if d == 1)
    rows, formula = [], n1
    for path, _ in cycles:
        roots = [v for v in path if degree[v] >= 3]
        triple = any(dist[a][b] + dist[b][c] + dist[c][a] == len(path)
                     for a, b, c in combinations(roots, 3))
        formula += max(3 - len(roots), 0) + (len(roots) >= 3 and not triple)
        rows.append((sorted(path), len(path), len(roots)))
    return n1, sorted(rows), formula


def oracle_non_cactus_block(n, edges):
    """(sorted vertices, edge count) of the union of every cycle that shares
    an edge with another; the non-cactus block when there is only one."""
    cycles = oracle_cycles(n, edges)
    shared = set()
    for (_, a), (_, b) in combinations(cycles, 2):
        if a & b:
            shared |= a | b
    return sorted({v for e in shared for v in e}), len(shared)


@st.composite
def connected_graphs(draw, max_n=8, max_extra=3):
    """Random tree plus a few extra edges; always simple and connected."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    extra = draw(st.integers(min_value=0, max_value=max_extra))
    missing = sorted(
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    )
    for _ in range(min(extra, len(missing))):
        idx = draw(st.integers(min_value=0, max_value=len(missing) - 1))
        edges.add(missing.pop(idx))
    return build_graph(n, edges)


@pytest.fixture(scope="session")
def g2():
    from mdimlab import gn_graph

    return gn_graph(2)[0]
