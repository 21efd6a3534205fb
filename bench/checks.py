"""Correctness checks that owe nothing to the program's own output.

Distances come from a plain BFS over edge lists, resolving sets are tested
against the raw definition, and graph bytes are written by encoders kept
here.  Every check returns a list of failure messages; an empty list means
the output passed.  Nothing in this module imports ``mdimlab``.
"""

from __future__ import annotations

from collections import deque


def bfs_row(n: int, edges, source: int) -> list[int]:
    """Hop distances from ``source``; -1 marks an unreachable vertex."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def distance_table(n: int, edges) -> list[list[int]]:
    return [bfs_row(n, edges, s) for s in range(n)]


def leaf_count(n: int, edges) -> int:
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return sum(1 for d in degree if d == 1)


def resolves(n: int, edges, witness, kind: str, dist=None) -> bool:
    """Do the witness vertices give every element of the kind's universe a
    distinct distance vector?  dim: vertices, edim: edges, mdim: both."""
    dist = dist if dist is not None else distance_table(n, edges)
    universe = []
    if kind in ("dim", "mdim"):
        universe += [tuple(dist[w][v] for w in witness) for v in range(n)]
    if kind in ("edim", "mdim"):
        universe += [tuple(min(dist[w][a], dist[w][b]) for w in witness) for a, b in edges]
    return len(set(universe)) == len(universe)


def check_witness(n: int, edges, kind: str, value: int, witness, dist=None) -> list[str]:
    """A returned certificate: distinct in-range vertices, size equal to the
    reported value, and resolving for its universe."""
    ws = list(witness)
    if len(set(ws)) != len(ws) or any(not 0 <= w < n for w in ws):
        return [f"{kind} witness {ws} is not a set of vertices of 0..{n - 1}"]
    if len(ws) != value:
        return [f"{kind} witness {ws} has {len(ws)} vertices, reported value {value}"]
    if not resolves(n, edges, ws, kind, dist):
        return [f"{kind} witness {ws} does not resolve its universe"]
    return []


def check_derived_laws(family: str, param: int, n1: int, derived: str, kind: str,
                       value: int, base: dict) -> list[str]:
    """The paper's laws for one solved derived graph.

    ``base`` holds dim, edim and mdim of the base graph.  Trees (n >= 3):
    mdim(S) = mdim = dim(M) = n1, mdim(T) = 2 n1, dim(T) <= n1.  Cacti:
    mdim(S) = mdim.  Two-hub G_n: mdim(G_n) = n + 2, mdim(S(G_n)) <= n.
    Every graph: max(dim, edim) <= 2 mdim(S) and dim(M) <= mdim.
    """
    bad = []
    case = f"{family}: {kind}({derived}) = {value}"
    if derived == "S" and kind == "mdim" and max(base["dim"], base["edim"]) > 2 * value:
        bad.append(f"{case} is below half of max(dim, edim) = {max(base['dim'], base['edim'])}")
    if derived == "M" and kind == "dim" and value > base["mdim"]:
        bad.append(f"{case} exceeds mdim = {base['mdim']}")
    if family == "tree":
        if base["mdim"] != n1:
            bad.append(f"tree mdim {base['mdim']} != n1 = {n1}")
        expected = {("S", "mdim"): n1, ("M", "dim"): n1, ("T", "mdim"): 2 * n1}.get((derived, kind))
        if expected is not None and value != expected:
            bad.append(f"{case}, tree law gives {expected}")
        if (derived, kind) == ("T", "dim") and value > n1:
            bad.append(f"{case} exceeds n1 = {n1}")
    if family in ("tree", "cactus") and (derived, kind) == ("S", "mdim") and value != base["mdim"]:
        bad.append(f"{case} != mdim = {base['mdim']} (cactus law)")
    if family == "gn":
        if base["mdim"] != param + 2:
            bad.append(f"two-hub mdim(G_{param}) = {base['mdim']} != {param + 2}")
        if (derived, kind) == ("S", "mdim") and value > param:
            bad.append(f"{case} exceeds n = {param}")
    return bad


def derived_sizes(n: int, edges) -> dict[str, tuple[int, int]]:
    """(vertices, edges) of S, M and T from the base degrees alone."""
    m = len(edges)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    line_pairs = sum(d * (d - 1) // 2 for d in degree)
    return {"S": (n + m, 2 * m), "M": (n + m, 2 * m + line_pairs), "T": (n + m, 3 * m + line_pairs)}


def encode_edge_list(n: int, edges) -> bytes:
    pairs = sorted((u, v) if u < v else (v, u) for u, v in edges)
    return "".join([f"{n} {len(pairs)}\n"] + [f"{u} {v}\n" for u, v in pairs]).encode("ascii")


def encode_graph6(n: int, edges) -> bytes:
    """nauty graph6: size prefix, then the upper triangle column by column,
    six bits per byte offset by 63."""
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        raise ValueError("graph too large for this encoder")
    present = {(u, v) if u < v else (v, u) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return bytes(63 + x for x in head + body) + b"\n"
