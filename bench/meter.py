"""Item timing corrected for the speed of the host at the moment.

On a shared 2-vCPU virtual machine, twelve back-to-back rounds of the same
single-threaded Python work ran at 0.84x to 1.18x their median rate in CPU
time, with changes of speed that last seconds.  A fixed reference loop,
timed between consecutive timed segments, measures the host's speed at
that moment; each segment's CPU time is scaled by the loop's nominal time
over the mean of the WINDOW readings on either side of it (one reading
alone varies by +-30 %).  On a host where the loop takes its nominal time,
corrected times equal CPU times.  The loops are frozen benchmark code, so
a change to ``mdimlab`` moves the corrected figures and a change of host
speed does not.

There are two loops, because host contention slows memory-bound and
cache-resident code by different amounts: ``search`` tests small vertex
sets for resolving a 15-vertex graph, the tuple-and-set work of the
solvers; ``bfs`` builds the all-pairs distance table of a 160-vertex tree,
the work of graph construction.  Each workload uses the loop closer to its
own work.  In trials the matching loop cut the run-to-run spread of
items_per_s by 2x-4x, the other loop by less than 2x.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import combinations

clock = time.process_time

WINDOW = 4

# the search loop's graph: a 9-cycle and a 5-cycle sharing vertex 0, and a
# pendant path
_EDGES = [(i, (i + 1) % 9) for i in range(9)] + [(0, 9), (9, 10), (10, 11), (11, 12), (12, 0)]
_EDGES += [(5, 13), (13, 14)]
_N = 15
# the bfs loop's graph: a caterpillar, path 0..79 with one leaf per vertex
_TREE = [[] for _ in range(160)]
for _v in range(1, 160):
    _u = _v - 1 if _v < 80 else _v - 80
    _TREE[_u].append(_v)
    _TREE[_v].append(_u)


def _table(n, adj):
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return rows


def _search() -> None:
    adj = [[] for _ in range(_N)]
    for u, v in _EDGES:
        adj[u].append(v)
        adj[v].append(u)
    d = _table(_N, adj)
    for combo in combinations(range(12), 3):
        seen = {tuple(d[w][v] for w in combo) for v in range(_N)}
        seen |= {tuple(min(d[w][a], d[w][b]) for w in combo) for a, b in _EDGES}


def _bfs() -> None:
    _table(len(_TREE), _TREE)


# loop, and its CPU seconds per run on the host the bounds were set on
REFERENCES = {"search": (_search, 0.010), "bfs": (_bfs, 0.006)}


def reference(kind: str) -> float:
    """Run one reference loop; return its CPU time in seconds."""
    start = clock()
    REFERENCES[kind][0]()
    return clock() - start


class Meter:
    """Consecutive timed segments, each followed by a reference run."""

    def __init__(self, kind: str):
        self.kind = kind
        self.refs = [reference(kind)]
        self.segments: list[tuple[float, bool]] = []

    def add(self, raw: float, item: bool = True) -> None:
        self.segments.append((raw, item))
        self.refs.append(reference(self.kind))

    def corrected(self) -> list[tuple[float, bool]]:
        """Segments with CPU times scaled to the reference host's speed.

        Segment i lies between reference runs i and i + 1."""
        nominal = REFERENCES[self.kind][1]
        out = []
        for i, (raw, item) in enumerate(self.segments):
            near = self.refs[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
            out.append((raw * nominal * len(near) / sum(near), item))
        return out
