"""The three workloads: inputs built from a seed, rounds of timed items,
and the correctness checks run on their outputs between items.

Each workload's constructor is its set-up: it calls ``mdimlab`` only to
generate base graphs, and hands the program nothing but the generated
inputs.  ``run_round`` attempts the same items every time it is called and
returns their timings; checks run off the clock.

Items are timed in CPU seconds of this process and corrected for the
host's speed at the moment by ``meter.Meter``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import mdimlab
from mdimlab import harness

import checks
from meter import Meter, clock


@dataclass
class Round:
    """Corrected item times, corrected busy time (items plus work outside
    any item) and raw CPU time of one round."""

    item_seconds: list[float]
    busy_seconds: float
    raw_seconds: float
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @classmethod
    def of(cls, meter: Meter, failed: int = 0, problems=()):
        segments = meter.corrected()
        return cls([t for t, item in segments if item], sum(t for t, _ in segments),
                   sum(raw for raw, _ in meter.segments), failed, list(problems))


class _StampedCorpus(list):
    """The corpus list, reading the clock each time the harness takes the
    next instance, so each instance's share of one ``run_checks`` call shows.
    The meter's reference runs fall between instances, outside the clock."""

    def __init__(self, instances, tracer, meter: Meter):
        super().__init__(instances)
        self.tracer = tracer
        self.meter = meter
        self.taken = 0

    def __iter__(self):
        for index, instance in enumerate(list.__iter__(self)):
            self._pause()
            self.tracer.item = index
            self.taken += 1
            self.start = clock()
            yield instance
        self._pause()
        self.tracer.item = None

    def _pause(self):
        if self.taken:
            raw = clock() - self.start
            with self.tracer.aside():
                self.meter.add(raw)


class VerifyDefault:
    """``run_checks(default_corpus())`` with all checks, then both report
    formats.  The seed only shuffles the instance order; records are sorted,
    so every pass must produce the same bytes."""

    reference = "search"

    def __init__(self, seed: int):
        self.instances = harness.default_corpus()
        random.Random(seed).shuffle(self.instances)
        self.digest: str | None = None

    def run_round(self, tracer) -> Round:
        meter = Meter(self.reference)
        corpus = _StampedCorpus(self.instances, tracer, meter)
        tracer.phase = "item" if tracer.enabled else None
        report = harness.run_checks(corpus)
        start = clock()
        text = report.to_json() + report.to_csv()
        serialize = clock() - start
        tracer.phase = None
        meter.add(serialize, item=False)
        if len(meter.segments) != len(self.instances) + 1:
            raise RuntimeError("run_checks did not take the corpus in one pass; "
                               "per-instance times cannot be read")
        return Round.of(meter, problems=self._check(report, text))

    def _check(self, report, text: str) -> list[str]:
        problems = []
        expected = len(self.instances) * len(harness.THEOREM_IDS)
        if len(report.records) != expected:
            problems.append(f"{len(report.records)} records, expected {expected}")
        for r in report.records:
            if r.status == harness.VIOLATED:
                problems.append(f"{r.instance} {r.theorem} violated: {r.values}")
            elif (r.reason or "").startswith("budget"):
                problems.append(f"{r.instance} {r.theorem} skipped for budget: {r.reason}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("report bytes differ between passes")
        return problems


def _relabel(g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return mdimlab.build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# Fixed base structures, each relabelled by permutations drawn from the
# run seed.  The structure, not the labels, sets the size of the subset
# search (10x-100x between random trees of one size), so structures drawn
# from the seed would make the workload's cost a function of the seed.
# Labels still move the lexicographically least witness, and with it the
# length of a search.  The cases below were picked among seeded trees,
# cacti and two-hub graphs for a small spread over relabellings, and each
# structure is solved under COPIES of them.  Searches whose length moves
# 10-25 % with the labels (mdim of S(G_7), dim of M(G_7), mdim of
# S(cactus 16, 4 cycles)) are left out for that reason.  The three T(cactus
# 14) searches cost within 10 % of each other and sit in the middle of the
# per-copy cost order, with ten cheaper and eleven dearer items around
# them, so the median item is one of them whatever the noise.
# (label, family, generator args, [(derived graph, kind), ...])
SOLVE_CASES = [
    ("gn5", "gn", (5,), [("S", "dim"), ("S", "edim")]),
    ("gn6", "gn", (6,), [("S", "mdim"), ("M", "dim"), ("M", "mdim"), ("T", "dim")]),
    ("gn7", "gn", (7,), [("M", "mdim")]),
    ("tree12", "tree", (12, 3), [("S", "mdim"), ("M", "dim"), ("T", "mdim")]),
    ("tree16", "tree", (16, 4), [("S", "mdim"), ("T", "dim"), ("T", "mdim")]),
    ("tree18", "tree", (18, 2), [("S", "mdim"), ("T", "dim"), ("T", "mdim")]),
    ("cactus12a", "cactus", (12, 3, 3), [("S", "mdim"), ("M", "dim")]),
    ("cactus12b", "cactus", (12, 3, 5), [("M", "dim")]),
    ("cactus12c", "cactus", (12, 3, 2), [("T", "dim")]),
    ("cactus12d", "cactus", (12, 3, 4), [("T", "dim")]),
    ("cactus14a", "cactus", (14, 3, 2), [("T", "dim")]),
    ("cactus14b", "cactus", (14, 3, 4), [("T", "dim")]),
    ("cactus14c", "cactus", (14, 3, 5), [("T", "dim")]),
]
COPIES = 10

# looked up on mdimlab at call time, so that a traced set-up sees them
_GENERATORS = {
    "gn": lambda n: mdimlab.gn_graph(n)[0],
    "tree": lambda n, s: mdimlab.random_tree(n, s),
    "cactus": lambda n, c, s: mdimlab.random_cactus(n, c, s),
}
_DERIVE = {"S": "subdivision", "M": "middle", "T": "total"}


@dataclass
class _Solve:
    label: str
    family: str
    param: int
    base: object
    derived: str
    kind: str
    graph: object


class SolveDerived:
    """One ``solve_dimension`` call per item on S(G), M(G) or T(G)."""

    reference = "search"

    def __init__(self, seed: int):
        self.items: list[_Solve] = []
        self.bases = {}
        for label, family, args, solves in SOLVE_CASES:
            structure = _GENERATORS[family](*args)
            for copy in range(COPIES):
                name = f"{label}/{copy}"
                base = _relabel(structure, random.Random(f"{seed}/{name}"))
                self.bases[name] = base
                derived = {d: getattr(mdimlab, _DERIVE[d])(base).graph for d, _ in solves}
                for d, kind in solves:
                    self.items.append(_Solve(name, family, args[0], base, d, kind, derived[d]))
        self.first: list | None = None

    def run_round(self, tracer) -> Round:
        meter, results, failed = Meter(self.reference), [], 0
        for index, item in enumerate(self.items):
            tracer.phase, tracer.item = ("item" if tracer.enabled else None), index
            start = clock()
            try:
                cert = mdimlab.solve_dimension(item.graph, item.kind)
            except mdimlab.GraphError:
                cert, failed = None, failed + 1
            raw = clock() - start
            tracer.phase = None
            meter.add(raw)
            results.append(cert)
        problems = []
        if self.first is None:
            self.first = results
            problems = self._check(results)
        elif results != self.first:
            problems.append("certificates differ between rounds on the same inputs")
        return Round.of(meter, failed, problems)

    def _check(self, results) -> list[str]:
        problems = []
        base_values = {}
        for label, base in self.bases.items():
            edges = list(base.edges)
            dist = checks.distance_table(base.n, edges)
            values = {}
            for kind in ("dim", "edim", "mdim"):
                cert = mdimlab.solve_dimension(base, kind)
                problems += checks.check_witness(base.n, edges, kind, cert.value, cert.vertices, dist)
                values[kind] = cert.value
            base_values[label] = values
        for item, cert in zip(self.items, results):
            if cert is None:
                continue
            g = item.graph
            edges = list(g.edges)
            where = f"{item.label} {item.kind}({item.derived})"
            problems += [f"{where}: {p}" for p in
                         checks.check_witness(g.n, edges, item.kind, cert.value, cert.vertices)]
            n1 = checks.leaf_count(item.base.n, list(item.base.edges))
            problems += checks.check_derived_laws(item.family, item.param, n1, item.derived,
                                                  item.kind, cert.value, base_values[item.label])
        return problems


@dataclass
class _Input:
    name: str
    data: bytes
    n: int = 0
    edges: tuple = ()
    expect: type | None = None


# The valid inputs: (family, vertices, cycles, formats).  Six cost about
# the same, so the median item is one of them; the two largest set the
# peak memory.  The all-pairs BFS of G, S, M and T grows with n^2 and
# takes most of an item's time and memory.
VALID_INPUTS = [
    ("tree", 400, 0, ("graph6", "edgelist")),
    ("cactus", 400, 20, ("graph6", "edgelist")),
    ("cactus", 400, 5, ("graph6", "edgelist")),
    ("tree", 600, 0, ("graph6",)),
    ("cactus", 600, 30, ("edgelist",)),
]
FOREST_HALF = 300
_ENCODERS = {"graph6": checks.encode_graph6, "edgelist": checks.encode_edge_list}


class IngestLarge:
    """Parse graph6 and edge-list bytes and build S, M and T of each graph;
    disconnected and malformed inputs must raise their typed errors."""

    reference = "bfs"

    def __init__(self, seed: int):
        rng = random.Random(f"{seed}/ingest")
        self.inputs: list[_Input] = []
        for family, n, cycles, formats in VALID_INPUTS:
            if family == "tree":
                g = mdimlab.random_tree(n, rng.randrange(1 << 30))
            else:
                g = mdimlab.random_cactus(n, cycles, rng.randrange(1 << 30))
            edges = tuple(g.edges)
            for fmt in formats:
                self.inputs.append(_Input(f"{family}{n}.{fmt}", _ENCODERS[fmt](n, edges), n, edges))
        halves = [mdimlab.random_tree(FOREST_HALF, rng.randrange(1 << 30)) for _ in range(2)]
        forest = list(halves[0].edges) + [(u + FOREST_HALF, v + FOREST_HALF) for u, v in halves[1].edges]
        n = 2 * FOREST_HALF
        for fmt, encode in _ENCODERS.items():
            self.inputs.append(_Input(f"forest{n}.{fmt}", encode(n, forest),
                                      expect=mdimlab.DisconnectedError))
        big = next(i for i in self.inputs if i.name == "tree600.graph6")
        text = checks.encode_edge_list(big.n, big.edges).decode()
        head, _, body = text.partition("\n")
        bad_endpoint = body[:body.rstrip("\n").rfind("\n") + 1] + f"0 {big.n}\n"
        self.inputs += [
            _Input("truncated.graph6", big.data.rstrip(b"\n")[:-1] + b"\n", expect=mdimlab.ParseError),
            _Input("endpoint.edgelist", (head + "\n" + bad_endpoint).encode(), expect=mdimlab.ParseError),
            _Input("count.edgelist", (text + "0 1\n").encode(), expect=mdimlab.ParseError),
        ]
        self.probe = random.Random(f"{seed}/probe")

    def run_round(self, tracer) -> Round:
        meter, failed, problems = Meter(self.reference), 0, []
        for index, item in enumerate(self.inputs):
            tracer.phase, tracer.item = ("item" if tracer.enabled else None), index
            outcome = None
            start = clock()
            try:
                g = mdimlab.parse_graph(item.data)
                derived = {"S": mdimlab.subdivision(g), "M": mdimlab.middle(g), "T": mdimlab.total(g)}
            except mdimlab.GraphError as exc:
                outcome = exc
            raw = clock() - start
            tracer.phase = None
            meter.add(raw)
            if item.expect is not None:
                if outcome is None:
                    problems.append(f"{item.name}: accepted, expected {item.expect.__name__}")
                elif not isinstance(outcome, item.expect):
                    failed += 1
            elif outcome is not None:
                failed += 1
            else:
                problems += [f"{item.name}: {p}" for p in self._check(item, g, derived)]
            outcome = g = derived = None
        return Round.of(meter, failed, problems)

    def _check(self, item: _Input, g, derived) -> list[str]:
        problems = []
        emit = mdimlab.emit_graph6 if item.name.endswith("graph6") else mdimlab.emit_edge_list
        if emit(g) != item.data:
            problems.append("emit(parse(x)) != x")
        if g.n != item.n or list(g.edges) != sorted(item.edges):
            problems.append("parsed graph differs from the encoded one")
        for d, (nv, ne) in checks.derived_sizes(item.n, item.edges).items():
            got = (derived[d].graph.n, derived[d].graph.m)
            if got != (nv, ne):
                problems.append(f"{d}: (n, m) = {got}, formula gives {(nv, ne)}")
        for x in self.probe.sample(range(item.n), 2):
            row = checks.bfs_row(item.n, item.edges, x)
            if list(g.distances[x]) != row:
                problems.append(f"G distances from {x} differ from BFS")
            s_row = derived["S"].graph.distances[x]
            if any(s_row[y] != 2 * row[y] for y in range(item.n)):
                problems.append(f"d_S({x}, y) != 2 d_G({x}, y)")
            for d, dg in derived.items():
                if list(dg.graph.distances[x]) != checks.bfs_row(dg.graph.n, dg.graph.edges, x):
                    problems.append(f"{d} distances from {x} differ from BFS")
        return problems


WORKLOADS = {"verify-default": VerifyDefault, "solve-derived": SolveDerived,
             "ingest-large": IngestLarge}
