"""Tests of the benchmark's own checks, oracle and tracer.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import mdimlab  # noqa: E402
from mdimlab import harness  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from meter import REFERENCES, Meter  # noqa: E402


def oracle(n, edges, kind):
    """Smallest resolving set by plain enumeration; the first found is the
    lexicographically least."""
    dist = checks.distance_table(n, edges)
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            if checks.resolves(n, edges, combo, kind, dist):
                return k, combo
    raise AssertionError("the whole vertex set always resolves")


SMALL = ([("tree", t) for n in (3, 4, 5) for t in mdimlab.enumerate_small_trees(n)]
         + [("cactus", mdimlab.random_cactus(7, 2, s)) for s in (1, 2)]
         + [("gn", mdimlab.gn_graph(n)[0]) for n in (2, 3)])


@pytest.mark.parametrize("family,g", SMALL, ids=[f"{f}{i}" for i, (f, _) in enumerate(SMALL)])
def test_oracle_agrees_with_solver_on_derived_graphs(family, g):
    for derive in (mdimlab.subdivision, mdimlab.middle, mdimlab.total):
        dg = derive(g).graph
        for kind in ("dim", "edim", "mdim"):
            cert = mdimlab.solve_dimension(dg, kind)
            assert (cert.value, cert.vertices) == oracle(dg.n, list(dg.edges), kind)


def test_witness_check_rejects_wrong_answers():
    g = mdimlab.subdivision(mdimlab.gn_graph(5)[0]).graph
    edges = list(g.edges)
    cert = mdimlab.solve_dimension(g, "mdim")
    assert checks.check_witness(g.n, edges, "mdim", cert.value, cert.vertices) == []
    assert checks.check_witness(g.n, edges, "mdim", cert.value + 1, cert.vertices)
    assert checks.check_witness(g.n, edges, "mdim", cert.value, cert.vertices[:-1] + (g.n,))
    assert checks.check_witness(g.n, edges, "mdim", cert.value - 1, cert.vertices[:-1])
    assert checks.check_witness(g.n, edges, "dim", 1, (0,))


def test_law_checks_reject_wrong_values():
    tree = {"dim": 2, "edim": 2, "mdim": 3}
    assert checks.check_derived_laws("tree", 6, 3, "M", "dim", 3, tree) == []
    assert checks.check_derived_laws("tree", 6, 3, "M", "dim", 2, tree)
    assert checks.check_derived_laws("tree", 6, 3, "T", "mdim", 5, tree)
    assert checks.check_derived_laws("tree", 6, 3, "S", "mdim", 4, tree)
    assert checks.check_derived_laws("tree", 6, 3, "T", "dim", 4, tree)
    assert checks.check_derived_laws("tree", 6, 4, "S", "edim", 2, tree)  # mdim != n1
    assert checks.check_derived_laws("cactus", 9, 2, "S", "mdim", 4, {"dim": 2, "edim": 3, "mdim": 5})
    gn = {"dim": 6, "edim": 6, "mdim": 9}
    assert checks.check_derived_laws("gn", 7, 0, "S", "mdim", 7, gn) == []
    assert checks.check_derived_laws("gn", 7, 0, "S", "mdim", 8, gn)
    assert checks.check_derived_laws("gn", 7, 0, "S", "dim", 6, {**gn, "mdim": 8})
    assert checks.check_derived_laws("cactus", 9, 2, "S", "mdim", 2, {"dim": 5, "edim": 5, "mdim": 2})
    assert checks.check_derived_laws("cactus", 9, 2, "M", "dim", 6, {"dim": 2, "edim": 2, "mdim": 5})


def test_encoders_match_the_published_formats():
    assert checks.encode_graph6(3, [(0, 1), (0, 2), (1, 2)]) == b"Bw\n"
    assert checks.encode_edge_list(3, [(2, 1), (0, 1)]) == b"3 2\n0 1\n1 2\n"
    g = mdimlab.random_tree(130, 7)
    data = checks.encode_graph6(g.n, g.edges)
    assert data[:1] == b"~" and mdimlab.parse_graph(data) == g


def test_derived_sizes_match_the_constructions():
    g = mdimlab.random_cactus(20, 4, 3)
    sizes = checks.derived_sizes(g.n, list(g.edges))
    for d, derive in (("S", mdimlab.subdivision), ("M", mdimlab.middle), ("T", mdimlab.total)):
        assert sizes[d] == (derive(g).graph.n, derive(g).graph.m)


def _ingest_item(g, fmt="edgelist"):
    encode = checks.encode_graph6 if fmt == "graph6" else checks.encode_edge_list
    return workloads._Input(f"x.{fmt}", encode(g.n, g.edges), g.n, tuple(g.edges))


def test_ingest_check_rejects_wrong_outputs():
    ingest = workloads.IngestLarge.__new__(workloads.IngestLarge)
    ingest.probe = random.Random(0)
    g = mdimlab.random_cactus(30, 3, 1)
    derived = {"S": mdimlab.subdivision(g), "M": mdimlab.middle(g), "T": mdimlab.total(g)}
    assert ingest._check(_ingest_item(g), g, derived) == []
    assert ingest._check(_ingest_item(g, "graph6"), g, derived) == []
    assert ingest._check(_ingest_item(g), g, {**derived, "M": derived["T"]})
    assert ingest._check(_ingest_item(g), g, {**derived, "S": derived["M"]})
    other = mdimlab.random_cactus(30, 3, 2)
    assert ingest._check(_ingest_item(other), g, derived)


def test_verify_check_flags_violations_budget_skips_and_changed_bytes():
    verify = workloads.VerifyDefault.__new__(workloads.VerifyDefault)
    verify.instances = harness.default_corpus()[:2]
    verify.digest = None
    report = harness.run_checks(verify.instances)
    text = report.to_json() + report.to_csv()
    assert verify._check(report, text) == []
    assert verify._check(report, text + " ")
    report.records[0].status = harness.VIOLATED
    assert verify._check(report, text)
    report.records[0].status, report.records[1].reason = harness.SKIPPED, "budget: exhausted"
    assert verify._check(report, text)


def test_solve_round_checks_pass_and_repeat():
    solve = workloads.SolveDerived.__new__(workloads.SolveDerived)
    base = mdimlab.random_tree(8, 3)
    solve.bases = {"t": base}
    solve.items = [workloads._Solve("t", "tree", 8, base, d, k, getattr(mdimlab, name)(base).graph)
                   for d, k, name in (("M", "dim", "middle"), ("T", "mdim", "total"))]
    solve.first = None
    tracer = spans.Tracer()
    first = solve.run_round(tracer)
    assert first.problems == [] and first.failed == 0 and len(first.item_seconds) == 2
    assert solve.run_round(tracer).problems == []


def test_tracer_records_nested_spans_and_restores_functions():
    original = mdimlab.build_graph
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mdimlab.build_graph is not original
        assert mdimlab.transforms.build_graph is mdimlab.build_graph
        tracer.phase, tracer.item = "item", 0
        g = mdimlab.path_graph(4)
        mdimlab.subdivision(g)
        trees = list(mdimlab.enumerate_small_trees(5))
        tracer.phase = None
        mdimlab.middle(g)  # not recorded
    finally:
        tracer.uninstall()
    assert mdimlab.build_graph is original and mdimlab.transforms.build_graph is original
    assert len(trees) == 3
    names = [s.name for s in tracer.spans]
    assert names.count("transforms.subdivision") == 1 and "transforms.middle" not in names
    sub = next(s for s in tracer.spans if s.name == "transforms.subdivision")
    child = next(s for s in tracer.spans if s.parent == sub.id)
    own = spans.self_times(tracer.spans)
    assert own[sub.id] == pytest.approx(sub.ms - child.ms)
    metrics = spans.layer_metrics(tracer.spans, rounds=1)
    assert metrics["graph.build_graph.calls"][0] == names.count("graph.build_graph")
    assert metrics["graph.distance_entries"][0] == sum(
        s.counters["distance_entries"] for s in tracer.spans if s.name == "graph.build_graph")
    assert metrics["transforms.derived_elements"][0] == 7 + 6


def test_stamped_corpus_times_each_instance():
    meter = Meter("search")
    harness.run_checks(workloads._StampedCorpus(harness.default_corpus()[:3], spans.Tracer(), meter))
    assert len(meter.segments) == 3 and len(meter.refs) == 4
    assert all(raw > 0 and item for raw, item in meter.segments)


def test_meter_scales_cpu_time_by_reference_speed():
    meter = Meter("bfs")
    nominal = REFERENCES["bfs"][1]
    meter.refs = [2 * nominal] * 3 + [nominal] * 9
    meter.segments = [(1.0, True), (3.0, False)] + [(1.0, True)] * 9
    corrected = meter.corrected()
    assert corrected[0] == (pytest.approx(1.0 / ((3 * 2 + 2) / 5)), True)
    assert corrected[1][1] is False
    assert corrected[-1] == (pytest.approx(1.0), True)


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ingest-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
