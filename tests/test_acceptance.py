"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything here is exact integer arithmetic with zero tolerance.  A shared
session-scoped cache keeps the brute-force results computed once per graph
so the later criteria reuse the earlier corpora.

Criterion 3 runs over every non-isomorphic tree with 2 <= n <= 8 plus
seeded random trees.  mdim = n1 and dim <= dim(T) <= n1 are asserted on
every tree.  The middle/total leaf-count laws dim(M) = n1 and
mdim(T) = 2*n1 hold for trees on n >= 3 vertices and are asserted there.
The single-edge tree K2 lies outside them (its middle graph is a 3-path,
its total graph a triangle), so its exact values dim(M(K2)) = 1 and
mdim(T(K2)) = 3 are pinned instead, against the solver and the
independent oracle in conftest alike.
"""

from __future__ import annotations

import sys
import time

import pytest

from mdimlab import (
    EnumerationOverflowError,
    build_graph,
    cactus_decompose,
    check_distance_identities,
    cycle_graph,
    emit_graph,
    enumerate_small_trees,
    forced_vertices_mdim,
    gn_family_facts,
    gn_graph,
    is_edge_resolving,
    is_mixed_resolving,
    is_resolving,
    leaf_count,
    middle,
    parse_graph,
    path_graph,
    phi_of_graph,
    random_cactus,
    random_tree,
    solve_dimension,
    star_graph,
    subdivision,
    total,
)
from mdimlab.harness import default_corpus, run_checks
from mdimlab.rng import SplitMix64

from conftest import oracle_min_witnesses

PHI_CAP = 250_000  # keeps the chain criterion inside the 10-minute budget
K2_DIM_MIDDLE = 1  # M(K2) is the 3-path
K2_MDIM_TOTAL = 3  # T(K2) is the triangle


def _announce(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {detail}", file=sys.__stdout__, flush=True)


class Lab:
    """Memoized brute-force results, shared by all criteria."""

    def __init__(self):
        self.cache = {}

    def _memo(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]

    def value(self, g, kind):
        return self._memo((g, kind), lambda: solve_dimension(g, kind).value)

    def mdim_cert(self, g):
        return self._memo((g, "mdim_cert"), lambda: solve_dimension(g, "mdim"))

    def subdivided(self, g):
        return self._memo((g, "S"), lambda: subdivision(g))

    def sgraph(self, g):
        return self.subdivided(g).graph

    def phi(self, g):
        return self._memo((g, "phi"), lambda: phi_of_graph(self.subdivided(g), cap=PHI_CAP))


@pytest.fixture(scope="session")
def lab():
    return Lab()


@pytest.fixture(scope="session")
def exhaustive_trees():
    out = []
    for n in range(2, 9):
        out.extend(enumerate_small_trees(n))
    return out


@pytest.fixture(scope="session")
def random_trees():
    return [random_tree(4 + (i % 7), seed=i + 1) for i in range(50)]


@pytest.fixture(scope="session")
def cactus_corpus():
    graphs = [cycle_graph(n) for n in range(3, 9)]
    graphs += [random_cactus(8 + (i % 5), 1 + (i % 3), seed=i + 1) for i in range(30)]
    return graphs


@pytest.fixture(scope="session")
def identity_corpus():
    graphs = [path_graph(4), cycle_graph(5), cycle_graph(6), star_graph(4),
              gn_graph(2)[0], gn_graph(5)[0]]
    graphs += [random_tree(5 + (i % 5), seed=101 + i) for i in range(20)]
    return graphs


def test_criterion_1_two_hub_point_values(lab):
    g2, _ = gn_graph(2)
    sg2 = subdivision(g2)
    splits = {g2.edges[j]: sg2.subdivision_vertex(j) for j in range(g2.m)}
    known_basis = [splits[(0, 2)], splits[(0, 3)], splits[(1, 2)]]  # x-z1, x-z2, y-z1
    failures = []
    if lab.value(g2, "mdim") != 4:
        failures.append(f"mdim(G_2) = {lab.value(g2, 'mdim')} != 4")
    if lab.value(sg2.graph, "mdim") != 3:
        failures.append(f"mdim(S(G_2)) = {lab.value(sg2.graph, 'mdim')} != 3")
    if not is_mixed_resolving(sg2.graph, known_basis):
        failures.append("the known 3-set fails to mixed-resolve S(G_2)")
    _announce(1, not failures, "mdim(G_2)=4, mdim(S(G_2))=3, known 3-set verifies")
    assert not failures, failures


def test_criterion_2_two_hub_family(lab):
    failures = []
    for n in (5, 6, 7):
        g, _ = gn_graph(n)
        facts = gn_family_facts(g)
        forced = forced_vertices_mdim(g)
        mdim = lab.value(g, "mdim")
        mdim_s = lab.value(lab.sgraph(g), "mdim")
        if len(forced) != g.n:
            failures.append(f"n={n}: only {len(forced)} of {g.n} vertices forced")
        if mdim != n + 2:
            failures.append(f"n={n}: mdim {mdim} != {n + 2}")
        if not is_mixed_resolving(lab.sgraph(g), facts.sn_vertices):
            failures.append(f"n={n}: S_n does not verify")
        if mdim - mdim_s < 2:
            failures.append(f"n={n}: gap {mdim - mdim_s} < 2")
    _announce(2, not failures, "n=5..7: mdim=n+2 via forcing, S_n verifies, gap >= 2")
    assert not failures, failures


def test_criterion_3_tree_suite(lab, exhaustive_trees, random_trees):
    failures = []
    law_trees = pinned_trees = 0
    for t in exhaustive_trees + random_trees:
        n1 = leaf_count(t)
        label = f"tree n={t.n} {t.edges}"
        if lab.value(t, "mdim") != n1:
            failures.append(f"{label}: mdim {lab.value(t, 'mdim')} != n1 {n1}")
        mg, tg = middle(t).graph, total(t).graph
        dim_total = lab.value(tg, "dim")
        if not lab.value(t, "dim") <= dim_total <= n1:
            failures.append(f"{label}: dim chain broken ({lab.value(t, 'dim')}, {dim_total}, {n1})")
        dim_middle = lab.value(mg, "dim")
        mdim_total = lab.value(tg, "mdim")
        if t.n >= 3:
            law_trees += 1
            if dim_middle != n1:
                failures.append(f"{label}: dim(M) {dim_middle} != n1 {n1}")
            if mdim_total != 2 * n1:
                failures.append(f"{label}: mdim(T) {mdim_total} != 2*n1 {2 * n1}")
            continue
        # the corpus starts at n = 2, so the only tree below n = 3 is K2
        pinned_trees += 1
        for name, got, oracle, expected in (
            ("dim(M)", dim_middle, oracle_min_witnesses(mg.n, mg.edges, "dim")[0], K2_DIM_MIDDLE),
            ("mdim(T)", mdim_total, oracle_min_witnesses(tg.n, tg.edges, "mdim")[0], K2_MDIM_TOTAL),
        ):
            if not got == oracle == expected:
                failures.append(f"{label}: {name} solver {got}, oracle {oracle}, pinned {expected}")
    if pinned_trees != 1:
        failures.append(f"expected K2 once in the corpus, found {pinned_trees} trees with n < 3")
    total_trees = len(exhaustive_trees) + len(random_trees)
    detail = (f"{len(exhaustive_trees)} exhaustive + {len(random_trees)} random trees; "
              f"mdim = n1 and dim chain on {total_trees}, "
              f"dim(M) = n1 and mdim(T) = 2*n1 on {law_trees} with n >= 3, "
              f"K2 pinned at dim(M) = {K2_DIM_MIDDLE}, mdim(T) = {K2_MDIM_TOTAL}; "
              f"{len(failures)} failures")
    _announce(3, not failures, detail)
    assert not failures, failures


def test_criterion_4_star_and_path_total_dims(lab):
    failures = []
    for n in range(3, 8):
        got = lab.value(total(path_graph(n)).graph, "dim")
        if got != 2:
            failures.append(f"dim(T(P{n})) = {got} != 2")
    for k, expected in [(2, 2), (3, 3), (4, 4), (5, 4), (6, 5)]:
        got = lab.value(total(star_graph(k + 1)).graph, "dim")
        if got != expected:
            failures.append(f"dim(T(K1,{k})) = {got} != {expected}")
    _announce(4, not failures, "path totals give 2; star totals step down at k=5")
    assert not failures, failures


def test_criterion_5_cactus_suite(lab, cactus_corpus):
    failures = []
    for g in cactus_corpus:
        formula = cactus_decompose(g).mdim_formula
        mdim = lab.value(g, "mdim")
        mdim_s = lab.value(lab.sgraph(g), "mdim")
        if not (formula == mdim == mdim_s):
            failures.append(f"cactus {g.edges}: formula {formula}, mdim {mdim}, mdim_s {mdim_s}")
    _announce(5, not failures, f"{len(cactus_corpus)} cacti: formula = mdim = mdim(S)")
    assert not failures, failures


def test_criterion_6_distance_identities(identity_corpus):
    failures = []
    for g in identity_corpus:
        report = check_distance_identities(g, subdivision(g), middle(g))
        if not report.ok:
            failures.append(f"{g.edges}: {report.failed()}")
    _announce(6, not failures, f"{len(identity_corpus)} graphs, all six identities exact")
    assert not failures, failures


def test_criterion_7_inequality_chain(lab, exhaustive_trees, random_trees,
                                      cactus_corpus, identity_corpus):
    corpus = exhaustive_trees + random_trees + cactus_corpus + identity_corpus
    completed = skipped = 0
    failures = []
    for g in corpus:
        try:
            phi = lab.phi(g).phi_value
        except EnumerationOverflowError:
            skipped += 1
            continue
        completed += 1
        dim = lab.value(g, "dim")
        edim = lab.value(g, "edim")
        mdim = lab.value(g, "mdim")
        mdim_s = lab.value(lab.sgraph(g), "mdim")
        if phi < max(dim, edim):
            failures.append(f"{g.edges}: phi {phi} < max(dim, edim) {max(dim, edim)}")
        if not (max(dim, edim) <= phi <= 2 * mdim_s and mdim_s <= mdim):
            failures.append(
                f"{g.edges}: chain broken (dim {dim}, edim {edim}, phi {phi}, "
                f"mdim_s {mdim_s}, mdim {mdim})"
            )
    if completed < 10:
        failures.append(f"only {completed} instances completed the phi enumeration")
    _announce(7, not failures,
              f"{completed} chained instances, {skipped} skipped at the phi cap")
    assert not failures, failures


def test_criterion_8_property_suites(lab, exhaustive_trees, cactus_corpus, identity_corpus):
    failures = []

    # forced vertices sit inside every brute witness and cannot be dropped
    for g in exhaustive_trees + cactus_corpus + identity_corpus:
        cert = lab.mdim_cert(g)
        forced = forced_vertices_mdim(g)
        if not set(forced) <= set(cert.vertices):
            failures.append(f"{g.edges}: forced {forced} not inside witness {cert.vertices}")
            continue
        for v in forced:
            rest = sorted(set(cert.vertices) - {v})
            if rest and is_mixed_resolving(g, rest):
                failures.append(f"{g.edges}: witness still verifies without forced vertex {v}")

    # superset monotonicity on 1000 random (graph, witness) samples
    rng = SplitMix64(2024)
    verified = 0
    for _ in range(1000):
        n = 4 + rng.below(6)
        g = random_tree(n, seed=rng.below(10**6))
        if rng.below(3) == 0:  # sometimes add a chord to leave the tree class
            missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                       if (u, v) not in set(g.edges)]
            if missing:
                g = build_graph(n, list(g.edges) + [missing[rng.below(len(missing))]])
        size = 1 + rng.below(g.n)
        witness = sorted({rng.below(g.n) for _ in range(size)} or {0})
        bigger = sorted(set(witness) | {rng.below(g.n)})
        for check in (is_resolving, is_edge_resolving, is_mixed_resolving):
            if check(g, witness):
                verified += 1
                if not check(g, bigger):
                    failures.append(f"{g.edges}: {check.__name__} lost on superset {bigger}")
    if verified == 0:
        failures.append("monotonicity sampling never hit a verifying witness")

    # emit/parse round-trip across the full corpus, both formats
    for g in exhaustive_trees + cactus_corpus + identity_corpus:
        for fmt in ("edgelist", "graph6"):
            if parse_graph(emit_graph(g, fmt)) != g:
                failures.append(f"{g.edges}: round-trip failed for {fmt}")

    _announce(8, not failures,
              f"forcing, monotonicity ({verified} verifying samples), round-trips")
    assert not failures, failures


def test_criterion_9_performance_and_determinism():
    failures = []

    worst = 0.0
    for t in enumerate_small_trees(10):
        start = time.perf_counter()
        solve_dimension(t, "mdim")
        worst = max(worst, time.perf_counter() - start)
    if worst >= 5.0:
        failures.append(f"slowest 10-vertex tree took {worst:.2f}s >= 5s")

    corpus = default_corpus()
    start = time.perf_counter()
    first = run_checks(corpus)
    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append(f"default verify corpus took {elapsed:.1f}s >= 600s")
    second = run_checks(corpus)
    if first.to_json() != second.to_json():
        failures.append("verify reports differ between runs")
    if first.summary["violated"] != 0:
        failures.append(f"default corpus violations: {first.summary}")

    _announce(9, not failures,
              f"worst tree mdim {worst * 1000:.0f}ms, verify corpus {elapsed:.1f}s, byte-identical")
    assert not failures, failures
