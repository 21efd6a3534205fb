"""Corpus-level verification: named checks, machine-readable reports.

Each check pits two independently computed routes against each other on
one instance (closed formula vs. brute-force solver, base graph vs.
derived graph) and records Holds / Violated / Skipped with the numbers on
both sides.  Skips happen only for class mismatches and exhausted search
budgets.  A check takes only the instance's ``_Lab``, so its verdict
depends on the graph and never on where the graph came from.  Reports
serialize deterministically: records sorted by (instance, check), stable
key order, timings omitted unless requested.

``explore`` runs through the same record loop as ``run_checks``: each
target is one more check, named ``explore:<target>``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .errors import (
    ClassMismatchError,
    EnumerationOverflowError,
    SearchBudgetExceededError,
)
from .families import Instance, generate
from .graph import Graph
from .solvers import (
    DEFAULT_BUDGET,
    DEFAULT_PHI_CAP,
    DIM,
    EDIM,
    MDIM,
    Certificate,
    _first_removable,
    is_mixed_resolving,
    phi_of_graph,
    solve_dimension,
)
from .structural import (
    DIM_MIDDLE_TREE,
    MDIM_TOTAL_TREE,
    MDIM_TREE,
    cactus_decompose,
    closed_form,
    gn_family_facts,
)
from . import transforms
from .transforms import DerivedGraph, check_distance_identities

TOOL_VERSION = "0.1.0"

HOLDS = "holds"
VIOLATED = "violated"
SKIPPED = "skipped"

# derived-graph letter: the name of the ``transforms`` function that builds it
DERIVED_NAMES = {"s": "subdivision", "m": "middle", "t": "total"}

# target: (record value key, findings key, test on the gap mdim(G) - mdim(S(G)))
_EXPLORE = {
    "gap_gt_2": ("gap_gt_2", "gap_gt_2_instances_found", lambda gap: gap > 2),
    "mdim_eq_mdims": ("equal", "equality_instances_found", lambda gap: gap == 0),
}
EXPLORE_TARGETS = tuple(_EXPLORE)


def derive(g: Graph, letter: str) -> DerivedGraph:
    """S(G), M(G) or T(G) for "s", "m" or "t".  The builder is looked up in
    ``transforms`` at each call, so a wrapper set there sees every build."""
    return getattr(transforms, DERIVED_NAMES[letter])(g)


def dumps(payload: dict) -> str:
    """Deterministic JSON text of ``payload``, stamped with the tool version:
    the text of ``json.dumps(..., sort_keys=True, indent=2)``, whose
    pure-Python indent encoder this writer replaces."""
    return _text({**payload, "version": TOOL_VERSION}, "\n") + "\n"


def _text(value, newline: str) -> str:
    """``value``'s JSON text, as ``_encode`` writes it."""
    out: list[str] = []
    _encode(value, newline, out)
    return "".join(out)


def _encode(value, newline: str, out: list[str]) -> None:
    """Append the pieces of ``value``'s JSON text to ``out``, as ``json``
    writes them at ``indent=2`` with sorted string keys; ``newline`` is the
    line break and indent of the value's own line."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{" + inner)
        for i, key in enumerate(sorted(value)):
            if i:
                out.append("," + inner)
            out.append(_quote(key) + ": ")
            _encode(value[key], inner, out)
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[" + inner)
        for i, item in enumerate(value):
            if i:
                out.append("," + inner)
            _encode(item, inner, out)
        out.append(newline + "]")
    elif kind is _Encoded:
        out.append(value)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is float:
        if value != value:
            out.append("NaN")
        elif value in (math.inf, -math.inf):
            out.append("Infinity" if value > 0 else "-Infinity")
        else:
            out.append(float.__repr__(value))
    else:  # a subclass of a JSON type, or no JSON type: json decides
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


class _Encoded(str):
    """JSON text that ``_encode`` writes as it stands."""


@dataclass
class TheoremCheck:
    theorem: str
    instance: str
    status: str
    values: dict
    reason: str | None = None
    n: int = 0
    edges: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    def to_dict(self, timings: bool = False) -> dict:
        out = {
            "theorem": self.theorem,
            "instance": self.instance,
            "status": self.status,
            "values": self.values,
            "n": self.n,
            "edges": self.edges,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if timings:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


@dataclass
class Report:
    source: str
    records: list[TheoremCheck]
    extra: dict | None = None

    @property
    def summary(self) -> dict:
        counts = {HOLDS: 0, VIOLATED: 0, SKIPPED: 0}
        for r in self.records:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    def to_json(self, timings: bool = False) -> str:
        """``dumps`` of the report.  The records of one instance share one
        edge list, so each list is encoded once, at the records' indent,
        and each record carries that text."""
        lists = {id(r.edges): r.edges for r in self.records}
        encoded = {key: _Encoded(_text(edges, "\n      ")) for key, edges in lists.items()}
        records = [{**r.to_dict(timings), "edges": encoded[id(r.edges)]} for r in self.records]
        payload = {"source": self.source, "summary": self.summary, "records": records}
        if self.extra is not None:
            payload["findings"] = self.extra
        return dumps(payload)

    def to_csv(self) -> str:
        """One row per record.  The records of one instance share one edge
        list, so each list is joined once."""
        lists = {id(r.edges): r.edges for r in self.records}
        joined = {key: " ".join(f"{u}-{v}" for u, v in edges) for key, edges in lists.items()}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["instance", "theorem", "status", "reason", "values", "n", "edges"])
        for r in self.records:
            values = ";".join(f"{k}={r.values[k]}" for k in sorted(r.values))
            writer.writerow([r.instance, r.theorem, r.status, r.reason or "", values, r.n,
                             joined[id(r.edges)]])
        return buf.getvalue()

    def exit_code(self, strict: bool = False) -> int:
        if any(r.status == VIOLATED for r in self.records):
            return 1
        if strict and any(
            r.status == SKIPPED and (r.reason or "").startswith("budget") for r in self.records
        ):
            return 1
        return 0


class _Lab:
    """Per-instance cache so checks share expensive results: solver
    certificates and the derived graphs S(G), M(G) and T(G), each built at
    most once."""

    def __init__(self, g: Graph, budget: int, phi_cap: int):
        self.g = g
        self.budget = budget
        self.phi_cap = phi_cap
        self._cache: dict[str, object] = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def derived(self, letter: str) -> DerivedGraph:
        """S(G), M(G) or T(G) for "s", "m" or "t"."""
        return self._memo(letter, lambda: derive(self.g, letter))

    def cert(self, kind: str, on: str | None = None) -> Certificate:
        """Exact ``kind`` dimension of G, or of the derived graph ``on`` names."""
        g = self.g if on is None else self.derived(on).graph
        return self._memo((kind, on), lambda: solve_dimension(g, kind, self.budget))

    def phi(self):
        return self._memo("phi", lambda: phi_of_graph(self.derived("s"), self.phi_cap, self.budget))

    def cactus(self):
        return self._memo("cactus", lambda: cactus_decompose(self.g))


def _check_identities(lab: _Lab):
    report = check_distance_identities(lab.g, lab.derived("s"), lab.derived("m"))
    values = {c.identity: c.pairs_checked for c in report.checks}
    if report.ok:
        return HOLDS, values
    bad = report.failed()[0]
    values["counterexample"] = f"{bad.identity}:{bad.counterexample}"
    return VIOLATED, values


def _check_forced(lab: _Lab):
    cert = lab.cert(MDIM)
    witness = set(cert.vertices)
    values = {"forced": list(cert.forced), "mdim": cert.value, "witness": list(cert.vertices)}
    if not set(cert.forced) <= witness:
        return VIOLATED, values
    removable = _first_removable(lab.g, sorted(witness), cert.forced)
    if removable is None:
        return HOLDS, values
    values["removable_forced_vertex"] = removable
    return VIOLATED, values


def _check_cactus_formula(lab: _Lab):
    report = lab.cactus()
    brute = lab.cert(MDIM).value
    values = {"formula": report.mdim_formula, "brute": brute,
              "n1": report.n1, "epsilon": report.epsilon, "cycles": len(report.cycles)}
    return (HOLDS if report.mdim_formula == brute else VIOLATED), values


def _check_subdivision_upper(lab: _Lab):
    values = {"mdim_s": lab.cert(MDIM, "s").value, "mdim": lab.cert(MDIM).value}
    return (HOLDS if values["mdim_s"] <= values["mdim"] else VIOLATED), values


def _check_phi_lower(lab: _Lab):
    phi = lab.phi()
    values = {"phi": phi.phi_value, "dim": lab.cert(DIM).value, "edim": lab.cert(EDIM).value,
              "bases": phi.bases_enumerated}
    ok = phi.phi_value >= max(values["dim"], values["edim"])
    return (HOLDS if ok else VIOLATED), values


def _check_chain(lab: _Lab):
    phi = lab.phi()
    values = {"dim": lab.cert(DIM).value, "edim": lab.cert(EDIM).value, "phi": phi.phi_value,
              "mdim_s": lab.cert(MDIM, "s").value, "mdim": lab.cert(MDIM).value}
    # halves compared in integer form: a/2 <= b  <=>  a <= 2b
    ok = (
        max(values["dim"], values["edim"]) <= values["phi"]
        and values["phi"] <= 2 * values["mdim_s"]
        and values["mdim_s"] <= values["mdim"]
    )
    return (HOLDS if ok else VIOLATED), values


def _check_gn_gap(lab: _Lab):
    facts = gn_family_facts(lab.g)
    forced = lab.cert(MDIM).forced
    mdim = lab.cert(MDIM).value
    mdim_s = lab.cert(MDIM, "s").value
    sn_ok = is_mixed_resolving(lab.derived("s").graph, facts.sn_vertices)
    values = {
        "formula": facts.mdim_value,
        "mdim": mdim,
        "mdim_s": mdim_s,
        "gap": mdim - mdim_s,
        "forced_count": len(forced),
        "sn_verifies": sn_ok,
    }
    ok = (
        mdim == facts.mdim_value
        and len(forced) == lab.g.n
        and sn_ok
        and mdim - mdim_s >= facts.gap_lower_bound
    )
    return (HOLDS if ok else VIOLATED), values


def _check_cactus_equality(lab: _Lab):
    lab.cactus()
    values = {"mdim": lab.cert(MDIM).value, "mdim_s": lab.cert(MDIM, "s").value}
    return (HOLDS if values["mdim"] == values["mdim_s"] else VIOLATED), values


def _check_middle_bound(lab: _Lab):
    values = {"dim_middle": lab.cert(DIM, "m").value, "mdim": lab.cert(MDIM).value}
    return (HOLDS if values["dim_middle"] <= values["mdim"] else VIOLATED), values


def _check_tree_middle(lab: _Lab):
    n1, mdim_law = closed_form(lab.g, DIM_MIDDLE_TREE), closed_form(lab.g, MDIM_TREE)
    values = {"n1": n1, "mdim": lab.cert(MDIM).value, "dim_middle": lab.cert(DIM, "m").value}
    ok = values["mdim"] == mdim_law and values["dim_middle"] == n1
    return (HOLDS if ok else VIOLATED), values


def _check_tree_total(lab: _Lab):
    expected, n1 = closed_form(lab.g, MDIM_TOTAL_TREE), closed_form(lab.g, MDIM_TREE)
    values = {"n1": n1, "mdim_total": lab.cert(MDIM, "t").value, "expected": expected}
    return (HOLDS if values["mdim_total"] == expected else VIOLATED), values


def _check_tree_total_dim_bounds(lab: _Lab):
    n1 = closed_form(lab.g, MDIM_TREE)
    values = {"dim": lab.cert(DIM).value, "dim_total": lab.cert(DIM, "t").value, "n1": n1}
    ok = values["dim"] <= values["dim_total"] <= values["n1"]
    return (HOLDS if ok else VIOLATED), values


_CHECKS = {
    "C3.2": _check_chain,
    "C3.5-cactus": _check_cactus_equality,
    "E1-E6-identities": _check_identities,
    "L2.1-forced": _check_forced,
    "P3.4": _check_gn_gap,
    "P4.5": _check_tree_total_dim_bounds,
    "T2.2-formula": _check_cactus_formula,
    "T3.1i": _check_subdivision_upper,
    "T3.1ii": _check_phi_lower,
    "T4.1": _check_middle_bound,
    "T4.2": _check_tree_middle,
    "T4.3": _check_tree_total,
}


THEOREM_IDS = tuple(_CHECKS)


def _records(instances, checks, budget: int, phi_cap: int) -> list[TheoremCheck]:
    """One TheoremCheck per (instance, (name, check)) pair, sorted; takes
    ``instances`` in one pass; ValueError on a repeated instance id."""
    records = []
    seen = set()
    for inst in instances:
        if inst.id in seen:
            raise ValueError(f"repeated instance id {inst.id!r}")
        seen.add(inst.id)
        lab = _Lab(inst.graph, budget, phi_cap)
        edges = [list(e) for e in inst.graph.edges]
        for name, check in checks:
            start = time.perf_counter()
            try:
                status, values = check(lab)
                reason = None
            except ClassMismatchError as exc:
                status, values, reason = SKIPPED, {}, f"class: {exc}"
            except (SearchBudgetExceededError, EnumerationOverflowError) as exc:
                status, values, reason = SKIPPED, {}, f"budget: {exc}"
            records.append(
                TheoremCheck(
                    theorem=name,
                    instance=inst.id,
                    status=status,
                    values=values,
                    reason=reason,
                    n=inst.graph.n,
                    edges=edges,
                    elapsed_ms=(time.perf_counter() - start) * 1000.0,
                )
            )
    records.sort(key=lambda r: (r.instance, r.theorem))
    return records


def run_checks(
    instances: list[Instance],
    theorems: list[str] | None = None,
    budget: int = DEFAULT_BUDGET,
    phi_cap: int = DEFAULT_PHI_CAP,
    source: str = "corpus",
) -> Report:
    """One TheoremCheck per (instance, check id), sorted and deterministic."""
    ids = THEOREM_IDS if theorems is None else theorems
    if not ids:
        raise ValueError("the theorem list names no id")
    for i, t in enumerate(ids):
        if t not in _CHECKS:
            raise ValueError(f"unknown theorem id {t!r}; known: {', '.join(THEOREM_IDS)}")
        if t in ids[:i]:
            raise ValueError(f"repeated theorem id {t!r}")
    records = _records(instances, [(t, _CHECKS[t]) for t in ids], budget, phi_cap)
    return Report(source=source, records=records)


def explore(
    instances: list[Instance],
    target: str,
    budget: int = DEFAULT_BUDGET,
    source: str = "corpus",
) -> Report:
    """Scan a corpus for subdivision-gap behavior; reports findings on the
    scanned instances only and asserts nothing beyond them."""
    if target not in _EXPLORE:
        raise ValueError(f"unknown explore target {target!r}; known: {', '.join(EXPLORE_TARGETS)}")
    key, found, test = _EXPLORE[target]

    def scan(lab: _Lab):
        mdim, mdim_s = lab.cert(MDIM).value, lab.cert(MDIM, "s").value
        gap = mdim - mdim_s
        return HOLDS, {"mdim": mdim, "mdim_s": mdim_s, "gap": gap, key: test(gap)}

    records = _records(instances, [(f"explore:{target}", scan)], budget, DEFAULT_PHI_CAP)
    # corpus-scoped summary: maxima and matches found, never a general claim
    gaps = {r.instance: r.values["gap"] for r in records if r.status == HOLDS}
    return Report(source=source, records=records, extra={
        "target": target,
        "instances_scanned": len(gaps),
        "instances_skipped": len(records) - len(gaps),
        "max_gap_found": max(gaps.values()) if gaps else None,
        found: sorted(i for i, gap in gaps.items() if test(gap)),
        "scope": "scanned corpus only",
    })


# the corpus a bare verify or explore runs: every tree up to 7 vertices, cycles,
# complete graphs, two-hub graphs, and seeded random trees and cacti
DEFAULT_CORPUS = (
    "trees:n=2..7", "cycle:n=3..8", "complete:n=3..5", "gn:n=2", "gn:n=5..6",
    "random_tree:n=9,seed=1..5",
    "random_cactus:n=11,cycles=2,seed=1", "random_cactus:n=12,cycles=3,seed=2",
    "random_cactus:n=10,cycles=1,seed=3", "random_cactus:n=11,cycles=2,seed=4",
    "random_cactus:n=12,cycles=3,seed=5", "random_cactus:n=10,cycles=1,seed=6",
)

def default_corpus() -> list[Instance]:
    """The instances ``DEFAULT_CORPUS`` names, in order."""
    return [inst for spec in DEFAULT_CORPUS for inst in generate(spec)]
