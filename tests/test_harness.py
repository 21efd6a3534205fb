import dataclasses
import enum
import hashlib
import json
import sys
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from mdimlab import (BadSpecError, Certificate, build_graph, complete_graph, cycle_graph, emit_graph6,
                     enumerate_small_trees, gn_graph, path_graph)
from mdimlab import families, harness, middle, solvers, transforms
from mdimlab.cli import main
from mdimlab.harness import (
    HOLDS,
    Instance,
    Report,
    SKIPPED,
    THEOREM_IDS,
    TheoremCheck,
    VIOLATED,
    default_corpus,
    explore,
    run_checks,
)

from conftest import connected_graphs


def _tree_instances(n_max):
    out = []
    for n in range(2, n_max + 1):
        for i, t in enumerate(enumerate_small_trees(n)):
            out.append(Instance(id=f"trees:n={n},i={i:03d}", graph=t))
    return out


def test_tree_theorems_hold_from_three_vertices_up():
    instances = [inst for inst in _tree_instances(6) if inst.graph.n >= 3]
    report = run_checks(instances, theorems=["T4.2", "T4.3", "P4.5", "T4.1"])
    assert all(r.status == HOLDS for r in report.records)


def test_single_edge_tree_skips_middle_total_formulas():
    inst = Instance(id="trees:n=2,i=000", graph=path_graph(2))
    report = run_checks([inst], theorems=["T4.2", "T4.3", "P4.5"])
    by_theorem = {r.theorem: r for r in report.records}
    assert by_theorem["T4.2"].status == SKIPPED
    assert by_theorem["T4.3"].status == SKIPPED
    assert by_theorem["P4.5"].status == HOLDS  # the bounds do hold on a single edge


def test_cactus_checks_on_cycles():
    instances = [Instance(id=f"cycle:n={n}", graph=cycle_graph(n)) for n in range(3, 7)]
    report = run_checks(instances, theorems=["T2.2-formula", "C3.5-cactus", "T3.1i"])
    assert all(r.status == HOLDS for r in report.records)


def test_non_cactus_skips_cactus_checks():
    inst = Instance(id="complete:n=4", graph=complete_graph(4))
    report = run_checks([inst], theorems=["T2.2-formula", "C3.5-cactus"])
    assert all(r.status == SKIPPED and r.reason.startswith("class") for r in report.records)


def test_gn_gap_check():
    g5 = Instance(id="gn:n=5", graph=gn_graph(5)[0])
    g2 = Instance(id="gn:n=2", graph=gn_graph(2)[0])
    other = Instance(id="cycle:n=5", graph=cycle_graph(5))
    report = run_checks([g5, g2, other], theorems=["P3.4"])
    by_instance = {r.instance: r for r in report.records}
    assert by_instance["gn:n=5"].status == HOLDS
    assert by_instance["gn:n=5"].values["gap"] >= 2
    assert by_instance["gn:n=2"].status == SKIPPED
    assert by_instance["cycle:n=5"].status == SKIPPED


def test_each_derived_graph_is_built_once_per_instance(monkeypatch):
    built = []
    original = transforms._derive

    def counting_derive(base, *args, **options):
        built.append(base.n + base.m)
        return original(base, *args, **options)

    monkeypatch.setattr(transforms, "_derive", counting_derive)
    tree = list(enumerate_small_trees(6))[2]
    g5 = gn_graph(5)[0]
    report = run_checks([Instance(id="tree", graph=tree), Instance(id="gn:n=5", graph=g5)])
    assert all(r.status != SKIPPED or r.reason.startswith("class") for r in report.records)
    assert {(r.instance, r.status) for r in report.records if r.theorem == "P3.4"} == {
        ("gn:n=5", HOLDS), ("tree", SKIPPED)}
    # S(G), M(G) and T(G) of the tree, once each; S(G_5) and M(G_5) once each, as
    # P3.4 builds no S(G_5) of its own and the tree checks skip before T(G_5)
    assert built == [tree.n + tree.m] * 3 + [g5.n + g5.m] * 2


def test_derived_graphs_are_built_through_the_transforms_module(monkeypatch):
    # wrap it as bench/spans.py traces a layer, by rebinding every module-level
    # name of the function: a caller holding its own reference goes unseen
    original = transforms.subdivision
    built = []

    def counting_subdivision(base):
        built.append(base.n)
        return original(base)

    for name, module in list(sys.modules.items()):
        if name == "mdimlab" or name.startswith("mdimlab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting_subdivision)
    report = run_checks([Instance(id="cycle:n=5", graph=cycle_graph(5))],
                        theorems=["E1-E6-identities", "T3.1i"])
    assert built == [5]
    assert {r.status for r in report.records} == {HOLDS}


def test_identity_and_forced_checks_hold():
    instances = [Instance(id="gn:n=2", graph=gn_graph(2)[0]),
                 Instance(id="cycle:n=5", graph=cycle_graph(5))]
    report = run_checks(instances, theorems=["E1-E6-identities", "L2.1-forced"])
    assert all(r.status == HOLDS for r in report.records)


def test_budget_skips_are_reported_not_raised():
    inst = Instance(id="cycle:n=8", graph=cycle_graph(8))
    report = run_checks([inst], theorems=["T3.1i"], budget=3)
    (record,) = report.records
    assert record.status == SKIPPED and record.reason.startswith("budget")
    assert report.exit_code(strict=False) == 0
    assert report.exit_code(strict=True) == 1


def test_phi_cap_skips():
    inst = Instance(id="cycle:n=6", graph=cycle_graph(6))
    report = run_checks([inst], theorems=["T3.1ii", "C3.2"], phi_cap=1)
    assert all(r.status == SKIPPED and r.reason.startswith("budget") for r in report.records)


def test_unknown_theorem_id_rejected():
    with pytest.raises(ValueError):
        run_checks([Instance(id="x", graph=path_graph(3))], theorems=["T9.9"])


def test_repeated_theorem_id_rejected():
    with pytest.raises(ValueError, match="T3.1i"):
        run_checks([Instance(id="x", graph=path_graph(3))], theorems=["T3.1i", "T4.1", "T3.1i"])


def test_cli_repeated_theorem_id_is_exit_2(capsys):
    argv = ["verify", "--family", "cycle:n=4", "--theorems", "T3.1i,T3.1i",
            "--format", "csv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "T3.1i" in captured.err


def test_default_corpus_report_bytes_are_pinned():
    report = run_checks(default_corpus(), source="default-corpus")
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "00f544c7ec315b91adfad5b8c2d34173ec69d6eec5d720df4c188e8489faee9d")
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == (
        "9ea9e1c014126d363a3d836dfc2721f0bbc73df002299407ed5daa1fce0518fb")


README_EXPLORE_REPORTS = {
    # README's explore command lines; sha256 of the whole JSON report
    "gap_gt_2": ("gn:n=2..7", "b972fdce4cf6cbfef7c25f6d6081ba083d26e655df25710b01593ab2fd28fb2e"),
    "mdim_eq_mdims": ("trees:n=2..8",
                      "19965f932def5624f50a91d1dd0570b8e889cd599db99f809a68ad166933cc38"),
}


@pytest.mark.parametrize("target", sorted(README_EXPLORE_REPORTS))
def test_readme_explore_report_bytes_are_pinned(target, capsys):
    family, digest = README_EXPLORE_REPORTS[target]
    assert main(["explore", "--target", target, "--family", family]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_violated_records_force_nonzero_exit():
    record = TheoremCheck(theorem="T3.1i", instance="synthetic", status=VIOLATED,
                          values={}, n=2, edges=[[0, 1]])
    assert Report(source="synthetic", records=[record]).exit_code() == 1


def test_records_sorted_and_json_deterministic():
    instances = [Instance(id="cycle:n=4", graph=cycle_graph(4)),
                 Instance(id="cycle:n=3", graph=cycle_graph(3))]
    a = run_checks(instances, theorems=["T3.1i", "E1-E6-identities"])
    b = run_checks(instances, theorems=["T3.1i", "E1-E6-identities"])
    assert a.to_json() == b.to_json()
    keys = [(r.instance, r.theorem) for r in a.records]
    assert keys == sorted(keys)
    assert "elapsed_ms" not in a.to_json()
    assert "elapsed_ms" in a.to_json(timings=True)


def test_violated_and_full_instance_travel_in_json():
    record = TheoremCheck(theorem="T4.2", instance="synthetic", status=VIOLATED,
                          values={"n1": 2}, n=3, edges=[[0, 1], [1, 2]])
    payload = json.loads(Report(source="s", records=[record]).to_json())
    assert payload["records"][0]["edges"] == [[0, 1], [1, 2]]
    assert payload["summary"]["violated"] == 1


_JSON_VALUES = st.recursive(
    st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats()),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner)),
    max_leaves=40)


class _Level(enum.IntEnum):
    HIGH = 3


@given(st.dictionaries(st.text(), _JSON_VALUES))
@example({"a\n\"\u00e9\u2603": ["\x00", -0.0, float("nan"), float("inf"), -float("inf"), 1e300]})
@example({"sub": OrderedDict(b=[_Level.HIGH], a={}), "empty": [[], {}, ()]})
def test_dumps_writes_the_text_of_json_dumps(payload):
    expected = json.dumps({**payload, "version": harness.TOOL_VERSION}, sort_keys=True, indent=2)
    assert harness.dumps(payload) == expected + "\n"


@pytest.mark.parametrize("timings", [False, True])
def test_report_json_equals_dumps_of_every_record(timings):
    # ids that spell the text an edge list's number is found by, and an explore
    # report, whose findings hold objects of their own
    instances = [Instance(id='x\n      "edges": 0', graph=cycle_graph(4)),
                 Instance(id="x", graph=path_graph(3))]
    reports = [run_checks(instances, theorems=["T3.1i", "E1-E6-identities"]),
               explore(instances, target="mdim_eq_mdims")]
    reports[0].records.append(TheoremCheck(theorem="T4.2", instance="y", status=SKIPPED,
                                           values={"edges": 1}, n=2, edges=[]))
    for report in reports:
        payload = {"source": report.source, "summary": report.summary,
                   "records": [r.to_dict(timings) for r in report.records]}
        if report.extra is not None:
            payload["findings"] = report.extra
        assert report.to_json(timings) == harness.dumps(payload)


def test_csv_has_one_row_per_check():
    inst = Instance(id="path:n=4", graph=path_graph(4))
    report = run_checks([inst], theorems=["T3.1i", "T4.1"])
    lines = report.to_csv().strip().split("\n")
    assert lines[0].startswith("instance,theorem,status")
    assert len(lines) == 3


def test_explore_trees_all_equal():
    report = explore(_tree_instances(5), target="mdim_eq_mdims")
    assert all(r.values["gap"] == 0 for r in report.records)
    assert report.extra["max_gap_found"] == 0
    assert len(report.extra["equality_instances_found"]) == len(report.records)


def test_explore_two_hub_gap():
    inst = Instance(id="gn:n=5", graph=gn_graph(5)[0])
    report = explore([inst], target="gap_gt_2")
    assert report.records[0].values["gap"] == 2
    assert report.extra["gap_gt_2_instances_found"] == []
    assert report.extra["scope"] == "scanned corpus only"


def test_explore_unknown_target():
    with pytest.raises(ValueError):
        explore([Instance(id="x", graph=path_graph(3))], target="everything")


def test_default_corpus_is_deterministic_and_diverse():
    a = default_corpus()
    b = default_corpus()
    assert [i.id for i in a] == [i.id for i in b]
    assert all(x.graph == y.graph for x, y in zip(a, b))
    families_present = {i.id.split(":")[0] for i in a}
    assert {"trees", "cycle", "complete", "gn", "random_tree", "random_cactus"} <= families_present


def test_identity_check_reports_a_wrong_subdivision_as_violated(monkeypatch):
    real = harness.check_distance_identities

    def with_wrong_subdivision(base, sg, mg):
        return real(base, middle(base), mg)

    monkeypatch.setattr(harness, "check_distance_identities", with_wrong_subdivision)
    report = run_checks([Instance(id="path:n=4", graph=path_graph(4))],
                        theorems=["E1-E6-identities"])
    (record,) = report.records
    assert record.status == VIOLATED
    assert record.values["counterexample"] == "eq1:(0, 2, 3, 4)"
    assert report.exit_code() == 1


def test_explore_budget_skip_is_reported():
    instances = [Instance(id="C8", graph=cycle_graph(8)), Instance(id="P3", graph=path_graph(3))]
    report = explore(instances, "gap_gt_2", budget=3)
    by_id = {r.instance: r for r in report.records}
    assert by_id["C8"].status == SKIPPED and by_id["C8"].reason.startswith("budget:")
    assert by_id["P3"].status == HOLDS
    assert report.extra["instances_skipped"] == 1
    assert report.extra["instances_scanned"] == 1


@pytest.mark.parametrize("vertices, forced, removable", [
    ((0, 3), (1,), {}),  # a forced vertex missing from the witness
    ((0, 1, 3), (1,), {"removable_forced_vertex": 1}),  # {0, 3} resolves P4 on its own
])
def test_forced_check_reports_a_wrong_certificate_as_violated(monkeypatch, vertices, forced,
                                                               removable):
    def wrong_certificate(g, kind, budget):
        return Certificate(kind=kind, vertices=vertices, value=len(vertices), forced=forced)

    monkeypatch.setattr(harness, "solve_dimension", wrong_certificate)
    report = run_checks([Instance(id="path:n=4", graph=path_graph(4))], theorems=["L2.1-forced"])
    (record,) = report.records
    assert record.status == VIOLATED
    assert record.values == {"forced": list(forced), "mdim": len(vertices),
                             "witness": list(vertices), **removable}


def test_forced_check_catches_a_wrong_forced_set_that_seeds_the_search(monkeypatch, capsys):
    # the search puts every forced vertex in the witness, so "forced inside
    # the witness" holds by construction; a vertex wrongly called forced
    # must still show as removable
    monkeypatch.setattr(solvers, "forced_vertices_mdim", lambda g: (0, 1, 3))
    report = run_checks([Instance(id="path:n=4", graph=path_graph(4))], theorems=["L2.1-forced"])
    (record,) = report.records
    assert record.status == VIOLATED
    assert record.values == {"forced": [0, 1, 3], "mdim": 3, "witness": [0, 1, 3],
                             "removable_forced_vertex": 1}
    assert main(["verify", "--family", "path:n=4", "--theorems", "L2.1-forced"]) == 1
    assert json.loads(capsys.readouterr().out)["records"][0]["status"] == VIOLATED


def _forced_by_resolving_tests(g, vertices, forced):
    """L2.1 written with one resolving test of the witness less each forced vertex."""
    witness = set(vertices)
    values = {"forced": list(forced), "mdim": len(vertices), "witness": list(vertices)}
    if not set(forced) <= witness:
        return VIOLATED, values
    for v in forced:
        trimmed = sorted(witness - {v})
        if trimmed and solvers.is_mixed_resolving(g, trimmed):
            return VIOLATED, {**values, "removable_forced_vertex": v}
    return HOLDS, values


def _outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # the same error type and text on both sides
        return type(exc), str(exc)


@given(st.data())
def test_forced_check_equals_a_resolving_test_per_forced_vertex(data):
    # any certificate, right or wrong, with vertices outside 0..n-1 among them
    g = data.draw(connected_graphs(max_n=7))
    vertices = tuple(data.draw(st.lists(st.integers(-1, g.n), min_size=1, max_size=g.n + 1)))
    forced = tuple(data.draw(st.lists(st.sampled_from(vertices + (g.n + 1,)), max_size=4)))
    lab = harness._Lab(g, 10**6, 10**6)
    lab._cache["mdim", None] = Certificate(kind="mdim", vertices=vertices, value=len(vertices),
                                           forced=forced)
    assert _outcome(harness._check_forced, lab) == _outcome(_forced_by_resolving_tests, g, vertices,
                                                            forced)


@pytest.mark.parametrize("vertices, forced", [((0, 150, 299), (0, 150, 299)), ((0, 299), (0, 299))])
def test_forced_check_equals_a_resolving_test_per_forced_vertex_on_tuple_rows(vertices, forced):
    g = path_graph(300)  # diameter 299: its rows are tuples
    lab = harness._Lab(g, 10**6, 10**6)
    lab._cache["mdim", None] = Certificate(kind="mdim", vertices=vertices, value=len(vertices),
                                           forced=forced)
    assert harness._check_forced(lab) == _forced_by_resolving_tests(g, vertices, forced)


def _phi_off_by_one(monkeypatch):
    real = harness._Lab.phi

    def off(lab):
        phi = real(lab)
        return dataclasses.replace(phi, phi_value=phi.phi_value - 1)

    monkeypatch.setattr(harness._Lab, "phi", off)


def _cert_off_by_one(kind, on, delta):
    """A plant that moves the value of ``_Lab.cert(kind, on)`` by ``delta``."""
    def plant(monkeypatch):
        real = harness._Lab.cert

        def off(lab, k, o=None):
            cert = real(lab, k, o)
            return dataclasses.replace(cert, value=cert.value + delta) if (k, o) == (kind, on) else cert

        monkeypatch.setattr(harness._Lab, "cert", off)

    plant.__name__ = f"{kind}_{on or 'g'}_{delta:+d}"
    return plant


def _closed_form_off_by_one(claim, delta):
    """A plant that moves ``closed_form``'s value for ``claim`` by ``delta``."""
    def plant(monkeypatch):
        real = harness.closed_form
        monkeypatch.setattr(harness, "closed_form",
                            lambda g, c: real(g, c) + (delta if c == claim else 0))

    plant.__name__ = f"{claim}_{delta:+d}"
    return plant


def _wrong_subdivision(monkeypatch):
    real = harness.check_distance_identities
    monkeypatch.setattr(harness, "check_distance_identities",
                        lambda base, sg, mg: real(base, middle(base), mg))


def _wrong_forced_set(monkeypatch):
    monkeypatch.setattr(solvers, "forced_vertices_mdim", lambda g: (0, 1, 3))


# one row per check: a fault planted in what the check reads, and the values
# it then records
_PLANTED = [
    # phi(C4) = 2 = max(dim, edim), so a phi one too small breaks both bounds
    ("T3.1ii", _phi_off_by_one, "cycle:n=4", {"phi": 1, "dim": 2, "edim": 2, "bases": 24}),
    ("C3.2", _phi_off_by_one, "cycle:n=4", {"dim": 2, "edim": 2, "phi": 1, "mdim_s": 3, "mdim": 3}),
    ("C3.5-cactus", _cert_off_by_one("mdim", "s", 1), "cycle:n=4", {"mdim": 3, "mdim_s": 4}),
    ("E1-E6-identities", _wrong_subdivision, "path:n=4",
     {"eq1": 16, "eq2": 12, "eq3": 6, "eq4": 32, "eq5": 12, "eq6": 12,
      "counterexample": "eq1:(0, 2, 3, 4)"}),
    ("L2.1-forced", _wrong_forced_set, "path:n=4",
     {"forced": [0, 1, 3], "mdim": 3, "witness": [0, 1, 3], "removable_forced_vertex": 1}),
    ("P3.4", _cert_off_by_one("mdim", None, 1), "gn:n=5",
     {"formula": 7, "mdim": 8, "mdim_s": 5, "gap": 3, "forced_count": 7, "sn_verifies": True}),
    ("P4.5", _closed_form_off_by_one("mdim_tree", -1), "path:n=4",
     {"dim": 1, "dim_total": 2, "n1": 1}),
    ("T2.2-formula", _cert_off_by_one("mdim", None, 1), "cycle:n=4",
     {"formula": 3, "brute": 4, "n1": 0, "epsilon": 0, "cycles": 1}),
    ("T3.1i", _cert_off_by_one("mdim", None, -1), "cycle:n=4", {"mdim_s": 3, "mdim": 2}),
    ("T4.1", _cert_off_by_one("mdim", None, -1), "path:n=4", {"dim_middle": 2, "mdim": 1}),
    ("T4.2", _closed_form_off_by_one("dim_middle_tree", 1), "path:n=4",
     {"n1": 3, "mdim": 2, "dim_middle": 2}),
    ("T4.3", _closed_form_off_by_one("mdim_total_tree", 1), "path:n=4",
     {"n1": 2, "mdim_total": 4, "expected": 5}),
]


def test_every_check_has_a_planted_fault():
    assert sorted(row[0] for row in _PLANTED) == sorted(THEOREM_IDS)


@pytest.mark.parametrize("theorem, plant, instance, values", _PLANTED)
def test_planted_fault_is_reported_as_violated(monkeypatch, capsys, theorem, plant, instance, values):
    plant(monkeypatch)
    report = run_checks(families.generate(instance), theorems=[theorem])
    (record,) = report.records
    assert (record.status, record.values) == (VIOLATED, values)
    assert main(["verify", "--family", instance, "--theorems", theorem]) == 1
    (printed,) = json.loads(capsys.readouterr().out)["records"]
    assert (printed["status"], printed["values"]) == (VIOLATED, values)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_file_of_several_graphs_numbers_its_instances(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_bytes(emit_graph6(path_graph(3)) + emit_graph6(cycle_graph(4)))
    assert main(["verify", "--input", str(path), "--theorems", "T3.1i"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [r["instance"] for r in records] == ["file:two.g6#000", "file:two.g6#001"]


def test_cli_generate_and_solve_round_trip(tmp_path, capsys):
    path = tmp_path / "g2.txt"
    assert main(["generate", "--family", "gn:n=2", "--output", str(path)]) == 0
    assert main(["solve", "--input", str(path), "--kind", "mdim"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["value"] == 4
    assert payload["certificate"]["forced"] == [0, 1, 2, 3]


def test_cli_solve_on_subdivision(capsys):
    assert main(["solve", "--family", "gn:n=2", "--kind", "mdim", "--derived", "s"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["value"] == 3


def test_cli_solve_reports_budget_errors_as_json(capsys):
    code = main(["solve", "--family", "cycle:n=8", "--kind", "mdim",
                 "--budget", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert "error" in payload


def test_cli_transform_total_of_single_edge(capsys):
    assert main(["transform", "--family", "path:n=2", "--derived", "t"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"]["n"] == 3 and payload["graph"]["m"] == 3
    assert sorted(payload["edge_classes"]) == ["original", "sedge", "sedge"]


def test_cli_transform_line_graph(capsys):
    assert main(["transform", "--family", "path:n=3", "--derived", "l"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"]["n"] == 2 and payload["vertices"][0]["base_edge"] == [0, 1]


def test_cli_transform_dot(capsys):
    assert main(["transform", "--family", "gn:n=5", "--derived", "s",
                 "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph s {") and "shape=box" in out


def test_cli_verify_selected_theorems(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--family", "cycle:n=3..6",
                 "--theorems", "T2.2-formula,C3.5-cactus", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["violated"] == 0
    assert payload["summary"]["holds"] == 8


def test_cli_verify_inline_family_spec(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--family", "random_cactus:n=10,cycles=2,seed=1..3",
                 "--theorems", "T2.2-formula", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 3


def test_cli_verify_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--family", "trees:n=2..5", "--output"]
    assert main(argv + [str(first)]) == 0
    assert main(argv + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_verify_strict_budget(tmp_path):
    argv = ["verify", "--family", "cycle:n=8", "--theorems", "T3.1i",
            "--budget", "3", "--output", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert main(argv + ["--strict"]) == 1


def test_cli_explore(capsys):
    code = main(["explore", "--target", "gap_gt_2", "--family", "gn:n=5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"]["max_gap_found"] == 2
    assert payload["findings"]["gap_gt_2_instances_found"] == []


def test_cli_bad_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 3\n")
    assert main(["solve", "--input", str(bad), "--kind", "dim"]) == 2
    assert "mdimlab:" in capsys.readouterr().err


def test_cli_missing_file_is_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["solve", "--input", str(missing), "--kind", "mdim"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mdimlab: ") and len(err.splitlines()) == 1
    assert "missing.txt" in err


def test_cli_non_ascii_file_name_is_written_as_utf8(tmp_path):
    graph_file = tmp_path / "grafo_\u00f1.txt"
    graph_file.write_text("3 2\n0 1\n1 2\n")
    out = tmp_path / "report.csv"
    argv = ["verify", "--input", str(graph_file), "--theorems", "T3.1i"]
    assert main(argv + ["--format", "csv", "--output", str(out)]) == 0
    assert "file:grafo_\u00f1.txt,T3.1i,holds" in out.read_bytes().decode("utf-8")
    assert main(argv + ["--output", str(out)]) == 0
    out.read_bytes().decode("ascii")  # JSON escapes non-ASCII, as before


def test_cli_solve_stats_is_opt_in(capsys):
    argv = ["solve", "--family", "cycle:n=8", "--kind", "mdim"]
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(argv + ["--stats"]) == 0
    with_stats = json.loads(capsys.readouterr().out)
    assert "stats" not in plain
    stats = with_stats.pop("stats")
    assert with_stats == plain
    assert set(stats) == {"search_nodes", "masks_kept", "lower_bound", "symmetry_pruned",
                          "refute_nodes"}
    assert 1 <= stats["lower_bound"] <= plain["certificate"]["value"]
    assert stats["search_nodes"] > 0 and stats["masks_kept"] > 0


def test_cli_unknown_family_is_exit_2(capsys):
    assert main(["solve", "--family", "hypercube:n=3", "--kind", "dim"]) == 2


def test_cli_family_without_n_is_exit_2(capsys):
    assert main(["solve", "--family", "path", "--kind", "dim"]) == 2


@pytest.mark.parametrize("spec, message", [
    ("hypercube:n=3", "unknown family 'hypercube'"),
    ("path", "needs n="),
    ("cycle:n=4,n=5", "repeated family parameter 'n'"),
    ("cycle:n=a", "is not a number"),
    ("gn:n=5,seed=3", "takes no parameter 'seed'"),
    ("cycle:n", "bad family parameter 'n'"),
])
def test_family_spec_faults_are_bad_spec_errors(spec, message):
    with pytest.raises(BadSpecError, match=message):
        families.generate(spec)


def test_cli_verify_csv(capsys):
    assert main(["verify", "--family", "cycle:n=4",
                 "--theorems", "T3.1i", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("instance,theorem,status")


def test_cli_generate_formats(capsys):
    assert main(["generate", "--family", "star:n=5", "--format", "graph6"]) == 0
    assert capsys.readouterr().out.strip() == "Ds_"  # center-0 star on 5 vertices
    assert main(["generate", "--family", "path:n=3", "--format", "dot"]) == 0
    assert "v0 -- v1;" in capsys.readouterr().out
    assert main(["generate", "--family", "path:n=3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["graph"]["n"] == 3


def test_theorem_id_catalogue_is_stable():
    assert THEOREM_IDS == (
        "C3.2", "C3.5-cactus", "E1-E6-identities", "L2.1-forced", "P3.4",
        "P4.5", "T2.2-formula", "T3.1i", "T3.1ii", "T4.1", "T4.2", "T4.3",
    )


def test_cli_unrecognized_input_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bang.txt"
    bad.write_text("!3 0\n")
    assert main(["verify", "--input", str(bad)]) == 2
    assert capsys.readouterr().err == "mdimlab: cannot recognize input starting with '!'\n"


@pytest.mark.parametrize("argv", [
    ["--family", "random_cactus:n=10,cycles=1,seed=3"],
    ["--family", "random_cactus:n=11,cycles=2,seed=1"],
    ["--family", "random_tree:n=9,seed=5"],
    ["--family", "trees:n=3"],
])
def test_cli_family_ids_match_default_corpus(argv, capsys):
    assert main(["generate", "--format", "json"] + argv) == 0
    payload = json.loads(capsys.readouterr().out)
    corpus = {inst.id: inst.graph for inst in default_corpus()}
    assert payload["instance"] in corpus
    assert payload["graph"]["edges"] == [list(e) for e in corpus[payload["instance"]].edges]


SINGLE_GRAPH_COMMANDS = {
    # one --input gives these bytes; sha256 of the whole output
    "generate": ([], "de1c2550646acf29b7b36b74d22c72a954ef3aaf0fbd5d5b611f6c9dbc3e70df"),
    "transform": (["--derived", "t"],
                  "8f3d67fdebbe086991bc29d366c2e56b5fc5df8903c388ce378d21e8c7e4eb7d"),
    "solve": (["--kind", "mdim", "--derived", "s"],
              "248061aac03a8faad30f68684a1a8bdbf238210471d57fb70928c930c93d4edb"),
}


TRANSFORM_JSON = {
    # sha256 of the whole `transform --format json` output
    ("gn:n=5", "s"): "e8dd23568c6020dd14f56219aa23da67ece70768428934606c9fa75291093f55",
    ("gn:n=5", "m"): "fcdc71fdfc36277a6eceaffc2d54041ce7a318c6e8da37c8bd691688a0eeccbe",
    ("gn:n=5", "t"): "5c852814e8c2bde982622bc6d19ba405b622796b24679d2c1b9ee6cca275057f",
    ("random_cactus:n=30,cycles=5,seed=1", "s"):
        "fa58072b7b60c03ed5f03598e375e83cdb7c675645e33741e70a77b5b1b60799",
    ("random_cactus:n=30,cycles=5,seed=1", "m"):
        "611328c8d34f274b7806fa65260678d2c999e929258709f5a410b8d81acc2b27",
    ("random_cactus:n=30,cycles=5,seed=1", "t"):
        "780b008a37717bb8dd8a4077461b425abf1b707f32ec889ce52be89da3a003c9",
}


@pytest.mark.parametrize(("family", "derived"), sorted(TRANSFORM_JSON))
def test_transform_json_bytes_are_pinned(family, derived, capsys):
    assert main(["transform", "--family", family, "--derived", derived, "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == TRANSFORM_JSON[family, derived]


@pytest.mark.parametrize("command", sorted(SINGLE_GRAPH_COMMANDS))
def test_cli_single_graph_commands_need_exactly_one_graph(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p3.txt").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "p4.txt").write_text("4 3\n0 1\n1 2\n2 3\n")
    extra, digest = SINGLE_GRAPH_COMMANDS[command]
    assert main([command, "--input", "p3.txt", *extra]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    for inputs in (["--input", "p3.txt", "--input", "p4.txt"],
                   ["--input", "p3.txt", "--family", "path:n=3"]):
        assert main([command, *inputs, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exactly one" in captured.err


@pytest.mark.parametrize("command", sorted(SINGLE_GRAPH_COMMANDS))
def test_cli_single_graph_commands_without_input_are_exit_2(command, capsys):
    assert main([command, *SINGLE_GRAPH_COMMANDS[command][0]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "provide --input FILE or --family NAME:n=N" in captured.err


@pytest.mark.parametrize("spec, key", [
    ("gn:n=5,seed=3", "seed"),
    ("cycle:n=4,cycles=2", "cycles"),
    ("random_tree:n=9,cycles=2,seed=5", "cycles"),
    ("trees:n=3,seed=1", "seed"),
])
def test_cli_family_parameter_the_family_does_not_read_is_exit_2(spec, key, capsys):
    assert main(["verify", "--family", spec, "--theorems", "T3.1i"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"takes no parameter {key!r}" in captured.err


@pytest.mark.parametrize("command", ["generate", "transform", "solve", "verify", "explore"])
def test_cli_family_flags_are_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "--family" in help_text
    assert not {"--n", "--cycles", "--seed"} & set(help_text.replace("[", " ").split())
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "cycle", "--n", "4"])
    assert exc.value.code == 2


def test_repeated_instance_id_rejected():
    twins = [Instance(id="g", graph=path_graph(3)), Instance(id="g", graph=cycle_graph(3))]
    with pytest.raises(ValueError, match="repeated instance id 'g'"):
        run_checks(twins, theorems=["T3.1i"])
    with pytest.raises(ValueError, match="repeated instance id 'g'"):
        explore(twins, target="gap_gt_2")


@pytest.mark.parametrize("inputs", [
    ["--input", "a/g.txt", "--input", "b/g.txt"],
    ["--family", "cycle:n=4", "--family", "cycle:n=4"],
    ["--family", "cycle:n=3..5", "--family", "cycle:n=5"],
])
def test_cli_repeated_instance_id_is_exit_2(inputs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for sub, text in (("a", "3 2\n0 1\n1 2\n"), ("b", "3 3\n0 1\n1 2\n0 2\n")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "g.txt").write_text(text)
    assert main(["verify", *inputs, "--theorems", "T3.1i", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "repeated instance id" in captured.err


def test_project_version_is_the_tool_version():
    tomllib = pytest.importorskip("tomllib")
    import mdimlab

    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == mdimlab.__version__


@pytest.mark.parametrize("spec, key", [
    ("cycle:n=4,n=5", "n"),
    ("random_cactus:n=10,seed=1,cycles=1,seed=2", "seed"),
])
def test_cli_repeated_family_parameter_is_exit_2(spec, key, capsys):
    assert main(["verify", "--family", spec, "--theorems", "T3.1i"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"repeated family parameter {key!r}" in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "--family", "cycle:n=4", "--kind", "dim", "--budget", "0"],
    ["verify", "--family", "cycle:n=4", "--budget", "-1"],
    ["verify", "--family", "cycle:n=4", "--phi-cap", "-1"],
    ["verify", "--family", "cycle:n=4", "--phi-cap", "0"],
    ["explore", "--target", "gap_gt_2", "--family", "cycle:n=4", "--budget", "0"],
    ["explore", "--target", "gap_gt_2", "--family", "cycle:n=4", "--budget", "x"],
])
def test_cli_budget_and_phi_cap_below_one_are_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and ("--budget" in captured.err or "--phi-cap" in captured.err)


@pytest.mark.parametrize("argv, message", [
    (["solve", "--family", "cycle:n=4", "--kind", "dim", "--budget", "1e3"],
     "argument --budget: must be a whole number, got '1e3'"),
    (["verify", "--family", "cycle:n=4", "--budget", "1.5"],
     "argument --budget: must be a whole number, got '1.5'"),
    (["verify", "--family", "cycle:n=4", "--phi-cap", "x"],
     "argument --phi-cap: must be a whole number, got 'x'"),
    (["verify", "--family", "cycle:n=4", "--phi-cap", "0"],
     "argument --phi-cap: must be at least 1, got 0"),
])
def test_cli_budget_and_phi_cap_errors_name_the_flag_and_value(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "_count" not in err


def test_cli_budget_of_one_is_accepted(capsys):
    assert main(["verify", "--family", "cycle:n=4", "--theorems", "T3.1i",
                 "--budget", "1", "--phi-cap", "1"]) == 0
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert record["status"] == SKIPPED and record["reason"].startswith("budget")


def test_cli_default_corpus_is_what_its_family_specs_request(capsys):
    assert main(["verify"]) == 0
    bare = json.loads(capsys.readouterr().out)
    flags = [arg for spec in harness.DEFAULT_CORPUS for arg in ("--family", spec)]
    assert main(["verify", *flags]) == 0
    spelled = json.loads(capsys.readouterr().out)
    assert (bare.pop("source"), spelled.pop("source")) == ("default-corpus", "flags")
    assert bare == spelled


def test_generate_builds_every_family_of_the_table():
    for name, recipe in families.RECIPES.items():
        (first, *rest) = families.generate(f"{name}:n=5")
        assert first.graph.n >= 5
        assert first.id.startswith(f"{name}:n=5") and bool(rest) == (name == "trees")
        if not recipe.exhaustive:
            assert recipe.build(5, *[1] * len(recipe.params)) == first.graph


def test_empty_theorem_list_rejected():
    inst = Instance(id="x", graph=path_graph(3))
    with pytest.raises(ValueError, match="names no id"):
        run_checks([inst], theorems=[])
    assert len(run_checks([inst], theorems=None).records) == len(THEOREM_IDS)


@pytest.mark.parametrize("theorems", [",", ""])
def test_cli_theorem_list_naming_no_id_is_exit_2(theorems, capsys):
    assert main(["verify", "--family", "cycle:n=4", "--theorems", theorems]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "names no id" in captured.err


@pytest.mark.parametrize("spec, value", [("cycle:n=a", "a"), ("cycle:n=3..b", "3..b"),
                                         ("random_tree:n=9,seed=x", "x"), ("cycle:n=5..3", "5..3")])
def test_cli_family_value_that_is_not_a_number_is_exit_2(spec, value, capsys):
    assert main(["verify", "--family", spec, "--theorems", "T3.1i"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{value!r} in {spec!r}" in captured.err


def test_class_skip_reasons_are_the_class_mismatch_text():
    k2 = Instance(id="k2", graph=path_graph(2))
    c4 = Instance(id="c4", graph=cycle_graph(4))
    k4 = Instance(id="k4", graph=complete_graph(4))
    report = run_checks([k2, c4, k4], theorems=["T2.2-formula", "T4.3", "P4.5"])
    reasons = {(r.instance, r.theorem): r.reason for r in report.records if r.status == SKIPPED}
    leaf_law = ("class: single-edge tree; the leaf-count formulas for middle/total "
                "graphs need a tree on >= 3 vertices")
    not_cactus = ("class: not a cactus (biconnected component on vertices [0, 1, 2, 3] "
                  "has 6 edges; cycles share an edge)")
    assert reasons == {("k2", "T4.3"): leaf_law, ("c4", "T4.3"): "class: not a tree",
                       ("c4", "P4.5"): "class: not a tree", ("k4", "T2.2-formula"): not_cactus,
                       ("k4", "T4.3"): "class: not a tree", ("k4", "P4.5"): "class: not a tree"}


def _p34_record(path, capsys):
    assert main(["verify", "--input", str(path), "--theorems", "P3.4"]) == 0
    (record,) = json.loads(capsys.readouterr().out)["records"]
    return record


def test_cli_p34_reads_the_graph_not_its_origin(tmp_path, capsys):
    g5 = tmp_path / "g5.g6"
    assert main(["generate", "--family", "gn:n=5", "--format", "graph6", "--output", str(g5)]) == 0
    record = _p34_record(g5, capsys)
    assert record["status"] == HOLDS and record["values"]["gap"] == 2

    g = gn_graph(5)[0]
    swap = {0: 2, 2: 0}
    relabelled = build_graph(g.n, [(swap.get(u, u), swap.get(v, v)) for u, v in g.edges])
    assert relabelled != g
    not_gn = "class: not a generated two-hub family instance"
    for name, graph in [("relabelled.g6", relabelled), ("k3.g6", complete_graph(3))]:
        (tmp_path / name).write_bytes(emit_graph6(graph))
        record = _p34_record(tmp_path / name, capsys)
        assert (record["status"], record["reason"]) == (SKIPPED, not_gn)

    (tmp_path / "g2.g6").write_bytes(emit_graph6(gn_graph(2)[0]))
    record = _p34_record(tmp_path / "g2.g6", capsys)
    assert (record["status"], record["reason"]) == (
        SKIPPED, "class: two-hub gap statement needs n >= 5")


def test_cli_unwritable_output_is_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["solve", "--family", "gn:n=2", "--kind", "mdim", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"mdimlab: cannot write {out}: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", [["verify", "--theorems", "T3.1i"],
                                     ["explore", "--target", "gap_gt_2"]])
def test_cli_timings_need_json(command, capsys, monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(harness, "_records", no_checks)
    argv = [*command, "--family", "cycle:n=4", "--timings", "--format", "csv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "mdimlab: --timings needs --format json\n"
