"""Command-line front end: generate, transform, solve, verify, explore.

All configuration comes through flags (no environment variables), inputs
are graph6 or plain edge lists, and outputs are deterministic JSON / CSV
reports or DOT drawings, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import GraphError
from .families import Instance, generate
from .formats import (
    EDGE_LIST,
    GRAPH6,
    derived_to_dot,
    emit_graph,
    graph_to_dot,
    read_graphs,
)
from .graph import Graph
from .harness import (
    DERIVED_NAMES,
    EXPLORE_TARGETS,
    Report,
    THEOREM_IDS,
    TOOL_VERSION,
    default_corpus,
    derive,
    dumps,
    explore,
    run_checks,
)
from .solvers import DEFAULT_BUDGET, DEFAULT_PHI_CAP, KINDS, solve_dimension
from .transforms import line_graph


def _count(text: str) -> int:
    """argparse type of --budget and --phi-cap: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a whole number, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _file_instances(path: str) -> list[Instance]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc.strerror or exc}") from exc
    graphs = read_graphs(data)
    stem = Path(path).name
    if len(graphs) == 1:
        return [Instance(id=f"file:{stem}", graph=graphs[0])]
    return [Instance(id=f"file:{stem}#{i:03d}", graph=g) for i, g in enumerate(graphs)]


def _corpus(args) -> tuple[list[Instance], str]:
    """The instances the flags name, or the default corpus; plus the report source."""
    instances: list[Instance] = []
    for path in args.input or []:
        instances.extend(_file_instances(path))
    for spec in args.family or []:
        instances.extend(generate(spec))
    if not instances:
        instances = default_corpus()
    return instances, "default-corpus" if not (args.input or args.family) else "flags"


def _single_instance(args) -> Instance:
    if not (args.input or args.family):
        raise GraphError("provide --input FILE or --family NAME:n=N")
    found, _ = _corpus(args)
    if len(found) != 1:
        raise GraphError(f"{args.command} needs exactly one graph; the inputs hold {len(found)}")
    return found[0]


def _write(args, payload: str | bytes) -> None:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    if getattr(args, "output", None):
        try:
            Path(args.output).write_bytes(payload)
        except OSError as exc:
            raise GraphError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.buffer.write(payload)


def _graph_dict(g: Graph) -> dict:
    return {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges]}


def _cmd_generate(args) -> int:
    inst = _single_instance(args)
    if args.format in (EDGE_LIST, GRAPH6):
        _write(args, emit_graph(inst.graph, args.format))
    elif args.format == "dot":
        _write(args, graph_to_dot(inst.graph, name="g"))
    else:
        _write(args, dumps({"instance": inst.id, "graph": _graph_dict(inst.graph)}))
    return 0


def _cmd_transform(args) -> int:
    inst = _single_instance(args)
    base = inst.graph
    if args.derived == "l":
        graph = line_graph(base)
        vertices = [{"index": j, "base_edge": [u, v]} for j, (u, v) in enumerate(base.edges)]
        extra = {}
        labels = {j: f"{j}: e{j}({u},{v})" for j, (u, v) in enumerate(base.edges)}
        dot = graph_to_dot(graph, labels=labels, name="line")
    else:
        dg = derive(base, args.derived)
        graph = dg.graph
        vertices = [{"index": i, "provenance": f"{tag}:{idx}"}
                    for i, (tag, idx) in enumerate(dg.provenance)]
        extra = {"edge_classes": list(dg.edge_classes)}
        dot = derived_to_dot(dg, name=args.derived)
    if args.format == "dot":
        _write(args, dot)
    else:
        _write(args, dumps({"base": _graph_dict(base), "derived": args.derived,
                            "graph": _graph_dict(graph), "instance": inst.id,
                            "vertices": vertices, **extra}))
    return 0


def _cmd_solve(args) -> int:
    inst = _single_instance(args)
    g = inst.graph
    if args.derived != "none":
        g = derive(g, args.derived).graph
    try:
        cert = solve_dimension(g, args.kind, budget=args.budget)
    except GraphError as exc:
        _write(args, dumps({"error": str(exc), "instance": inst.id, "kind": args.kind,
                            "derived": args.derived}))
        return 1
    payload = {
        "certificate": {
            "kind": cert.kind,
            "value": cert.value,
            "vertices": list(cert.vertices),
            "forced": list(cert.forced),
        },
        "derived": args.derived,
        "graph": _graph_dict(g),
        "instance": inst.id,
    }
    if args.stats:
        payload["stats"] = dataclasses.asdict(cert.stats)
    _write(args, dumps(payload))
    return 0


def _emit_report(args, report: Report) -> int:
    if args.format == "csv":
        _write(args, report.to_csv())
    else:
        _write(args, report.to_json(timings=args.timings))
    return report.exit_code(strict=args.strict)


def _cmd_verify(args) -> int:
    instances, source = _corpus(args)
    theorems = None if args.theorems == "all" else [
        t.strip() for t in args.theorems.split(",") if t.strip()]
    report = run_checks(instances, theorems=theorems, budget=args.budget,
                        phi_cap=args.phi_cap, source=source)
    return _emit_report(args, report)


def _cmd_explore(args) -> int:
    instances, source = _corpus(args)
    report = explore(instances, target=args.target, budget=args.budget, source=source)
    return _emit_report(args, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdimlab",
        description="Exact metric, edge, and mixed metric dimension of graphs "
                    "and their subdivision, middle, and total derivatives.",
    )
    parser.add_argument("--version", action="version", version=f"mdimlab {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options that several commands share, each written once
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--input", action="append", metavar="FILE",
                    help="graph file (graph6 or edge list); repeatable")
    io.add_argument("--family", action="append", metavar="SPEC",
                    help="family spec NAME:n=N[,cycles=C][,seed=S], each value a number "
                         "or range A..B, like random_cactus:n=10,cycles=2,seed=1..30; "
                         "repeatable; generate, transform and solve need exactly one "
                         "graph in all")
    io.add_argument("--output", metavar="FILE", help="write to FILE instead of stdout")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                        help="cap on search nodes (default %(default)s)")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=["json", "csv"], default="json")
    report.add_argument("--strict", action="store_true",
                        help="exit nonzero when any check was skipped for budget reasons")
    report.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (JSON only; breaks byte-identical output)")

    p = sub.add_parser("generate", parents=[io], help="emit a family graph")
    p.add_argument("--format", choices=[EDGE_LIST, GRAPH6, "dot", "json"], default=EDGE_LIST)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("transform", parents=[io], help="build a derived graph with provenance")
    p.add_argument("--derived", choices=[*DERIVED_NAMES, "l"], required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("solve", parents=[io, budget],
                       help="exact dimension with a witness certificate")
    p.add_argument("--kind", choices=list(KINDS), required=True)
    p.add_argument("--derived", choices=["none", *DERIVED_NAMES], default="none")
    p.add_argument("--stats", action="store_true",
                   help="add the search counters to the output: search_nodes, "
                        "masks_kept, lower_bound, symmetry_pruned (the children "
                        "skipped by the lex-leader rule, which a mask group's walk "
                        "applies only when the group's existence search ran out "
                        "of its 4*|V(group)| nodes) and refute_nodes")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", parents=[io, budget, report], help="run named checks over a corpus")
    p.add_argument("--theorems", default="all",
                   help=f"comma list from: {', '.join(THEOREM_IDS)} (default all)")
    p.add_argument("--phi-cap", type=_count, default=DEFAULT_PHI_CAP,
                   help="cap on the k-subsets phi enumeration may list (default %(default)s)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("explore", parents=[io, budget, report], help="scan for subdivision-gap behavior")
    p.add_argument("--target", choices=list(EXPLORE_TARGETS), required=True)
    p.set_defaults(func=_cmd_explore)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "timings", False) and args.format != "json":
            raise ValueError("--timings needs --format json")
        return args.func(args)
    except (GraphError, ValueError) as exc:
        print(f"mdimlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
