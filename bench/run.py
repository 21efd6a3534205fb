"""mdimlab benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and prints the per-layer metrics,
the tracing overhead, and writes its spans to ``bench/out/``.  The last line
of standard output is one JSON object.  The exit code is 0 when every
correctness check passed, 1 when one failed, and 2 when the checkout holds
no ``src/mdimlab`` to measure.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("verify-default", "solve-derived", "ingest-large")
# set-up is timed in this many fresh interpreters and reported as the median
SETUP_PROBES = 5


def _set_up(name: str, seed: int, tracer=None):
    """Import mdimlab and build the workload's inputs; return both and the
    CPU time taken, corrected by two reference runs right after it."""
    from meter import Meter, clock

    start = clock()
    import workloads

    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"
    workload = workloads.WORKLOADS[name](seed)
    raw = clock() - start
    if tracer is not None:
        tracer.phase = None
        tracer.uninstall()
    meter = Meter(workload.reference)
    meter.add(raw)
    return workload, meter.corrected()[0][0]


def _probe_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _measure(workload, tracer, seconds: float, trace: bool):
    """Run whole rounds until the next one would end further from the target
    than stopping now.  Traced runs alternate untraced and traced rounds."""
    rounds = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds[False]) > len(rounds[True])
        if traced:
            tracer.install()
        began = time.perf_counter()
        result = workload.run_round(tracer)
        wall = time.perf_counter() - began
        if traced:
            tracer.uninstall()
        rounds[traced].append(result)
        if trace and len(rounds[False]) > len(rounds[True]):
            continue
        if time.perf_counter() - start + wall / 2 >= seconds:
            return rounds


def _rate(rounds) -> float:
    return sum(len(r.item_seconds) for r in rounds) / sum(r.busy_seconds for r in rounds)


def _run_one(args) -> int:
    import spans as tracing

    tracer = tracing.Tracer()
    setup_samples = [] if args.trace else [_probe_setup(args.workload, args.seed)
                                           for _ in range(SETUP_PROBES)]
    workload, _ = _set_up(args.workload, args.seed, tracer if args.trace else None)
    rounds = _measure(workload, tracer, args.seconds, bool(args.trace))
    done = rounds[False] + rounds[True]
    problems = [p for r in done for p in r.problems]
    attempted = sum(len(r.item_seconds) for r in done)
    failed = sum(r.failed for r in done)

    if args.trace:
        untraced, traced = _rate(rounds[False]), _rate(rounds[True])
        metrics = tracing.layer_metrics(tracer.spans, len(rounds[True]))
        metrics["trace.items_per_s.untraced"] = (untraced, "1/s")
        metrics["trace.items_per_s.traced"] = (traced, "1/s")
        metrics["trace.overhead_pct"] = ((untraced / traced - 1.0) * 100.0, "%")
        _write_spans(tracer.spans, args.workload, args.seed)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "items_per_s": (_rate(done), "1/s"),
            "item_p50_ms": (statistics.median(t for r in done for t in r.item_seconds) * 1000.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    raw_rate = attempted / sum(r.raw_seconds for r in done)
    print(f"{args.workload} seed={args.seed} rounds={len(done)} attempted={attempted} "
          f"failed={failed} uncorrected_items_per_cpu_s={raw_rate:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


def _write_spans(spans, workload: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    origin = spans[0].start if spans else 0.0
    with open(OUT / f"trace-{workload}-{seed}.jsonl", "w") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent, "item": s.item,
                                 "phase": s.phase, "start": s.start - origin, "end": s.end - origin,
                                 **s.counters}) + "\n")


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mdimlab" / "__init__.py").is_file():
        print(f"no mdimlab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(_set_up(args.workload, args.seed)[1])
        return 0
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
