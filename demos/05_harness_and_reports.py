"""Corpus verification and open-ended exploration with deterministic reports.

Each corpus is built from a family spec, the grammar the command line's
``--family`` reads, and each section prints the command that gives its
report's summary.

Run:  python demos/05_harness_and_reports.py
"""

import json

from mdimlab.families import generate
from mdimlab.harness import explore, run_checks

print("== verify the tree statements over every tree with up to 6 vertices ==")
spec = "trees:n=2..6"
theorems = ["T4.1", "T4.2", "T4.3", "P4.5"]
report = run_checks(generate(spec), theorems=theorems)
print("  summary:", report.summary)
for r in report.records:
    if r.status == "skipped":
        print(f"  {r.instance} {r.theorem}: skipped ({r.reason})")
print(f"  same summary: mdimlab verify --family {spec} --theorems {','.join(theorems)}")

print("\n== cactus statements on seeded random cacti ==")
spec = "random_cactus:n=11,cycles=2,seed=1..5"
theorems = ["T2.2-formula", "C3.5-cactus", "L2.1-forced"]
report = run_checks(generate(spec), theorems=theorems)
print("  summary:", report.summary)
one = report.records[0]
print(f"  sample record: {one.instance} {one.theorem} -> {one.status} {one.values}")
print(f"  same summary: mdimlab verify --family {spec} --theorems {','.join(theorems)}")

print("\n== exploration: does subdividing ever drop the mixed dimension by 3? ==")
spec = "gn:n=2..6"
report = explore(generate(spec), target="gap_gt_2")
print(json.dumps(report.extra, indent=2, sort_keys=True))
print(f"  same findings: mdimlab explore --target gap_gt_2 --family {spec}")
