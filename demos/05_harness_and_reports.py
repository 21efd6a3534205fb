"""Corpus verification and open-ended exploration with deterministic reports.

Run:  python demos/05_harness_and_reports.py
"""

import json

from mdimlab.families import enumerate_small_trees, gn_graph, random_cactus
from mdimlab.harness import Instance, explore, run_checks

print("== verify the tree statements over every tree with up to 6 vertices ==")
instances = []
for n in range(2, 7):
    for i, t in enumerate(enumerate_small_trees(n)):
        instances.append(Instance(id=f"trees:n={n},i={i:03d}", graph=t,
                                  family="trees", param_n=n))
report = run_checks(instances, theorems=["T4.1", "T4.2", "T4.3", "P4.5"])
print("  summary:", report.summary)
for r in report.records:
    if r.status == "skipped":
        print(f"  {r.instance} {r.theorem}: skipped ({r.reason})")

print("\n== cactus statements on seeded random cacti ==")
cacti = [Instance(id=f"random_cactus:n=11,cycles=2,seed={s:03d}",
                  graph=random_cactus(11, 2, s), family="random_cactus", param_n=11)
         for s in range(1, 6)]
report = run_checks(cacti, theorems=["T2.2-formula", "C3.5-cactus", "L2.1-forced"])
print("  summary:", report.summary)
one = report.records[0]
print(f"  sample record: {one.instance} {one.theorem} -> {one.status} {one.values}")

print("\n== exploration: does subdividing ever drop the mixed dimension by 3? ==")
hubs = [Instance(id=f"gn:n={n}", graph=gn_graph(n)[0], family="gn", param_n=n)
        for n in (2, 3, 5, 6)]
report = explore(hubs, target="gap_gt_2")
print(json.dumps(report.extra, indent=2, sort_keys=True))

print("\n== the same reports come out of the command line ==")
print("  mdimlab verify --family trees:n=2..7")
print("  mdimlab verify --family random_cactus:n=11,cycles=2,seed=1..5 --format csv")
print("  mdimlab explore --target gap_gt_2 --family gn:n=2..6")
print("  mdimlab solve --family gn:n=2 --kind mdim --derived s")
