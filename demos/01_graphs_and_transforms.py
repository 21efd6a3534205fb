"""Build graphs and derive their subdivision, middle, total, and line graphs.

Run:  python demos/01_graphs_and_transforms.py
"""

from mdimlab import (
    build_graph,
    check_distance_identities,
    cycle_graph,
    line_graph,
    middle,
    path_graph,
    star_graph,
    subdivision,
    total,
)
from mdimlab.formats import derived_to_dot

print("== a hand-built graph ==")
g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
print(g, "edges:", g.edges)
print("distance 0 -> 4:", g.distances[0][4])

print("\n== the three vertex-expanding constructions ==")
claw = star_graph(4)
for name, make in [("S", subdivision), ("M", middle), ("T", total)]:
    dg = make(claw)
    print(f"{name}(K1,3): {dg.graph.n} vertices, {dg.graph.m} edges, "
          f"classes {sorted(set(dg.edge_classes))}")

print("\n== provenance: split vertex of edge j sits at index n + j ==")
sg = subdivision(path_graph(3))
for v, tag in enumerate(sg.provenance):
    print(f"  vertex {v}: {tag}")

print("\n== line graphs ==")
print("L(P3) =", line_graph(path_graph(3)).edges, "(a single edge)")
print("L(C4) =", line_graph(cycle_graph(4)).edges, "(a 4-cycle again)")
print("L(K1,3) =", line_graph(star_graph(4)).edges, "(a triangle)")

print("\n== the distance identities tying G to S(G) and M(G) ==")
report = check_distance_identities(g, subdivision(g), middle(g))
for check in report.checks:
    print(f"  {check.identity}: {check.pairs_checked} pairs, ok={check.ok}")

print("\n== DOT drawing of a derived graph ==")
print(derived_to_dot(subdivision(path_graph(2))))
