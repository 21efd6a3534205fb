"""Resolving sets of all three kinds and the exact dimension solvers.

Run:  python demos/02_resolving_sets_and_dimensions.py
"""

from mdimlab import (
    cycle_graph,
    forced_vertices_mdim,
    gn_graph,
    is_edge_resolving,
    is_mixed_resolving,
    is_resolving,
    path_graph,
    solve_dimension,
    star_graph,
    vertex_edge_distance,
)

print("== signatures: distance vectors to a witness set ==")
p4 = path_graph(4)
for v in range(4):
    print(f"  vertex {v} vs W={{0}}:", (p4.distances[v][0],))
print("  edge (1,2) vs W={0}:", (vertex_edge_distance(p4, 0, p4.edge_index(1, 2)),))

print("\n== one leaf resolves a path, but no single vertex resolves a cycle ==")
print("  is_resolving(P4, {0}):", is_resolving(p4, [0]))
print("  is_resolving(C4, {0}):", is_resolving(cycle_graph(4), [0]))

print("\n== vertices with a maximal neighbor are forced into mixed witnesses ==")
for name, g in [("K1,3", star_graph(4)), ("P4", p4), ("G_2", gn_graph(2)[0])]:
    print(f"  {name}: forced = {forced_vertices_mdim(g)}")

print("\n== the three dimensions of a 5-cycle ==")
c5 = cycle_graph(5)
for kind in ("dim", "edim", "mdim"):
    cert = solve_dimension(c5, kind)
    print(f"  {kind}(C5) = {cert.value}, lexicographically-first witness {cert.vertices}")

print("\n== certificates are minimal and checkable ==")
cert = solve_dimension(star_graph(5), "mdim")
print("  mdim(K1,4) =", cert.value, "witness", cert.vertices, "forced", cert.forced)
print("  witness verifies:", is_mixed_resolving(star_graph(5), cert.vertices))
smaller = cert.vertices[:-1]
print(f"  dropping a vertex {smaller} still verifies?",
      bool(smaller) and is_mixed_resolving(star_graph(5), smaller))

print("\n== every mixed witness is simultaneously vertex- and edge-resolving ==")
g2, _ = gn_graph(2)
w = solve_dimension(g2, "mdim").vertices
print("  witness", w, "->",
      is_resolving(g2, w), is_edge_resolving(g2, w), is_mixed_resolving(g2, w))
