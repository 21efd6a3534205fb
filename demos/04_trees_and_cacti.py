"""Closed-form dimensions for trees and cacti, checked against brute force.

Run:  python demos/04_trees_and_cacti.py
"""

from mdimlab import (
    build_graph,
    cactus_decompose,
    closed_form,
    enumerate_small_trees,
    leaf_count,
    middle,
    random_cactus,
    solve_dimension,
    star_graph,
    subdivision,
    total,
)

print("== every tree on 6 vertices: formulas vs brute force ==")
for i, t in enumerate(enumerate_small_trees(6)):
    n1 = leaf_count(t)
    mdim = solve_dimension(t, "mdim").value
    dim_m = solve_dimension(middle(t).graph, "dim").value
    mdim_t = solve_dimension(total(t).graph, "mdim").value
    law = closed_form(t, "mdim_total_tree")
    print(f"  tree {i}: n1={n1}  mdim={mdim}  dim(M)={dim_m}  mdim(T)={mdim_t} (2*n1 = {law})")

print("\n== total-graph dim bounds for trees: two solves and a leaf count ==")
for t in [star_graph(6), build_graph(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (4, 6)])]:
    dim = solve_dimension(t, "dim").value
    dim_t = solve_dimension(total(t).graph, "dim").value
    print(f"  dim(G)={dim} <= dim(T(G))={dim_t} <= n1={leaf_count(t)}")

print("\n== cactus decomposition and the mixed-dimension formula ==")
g = random_cactus(12, 3, seed=9)
report = cactus_decompose(g)
print(f"  cactus: n={g.n}, leaves={report.n1}, epsilon={report.epsilon}")
for c in report.cycles:
    print(f"    cycle {c.vertices}: rt={c.rt}, geodesic triple={c.has_geodesic_triple}")
print("  formula value:", report.mdim_formula)
print("  brute mdim:   ", solve_dimension(g, "mdim").value)
print("  brute mdim(S):", solve_dimension(subdivision(g).graph, "mdim").value,
      "(subdividing a cactus preserves the mixed dimension)")

print("\n== clustering the branch points on one side can cost an extra vertex ==")
hexagon = [(i, (i + 1) % 6) for i in range(6)]
clustered = build_graph(9, hexagon + [(0, 6), (1, 7), (2, 8)])
spread = build_graph(9, hexagon + [(0, 6), (2, 7), (4, 8)])
for name, g in [("clustered", clustered), ("spread", spread)]:
    rep = cactus_decompose(g)
    print(f"  {name} pendants: epsilon={rep.epsilon}, formula={rep.mdim_formula}, "
          f"brute={solve_dimension(g, 'mdim').value}")
