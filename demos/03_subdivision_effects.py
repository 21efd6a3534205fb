"""How subdividing every edge moves the mixed dimension, and the phi footprint.

Run:  python demos/03_subdivision_effects.py
"""

from mdimlab import (
    cycle_graph,
    gn_family_facts,
    gn_graph,
    is_mixed_resolving,
    phi_of_basis,
    phi_of_graph,
    random_tree,
    solve_dimension,
    subdivision,
)

print("== subdividing never raises the mixed dimension ==")
for name, g in [("C6", cycle_graph(6)), ("tree", random_tree(8, seed=4)),
                ("G_3", gn_graph(3)[0])]:
    before = solve_dimension(g, "mdim").value
    after = solve_dimension(subdivision(g).graph, "mdim").value
    print(f"  mdim({name}) = {before},  mdim(S({name})) = {after}")

print("\n== the two-hub family: the drop is at least 2 from n = 5 on ==")
for n in (5, 6):
    g, _ = gn_graph(n)
    facts = gn_family_facts(g)
    sg = subdivision(g)
    mdim = solve_dimension(g, "mdim").value
    mdim_s = solve_dimension(sg.graph, "mdim").value
    print(f"  n={n}: mdim = {mdim} (= n+2), mdim(S) = {mdim_s}, gap = {mdim - mdim_s}")
    print(f"        explicit witness of size {len(facts.sn_vertices)} verifies:",
          is_mixed_resolving(sg.graph, facts.sn_vertices))

print("\n== phi: the footprint of a subdivision basis back in the base graph ==")
g2, _ = gn_graph(2)
sg2 = subdivision(g2)
splits = {g2.edges[j]: sg2.subdivision_vertex(j) for j in range(g2.m)}
basis = [splits[(0, 2)], splits[(0, 3)], splits[(1, 2)]]
print("  a 3-element mixed basis of S(G_2):", basis)
print("  its phi set:", phi_of_basis(sg2, basis))

result = phi_of_graph(sg2)
print(f"  phi(G_2) = {result.phi_value} "
      f"(minimum over {result.bases_enumerated} metric bases of S(G_2))")

print("\n== the sandwich chain on a few graphs ==")
for name, g in [("C5", cycle_graph(5)), ("G_2", g2), ("tree", random_tree(7, seed=2))]:
    dim = solve_dimension(g, "dim").value
    edim = solve_dimension(g, "edim").value
    sg = subdivision(g)
    phi = phi_of_graph(sg).phi_value
    mdim_s = solve_dimension(sg.graph, "mdim").value
    mdim = solve_dimension(g, "mdim").value
    print(f"  {name}: max(dim,edim)={max(dim, edim)} <= phi={phi} <= "
          f"2*mdim(S)={2 * mdim_s}, mdim(S)={mdim_s} <= mdim={mdim}")
