"""Finding the minimum driver node set of a directed network.

A node is controllable through its incoming edges; a maximum matching over
the out-role/in-role bipartite view tells us which nodes can be driven by
their neighbors. Whatever the matching leaves unmatched must receive an
external control signal: those are the driver nodes, and their count
n_d = max(N - |M*|, 1) is the same for every maximum matching.
"""

import netctrl as nc

# A small food-web-like network, written as edge-list text.
text = """
# toy network: plants feed herbivores, herbivores feed predators
plant1 rabbit
plant2 rabbit
plant2 mouse
rabbit fox
mouse fox
mouse owl
"""

g = nc.parse_edge_list(text)
print(f"network: {g.node_count} nodes, {g.edge_count} edges")
print(f"average degree <k> = {nc.average_degree(g):.3f}")

# Any node order yields a maximum matching of the same size; the order only
# decides which of the equally large matchings we land on.
order = nc.NodeOrder.degree_ascending(g)
matching = nc.max_matching(g, order)
print(f"\nmaximum matching size |M*| = {matching.size}")
for tail, head in matching.pairs():
    print(f"  matched edge: {g.label_of(tail)} -> {g.label_of(head)}")

result = nc.drivers(g, matching, order)
print(f"\ndriver nodes (n_d = {result.n_d}, fraction {result.lambda_d:.2f}):")
for v in result.drivers:
    print(f"  {g.label_of(v)}")
print(f"average driver degree <k_D> = {result.avg_degree_d:.3f}")

# Sources (zero in-degree) can never be matched, so they always drive.
in_degree = nc.degrees(g).in_degree
sources = [g.label_of(v) for v in range(g.node_count) if in_degree[v] == 0]
print(f"\nzero in-degree nodes (always drivers): {sources}")

# A perfect matching still needs one driver; the designated node is the
# first of the supplied order and the flag says the choice was arbitrary.
cycle = nc.parse_edge_list("a b\nb c\nc a")
res = nc.drivers(cycle, nc.max_matching(cycle, nc.NodeOrder.degree_ascending(cycle)),
                 nc.NodeOrder.degree_ascending(cycle))
print(f"\n3-cycle: perfect matching -> n_d = {res.n_d}, "
      f"designated driver = {cycle.label_of(res.drivers[0])} "
      f"(perfect_matching={res.perfect_matching})")
