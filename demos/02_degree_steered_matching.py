"""Steering the degree composition of a driver set.

Maximum matchings are rarely unique, so neither are driver sets. Admitting
nodes to the matching one at a time, in degree order, keeps early nodes
matched and pushes the unmatched roles toward the late end of the order:
an ascending order yields high-degree drivers, a descending order yields
low-degree drivers. The preferential node count m interpolates between a
plain run (m=0) and the fully steered run (m=N).
"""

import netctrl as nc

g = nc.gen_directed_ba(nc.BaParams(n=800, m_attach=2, m0=3, p=0.5, seed=42))
print(f"model network: N={g.node_count}, L={g.edge_count}, <k>={nc.average_degree(g):.3f}")

# Baseline: what do randomly sampled driver sets look like?
summary = nc.sample_mds(g, 500, seed=7)
print(f"\n500 random samples: n_d={summary.n_d}, "
      f"<k_D> mean={summary.mean_kd:.3f} min={summary.min_kd:.3f} max={summary.max_kd:.3f}")

asc = nc.NodeOrder.degree_ascending(g)
desc = nc.NodeOrder.degree_descending(g)

print("\n  m    <k_D> ascending   <k_D> descending")
for m in (0, 200, 400, 600, 800):
    up = nc.preferential_mds(g, asc, m)
    down = nc.preferential_mds(g, desc, m)
    print(f"{m:5d}   {up.avg_degree_d:15.3f}   {down.avg_degree_d:16.3f}")

up = nc.preferential_mds(g, asc, g.node_count)
down = nc.preferential_mds(g, desc, g.node_count)
print(f"\nfully steered spread: [{down.avg_degree_d:.3f}, {up.avg_degree_d:.3f}] "
      f"around the random mean {summary.mean_kd:.3f}")
print(f"driver count is invariant: {up.n_d} == {down.n_d} == {summary.n_d}")

# The same machinery excludes specific nodes from driving: admit them first
# so they are matched before anything else competes for their in-roles.
protected = list(asc.permutation[-20:])  # the 20 highest-degree nodes
order = nc.NodeOrder(protected + [v for v in asc.permutation if v not in set(protected)])
res = nc.preferential_mds(g, order, 20)
excluded = set(protected) & set(res.drivers)
print(f"\nadmitting the 20 biggest hubs first leaves {len(excluded)} of them as drivers")
