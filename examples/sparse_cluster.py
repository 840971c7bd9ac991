"""Scheduling over sparse interconnects (the paper's §7 extension).

An FFT butterfly is mapped onto 9-processor clusters wired as a clique, a
ring, a star and a 3x3 mesh.  Messages hold every physical link along
their static shortest-delay route, so sparse wiring means more contention:
the script quantifies how much latency each topology costs relative to
the clique, for both the fault-free and the fault-tolerant schedule.

The second half asks the same question over *random* workloads: one
declarative :class:`CampaignSpec` expands a base campaign along the
topology axis (clique / ring / torus) — no per-topology campaign loops —
and, because scenario expansion keeps the instance seeds, every topology
schedules the *same* random DAGs, so the comparison table is paired.

Run:  python examples/sparse_cluster.py
"""

import numpy as np

from repro import (
    ProblemInstance,
    RoutedOnePortNetwork,
    Topology,
    caft,
    fft_butterfly,
    range_exec_matrix,
    scale_to_granularity,
)
from repro.experiments import Campaign, CampaignSpec
from repro.experiments.compare import campaign_comparison_table
from repro.experiments.config import ExperimentConfig

PROCS = 9


def topologies() -> dict[str, Topology]:
    return {
        "clique": Topology.clique(PROCS),
        "mesh3x3": Topology.mesh2d(3, 3),
        "ring": Topology.ring(PROCS),
        "star": Topology.star(PROCS),
    }


def topology_campaign() -> None:
    """One spec, three interconnects, paired random instances."""
    base = ExperimentConfig(
        name="sparse-demo",
        granularities=(1.0,),
        num_procs=PROCS,
        epsilon=1,
        crashes=1,
        num_graphs=3,
        task_range=(18, 24),
    )
    # The whole campaign as data: base scenario + a topology axis.  The
    # spec is a file away from a distributed run — spec.save("sparse.json")
    # then `repro-ftsched campaign run sparse.json --executor process`.
    spec = CampaignSpec(config=base, topologies=("ring", "torus"))
    grid = spec.grid()
    print(f"\ncampaign grid: {len(grid.configs)} scenarios x "
          f"{base.num_graphs} shared random graphs "
          f"({grid.total_units} work units)")
    handle = Campaign(spec).run()
    rows = [row for result in handle.results for row in result.rep_rows()]
    print(campaign_comparison_table(rows, baseline="caft"))


def main() -> None:
    wl = fft_butterfly(8)
    print(f"workload: {wl.name} ({wl.num_tasks} tasks, {wl.graph.num_edges} edges)")
    print(f"{'topology':9s} {'links':>6} {'eps':>4} {'latency':>9} {'msgs':>6} {'vs clique':>10}")

    baseline: dict[int, float] = {}
    for name, topo in topologies().items():
        platform = topo.to_platform()
        exec_cost = range_exec_matrix(wl.base_costs, PROCS, heterogeneity=0.5, rng=1)
        exec_cost = scale_to_granularity(wl.graph, platform, exec_cost, 1.0)
        instance = ProblemInstance(wl.graph, platform, exec_cost)
        for eps in (0, 1):
            sched = caft(instance, eps, model=RoutedOnePortNetwork(topo), rng=0)
            lat = sched.latency()
            if name == "clique":
                baseline[eps] = lat
            rel = lat / baseline[eps]
            print(
                f"{name:9s} {len(topo.links()):>6} {eps:>4} {lat:>9.1f} "
                f"{sched.message_count():>6} {rel:>9.2f}x"
            )

    topology_campaign()


if __name__ == "__main__":
    main()
