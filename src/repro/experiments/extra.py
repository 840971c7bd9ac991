"""Sweeps beyond the paper's figures: heterogeneity and platform size.

The paper fixes the processor-heterogeneity factor and evaluates only
m ∈ {10, 20}.  These campaigns vary the dimensions the paper keeps
constant, answering two natural follow-up questions:

* does CAFT's advantage survive as machines become more *unrelated*
  (heterogeneity sweep at fixed granularity)?
* how do the algorithms scale with the platform size (contention grows
  with the replica fan-out; more processors dilute it)?

Each sweep is one multi-scenario grid run by the campaign engine, so
every metric (normalized latency, bounds, crash latency, overhead,
messages) stays comparable with the figure campaigns.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.campaign import run_grid
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import ScenarioGrid
from repro.experiments.harness import PointResult


def _base_config(name: str, granularity: float, num_procs: int, epsilon: int,
                 crashes: int, num_graphs: int,
                 heterogeneity: float) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        granularities=(granularity,),
        num_procs=num_procs,
        epsilon=epsilon,
        crashes=crashes,
        num_graphs=num_graphs,
        heterogeneity=heterogeneity,
    )


def _sweep_points(configs: Sequence[ExperimentConfig]) -> list[PointResult]:
    """The single data point of each config, run as one grid."""
    results = run_grid(ScenarioGrid(tuple(dict.fromkeys(configs))))
    points = {result.config: result.points[0] for result in results}
    return [points[config] for config in configs]


def heterogeneity_sweep(
    factors: Sequence[float] = (0.0, 0.5, 1.0, 1.5),
    num_procs: int = 10,
    epsilon: int = 1,
    granularity: float = 1.0,
    num_graphs: int = 5,
) -> list[tuple[float, PointResult]]:
    """Run the figure-1 point at ``granularity`` across heterogeneity factors.

    ``factor`` is the range-based spread ``h`` of
    :func:`repro.platform.heterogeneity.range_exec_matrix`: 0 means
    identical processors, values near 2 mean wildly unrelated ones.
    """
    configs = [
        _base_config(
            f"hetero-{h:g}", granularity, num_procs, epsilon, crashes=1,
            num_graphs=num_graphs, heterogeneity=h,
        )
        for h in factors
    ]
    return list(zip(factors, _sweep_points(configs)))


def platform_size_sweep(
    sizes: Sequence[int] = (5, 10, 20, 40),
    epsilon: int = 1,
    granularity: float = 1.0,
    num_graphs: int = 5,
) -> list[tuple[int, PointResult]]:
    """Run one data point per platform size (fixed ε and granularity)."""
    configs = [
        _base_config(
            f"msize-{m}", granularity, m, epsilon, crashes=min(epsilon, m - 1),
            num_graphs=num_graphs, heterogeneity=0.5,
        )
        for m in sizes
    ]
    return list(zip(sizes, _sweep_points(configs)))


def sweep_table(
    results: Sequence[tuple[float, PointResult]],
    metric: str = "norm_latency",
    label: str = "x",
) -> str:
    """ASCII table of one metric across a sweep, one column per algorithm."""
    if not results:
        return "(empty sweep)"
    algos = list(results[0][1].per_algorithm)
    header = f"{label:>8} " + " ".join(f"{a:>12}" for a in algos)
    lines = [header, "-" * len(header)]
    for x, point in results:
        cells = " ".join(
            f"{point.per_algorithm[a].mean(metric):>12.2f}" for a in algos
        )
        lines.append(f"{x:>8g} {cells}")
    return "\n".join(lines)
