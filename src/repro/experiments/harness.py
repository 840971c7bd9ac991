"""Instance generation, per-rep evaluation, and campaign aggregation.

One *data point* of a figure is ``num_graphs`` random instances at a fixed
granularity; for each instance every algorithm produces a fault-tolerant
schedule plus its fault-free (ε = 0) reference, the schedule is replayed
under a shared random crash scenario, and the paper's metrics (normalized
latency, upper bound, crash latency, overhead) are averaged.

All randomness derives from ``config.base_seed`` via labelled child seeds,
so any single instance of any campaign can be regenerated in isolation —
and, crucially, every ``(granularity, rep)`` work unit is independent of
the others.  That purity is what the campaign stack builds on: a
:class:`~repro.experiments.grid.ScenarioGrid` describes the units, any
:class:`~repro.experiments.executors.Executor` runs them (inline, process
pool, or TCP workers on other machines), and a
:class:`~repro.experiments.store.RunStore` records the
:class:`RepResult` rows — :class:`CampaignResult` is the aggregated view
over those rows, bit-identical whichever executor produced them.

This module owns the science (generation, :func:`run_rep`, aggregation);
``repro.experiments.campaign`` owns the orchestration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.comm.base import NetworkModel
from repro.comm.oneport import OnePortNetwork
from repro.comm.routed import RoutedOnePortNetwork
from repro.core.caft import caft
from repro.dag.analysis import min_critical_path
from repro.dag.generators import random_dag
from repro.experiments.config import ExperimentConfig
from repro.fault.model import FailureScenario, build_failure_model
from repro.fault.scenarios import random_crash_scenario
from repro.fault.simulator import replay
from repro.platform.heterogeneity import (
    range_exec_matrix,
    scale_to_granularity,
    uniform_delay_platform,
)
from repro.platform.instance import ProblemInstance
from repro.platform.topology import Topology, make_topology, randomize_link_delays
from repro.schedule.bounds import latency_upper_bound
from repro.schedulers.ftbar import ftbar
from repro.schedulers.ftsa import ftsa
from repro.utils.errors import ExecutionFailedError
from repro.utils.rng import RngStream

from repro.experiments.registry import (
    SCHEDULERS,
    faultfree_representative,
    register_scheduler,
)

# The paper's algorithms, registered once in the SCHEDULERS registry —
# the source of truth every campaign validates its ``algorithms`` tuple
# against.  The fault-free reference is the default ε = 0 form of each
# runner (which keeps caft-paper's literal locking).  CAFT (either
# locking) and FTSA form one fault-free class with FTSA, the cheapest,
# as its representative (see ``faultfree_latencies``).
if "caft" not in SCHEDULERS:
    register_scheduler(
        "caft",
        lambda inst, eps, rng, model, fast=True: caft(
            inst, eps, model=model, rng=rng, fast=fast
        ),
        faultfree_class="ftsa",
    )
    register_scheduler(
        "caft-paper",
        lambda inst, eps, rng, model, fast=True: caft(
            inst, eps, model=model, locking="paper", rng=rng, fast=fast
        ),
        faultfree_class="ftsa",
    )
    register_scheduler(
        "ftsa",
        lambda inst, eps, rng, model, fast=True: ftsa(
            inst, eps, model=model, rng=rng, fast=fast
        ),
        faultfree_class="ftsa",
    )
    register_scheduler(
        "ftbar",
        lambda inst, eps, rng, model, fast=True: ftbar(
            inst, eps, model=model, rng=rng, fast=fast
        ),
    )


def faultfree_latencies(
    names, inst: ProblemInstance, rng, model, fast: bool
) -> dict[str, float]:
    """Fault-free (ε = 0) latency of each scheduler in ``names``.

    Each fault-free equivalence class (``register_scheduler(...,
    faultfree_class=...)``) runs its representative once; the result
    also holds the latency of every representative run.  When that
    schedule reports ``metadata["near_ties"] == 0`` every member reuses
    its latency: with no near-tie no member draws a random tie-break,
    so each makes the representative's decisions.  Otherwise each member
    runs its own reference.  Entries are looked up in ``SCHEDULERS`` at
    call time, so a wrapped (e.g. profiled) entry is the one that runs.
    """
    latencies: dict[str, float] = {}
    certified: dict[str, Optional[float]] = {}  # representative -> latency
    for name in names:
        rep = faultfree_representative(name)
        if rep is not None and rep not in certified:
            sched = SCHEDULERS.get(rep).faultfree(inst, rng, model, fast)
            latencies[rep] = sched.latency()
            certified[rep] = (
                latencies[rep] if sched.metadata.get("near_ties") == 0 else None
            )
        if name not in latencies:
            shared = certified.get(rep)
            latencies[name] = (
                shared
                if shared is not None
                else SCHEDULERS.get(name).faultfree(inst, rng, model, fast).latency()
            )
    return latencies


def generate_topology(
    config: ExperimentConfig, granularity: float, rep: int
) -> Optional[Topology]:
    """Interconnect of instance ``rep`` (``None`` for clique configs).

    Routed campaigns draw per-link delays from ``config.delay_range``
    with the same labelled seed the clique path feeds its platform
    generator, so the topology is a pure function of
    ``(config, granularity, rep)`` like everything else.
    """
    if config.topology is None:
        return None
    stream = RngStream(config.base_seed)
    base = make_topology(config.topology, config.num_procs)
    return randomize_link_delays(
        base,
        config.delay_range,
        stream.rng("platform", config.name, granularity, rep),
    )


def campaign_network(
    config: ExperimentConfig,
    instance: ProblemInstance,
    topology: Optional[Topology],
) -> Union[str, NetworkModel]:
    """The model spec every algorithm of one rep schedules against.

    A plain model name for the default scenarios; a configured
    :class:`NetworkModel` for the §7 routed topologies and the
    insertion-policy ablation (``resolve_network`` resets it between
    algorithms and clones it for crash replays).
    """
    if config.topology is not None:
        return RoutedOnePortNetwork(topology)
    if config.port_policy != "append":
        return OnePortNetwork(instance.platform, policy=config.port_policy)
    return config.model


def generate_instance(
    config: ExperimentConfig,
    granularity: float,
    rep: int,
    topology: Optional[Topology] = None,
) -> ProblemInstance:
    """Instance ``rep`` of the data point at ``granularity`` (deterministic).

    For routed configs the platform is the topology's effective
    route-delay matrix; ``topology`` short-circuits the rebuild when the
    caller already generated it.
    """
    stream = RngStream(config.base_seed)
    g_rng = stream.rng("graph", config.name, granularity, rep)
    v = int(g_rng.integers(config.task_range[0], config.task_range[1] + 1))
    graph = random_dag(
        v,
        degree_range=config.degree_range,
        volume_range=config.volume_range,
        rng=g_rng,
    )
    if topology is None:
        topology = generate_topology(config, granularity, rep)
    if topology is not None:
        platform = topology.to_platform()
    else:
        platform = uniform_delay_platform(
            config.num_procs,
            delay_range=config.delay_range,
            rng=stream.rng("platform", config.name, granularity, rep),
        )
    cost_rng = stream.rng("costs", config.name, granularity, rep)
    base = cost_rng.uniform(
        config.base_cost_range[0], config.base_cost_range[1], size=v
    )
    exec_cost = range_exec_matrix(
        base, config.num_procs, heterogeneity=config.heterogeneity, rng=cost_rng
    )
    exec_cost = scale_to_granularity(graph, platform, exec_cost, granularity)
    return ProblemInstance(graph, platform, exec_cost)


@dataclass
class AlgorithmPoint:
    """Accumulated per-algorithm metrics at one granularity."""

    norm_latency: list[float] = field(default_factory=list)
    norm_upper: list[float] = field(default_factory=list)
    norm_crash: list[float] = field(default_factory=list)
    overhead_0crash: list[float] = field(default_factory=list)
    overhead_crash: list[float] = field(default_factory=list)
    messages: list[float] = field(default_factory=list)
    crash_failures: int = 0  # replays that did not tolerate the scenario

    def mean(self, attr: str) -> float:
        values = getattr(self, attr)
        return float(np.mean(values)) if values else math.nan


@dataclass
class PointResult:
    """Aggregated metrics of one (granularity) data point."""

    granularity: float
    per_algorithm: dict[str, AlgorithmPoint]
    faultfree_norm: dict[str, float]

    def row(self) -> dict[str, float]:
        """Flatten to a CSV-ready mapping."""
        row: dict[str, float] = {"granularity": self.granularity}
        for algo, point in self.per_algorithm.items():
            row[f"{algo}_latency0"] = point.mean("norm_latency")
            row[f"{algo}_upper"] = point.mean("norm_upper")
            row[f"{algo}_crash"] = point.mean("norm_crash")
            row[f"{algo}_overhead0"] = point.mean("overhead_0crash")
            row[f"{algo}_overhead_crash"] = point.mean("overhead_crash")
            row[f"{algo}_messages"] = point.mean("messages")
            row[f"{algo}_crash_failures"] = point.crash_failures
        for algo, value in self.faultfree_norm.items():
            row[f"faultfree_{algo}"] = value
        return row


@dataclass(frozen=True)
class RepResult:
    """Metrics of one ``(granularity, rep)`` work unit (picklable).

    ``metrics[algo]`` holds ``norm_latency``, ``norm_upper``,
    ``overhead_0crash``, ``messages`` and — when the crash replay
    survived — ``norm_crash``/``overhead_crash`` (``None`` otherwise).
    """

    granularity: float
    rep: int
    faultfree_norm: dict[str, float]
    metrics: dict[str, dict[str, Optional[float]]]


def flatten_rep_result(
    tags: dict[str, str], result: RepResult
) -> list[dict[str, object]]:
    """One scenario-tagged row per algorithm of one rep result.

    The single definition of the per-rep row schema — both
    ``RunStore.rep_rows()`` and ``CampaignResult.rep_rows()`` flatten
    through here, so stats/compare see identical rows whichever side fed
    them.
    """
    return [
        {
            **tags,
            "granularity": result.granularity,
            "rep": result.rep,
            "algorithm": algo,
            "faultfree_norm": result.faultfree_norm[algo],
            **metrics,
        }
        for algo, metrics in result.metrics.items()
    ]


def run_rep(config: ExperimentConfig, granularity: float, rep: int) -> RepResult:
    """Run every algorithm on instance ``rep`` of one data point.

    The unit of parallelism *and* of distribution: all randomness comes
    from labelled child seeds of ``config.base_seed``, so the result is a
    pure function of ``(config, granularity, rep)`` — independent of
    which process (or machine) runs it and of every other rep.

    Online configs (``config.arrival`` set) reinterpret ``granularity``
    as the point's arrival rate and dispatch to the online harness —
    same unit identity, same purity contract, different metric columns.
    """
    if config.arrival is not None:
        from repro.experiments.online import run_online_rep

        return run_online_rep(config, granularity, rep)
    stream = RngStream(config.base_seed)
    topology = generate_topology(config, granularity, rep)
    inst = generate_instance(config, granularity, rep, topology=topology)
    model = campaign_network(config, inst, topology)
    cp = min_critical_path(inst)
    if config.failure is None:
        scenario = random_crash_scenario(
            config.num_procs,
            config.crashes,
            rng=stream.rng("crash", config.name, granularity, rep),
        )
    else:
        # The i.i.d. spec makes exactly random_crash_scenario's RNG
        # calls, so failure={"kind": "iid"} rows equal failure=None rows
        # bit for bit (pinned in tests/experiments/test_online.py).
        fmodel = build_failure_model(
            config.failure, config.num_procs, config.topology
        )
        scenario = fmodel.draw_scenario(
            config.num_procs,
            config.crashes,
            stream.rng("crash", config.name, granularity, rep),
        )
    algo_seed = stream.seed("algo", config.name, granularity, rep)
    fast = config.fast

    # Fault-free CAFT is the overhead reference CAFT* of the paper.
    faultfree = faultfree_latencies(
        dict.fromkeys(("caft", *config.algorithms)), inst, algo_seed, model, fast
    )
    ref_latency = faultfree["caft"]
    faultfree_norm = {name: faultfree[name] / cp for name in config.algorithms}

    metrics: dict[str, dict[str, Optional[float]]] = {}
    for name in config.algorithms:
        sched = SCHEDULERS.get(name).runner(
            inst, config.epsilon, algo_seed, model, fast
        )
        lat = sched.latency()
        row: dict[str, Optional[float]] = {
            "norm_latency": lat / cp,
            "norm_upper": latency_upper_bound(sched) / cp,
            "overhead_0crash": 100.0 * (lat - ref_latency) / ref_latency,
            "messages": float(sched.message_count()),
            "norm_crash": None,
            "overhead_crash": None,
        }
        try:
            crash_lat = replay(sched, scenario).latency()
            row["norm_crash"] = crash_lat / cp
            row["overhead_crash"] = 100.0 * (crash_lat - ref_latency) / ref_latency
        except ExecutionFailedError:
            # Only possible for non-robust variants (caft-paper).
            pass
        metrics[name] = row
    return RepResult(
        granularity=granularity,
        rep=rep,
        faultfree_norm=faultfree_norm,
        metrics=metrics,
    )


def _aggregate_point(
    config: ExperimentConfig, granularity: float, reps: list[RepResult]
) -> PointResult:
    """Fold per-rep results (in rep order) into one data point."""
    per_algo = {name: AlgorithmPoint() for name in config.algorithms}
    ff_norm_acc: dict[str, list[float]] = {name: [] for name in config.algorithms}
    for rep_result in reps:
        for name in config.algorithms:
            ff_norm_acc[name].append(rep_result.faultfree_norm[name])
            row = rep_result.metrics[name]
            point = per_algo[name]
            point.norm_latency.append(row["norm_latency"])
            point.norm_upper.append(row["norm_upper"])
            point.overhead_0crash.append(row["overhead_0crash"])
            point.messages.append(row["messages"])
            if row["norm_crash"] is None:
                point.crash_failures += 1
            else:
                point.norm_crash.append(row["norm_crash"])
                point.overhead_crash.append(row["overhead_crash"])
    return PointResult(
        granularity=granularity,
        per_algorithm=per_algo,
        faultfree_norm={k: float(np.mean(v)) for k, v in ff_norm_acc.items()},
    )


def aggregate_point(
    config: ExperimentConfig, granularity: float, reps: list[RepResult]
):
    """Fold per-rep results into one data point (offline or online).

    The single aggregation dispatch: offline configs produce the
    figures' :class:`PointResult`; online configs an
    :class:`~repro.experiments.online.OnlinePoint` (same ``granularity``
    + ``row()`` surface, arrival-rate semantics).
    """
    if config.arrival is not None:
        from repro.experiments.online import aggregate_online_point

        return aggregate_online_point(config, granularity, reps)
    return _aggregate_point(config, granularity, reps)


@dataclass
class CampaignResult:
    """The aggregated view over one scenario's stored rep results.

    Holds the full per-rep resolution (``reps``, canonical granularity
    then rep order) and aggregates data points lazily — the same object
    whether the campaign ran inline, on a process pool, on TCP workers,
    or was stitched back together from a resumed store.  ``rows()``
    carries the scenario columns (``network``/``topology``/``policy``)
    so multi-scenario sweeps stay distinguishable in one CSV.
    """

    config: ExperimentConfig
    reps: list[RepResult]
    _points: Optional[list[PointResult]] = field(
        default=None, repr=False, compare=False
    )
    # Lazy caches over the (frozen) RepResults, like _points: report and
    # SVG generation call rows()/rep_rows() repeatedly, and re-flattening
    # a million-row campaign per call is pure waste.  Callers get copies,
    # so cached lists are never aliased to mutable state.
    _rows_cache: Optional[list[dict]] = field(default=None, repr=False, compare=False)
    _rep_rows_cache: Optional[list[dict]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def points(self) -> list[PointResult]:
        """Aggregated data points, one per granularity of the sweep."""
        if self._points is None:
            by_g: dict[float, list[RepResult]] = {
                g: [] for g in self.config.granularities
            }
            for rep in self.reps:
                by_g[rep.granularity].append(rep)
            for g, reps in by_g.items():
                reps.sort(key=lambda r: r.rep)
            self._points = [
                aggregate_point(self.config, g, by_g[g])
                for g in self.config.granularities
                if by_g[g]
            ]
        return self._points

    def scenario_columns(self) -> dict[str, str]:
        """The tags distinguishing this scenario in merged reports."""
        _, model, topology, policy = self.config.scenario_key()
        return {"network": model, "topology": topology, "policy": policy}

    def rows(self) -> list[dict[str, object]]:
        """CSV-ready aggregated rows, scenario-tagged (cached)."""
        if self._rows_cache is None:
            tags = self.scenario_columns()
            out: list[dict[str, object]] = []
            for point in self.points:
                row = point.row()
                merged: dict[str, object] = {"granularity": row.pop("granularity")}
                merged.update(tags)
                merged.update(row)
                out.append(merged)
            self._rows_cache = out
        return [dict(row) for row in self._rows_cache]

    def rep_rows(self) -> list[dict[str, object]]:
        """Per-rep scenario-tagged rows (one per unit × algorithm).

        The full-resolution data the aggregated panels are computed
        from; what the paired statistics in ``experiments.stats`` and
        the campaign comparisons in ``experiments.compare`` consume.
        """
        if self._rep_rows_cache is None:
            name, model, topology, policy = self.config.scenario_key()
            tags = {
                "config": name,
                "network": model,
                "topology": topology,
                "policy": policy,
            }
            rows: list[dict[str, object]] = []
            for rep in self.reps:
                rows.extend(flatten_rep_result(tags, rep))
            self._rep_rows_cache = rows
        return [dict(row) for row in self._rep_rows_cache]

    def series(self, column: str) -> list[float]:
        """One named column across granularities (e.g. ``"caft_latency0"``)."""
        return [row.get(column, math.nan) for row in self.rows()]

    @classmethod
    def from_store(
        cls, store, config: Optional[ExperimentConfig] = None
    ) -> "CampaignResult":
        """Rebuild the result of one scenario from a (possibly resumed)
        store.  ``config`` defaults to the store manifest's single
        scenario; multi-scenario stores must name which one.
        """
        from repro.experiments.grid import ScenarioGrid, WorkUnit

        if config is None:
            grid = store.read_manifest_grid()
            if len(grid.configs) != 1:
                raise ValueError(
                    f"store holds {len(grid.configs)} scenarios; pass config="
                )
            config = grid.configs[0]
        results = store.results()
        reps = []
        for g in config.granularities:
            for rep in range(config.num_graphs):
                unit = WorkUnit(config, g, rep)
                if unit.unit_id in results:
                    reps.append(results[unit.unit_id])
        return cls(config=config, reps=reps)
