"""Online campaigns: DAGs arriving over time against a shared platform.

The paper's algorithms are offline — one DAG, the whole platform.  This
module turns them into a *serving* scenario: an
:class:`~repro.experiments.arrival.ArrivalSpec` emits a deterministic
job stream (see :mod:`repro.experiments.arrival`), and the
:class:`OnlineHarness` schedules each arriving DAG incrementally against
the platform's **residual** availability — the processors not reserved
by still-running jobs.  Each job yields a :class:`JobRecord` (queueing
delay, response time, makespan, crash survival under the rep's drawn
failure scenario); :func:`run_online_rep` folds a rep's records into the
same :class:`~repro.experiments.harness.RepResult` shape offline reps
produce, so stores, executors, resume, and the conformance matrix run
online campaigns unchanged.

Dispatch policy (deterministic by construction):

* pending jobs are served highest priority first, ties by arrival time
  then index;
* the head job is dispatched as soon as at least ``epsilon + 1``
  processors are free (capped by the grant width), and is granted the
  ``width`` lowest-numbered free processors;
* a job runs on its grant to completion — the grant's sub-platform is
  the delay submatrix, and the job's replication budget degrades to
  ``min(epsilon, granted - 1)`` when the grant is narrow.

For routed configs the sub-platform is the submatrix of the topology's
effective route-delay matrix and jobs schedule against a one-port model
over it — route *sharing* between concurrent jobs is not modelled (the
residual-availability model partitions processors, not links).

The sweep axis: online configs reuse ``granularities`` as the
**arrival-rate** sweep (per-job granularity moves into the arrival
spec), so unit ids, stores, and resume are untouched.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.comm.oneport import OnePortNetwork
from repro.dag.analysis import min_critical_path
from repro.experiments.arrival import ArrivalEvent, generate_arrivals
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    RepResult,
    campaign_network,
    faultfree_latencies,
    generate_topology,
)
from repro.experiments.registry import SCHEDULERS
from repro.fault.model import FailureScenario, build_failure_model
from repro.fault.simulator import replay
from repro.platform.heterogeneity import (
    range_exec_matrix,
    scale_to_granularity,
    uniform_delay_platform,
)
from repro.platform.instance import ProblemInstance
from repro.platform.platform import Platform
from repro.utils.errors import ExecutionFailedError
from repro.utils.rng import RngStream


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one job of one online rep (one algorithm).

    Times are on the rep's arrival clock; ``procs`` is the grant (global
    processor ids).  ``crash_latency`` is the job's makespan when the
    rep's failure scenario strikes its grant (``None`` when the replay
    did not survive); it equals ``makespan`` for jobs the scenario
    misses.
    """

    index: int
    arrival: float
    start: float
    finish: float
    makespan: float
    priority: int
    procs: tuple[int, ...]
    messages: float
    dedicated: float
    critical_path: float
    crash_latency: Optional[float]

    @property
    def queueing(self) -> float:
        return self.start - self.arrival

    @property
    def response(self) -> float:
        return self.finish - self.arrival

    @property
    def slowdown(self) -> float:
        """Response time over the dedicated fault-free latency (≥ 1-ish)."""
        return self.response / self.dedicated


class OnlineHarness:
    """Incremental scheduler: one rep's job stream on one platform.

    Generates the platform, job stream, per-job costs, and the rep's
    failure scenario once (all from labelled child seeds), then replays
    the event loop per algorithm — every algorithm serves the identical
    workload, so per-algorithm comparisons are paired exactly like the
    offline figures.
    """

    def __init__(self, config: ExperimentConfig, rate: float, rep: int) -> None:
        if config.arrival is None:
            raise ValueError(f"config {config.name!r} has no arrival process")
        self.config = config
        self.rate = float(rate)
        self.rep = rep
        spec = config.arrival
        stream = RngStream(config.base_seed)
        self.topology = generate_topology(config, rate, rep)
        if self.topology is not None:
            self.platform = self.topology.to_platform()
        else:
            self.platform = uniform_delay_platform(
                config.num_procs,
                delay_range=config.delay_range,
                rng=stream.rng("platform", config.name, rate, rep),
            )
        self.events: tuple[ArrivalEvent, ...] = generate_arrivals(
            spec,
            rate,
            rep,
            base_seed=config.base_seed,
            name=config.name,
            task_range=config.task_range,
            degree_range=config.degree_range,
            volume_range=config.volume_range,
        )
        # Per-job execution costs, scaled to the arrival spec's
        # granularity against the full platform so a job's cost scale
        # does not depend on which processors it happens to be granted.
        self._exec_costs = []
        for ev in self.events:
            cost_rng = stream.rng("costs", config.name, rate, rep, ev.index)
            base = cost_rng.uniform(
                config.base_cost_range[0],
                config.base_cost_range[1],
                size=ev.graph.num_tasks,
            )
            exec_cost = range_exec_matrix(
                base,
                config.num_procs,
                heterogeneity=config.heterogeneity,
                rng=cost_rng,
            )
            self._exec_costs.append(
                scale_to_granularity(
                    ev.graph, self.platform, exec_cost, spec.granularity
                )
            )
        model = build_failure_model(
            config.failure, config.num_procs, config.topology
        )
        self.scenario = model.draw_scenario(
            config.num_procs,
            config.crashes,
            stream.rng("crash", config.name, rate, rep),
        )
        m = config.num_procs
        self.width = min(spec.width or max(config.epsilon + 1, m // 2), m)
        self.min_grant = min(self.width, config.epsilon + 1)
        self._algo_seeds = {
            ev.index: stream.seed("algo", config.name, rate, rep, ev.index)
            for ev in self.events
        }
        #: job index -> (fault-free latency per algorithm, CP bound); the
        #: dedicated reference does not depend on the algorithm serving
        #: the stream, so every ``run`` shares it
        self._references: dict[int, tuple[dict[str, float], float]] = {}

    # ------------------------------------------------------------------
    def _job_model(self, sub_platform: Platform):
        """The communication model one job schedules against its grant."""
        config = self.config
        if config.topology is not None:
            # Effective route delays of the grant; links are not shared
            # across concurrent jobs (see module docstring).
            return OnePortNetwork(sub_platform)
        if config.port_policy != "append":
            return OnePortNetwork(sub_platform, policy=config.port_policy)
        return config.model

    def _schedule_job(self, algorithm: str, ev: ArrivalEvent, grant: tuple[int, ...]):
        """Schedule job ``ev`` on its grant; returns ``(schedule, sub_eps)``."""
        config = self.config
        delay = self.platform.delay_matrix[np.ix_(grant, grant)]
        sub_platform = Platform(delay)
        inst = ProblemInstance(
            ev.graph, sub_platform, self._exec_costs[ev.index][:, grant]
        )
        eps = min(config.epsilon, len(grant) - 1)
        sched = SCHEDULERS.get(algorithm).runner(
            inst,
            eps,
            self._algo_seeds[ev.index],
            self._job_model(sub_platform),
            config.fast,
        )
        return sched

    def _dedicated(
        self, algorithm: str, ev: ArrivalEvent
    ) -> tuple[dict[str, float], float]:
        """Fault-free latencies on the whole platform + the job's CP bound.

        Latencies cover ``algorithm`` and every algorithm of the config,
        so one call per job serves every ``run``.
        """
        inst = ProblemInstance(
            ev.graph, self.platform, self._exec_costs[ev.index]
        )
        model = campaign_network(self.config, inst, self.topology)
        latencies = faultfree_latencies(
            dict.fromkeys((algorithm, *self.config.algorithms)),
            inst,
            self._algo_seeds[ev.index],
            model,
            self.config.fast,
        )
        return latencies, min_critical_path(inst)

    def _crash_latency(self, sched, grant: tuple[int, ...]) -> Optional[float]:
        """The job's makespan under the rep's scenario (``None`` = died)."""
        failed = set(self.scenario.failed_procs)
        local = [i for i, p in enumerate(grant) if p in failed]
        if not local:
            return sched.latency()
        try:
            return replay(
                sched, FailureScenario.crash_at_start(local)
            ).latency()
        except ExecutionFailedError:
            return None

    # ------------------------------------------------------------------
    def run(self, algorithm: str) -> list[JobRecord]:
        """Serve the whole job stream with ``algorithm`` (in job order)."""
        events = sorted(self.events, key=lambda e: (e.time, e.index))
        by_index = {ev.index: ev for ev in events}
        pending: list[tuple[int, float, int]] = []  # (-prio, arrival, idx)
        running: list[tuple[float, int, tuple[int, ...]]] = []
        free = list(range(self.config.num_procs))
        records: dict[int, JobRecord] = {}
        i = 0
        now = 0.0
        while i < len(events) or pending or running:
            while i < len(events) and events[i].time <= now:
                ev = events[i]
                heapq.heappush(pending, (-ev.priority, ev.time, ev.index))
                i += 1
            while pending and len(free) >= self.min_grant:
                _, _, idx = heapq.heappop(pending)
                ev = by_index[idx]
                free.sort()
                grant = tuple(free[: self.width])
                del free[: self.width]
                sched = self._schedule_job(algorithm, ev, grant)
                makespan = sched.latency()
                finish = now + makespan
                heapq.heappush(running, (finish, idx, grant))
                reference = self._references.get(idx)
                if reference is None or algorithm not in reference[0]:
                    reference = self._references[idx] = self._dedicated(
                        algorithm, ev
                    )
                latencies, cp = reference
                records[idx] = JobRecord(
                    index=idx,
                    arrival=ev.time,
                    start=now,
                    finish=finish,
                    makespan=makespan,
                    priority=ev.priority,
                    procs=grant,
                    messages=float(sched.message_count()),
                    dedicated=latencies[algorithm],
                    critical_path=cp,
                    crash_latency=self._crash_latency(sched, grant),
                )
            horizon = []
            if i < len(events):
                horizon.append(events[i].time)
            if running:
                horizon.append(running[0][0])
            if not horizon:
                break
            now = max(now, min(horizon))
            while running and running[0][0] <= now:
                _, _, grant = heapq.heappop(running)
                free.extend(grant)
        return [records[idx] for idx in sorted(records)]


# ----------------------------------------------------------------------
# Rep evaluation + aggregation (the online run_rep / PointResult)
# ----------------------------------------------------------------------

#: per-algorithm metric keys of one online rep row (uniform schema —
#: every row carries every key; ``crash_response_mean`` is None when no
#: job survived the rep's failure scenario)
ONLINE_METRICS: tuple[str, ...] = (
    "response_mean",
    "queueing_mean",
    "makespan_mean",
    "slowdown_mean",
    "completion_time",
    "throughput",
    "messages",
    "survived_frac",
    "crash_response_mean",
)


def run_online_rep(
    config: ExperimentConfig, rate: float, rep: int
) -> RepResult:
    """One online work unit: the whole job stream, every algorithm.

    Same purity contract as the offline ``run_rep``: the result is a
    function of ``(config, rate, rep)`` alone, so online campaigns are
    resumable and bit-identical across executors.  ``faultfree_norm`` is
    the mean dedicated (whole-platform, fault-free) latency over the
    job's critical-path bound — the online analogue of the offline
    normalizer.
    """
    harness = OnlineHarness(config, rate, rep)
    faultfree_norm: dict[str, float] = {}
    metrics: dict[str, dict[str, Optional[float]]] = {}
    for name in config.algorithms:
        records = harness.run(name)
        n = len(records)
        completion = max(r.finish for r in records)
        survivors = [r for r in records if r.crash_latency is not None]
        row: dict[str, Optional[float]] = {
            "response_mean": float(np.mean([r.response for r in records])),
            "queueing_mean": float(np.mean([r.queueing for r in records])),
            "makespan_mean": float(np.mean([r.makespan for r in records])),
            "slowdown_mean": float(np.mean([r.slowdown for r in records])),
            "completion_time": completion,
            "throughput": n / completion if completion > 0 else math.nan,
            "messages": float(np.mean([r.messages for r in records])),
            "survived_frac": len(survivors) / n,
            "crash_response_mean": (
                float(
                    np.mean([r.queueing + r.crash_latency for r in survivors])
                )
                if survivors
                else None
            ),
        }
        metrics[name] = row
        faultfree_norm[name] = float(
            np.mean([r.dedicated / r.critical_path for r in records])
        )
    return RepResult(
        granularity=float(rate),
        rep=rep,
        faultfree_norm=faultfree_norm,
        metrics=metrics,
    )


@dataclass
class OnlinePoint:
    """Aggregated metrics of one arrival-rate data point.

    Duck-type compatible with the offline ``PointResult`` where the
    campaign stack needs it (``granularity`` attribute + ``row()``),
    with the arrival rate on the sweep axis.
    """

    granularity: float  # the arrival rate of this point
    per_algorithm: dict[str, dict[str, float]]
    faultfree_norm: dict[str, float]

    @property
    def rate(self) -> float:
        return self.granularity

    def row(self) -> dict[str, float]:
        """Flatten to a CSV-ready mapping (``{algo}_{metric}`` columns)."""
        row: dict[str, float] = {"granularity": self.granularity}
        for algo, point in self.per_algorithm.items():
            for key in ONLINE_METRICS:
                row[f"{algo}_{key}"] = point[key]
        for algo, value in self.faultfree_norm.items():
            row[f"faultfree_{algo}"] = value
        return row


def aggregate_online_point(
    config: ExperimentConfig, rate: float, reps: list[RepResult]
) -> OnlinePoint:
    """Fold per-rep online results (in rep order) into one data point.

    Means of the per-rep means; ``crash_response_mean`` averages the
    reps that had survivors (NaN when none did, matching the offline
    crash columns' missing-value convention).
    """
    per_algo: dict[str, dict[str, float]] = {}
    ff: dict[str, float] = {}
    for name in config.algorithms:
        agg: dict[str, float] = {}
        for key in ONLINE_METRICS:
            values = [
                r.metrics[name][key]
                for r in reps
                if r.metrics[name][key] is not None
            ]
            agg[key] = float(np.mean(values)) if values else math.nan
        per_algo[name] = agg
        ff[name] = float(np.mean([r.faultfree_norm[name] for r in reps]))
    return OnlinePoint(
        granularity=float(rate), per_algorithm=per_algo, faultfree_norm=ff
    )


def check_online_shape(result, reference: str = "caft"):
    """Internal-consistency checks of an online campaign's aggregates.

    The online analogue of ``figures.check_shape``: every check is an
    identity of the harness (not a statistical expectation), so it holds
    at any scale — ``response = queueing + makespan`` per point,
    throughput positivity, and survival fractions inside ``[0, 1]``.
    """
    from repro.experiments.figures import ShapeReport

    checks: dict[str, bool] = {}
    for point in result.points:
        rate = point.granularity
        for algo in result.config.algorithms:
            row = point.per_algorithm[algo]
            resp = row["response_mean"]
            parts = row["queueing_mean"] + row["makespan_mean"]
            checks[f"{algo}@rate={rate:g}: response = queueing + makespan"] = (
                bool(abs(resp - parts) <= 1e-9 * max(1.0, abs(resp)))
            )
            checks[f"{algo}@rate={rate:g}: throughput > 0"] = bool(
                row["throughput"] > 0
            )
            checks[f"{algo}@rate={rate:g}: survived_frac in [0, 1]"] = bool(
                0.0 <= row["survived_frac"] <= 1.0
            )
    return ShapeReport(checks=checks)
