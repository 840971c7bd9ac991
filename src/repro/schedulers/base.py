"""Shared list-scheduling machinery for HEFT, FTSA, FTBAR and CAFT.

All four algorithms follow the same outer loop (paper Algorithm 5.1,
lines 4–24): compute bottom levels, keep a priority queue of *free* tasks
(every predecessor scheduled), pop the highest-priority task, place its
replicas, update successor priorities.  The pieces that differ — replica
placement and (for FTBAR) task selection — are supplied by each
scheduler; everything else lives here.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.comm.base import NetworkModel
from repro.comm import make_network
from repro.dag.analysis import bottom_levels
from repro.platform.instance import ProblemInstance
from repro.schedule.schedule import TIE_EPS, ScheduleBuilder, Trial
from repro.utils.errors import SchedulingError
from repro.utils.priority_queue import StablePriorityQueue
from repro.utils.rng import RngLike, as_rng

ModelSpec = Union[str, NetworkModel]


def resolve_network(
    model: ModelSpec, instance: ProblemInstance, **kwargs
) -> tuple[NetworkModel, Callable[[], NetworkModel]]:
    """Build ``(network, fresh-network factory)`` from a model spec.

    ``model`` is either a model name (``"oneport"``, ``"macro-dataflow"``,
    ...) or a ready :class:`NetworkModel` instance (e.g. a routed network
    over a sparse topology).  The factory recreates an identical *empty*
    network — the crash-replay engine uses it to re-derive resource
    chains.
    """
    if isinstance(model, NetworkModel):
        network = model
        # Dispatch through the model's own clone protocol: every
        # NetworkModel knows its constructor arguments (platform, policy,
        # topology, ...), so subclassed networks rebuild with their
        # configuration intact instead of being string-matched by name.
        factory = network.clone_factory()
        network.reset()
        return network, factory
    name = str(model)
    factory = lambda: make_network(name, instance.platform, **kwargs)  # noqa: E731
    return factory(), factory


class FreeTaskList:
    """Priority-driven free-task management (Algorithm 5.1 skeleton).

    Priorities are ``tl(t) + bl(t)``.  ``dynamic=True`` (the paper's
    behaviour) recomputes a task's top level from the actual best finish
    times of its scheduled predecessors before insertion; ``dynamic=False``
    keeps the purely static levels.  ``priority="bl"`` reproduces classic
    HEFT upward-rank ordering.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        rng: np.random.Generator,
        priority: str = "tl+bl",
        dynamic: bool = True,
    ) -> None:
        if priority not in ("tl+bl", "bl"):
            raise SchedulingError(f"unknown priority rule {priority!r}")
        self.instance = instance
        self.priority = priority
        self.dynamic = dynamic
        self.bl = bottom_levels(instance)
        graph = instance.graph
        self.tl = np.zeros(graph.num_tasks)
        self._remaining = [graph.in_degree(t) for t in range(graph.num_tasks)]
        self.queue: StablePriorityQueue[int] = StablePriorityQueue(rng)
        self._best_finish: dict[int, float] = {}
        for t in graph.topological_order():
            if graph.in_degree(t) == 0:
                self.queue.push(t, self._priority_of(t))

    def _priority_of(self, task: int) -> float:
        if self.priority == "bl":
            return float(self.bl[task])
        return float(self.tl[task] + self.bl[task])

    def __bool__(self) -> bool:
        return bool(self.queue)

    def free_tasks(self) -> list[int]:
        """Current free tasks (used by FTBAR's global selection)."""
        return list(self.queue)

    def pop(self) -> int:
        return self.queue.pop()

    def pop_specific(self, task: int) -> None:
        """Remove ``task`` from the free list (it is about to be scheduled)."""
        if task not in self.queue:
            raise SchedulingError(f"t{task} is not free")
        self.queue.remove(task)

    def task_scheduled(self, task: int, best_finish: float) -> list[int]:
        """Record completion of ``task``; return newly freed tasks (queued)."""
        graph = self.instance.graph
        self._best_finish[task] = best_finish
        freed = []
        for s in graph.succs(task):
            if self.dynamic:
                cand = best_finish + self.instance.mean_edge_weight(task, s)
                if cand > self.tl[s]:
                    self.tl[s] = cand
            else:
                static = (
                    self.tl[task]
                    + self.instance.mean_exec[task]
                    + self.instance.mean_edge_weight(task, s)
                )
                if static > self.tl[s]:
                    self.tl[s] = static
            self._remaining[s] -= 1
            if self._remaining[s] == 0:
                self.queue.push(s, self._priority_of(s))
                freed.append(s)
        return freed


def argmin_trial(
    trials: Sequence[Optional[Trial]], rng: np.random.Generator
) -> Trial:
    """Pick the trial with minimum finish time, random among near-ties.

    The paper breaks ties randomly (§4.1, §5); the draw comes from the
    scheduler's seeded generator so results stay reproducible.  ``None``
    entries — rows a candidate sweep pruned, which can neither be the
    minimum nor tie with it — are skipped.
    """
    trials = [t for t in trials if t is not None]
    if not trials:
        raise SchedulingError("no candidate placement (processor exhaustion)")
    best = min(t.finish for t in trials)
    ties = [t for t in trials if t.finish <= best + TIE_EPS]
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def make_builder(
    instance: ProblemInstance,
    epsilon: int,
    model: ModelSpec,
    scheduler: str,
    strict_local_suppression: bool = False,
    fast: bool = False,
    **model_kwargs,
) -> ScheduleBuilder:
    """Construct a :class:`ScheduleBuilder` over a fresh network.

    ``fast=True`` activates the vectorized placement kernel when the
    network model declares its contended resources through the
    resource-frontier protocol (``kernel_caps()``/``frontier_view()`` on
    :class:`~repro.comm.base.NetworkModel`) — bit-identical results, no
    undo-log churn.  Models outside the protocol fall back to the exact
    path with a one-time warning.  ``model_kwargs`` reach the network
    factory (e.g. ``policy="insertion"`` for the one-port models, or
    ``topology=...`` for ``model="routed-oneport"``).
    """
    network, factory = resolve_network(model, instance, **model_kwargs)
    return ScheduleBuilder(
        instance,
        network,
        epsilon,
        scheduler,
        make_network=factory,
        strict_local_suppression=strict_local_suppression,
        fast=fast,
    )


def full_fanin_sources(builder: ScheduleBuilder, task: int) -> dict[int, list]:
    """Source map using *every* replica of each predecessor (FTSA/FTBAR)."""
    graph = builder.instance.graph
    return {p: builder.schedule.replicas[p] for p in graph.preds(task)}


def eligible_procs(builder: ScheduleBuilder, task: int) -> list[int]:
    """Processors not yet hosting a replica of ``task`` (space exclusion)."""
    used = {r.proc for r in builder.schedule.replicas[task]}
    return [p for p in range(builder.instance.num_procs) if p not in used]


def seeded(rng: RngLike) -> np.random.Generator:
    """Normalize any seed spec to a generator (alias of :func:`as_rng`)."""
    return as_rng(rng)
