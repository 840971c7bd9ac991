"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al. 2002).

The reference fault-free heuristic (paper [27]).  One replica per task:
tasks are ordered by priority, and each is placed on the processor that
minimizes its finish time given the communication model.  Under the
one-port model this is exactly the paper's "FaultFree-CAFT" curve: "the
fault-free version of CAFT reduces to an implementation of HEFT" (§6).

``priority="bl"`` (default) is classic HEFT upward-rank ordering;
``priority="tl+bl"`` with ``dynamic=True`` matches CAFT's ordering so that
``caft(..., epsilon=0)`` and ``heft(..., priority="tl+bl")`` coincide.
"""

from __future__ import annotations

from repro.platform.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import (
    FreeTaskList,
    ModelSpec,
    argmin_trial,
    eligible_procs,
    full_fanin_sources,
    make_builder,
    seeded,
)
from repro.utils.rng import RngLike


def heft(
    instance: ProblemInstance,
    model: ModelSpec = "oneport",
    priority: str = "bl",
    dynamic: bool = False,
    rng: RngLike = 0,
    fast: bool = True,
) -> Schedule:
    """Schedule ``instance`` with HEFT (one replica per task).

    Parameters
    ----------
    instance:
        The problem to schedule.
    model:
        Communication model name or instance (default: the paper's
        bi-directional one-port).
    priority:
        ``"bl"`` for classic upward rank, ``"tl+bl"`` for the paper's rule.
    dynamic:
        Refresh top levels from actual finish times (paper §5 behaviour).
    rng:
        Seed or generator for random tie-breaking.
    fast:
        Evaluate candidate processors through the vectorized placement
        kernel (bit-identical schedules; see ``repro.schedule.kernel``).
    """
    gen = seeded(rng)
    builder = make_builder(instance, epsilon=0, model=model, scheduler="heft", fast=fast)
    free = FreeTaskList(instance, gen, priority=priority, dynamic=dynamic)

    while free:
        task = free.pop()
        sources = full_fanin_sources(builder, task)
        # candidates share one eq. (6) prologue and, between placements
        # that did not touch their resources, the epoch cache; rows that
        # cannot win are pruned by their lower bound
        trials = builder.candidate_sweep(task, eligible_procs(builder, task), sources)
        best = argmin_trial(trials, gen)
        builder.commit(task, best.proc, sources, kind="primary")
        builder.mark_task_done(task)
        free.task_scheduled(task, best_finish=best.finish)

    return builder.finish()
