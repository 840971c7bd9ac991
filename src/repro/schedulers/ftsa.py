"""FTSA — Fault Tolerant Scheduling Algorithm (Benoit, Hakem, Robert [4]).

The fault-tolerant extension of HEFT the paper compares against (§4.2):
each task is replicated ``ε+1`` times on the processors that allow the
smallest finish times, and **every** replica of every predecessor sends
its result to every replica of the task (up to ``(ε+1)²`` messages per
edge).  A task replica may start as soon as one copy of each input has
arrived; if a predecessor replica shares the processor, intra-processor
communication is used and the other copies do not send to that processor
(§6 note).

Originally designed for the macro-dataflow model; passing
``model="oneport"`` gives the paper's §4.3 adaptation (serialized ports,
eq. (6) reception order).
"""

from __future__ import annotations

from repro.platform.instance import ProblemInstance
from repro.schedule.schedule import Schedule, ScheduleBuilder
from repro.schedulers.base import (
    TIE_EPS,
    FreeTaskList,
    ModelSpec,
    argmin_trial,
    eligible_procs,
    full_fanin_sources,
    make_builder,
    seeded,
)
from repro.utils.rng import RngLike


def _near_tie(trials) -> bool:
    """Whether the runner-up trial finishes within ``TIE_EPS`` of the best
    (``trials`` as a candidate sweep returns them: a pruned row, ``None``,
    finishes later than that)."""
    trials = [t for t in trials if t is not None]
    if len(trials) < 2:
        return False
    best = min(t.finish for t in trials)
    return sum(t.finish <= best + TIE_EPS for t in trials) > 1


def place_task_ftsa(
    builder: ScheduleBuilder, task: int, gen, reselect: bool
) -> tuple[float, int]:
    """Place the ``ε+1`` replicas of ``task``.

    Returns ``(best finish time, near ties)``, where ``near ties`` counts
    the placements whose runner-up trial finished within ``TIE_EPS`` of
    the best one.

    With ``reselect=False`` (the paper's §4.2: "the first ε+1 processors
    that allow the minimum finish time of t are kept") all processors are
    evaluated once and the ε+1 best are committed in finish-time order,
    each commit recomputing actual times as ports fill.  ``reselect=True``
    is an enhancement that re-evaluates the remaining processors after
    every commit — a stronger baseline studied in the ablation bench.
    """
    sources = full_fanin_sources(builder, task)
    best_finish = float("inf")
    near_ties = 0
    if reselect:
        for _ in range(builder.epsilon + 1):
            # each re-evaluation is a pruned kernel sweep; rows whose
            # resources the previous commit did not touch come straight
            # from the epoch cache
            trials = builder.candidate_sweep(task, eligible_procs(builder, task), sources)
            near_ties += _near_tie(trials)
            best = argmin_trial(trials, gen)
            replica = builder.commit(task, best.proc, sources, kind="greedy")
            best_finish = min(best_finish, replica.finish)
        return best_finish, near_ties

    # rows pruned by the sweep cannot be among the first ε+1
    trials = [
        t
        for t in builder.candidate_sweep(
            task, eligible_procs(builder, task), sources, keep=builder.epsilon + 1
        )
        if t is not None
    ]
    trials.sort(key=lambda t: (t.finish, t.proc))
    near_ties += _near_tie(trials)
    for trial in trials[: builder.epsilon + 1]:
        replica = builder.commit(task, trial.proc, sources, kind="greedy")
        best_finish = min(best_finish, replica.finish)
    return best_finish, near_ties


def ftsa(
    instance: ProblemInstance,
    epsilon: int,
    model: ModelSpec = "oneport",
    priority: str = "tl+bl",
    dynamic: bool = True,
    reselect: bool = False,
    rng: RngLike = 0,
    fast: bool = True,
) -> Schedule:
    """Schedule ``instance`` with FTSA, tolerating ``epsilon`` failures.

    ``reselect=False`` (default) follows the paper's single-evaluation
    replica selection; ``reselect=True`` re-picks the best processor after
    each replica commit (a stronger variant, see the ablation bench).
    ``fast`` routes candidate evaluation through the vectorized placement
    kernel (bit-identical schedules).

    ``schedule.metadata["near_ties"]`` counts the placements whose
    runner-up trial finished within ``TIE_EPS`` of the best.  At ε = 0
    with none, CAFT (either locking) draws no random tie-break and so
    builds this very schedule — the certificate behind the shared
    fault-free reference of ``experiments.harness``.
    """
    gen = seeded(rng)
    builder = make_builder(
        instance, epsilon=epsilon, model=model, scheduler="ftsa", fast=fast
    )
    free = FreeTaskList(instance, gen, priority=priority, dynamic=dynamic)

    near_ties = 0
    while free:
        task = free.pop()
        best_finish, ties = place_task_ftsa(builder, task, gen, reselect)
        near_ties += ties
        builder.mark_task_done(task)
        free.task_scheduled(task, best_finish=best_finish)

    schedule = builder.finish()
    schedule.metadata["near_ties"] = near_ties
    return schedule
