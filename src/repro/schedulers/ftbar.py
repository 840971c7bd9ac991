"""FTBAR — Fault Tolerance Based Active Replication (Girault et al. [10]).

The second comparison algorithm (§4.1).  At every step, for every free
task ``ti`` and processor ``pj`` the *schedule pressure*

    ``σ(ti, pj) = S(ti, pj) + s̄(ti) − R``

is computed, where ``S(ti, pj)`` is the earliest start time of ``ti`` on
``pj`` (top-down), ``s̄(ti)`` the latest start time from the bottom (we
use the bottom level ``bl(ti)``, i.e. the remaining critical path through
``ti``), and ``R`` the schedule length before this step.  Each free task
keeps its ``Npf+1 = ε+1`` minimum-pressure processors; the task whose
retained pressure is **largest** (the most urgent) is scheduled on those
processors.  Ties are broken randomly.

Like FTSA, every replica of every predecessor communicates with every
replica of the task.  The recursive Ahmad–Kwok ``Minimize-Start-Time``
duplication pass of the original paper is omitted (documented substitution
in DESIGN.md): it adds copies *beyond* the ε+1 replication scheme and does
not affect the qualitative comparison the paper reports.

Time complexity is O(P·N³) in the original paper — noticeably slower than
FTSA/CAFT, which our complexity benchmark reproduces.

With the fast kernel a step resolves exactly only the free tasks that can
be the most urgent (:meth:`repro.schedule.kernel.TrialKernel.pressure_sweep`):
every other task's urgency is bounded from above below the best one, and
the tie loop over the resolved tasks is certified to return what the loop
over every task would (:func:`repro.schedule.kernel.urgency_ties`).  So the
tie list, every kept processor set, the RNG draws and the schedule are
exactly those of scoring every (task, processor) row, which is what the
exact path (``fast=False``) still does.
"""

from __future__ import annotations

from repro.dag.analysis import bottom_levels
from repro.platform.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import (
    FreeTaskList,
    ModelSpec,
    full_fanin_sources,
    make_builder,
    seeded,
)
from repro.utils.rng import RngLike


def ftbar(
    instance: ProblemInstance,
    epsilon: int,
    model: ModelSpec = "oneport",
    rng: RngLike = 0,
    fast: bool = True,
) -> Schedule:
    """Schedule ``instance`` with FTBAR, tolerating ``epsilon`` failures."""
    gen = seeded(rng)
    builder = make_builder(
        instance, epsilon=epsilon, model=model, scheduler="ftbar", fast=fast
    )
    # The free list is used purely for free-task bookkeeping here; FTBAR
    # re-ranks all free tasks by schedule pressure at every step.
    free = FreeTaskList(instance, gen, priority="tl+bl", dynamic=False)
    bl = bottom_levels(instance)
    current_length = 0.0

    while free:
        candidates = free.free_tasks()
        # One pressure sweep scores the free tasks: each task's ε+1
        # minimum-σ processors and its urgency (the largest kept σ), and
        # the tie list of the most urgent tasks.  With the fast kernel,
        # only the tasks whose urgency bound can reach the tie list are
        # resolved, and only their rows that can enter a kept set are
        # evaluated exactly.
        ties = builder.pressure_sweep(candidates, bl[candidates], current_length)
        best_task, best_procs = ties[int(gen.integers(len(ties)))] if len(ties) > 1 else ties[0]

        sources = full_fanin_sources(builder, best_task)
        best_finish = float("inf")
        # Commit on the selected processors in pressure order; actual times
        # are recomputed at commit since earlier replicas reserve ports.
        for proc in best_procs:
            replica = builder.commit(best_task, proc, sources, kind="greedy")
            best_finish = min(best_finish, replica.finish)
            current_length = max(current_length, replica.finish)

        free.pop_specific(best_task)
        builder.mark_task_done(best_task)
        free.task_scheduled(best_task, best_finish=best_finish)

    return builder.finish()
