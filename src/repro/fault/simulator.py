"""Crash-replay engine: execute a static schedule under a failure scenario.

The paper's §6 evaluates "the real execution time for a given schedule
rather than just bounds".  Replay keeps every *ordering* the schedule
committed (tasks per processor, messages per port/link) but recomputes
*times* under fail-stop semantics:

* a message is attempted only if its source replica completed, and is
  delivered only if both endpoints stay alive through the (recomputed)
  transfer window; dropped messages free their resources, which is why
  crash latency can be *smaller* than the 0-crash latency (§6 example).
  The network's pure ``transfer_slot`` gives the window, and only a
  delivered message's slot is then reserved, so nothing is ever rolled
  back;
* a replica runs once, for every predecessor, at least one supply (local
  copy or delivered message) is in; fail-stop failures are detectable, so
  a replica whose inputs can provably never arrive is *skipped* and does
  not block its processor (starvation — only possible for one-to-one
  channels whose upstream support died);
* the latency with crashes is the latest first-completion over tasks; if
  some task has no completed replica the execution failed (more than ε
  faults, or a non-robust schedule).

With an empty scenario the replayed times reproduce the committed times
exactly — a strong consistency check between builder and replayer that the
integration tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from repro.fault.model import FailureScenario
from repro.schedule.schedule import CommEvent, Replica, Schedule
from repro.utils.errors import ExecutionFailedError


class ReplicaStatus(Enum):
    COMPLETED = "completed"
    CRASHED = "crashed"  # its processor failed before the replica finished
    STARVED = "starved"  # some predecessor's data can never arrive


class ReplicaOutcome(NamedTuple):
    replica: Replica
    status: ReplicaStatus
    start: Optional[float]  # None when the replica never ran
    finish: Optional[float]


class EventOutcome(NamedTuple):
    event: CommEvent
    delivered: bool
    start: Optional[float]
    finish: Optional[float]


@dataclass
class ExecutionResult:
    """Outcome of replaying one schedule under one failure scenario."""

    schedule: Schedule
    scenario: FailureScenario
    replica_outcomes: dict[int, ReplicaOutcome] = field(default_factory=dict)
    event_outcomes: dict[int, EventOutcome] = field(default_factory=dict)
    dead_tasks: tuple[int, ...] = ()

    @property
    def success(self) -> bool:
        """True iff every task has at least one completed replica."""
        return not self.dead_tasks

    def outcome_of(self, replica: Replica) -> ReplicaOutcome:
        return self.replica_outcomes[replica.seq]

    def task_finish(self, task: int) -> float:
        """Earliest completion of ``task`` across its surviving replicas."""
        finishes = [
            out.finish
            for r in self.schedule.replicas[task]
            if (out := self.replica_outcomes[r.seq]).status is ReplicaStatus.COMPLETED
        ]
        if not finishes:
            raise ExecutionFailedError(
                f"t{task} has no completed replica under {self.scenario}",
                dead_tasks=(task,),
            )
        return min(finishes)

    def latency(self) -> float:
        """Latency with crashes; raises if the execution failed."""
        if self.dead_tasks:
            raise ExecutionFailedError(
                f"{len(self.dead_tasks)} task(s) have no completed replica "
                f"under {self.scenario}: {self.dead_tasks[:10]}",
                dead_tasks=self.dead_tasks,
            )
        return max(
            self.task_finish(t) for t in range(self.schedule.instance.num_tasks)
        )

    def counts(self) -> dict[str, int]:
        """Tally of replica statuses and message deliveries."""
        tally = {s.value: 0 for s in ReplicaStatus}
        for out in self.replica_outcomes.values():
            tally[out.status.value] += 1
        tally["messages_delivered"] = sum(
            1 for e in self.event_outcomes.values() if e.delivered
        )
        tally["messages_dropped"] = sum(
            1 for e in self.event_outcomes.values() if not e.delivered
        )
        return tally


def replay(schedule: Schedule, scenario: FailureScenario) -> ExecutionResult:
    """Execute ``schedule`` under ``scenario`` (see module docstring)."""
    inst = schedule.instance
    preds = inst.graph.preds
    net = schedule.make_network()
    transfer_slot = net.transfer_slot
    reserve_transfer = net.reserve_transfer
    proc_ready = [0.0] * inst.num_procs
    # work on p over [start, finish] completes iff start < fail[p] and
    # finish <= fail[p] (FailureScenario.survives)
    fail = [scenario.fail_time(p) for p in range(inst.num_procs)]
    completed = ReplicaStatus.COMPLETED
    inf = float("inf")

    result = ExecutionResult(schedule=schedule, scenario=scenario)
    rep_out = result.replica_outcomes
    ev_out = result.event_outcomes

    for entry in schedule.commit_log:
        if isinstance(entry, CommEvent):
            src = rep_out[entry.src_replica.seq]
            if src.status is completed:
                sp = entry.src_proc
                dp = entry.dst_proc
                start, finish = transfer_slot(sp, dp, src.finish, entry.volume)
                fs = fail[sp]
                fd = fail[dp]
                if start < fs and finish <= fs and start < fd and finish <= fd:
                    reserve_transfer(sp, dp, entry.volume, start, finish)
                    ev_out[entry.seq] = EventOutcome(entry, True, start, finish)
                    continue
            # Failed transfers do not hold resources (fail-stop is
            # detectable; see DESIGN.md on this simplification).
            ev_out[entry.seq] = EventOutcome(entry, False, None, None)
        else:
            r: Replica = entry
            data = 0.0
            starved = False
            for pred in preds(r.task):
                best = inf
                local = r.local_inputs.get(pred)
                if local is not None:
                    lout = rep_out[local.seq]
                    if lout.status is completed:
                        best = lout.finish
                for e in r.inputs.get(pred, ()):
                    eo = ev_out[e.seq]
                    if eo.delivered and eo.finish < best:
                        best = eo.finish
                if best == inf:
                    starved = True
                    break
                if best > data:
                    data = best
            if starved:
                rep_out[r.seq] = ReplicaOutcome(r, ReplicaStatus.STARVED, None, None)
                continue
            proc = r.proc
            start = max(proc_ready[proc], net.compute_floor(proc), data)
            finish = start + r.duration
            if start < fail[proc] and finish <= fail[proc]:
                rep_out[r.seq] = ReplicaOutcome(r, completed, start, finish)
                proc_ready[proc] = finish
                net.note_compute(proc, start, finish)
            else:
                rep_out[r.seq] = ReplicaOutcome(r, ReplicaStatus.CRASHED, start, None)
    # models whose computations hold the ports undo-log note_compute;
    # nothing here is rolled back
    net.commit()

    result.dead_tasks = tuple(
        t
        for t, reps in enumerate(schedule.replicas)
        if not any(rep_out[r.seq].status is completed for r in reps)
    )
    return result


def crash_latency(schedule: Schedule, scenario: FailureScenario) -> float:
    """Convenience wrapper: replay and return the latency with crashes."""
    return replay(schedule, scenario).latency()
