"""The reserve-then-rollback crash replay, kept as a test oracle.

This is the replay loop ``repro.fault.simulator.replay`` ran before it
learned to ask the network for a message's slot first and reserve only
delivered transfers: every attempted message is placed undo-logged and
rolled back when it is not delivered.  ``test_replay_oracle.py`` checks
that both give identical outcomes.
"""

from __future__ import annotations

from repro.fault.model import FailureScenario
from repro.fault.simulator import (
    EventOutcome,
    ExecutionResult,
    ReplicaOutcome,
    ReplicaStatus,
)
from repro.schedule.schedule import CommEvent, Replica, Schedule


def reference_replay(schedule: Schedule, scenario: FailureScenario) -> ExecutionResult:
    """Execute ``schedule`` under ``scenario`` (see module docstring)."""
    inst = schedule.instance
    graph = inst.graph
    net = schedule.make_network()
    proc_ready = [0.0] * inst.num_procs

    result = ExecutionResult(schedule=schedule, scenario=scenario)
    rep_out = result.replica_outcomes
    ev_out = result.event_outcomes

    for entry in schedule.commit_log:
        if isinstance(entry, CommEvent):
            src = rep_out[entry.src_replica.seq]
            if src.status is not ReplicaStatus.COMPLETED:
                ev_out[entry.seq] = EventOutcome(entry, False, None, None)
                continue
            token = net.checkpoint()
            start, finish = net.place_transfer(
                entry.src_proc, entry.dst_proc, src.finish, entry.volume
            )
            delivered = scenario.survives(
                entry.src_proc, start, finish
            ) and scenario.survives(entry.dst_proc, start, finish)
            if delivered:
                net.commit()
                ev_out[entry.seq] = EventOutcome(entry, True, start, finish)
            else:
                # Failed transfers do not hold resources (fail-stop is
                # detectable; see DESIGN.md on this simplification).
                net.rollback(token)
                ev_out[entry.seq] = EventOutcome(entry, False, None, None)
        else:
            r: Replica = entry
            data = 0.0
            starved = False
            for pred in graph.preds(r.task):
                best = float("inf")
                local = r.local_inputs.get(pred)
                if local is not None:
                    lout = rep_out[local.seq]
                    if lout.status is ReplicaStatus.COMPLETED:
                        best = lout.finish
                for e in r.inputs.get(pred, ()):
                    eo = ev_out[e.seq]
                    if eo.delivered and eo.finish < best:
                        best = eo.finish
                if best == float("inf"):
                    starved = True
                    break
                if best > data:
                    data = best
            if starved:
                rep_out[r.seq] = ReplicaOutcome(r, ReplicaStatus.STARVED, None, None)
                continue
            start = max(proc_ready[r.proc], net.compute_floor(r.proc), data)
            finish = start + r.duration
            if scenario.survives(r.proc, start, finish):
                rep_out[r.seq] = ReplicaOutcome(
                    r, ReplicaStatus.COMPLETED, start, finish
                )
                proc_ready[r.proc] = finish
                net.note_compute(r.proc, start, finish)
            else:
                rep_out[r.seq] = ReplicaOutcome(r, ReplicaStatus.CRASHED, start, None)

    dead = []
    for t in range(graph.num_tasks):
        if not any(
            rep_out[r.seq].status is ReplicaStatus.COMPLETED
            for r in schedule.replicas[t]
        ):
            dead.append(t)
    result.dead_tasks = tuple(dead)
    return result
