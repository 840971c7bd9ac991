"""Latency bounds of a fault-tolerant schedule.

* The **lower bound** (0-crash latency) is read off the committed times:
  the latest instant at which at least one replica of each task is done.
* The **upper bound** — "always achieved even with ε failures ... computed
  using as a finish time the completion time of the last replica of a task"
  (paper §4.2) — is obtained by a worst-case forward propagation over the
  commit log: every replica waits for the *last* supply of each predecessor
  (as if the earlier copies had been lost) and every resource chain is
  propagated pessimistically.
"""

from __future__ import annotations

from repro.schedule.schedule import CommEvent, Replica, Schedule


def latency_lower_bound(schedule: Schedule) -> float:
    """Alias of :meth:`Schedule.latency` (0-crash latency)."""
    return schedule.latency()


def latency_upper_bound(schedule: Schedule) -> float:
    """Worst-case latency over every ≤ ε failure pattern (see module doc).

    The propagation preserves the committed per-resource order, delays
    every message until its source's worst-case completion, and starts
    every replica after the worst-case arrival of *all* its supplies.
    A directed link's chain needs no bound of its own: every message on
    ``src -> dst`` also sets ``send_ub[src]`` to its finish, and
    ``send_ub`` never decreases, so the link's bound never exceeds it.
    """
    m = schedule.instance.num_procs
    proc_ub = [0.0] * m
    send_ub = [0.0] * m
    recv_ub = [0.0] * m
    replica_ub: dict[int, float] = {}  # replica.seq -> worst-case finish
    event_ub: dict[int, float] = {}  # event.seq -> worst-case arrival

    for entry in schedule.commit_log:
        if isinstance(entry, CommEvent):
            start = entry.start
            ub = replica_ub[entry.src_replica.seq]
            if ub > start:
                start = ub
            src = entry.src_proc
            dst = entry.dst_proc
            if send_ub[src] > start:
                start = send_ub[src]
            if recv_ub[dst] > start:
                start = recv_ub[dst]
            finish = start + (entry.finish - entry.start)
            event_ub[entry.seq] = finish
            send_ub[src] = finish
            recv_ub[dst] = finish
        else:
            r: Replica = entry
            data = 0.0
            for pred_events in r.inputs.values():
                for e in pred_events:
                    ub = event_ub[e.seq]
                    if ub > data:
                        data = ub
            for local in r.local_inputs.values():
                ub = replica_ub[local.seq]
                if ub > data:
                    data = ub
            proc = r.proc
            start = r.start
            if proc_ub[proc] > start:
                start = proc_ub[proc]
            if data > start:
                start = data
            finish = start + (r.finish - r.start)
            replica_ub[r.seq] = finish
            proc_ub[proc] = finish

    return max(
        max(replica_ub[r.seq] for r in reps) for reps in schedule.replicas
    )
