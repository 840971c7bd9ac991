"""Schedule validation against the task-graph and one-port constraints.

``validate_schedule`` raises :class:`ScheduleValidationError` on the first
violated constraint; each check mirrors a constraint from the paper:

* replication / space exclusion — every task has the requested number of
  replicas, on pairwise distinct processors (§2, §5 proof part ii);
* processor exclusivity — a processor executes one task at a time (§2);
* precedence — every replica has, for each predecessor, a supply (local
  replica or message) arriving no later than its start (eq. (5));
* message sanity — a message never starts before its source replica ends;
* one-port constraints (1)–(3) — transfers sharing a link, a sending port
  or a receiving port never overlap (checked for the one-port models and
  ``uniport``);
* the §2 port variants — under ``uniport`` (one engine per processor)
  no two transfers at the same processor overlap, sends and receives
  alike; under ``oneport-nooverlap`` no replica computes while its
  processor sends or receives;
* routed sparse interconnects (§7, ``routed-oneport``) — a transfer
  holds every directed physical link of its route, so no two transfers
  crossing the same directed hop overlap.
"""

from __future__ import annotations

from collections import defaultdict

from repro.schedule.schedule import Schedule
from repro.utils.errors import ScheduleValidationError

_EPS = 1e-9


def _check_no_overlap(intervals, what: str) -> None:
    intervals = sorted(intervals)
    for (s1, f1, a), (s2, f2, b) in zip(intervals, intervals[1:]):
        if s2 < f1 - _EPS:
            raise ScheduleValidationError(
                f"{what}: {a} [{s1:.3f},{f1:.3f}] overlaps {b} [{s2:.3f},{f2:.3f}]"
            )


def _check_apart(compute, comm, what: str) -> None:
    """No ``compute`` interval overlaps a ``comm`` interval (intervals
    within one list may overlap each other)."""
    tagged = sorted(
        [(s, f, a, 0) for s, f, a in compute] + [(s, f, a, 1) for s, f, a in comm]
    )
    #: per list: the latest finish seen so far and whose it is
    busy = [(-float("inf"), ""), (-float("inf"), "")]
    for s, f, a, group in tagged:
        until, who = busy[1 - group]
        if until > s + _EPS:
            raise ScheduleValidationError(
                f"{what}: {a} [{s:.3f},{f:.3f}] overlaps {who} (busy until {until:.3f})"
            )
        if f > busy[group][0]:
            busy[group] = (f, a)


def validate_schedule(
    schedule: Schedule, expected_replicas: int | None = None
) -> None:
    """Raise :class:`ScheduleValidationError` if any constraint is violated.

    ``expected_replicas`` defaults to ``ε+1`` (active replication); pass 1
    to validate fault-free schedules.
    """
    inst = schedule.instance
    graph = inst.graph
    if expected_replicas is None:
        expected_replicas = schedule.epsilon + 1

    # --- replication and space exclusion --------------------------------
    for t in range(graph.num_tasks):
        reps = schedule.replicas[t]
        if len(reps) != expected_replicas:
            raise ScheduleValidationError(
                f"t{t} has {len(reps)} replicas, expected {expected_replicas}"
            )
        procs = [r.proc for r in reps]
        if len(set(procs)) != len(procs):
            raise ScheduleValidationError(
                f"space exclusion violated for t{t}: processors {procs}"
            )
        for r in reps:
            expected_cost = inst.cost(t, r.proc)
            if abs((r.finish - r.start) - expected_cost) > _EPS:
                raise ScheduleValidationError(
                    f"{r} duration {r.finish - r.start:.6f} != E(t,P) {expected_cost:.6f}"
                )

    # --- processor exclusivity ------------------------------------------
    for p, reps in enumerate(schedule.proc_replicas):
        _check_no_overlap(
            [(r.start, r.finish, repr(r)) for r in reps], f"processor P{p}"
        )

    # --- precedence supplies ---------------------------------------------
    for reps in schedule.replicas:
        for r in reps:
            for pred in graph.preds(r.task):
                supply = None
                if pred in r.local_inputs:
                    local = r.local_inputs[pred]
                    if local.proc != r.proc:
                        raise ScheduleValidationError(
                            f"{r}: local input for t{pred} is on P{local.proc}"
                        )
                    supply = local.finish
                if pred in r.inputs:
                    first = min(e.finish for e in r.inputs[pred])
                    supply = first if supply is None else min(supply, first)
                if supply is None:
                    raise ScheduleValidationError(
                        f"{r} has no supply for predecessor t{pred}"
                    )
                if supply > r.start + _EPS:
                    raise ScheduleValidationError(
                        f"{r} starts at {r.start:.3f} before its t{pred} supply "
                        f"arrives at {supply:.3f}"
                    )

    # --- message sanity ----------------------------------------------------
    for e in schedule.events:
        if e.start < e.src_replica.finish - _EPS:
            raise ScheduleValidationError(
                f"{e} starts before its source replica ends "
                f"({e.src_replica.finish:.3f})"
            )
        if e.src_proc == e.dst_proc:
            raise ScheduleValidationError(f"{e} is an intra-processor message")
        expected = e.volume * inst.platform.delay(e.src_proc, e.dst_proc)
        if abs(e.duration - expected) > _EPS:
            raise ScheduleValidationError(
                f"{e} duration {e.duration:.6f} != V*d = {expected:.6f}"
            )

    # --- one-port constraints (1)-(3) and the §2 port variants ------------
    shared_port = schedule.model == "uniport"
    if "oneport" in schedule.model or shared_port:
        by_send = defaultdict(list)
        by_recv = defaultdict(list)
        by_link = defaultdict(list)
        for e in schedule.events:
            if e.duration == 0.0:
                continue  # zero-volume messages occupy nothing
            item = (e.start, e.finish, repr(e))
            by_send[e.src_proc].append(item)
            by_recv[e.dst_proc].append(item)
            by_link[(e.src_proc, e.dst_proc)].append(item)
        for p, items in by_send.items():
            _check_no_overlap(items, f"send port of P{p} (constraint 2)")
        for p, items in by_recv.items():
            _check_no_overlap(items, f"receive port of P{p} (constraint 3)")
        for (a, b), items in by_link.items():
            _check_no_overlap(items, f"link P{a}->P{b} (constraint 1)")
        procs = set(by_send) | set(by_recv)
        if shared_port:
            for p in procs:
                _check_no_overlap(
                    by_send[p] + by_recv[p], f"shared port of P{p} (uniport)"
                )
        # routed models: a transfer holds every directed hop of its route
        topology = getattr(schedule.make_network(), "topology", None)
        if topology is not None:
            hop_id, route_hops = topology.directed_hop_tables()
            by_hop = defaultdict(list)
            for (a, b), items in by_link.items():
                for h in route_hops[a][b]:
                    by_hop[h].extend(items)
            for (a, b), h in hop_id.items():
                _check_no_overlap(by_hop[h], f"physical link P{a}->P{b} (routed hop)")
        if schedule.model == "oneport-nooverlap":
            for p in procs:
                _check_apart(
                    [(r.start, r.finish, repr(r)) for r in schedule.proc_replicas[p]],
                    by_send[p] + by_recv[p],
                    f"P{p} computes while communicating (no-overlap)",
                )


def is_valid(schedule: Schedule, expected_replicas: int | None = None) -> bool:
    """Boolean wrapper around :func:`validate_schedule`."""
    try:
        validate_schedule(schedule, expected_replicas)
    except ScheduleValidationError:
        return False
    return True
