"""Schedule serialization: dict / JSON export and structural reload.

Downstream users want to persist schedules (e.g. feed a deployment tool or
compare runs across versions).  The export is self-contained: replica
placements, committed messages, per-resource orders, and the scalar
metrics.  ``schedule_from_dict`` rebuilds a *replayable* schedule against a
given problem instance — the import path is exercised by tests that
round-trip schedules and verify the replayed latencies match.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro.comm import OnePortNetwork, RoutedOnePortNetwork, make_network
from repro.platform.instance import ProblemInstance
from repro.platform.topology import Topology
from repro.schedule.schedule import CommEvent, Replica, Schedule
from repro.utils.errors import ScheduleValidationError


def _network_config(schedule: Schedule) -> dict:
    """Declarative network configuration for the export.

    The model *name* alone cannot rebuild a replayable network for the
    configured variants — the insertion policy and a routed topology
    (links + per-link delays) must round-trip, or replays of imported
    schedules silently fall back to append semantics / crash.
    """
    net = schedule.make_network()
    config: dict = {"model": net.name}
    if isinstance(net, RoutedOnePortNetwork):
        topo = net.topology
        config["topology"] = {
            "num_procs": topo.num_procs,
            "links": [[a, b, topo.link_delay(a, b)] for a, b in topo.links()],
        }
    elif type(net) is OnePortNetwork and net.policy != "append":
        config["policy"] = net.policy
    return config


def schedule_to_dict(schedule: Schedule) -> dict:
    """A JSON-serializable description of a committed schedule."""
    replicas = []
    for reps in schedule.replicas:
        for r in reps:
            replicas.append(
                {
                    "task": r.task,
                    "index": r.index,
                    "proc": r.proc,
                    "start": r.start,
                    "finish": r.finish,
                    "kind": r.kind,
                    "support": sorted(r.support),
                    "seq": r.seq,
                    "local_inputs": {
                        str(p): local.seq for p, local in r.local_inputs.items()
                    },
                }
            )
    events = [
        {
            "seq": e.seq,
            "src_task": e.src_task,
            "dst_task": e.dst_task,
            "src_replica_seq": e.src_replica.seq,
            "dst_replica_seq": (
                None if e.dst_index is None else schedule.receiver(e).seq
            ),
            "src_proc": e.src_proc,
            "dst_proc": e.dst_proc,
            "volume": e.volume,
            "start": e.start,
            "finish": e.finish,
        }
        for e in schedule.events
    ]
    return {
        "format": "repro-schedule-v1",
        "scheduler": schedule.scheduler,
        "model": schedule.model,
        "network": _network_config(schedule),
        "epsilon": schedule.epsilon,
        "num_tasks": schedule.instance.num_tasks,
        "num_procs": schedule.instance.num_procs,
        "task_order": list(schedule.task_order),
        "commit_log": [
            {"kind": "event", "seq": entry.seq}
            if isinstance(entry, CommEvent)
            else {"kind": "replica", "seq": entry.seq}
            for entry in schedule.commit_log
        ],
        "replicas": replicas,
        "events": events,
        "metrics": {
            "latency": schedule.latency(),
            "makespan": schedule.makespan(),
            "messages": schedule.message_count(),
        },
    }


def schedule_to_json(schedule: Schedule, path: str | Path | None = None) -> str:
    """Serialize to JSON; optionally write to ``path``."""
    text = json.dumps(schedule_to_dict(schedule), indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text)
    return text


def schedule_from_dict(data: dict, instance: ProblemInstance) -> Schedule:
    """Rebuild a :class:`Schedule` from :func:`schedule_to_dict` output.

    The caller supplies the matching :class:`ProblemInstance`; shape
    mismatches raise :class:`ScheduleValidationError`.  The rebuilt
    schedule carries the full commit log, so bounds computation and crash
    replay work exactly as on the original.
    """
    if data.get("format") != "repro-schedule-v1":
        raise ScheduleValidationError(f"unknown schedule format {data.get('format')!r}")
    if data["num_tasks"] != instance.num_tasks or data["num_procs"] != instance.num_procs:
        raise ScheduleValidationError(
            "instance shape does not match the serialized schedule"
        )
    model = data["model"]
    # Rebuild the configured network, not just the named one (older
    # exports without a "network" block fall back to the bare name).
    net_cfg = data.get("network") or {"model": model}
    if "topology" in net_cfg:
        t = net_cfg["topology"]
        topology = Topology(
            int(t["num_procs"]), [(int(a), int(b), float(d)) for a, b, d in t["links"]]
        )
        factory: Callable = lambda: make_network(  # noqa: E731
            model, instance.platform, topology=topology
        )
    else:
        kwargs = {"policy": net_cfg["policy"]} if "policy" in net_cfg else {}
        factory = lambda: make_network(model, instance.platform, **kwargs)  # noqa: E731

    schedule = Schedule(
        instance=instance,
        epsilon=int(data["epsilon"]),
        scheduler=data["scheduler"],
        model=model,
        make_network=factory,
    )
    by_seq: dict[int, Replica] = {}
    for rd in sorted(data["replicas"], key=lambda d: d["seq"]):
        r = Replica(
            task=int(rd["task"]),
            index=int(rd["index"]),
            proc=int(rd["proc"]),
            start=float(rd["start"]),
            finish=float(rd["finish"]),
            kind=rd["kind"],
            support=frozenset(int(p) for p in rd["support"]),
            seq=int(rd["seq"]),
        )
        by_seq[r.seq] = r
        schedule.replicas[r.task].append(r)
        schedule.proc_replicas[r.proc].append(r)
    for task_reps in schedule.replicas:
        task_reps.sort(key=lambda r: r.index)
    for reps in schedule.proc_replicas:
        reps.sort(key=lambda r: r.start)

    events_by_seq: dict[int, CommEvent] = {}
    for ed in sorted(data["events"], key=lambda d: d["seq"]):
        src = by_seq[int(ed["src_replica_seq"])]
        e = CommEvent(
            seq=int(ed["seq"]),
            src_replica=src,
            dst_task=int(ed["dst_task"]),
            dst_proc=int(ed["dst_proc"]),
            volume=float(ed["volume"]),
            start=float(ed["start"]),
            finish=float(ed["finish"]),
        )
        if ed["dst_replica_seq"] is not None:
            dst = by_seq[int(ed["dst_replica_seq"])]
            e.dst_index = dst.index
            dst.inputs.setdefault(e.src_task, ())
            dst.inputs[e.src_task] = dst.inputs[e.src_task] + (e,)
        events_by_seq[e.seq] = e
        schedule.events.append(e)

    for rd in data["replicas"]:
        r = by_seq[int(rd["seq"])]
        r.local_inputs = {
            int(p): by_seq[int(seq)] for p, seq in rd["local_inputs"].items()
        }

    for entry in data["commit_log"]:
        seq = int(entry["seq"])
        schedule.commit_log.append(
            events_by_seq[seq] if entry["kind"] == "event" else by_seq[seq]
        )
    schedule.task_order = [int(t) for t in data["task_order"]]
    return schedule


def schedule_from_json(text: str, instance: ProblemInstance) -> Schedule:
    """Inverse of :func:`schedule_to_json`."""
    return schedule_from_dict(json.loads(text), instance)
