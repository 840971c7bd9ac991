"""Fault-tolerant schedule containers and the trial/commit builder.

A fault-tolerant schedule maps every task to ``ε+1`` replicas on distinct
processors and commits every inter-processor message to the network
resources.  Schedulers never mutate these structures directly; they go
through :class:`ScheduleBuilder`, which

* **tries** a placement (``trial``): computes start/finish of a replica of
  task ``t`` on processor ``P`` given a set of source replicas per
  predecessor, serializing incoming messages per the paper's eq. (6), then
  rolls every reservation back;
* **commits** a placement: performs the same computation, keeps the
  reservations and materializes :class:`Replica` / :class:`CommEvent`
  records in a global commit log.

The commit log is a linearization compatible with every dependency
(message after its producer, resource users in order, replicas per
processor in order), which is exactly what the bounds computation and the
crash-replay engine need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.comm.base import NetworkModel
from repro.platform.instance import ProblemInstance
from repro.utils.errors import SchedulingError

#: tolerance when comparing finish times for tie-breaking
TIE_EPS = 1e-9


class Replica:
    """One copy of a task placed on a processor.

    ``inputs`` maps each predecessor task to the committed messages that
    feed this replica; ``local_inputs`` maps predecessors satisfied by a
    co-located replica (intra-processor communication, zero cost).
    ``support`` is the set of processors whose collective survival
    guarantees this replica runs (used by CAFT's robust locking).
    """

    __slots__ = (
        "task",
        "index",
        "proc",
        "start",
        "finish",
        "kind",
        "support",
        "inputs",
        "local_inputs",
        "seq",
    )

    def __init__(
        self,
        task: int,
        index: int,
        proc: int,
        start: float,
        finish: float,
        kind: str,
        support: frozenset[int],
        seq: int,
    ) -> None:
        self.task = task
        self.index = index
        self.proc = proc
        self.start = start
        self.finish = finish
        self.kind = kind
        self.support = support
        self.inputs: dict[int, tuple["CommEvent", ...]] = {}
        self.local_inputs: dict[int, "Replica"] = {}
        self.seq = seq

    @property
    def duration(self) -> float:
        return self.finish - self.start

    def __repr__(self) -> str:
        return (
            f"Replica(t{self.task}#{self.index}@P{self.proc} "
            f"[{self.start:.2f},{self.finish:.2f}] {self.kind})"
        )


class CommEvent:
    """One committed inter-processor message."""

    __slots__ = (
        "seq",
        "src_task",
        "dst_task",
        "src_replica",
        "dst_replica",
        "src_proc",
        "dst_proc",
        "volume",
        "start",
        "finish",
    )

    def __init__(
        self,
        seq: int,
        src_replica: Replica,
        dst_task: int,
        dst_proc: int,
        volume: float,
        start: float,
        finish: float,
    ) -> None:
        self.seq = seq
        self.src_task = src_replica.task
        self.dst_task = dst_task
        self.src_replica = src_replica
        self.dst_replica: Optional[Replica] = None  # set when dst commits
        self.src_proc = src_replica.proc
        self.dst_proc = dst_proc
        self.volume = volume
        self.start = start
        self.finish = finish

    @property
    def duration(self) -> float:
        return self.finish - self.start

    def __repr__(self) -> str:
        return (
            f"Comm(t{self.src_task}->t{self.dst_task} "
            f"P{self.src_proc}->P{self.dst_proc} [{self.start:.2f},{self.finish:.2f}])"
        )


CommitEntry = Union[Replica, CommEvent]


@dataclass
class Schedule:
    """The result of a scheduler run."""

    instance: ProblemInstance
    epsilon: int
    scheduler: str
    model: str
    make_network: Callable[[], NetworkModel]
    replicas: list[list[Replica]] = field(default_factory=list)
    events: list[CommEvent] = field(default_factory=list)
    commit_log: list[CommitEntry] = field(default_factory=list)
    task_order: list[int] = field(default_factory=list)
    proc_replicas: list[list[Replica]] = field(default_factory=list)
    degraded_replicas: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.replicas:
            self.replicas = [[] for _ in range(self.instance.num_tasks)]
        if not self.proc_replicas:
            self.proc_replicas = [[] for _ in range(self.instance.num_procs)]

    # ------------------------------------------------------------------
    def task_replicas(self, task: int) -> list[Replica]:
        return self.replicas[task]

    def all_replicas(self):
        for reps in self.replicas:
            yield from reps

    def latency(self) -> float:
        """0-crash latency: latest *first* completion over all tasks.

        "The latency of the schedule is the latest time at which at least
        one replica of each task has been computed" (paper §4.2) — a lower
        bound, achieved when no processor fails.
        """
        return max(min(r.finish for r in reps) for reps in self.replicas)

    def makespan(self) -> float:
        """Latest completion over all replicas (every copy finished)."""
        return max(r.finish for r in self.all_replicas())

    def message_count(self) -> int:
        """Number of committed inter-processor messages."""
        return len(self.events)

    def comm_volume(self) -> float:
        """Total volume shipped across processors."""
        return sum(e.volume for e in self.events)

    def comm_busy_time(self) -> float:
        """Total link occupation time (sum of message durations)."""
        return sum(e.duration for e in self.events)

    def replication_factor(self) -> float:
        """Average number of replicas per task (``ε+1`` for FT schedules)."""
        total = sum(len(reps) for reps in self.replicas)
        return total / self.instance.num_tasks

    def __repr__(self) -> str:
        return (
            f"Schedule({self.scheduler}, eps={self.epsilon}, model={self.model}, "
            f"latency={self.latency():.2f}, msgs={self.message_count()})"
        )


@dataclass(frozen=True)
class Trial:
    """Outcome of a tentative placement (rolled back, nothing reserved)."""

    task: int
    proc: int
    start: float
    finish: float
    data_ready: float


class ScheduleBuilder:
    """Incrementally builds a :class:`Schedule` against a network model."""

    def __init__(
        self,
        instance: ProblemInstance,
        network: NetworkModel,
        epsilon: int,
        scheduler: str,
        make_network: Optional[Callable[[], NetworkModel]] = None,
        strict_local_suppression: bool = False,
        fast: bool = False,
    ) -> None:
        if epsilon < 0:
            raise SchedulingError("epsilon must be >= 0")
        if epsilon + 1 > instance.num_procs:
            raise SchedulingError(
                f"need at least eps+1={epsilon + 1} processors for space "
                f"exclusion, platform has {instance.num_procs}"
            )
        self.instance = instance
        self.network = network
        self.epsilon = epsilon
        #: paper §6 reading: any co-located predecessor replica suppresses
        #: the remote copies.  The robust default additionally requires the
        #: co-located copy to be self-sufficient (support == {proc}).
        self.strict_local_suppression = strict_local_suppression
        self.proc_ready = [0.0] * instance.num_procs
        if make_network is None:
            make_network = network.clone_factory()
        self.schedule = Schedule(
            instance=instance,
            epsilon=epsilon,
            scheduler=scheduler,
            model=network.name,
            make_network=make_network,
        )
        self._seq = 0
        #: fast-path placement kernel; ``None`` when the network's
        #: ``kernel_caps()`` declares no (or an unsupported) resource
        #: algebra — trials then go through the exact slow path.
        self._kernel = None
        if fast:
            from repro.schedule.kernel import TrialKernel

            self._kernel = TrialKernel.create(self)

    @property
    def fast(self) -> bool:
        """Whether the vectorized placement kernel is active."""
        return self._kernel is not None

    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _sorted_remote_messages(
        self, task: int, proc: int, sources: Mapping[int, Sequence[Replica]]
    ) -> tuple[dict[int, Replica], list[tuple[int, Replica]]]:
        """Split sources into local suppliers and eq.-(6)-sorted messages.

        For each predecessor with a replica on ``proc``, intra-processor
        communication is used; the other replicas of that predecessor do
        not send to ``proc`` (paper §6) **provided** the co-located copy is
        self-sufficient — its support is ``{proc}`` itself, so "if P is
        operational, the copy of t on P will receive the data".  A
        co-located one-to-one channel with a wider support can starve even
        while ``proc`` survives, so in that case the remote copies still
        send (their messages keep the replica robust).  Remaining messages
        are sorted by sender-side earliest finish (the eq. (6)
        serialization order), with deterministic tie-breaking.
        """
        graph = self.instance.graph
        local: dict[int, Replica] = {}
        remote: list[tuple[float, int, int, int, Replica]] = []
        proc_only = frozenset({proc})
        for pred in graph.preds(task):
            try:
                srcs = sources[pred]
            except KeyError:
                raise SchedulingError(
                    f"no sources provided for predecessor t{pred} of t{task}"
                ) from None
            if not srcs:
                raise SchedulingError(
                    f"empty source list for predecessor t{pred} of t{task}"
                )
            on_proc = [r for r in srcs if r.proc == proc]
            if on_proc:
                local[pred] = min(on_proc, key=lambda r: (r.finish, r.index))
                if self.strict_local_suppression or any(
                    r.support <= proc_only for r in on_proc
                ):
                    continue
            vol = graph.volume(pred, task)
            for r in srcs:
                if r.proc == proc:
                    continue
                key = self.network.sender_bound(r.proc, proc, r.finish, vol)
                remote.append((key, pred, r.index, r.proc, r))
        remote.sort(key=lambda item: item[:4])
        return local, [(pred, r) for _k, pred, _i, _p, r in remote]

    def _place(
        self,
        task: int,
        proc: int,
        sources: Mapping[int, Sequence[Replica]],
        record: bool,
    ):
        """Shared trial/commit machinery; ``record`` keeps the reservations."""
        graph = self.instance.graph
        local, ordered = self._sorted_remote_messages(task, proc, sources)

        token = self.network.checkpoint()
        first_arrival: dict[int, float] = {}
        placed: list[tuple[int, Replica, float, float]] = []
        for pred, r in ordered:
            vol = graph.volume(pred, task)
            start, finish = self.network.place_transfer(r.proc, proc, r.finish, vol)
            placed.append((pred, r, start, finish))
            if pred not in first_arrival or finish < first_arrival[pred]:
                first_arrival[pred] = finish

        data_ready = 0.0
        for pred in graph.preds(task):
            supply = float("inf")
            if pred in local:
                supply = local[pred].finish
            if pred in first_arrival and first_arrival[pred] < supply:
                supply = first_arrival[pred]
            if supply > data_ready:
                data_ready = supply

        start = max(self.proc_ready[proc], self.network.compute_floor(proc), data_ready)
        finish = start + self.instance.cost(task, proc)

        if not record:
            self.network.rollback(token)
            return Trial(task, proc, start, finish, data_ready)
        return start, finish, local, placed

    # ------------------------------------------------------------------
    def trial(
        self, task: int, proc: int, sources: Mapping[int, Sequence[Replica]]
    ) -> Trial:
        """Evaluate placing a replica of ``task`` on ``proc`` (no side effect).

        ``sources`` maps each predecessor to the candidate supplier
        replicas: a single designated replica for one-to-one placements, or
        every replica of the predecessor for full fan-in (FTSA-style)
        placements.  The replica starts once, for every predecessor, the
        *earliest* supply (local copy or first serialized message) is in.
        """
        return self._place(task, proc, sources, record=False)

    def candidate_sweep(
        self,
        task: int,
        procs: Sequence[int],
        sources: Mapping[int, Sequence[Replica]],
        heads: Optional[Sequence[Mapping[int, Replica]]] = None,
        keep: int = 1,
    ) -> list[Optional[Trial]]:
        """One placement's candidate trials, aligned to ``procs``.

        ``heads[i]`` (optional) maps predecessors to the designated
        supplier of candidate ``procs[i]``; the other predecessors use
        the full ``sources`` pool.  With the kernel active, a row whose
        lower bound shows it can be neither the minimum finish, nor
        within ``TIE_EPS`` of it, nor among the first ``keep`` rows in
        ``(finish, proc)`` order is not evaluated and comes back as
        ``None`` (see :func:`repro.schedule.kernel.select_candidates`);
        every other row is the exact trial, and ``keep >= len(procs)``
        evaluates every row.  The exact path evaluates every row.
        """
        if self._kernel is not None:
            return self._kernel.candidate_sweep(task, procs, sources, heads, keep)
        if heads is None:
            heads = [{}] * len(procs)
        return [
            self._place(
                task,
                p,
                {q: ([hp[q]] if q in hp else srcs) for q, srcs in sources.items()},
                record=False,
            )
            for p, hp in zip(procs, heads)
        ]

    def candidate_heads(
        self,
        task: int,
        procs: Sequence[int],
        pools: Mapping[int, Sequence[Replica]],
    ) -> Optional[list[dict[int, Replica]]]:
        """Per candidate, each pool's minimum-``(eq. (6) key, index)``
        replica, in one kernel pass; ``None`` on the exact path, whose
        reference is :func:`repro.core.one_to_one._pick_heads`."""
        if self._kernel is None:
            return None
        return self._kernel.candidate_heads(task, procs, pools)

    def pressure_sweep(
        self, tasks: Sequence[int], bl, current_length: float
    ) -> list[tuple[float, list[int]]]:
        """FTBAR's schedule-pressure step: per free task, its ε+1
        minimum-``(σ, proc)`` processors and its urgency (see
        :func:`repro.schedule.kernel.select_pressure`).

        Tasks must be unscheduled with every predecessor placed (every
        processor eligible, full fan-in supply); ``bl[i]`` is the bottom
        level of ``tasks[i]``.  With the kernel active only the rows whose
        lower bound could enter a kept set are evaluated; otherwise every
        row goes through the exact path.  The selection is identical.
        """
        from repro.schedule.kernel import select_pressure

        if self._kernel is not None:
            return self._kernel.pressure_sweep(tasks, bl, current_length)
        replicas = self.schedule.replicas
        starts = []
        for t in tasks:
            sources = {p: replicas[p] for p in self.instance.graph.preds(t)}
            starts.append(
                [
                    self._place(t, p, sources, record=False).start
                    for p in range(self.instance.num_procs)
                ]
            )
        starts = np.asarray(starts, dtype=np.float64)
        return select_pressure(
            starts,
            np.ones(starts.shape, dtype=bool),
            np.asarray(bl, dtype=np.float64),
            current_length,
            self.epsilon + 1,
        )

    def kernel_stats(self) -> Optional[dict]:
        """The active kernel's observability counters (``None`` when the
        builder runs the exact reserve-and-rollback path)."""
        if self._kernel is None:
            return None
        return self._kernel.kernel_stats()

    def commit(
        self,
        task: int,
        proc: int,
        sources: Mapping[int, Sequence[Replica]],
        kind: str = "greedy",
        support: Optional[frozenset[int]] = None,
    ) -> Replica:
        """Commit the placement evaluated exactly like :meth:`trial`."""
        for existing in self.schedule.replicas[task]:
            if existing.proc == proc:
                raise SchedulingError(
                    f"space exclusion violated: t{task} already has a replica on P{proc}"
                )
        start, finish, local, placed = self._place(task, proc, sources, record=True)

        index = len(self.schedule.replicas[task])
        replica = Replica(
            task=task,
            index=index,
            proc=proc,
            start=start,
            finish=finish,
            kind=kind,
            support=support if support is not None else frozenset({proc}),
            seq=0,  # patched below so events committed first keep lower seqs
        )

        inputs: dict[int, list[CommEvent]] = {}
        for pred, r, ev_start, ev_finish in placed:
            event = CommEvent(
                seq=self._next_seq(),
                src_replica=r,
                dst_task=task,
                dst_proc=proc,
                volume=self.instance.graph.volume(pred, task),
                start=ev_start,
                finish=ev_finish,
            )
            event.dst_replica = replica
            inputs.setdefault(pred, []).append(event)
            self.schedule.events.append(event)
            self.schedule.commit_log.append(event)
        replica.seq = self._next_seq()
        replica.inputs = {p: tuple(evs) for p, evs in inputs.items()}
        replica.local_inputs = dict(local)

        self.schedule.replicas[task].append(replica)
        self.schedule.proc_replicas[proc].append(replica)
        self.schedule.commit_log.append(replica)
        self.proc_ready[proc] = finish
        self.network.note_compute(proc, start, finish)
        self.network.commit()
        if self._kernel is not None:
            self._kernel.note_commit(proc, placed)
        return replica

    def mark_task_done(self, task: int) -> None:
        """Record ``task`` in the scheduling order (after all its replicas)."""
        self.schedule.task_order.append(task)

    def finish(self) -> Schedule:
        """Finalize and return the schedule."""
        sched = self.schedule
        for t, reps in enumerate(sched.replicas):
            if not reps:
                raise SchedulingError(f"task t{t} was never scheduled")
        return sched
