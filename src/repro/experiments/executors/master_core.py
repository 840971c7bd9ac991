"""The campaign master's decisions, as one pure state machine.

:class:`MasterCore` decides everything the campaign master decides: the
job table and its fair-share clock, each job's pending queue, leases,
acks, steals, speculative duplicates and requeues, each worker's
heartbeat deadline and the map of everything ever leased to it, the
local workers' respawn budget, and the no-activity clock.  It does no
I/O and reads no clock.  Events go in, each carrying the caller's
``now``:

=====================  ==================================================
event                  what the core does with it
=====================  ==================================================
``hello``              registers a worker, or refuses a stale ``proto``
``message``            a worker's ``heartbeat`` or ``result``
``disconnect``         requeues a worker's lease; cancels a relay job
``tick``               expires silent workers, speculates on stalls
``add_job``            registers a job (and starts a respawn epoch)
``cancel_job``         strips a job's leases and revokes them
``worker_exited``      spends the exited slot's respawn budget
``stop``               shuts every connection down
=====================  ==================================================

and each returns the actions the caller must carry out, in order:
:class:`Send` a message, :class:`Close` a connection once what was sent
before is written, :class:`Spawn` a local worker slot.  Leasing is
driven by events: every event ends by offering work to idle workers,
so an idle worker gets its lease in the same step that makes work
available — a job added, a lease requeued or drained, or a tick that
finds a stalled lease.

The core calls two things it is given: each job's ``store.append``,
whose idempotence is the first-ack-wins arbiter, and its ``progress``
callback.  A relay job has no store: its first-win results go out as
``result`` messages to the client connection that submitted it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple, Optional, Sequence, Union

from repro.experiments.executors.base import (
    LeasePolicy,
    ProgressFn,
    SpeculationPolicy,
    unit_progress_line,
)
from repro.experiments.grid import WorkUnit
from repro.experiments.store import result_from_dict

#: the one wire-protocol version masters and workers speak; a ``hello``
#: with any other ``proto`` is refused
PROTO_VERSION = 4

#: worker process exit codes — the conformance harness asserts *why* a
#: worker died, so the injected fault must be distinguishable from a
#: genuine crash (exit 1) and a clean shutdown (exit 0)
WORKER_EXIT_OK = 0
WORKER_EXIT_ERROR = 1
WORKER_EXIT_FAULT_INJECTED = 3

#: master declares a worker dead after this many silent heartbeat
#: periods (never sooner than ``MIN_DEAD_AFTER_S``)
DEAD_AFTER_BEATS = 8
MIN_DEAD_AFTER_S = 5.0

#: how many times the master relaunches a spawned worker that genuinely
#: crashed (any exit code besides a clean shutdown and the injected
#: ``--max-units`` fault) within one job — one crash must not strand
#: local capacity, but a unit that crash-loops its worker must not
#: respawn forever
WORKER_RESPAWN_LIMIT = 2

SHUTDOWN = {"type": "shutdown"}


class Send(NamedTuple):
    """Write ``message`` to connection ``conn``, after its earlier sends."""

    conn: int
    message: dict


class Close(NamedTuple):
    """Close connection ``conn`` once everything sent before is written."""

    conn: int


class Spawn(NamedTuple):
    """Relaunch local worker ``slot``."""

    slot: int


Action = Union[Send, Close, Spawn]


def _revoke(unit_ids: list[str]) -> dict:
    return {"type": "revoke", "unit_ids": unit_ids}


class Lease:
    """One outstanding lease: which units a connection owns and the
    attempt tag its acks carry.

    ``remaining`` keeps the handout order — workers compute leases
    sequentially, so its first unit is the one the worker is computing
    *right now* and everything behind it has not started.  That
    head/tail split is what makes stealing safe: only the unstarted
    tail is ever revoked.
    """

    __slots__ = ("conn", "job", "remaining", "attempt", "last_progress")

    def __init__(
        self, conn: int, job: "Job", units: Sequence[WorkUnit], attempt: str, now: float
    ) -> None:
        self.conn = conn
        self.job = job
        self.remaining = {u.unit_id: u for u in units}
        self.attempt = attempt
        self.last_progress = now


class Job:
    """One job: its queue, its outstanding leases, and what the
    straggler mitigation did to it.

    Work is claimed in three tiers: the pending queue first, then
    stealing the unstarted tail of the largest outstanding lease, then
    (opt-in) a speculative duplicate of the most-stalled in-flight unit.
    ``status`` is ``"running"`` until every unit is done (``"done"``) or
    the job is cancelled; :meth:`ended` runs once on that transition.
    """

    def __init__(
        self,
        job_id: str,
        units: Sequence[WorkUnit] = (),
        store=None,
        lease_policy: Optional[LeasePolicy] = None,
        progress: Optional[ProgressFn] = None,
        tenant: str = "default",
        priority: int = 0,
        seq: int = 0,
        client: Optional[int] = None,
        status: str = "running",
    ) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.priority = priority
        self.seq = seq
        self.status = status
        self.store = store
        #: the relay connection a store-less job's results stream to
        self.client = client
        self.progress = progress
        self.lease_policy = lease_policy or LeasePolicy()
        self.pending: deque[WorkUnit] = deque(units)
        self.units = {u.unit_id: u for u in units}
        self.done: set[str] = set()
        self.total = len(units)
        self.leases: dict[int, Lease] = {}
        #: total attempts launched per unit id (absent = 1, the primary)
        self.attempts: dict[str, int] = {}
        self.stolen_units = 0
        self.speculative_attempts = 0

    def counts(self) -> tuple[int, int]:
        """``(done, total)``."""
        return len(self.done), self.total

    def remaining(self) -> list[WorkUnit]:
        """Units without a result, in submission order."""
        return [u for uid, u in self.units.items() if uid not in self.done]

    def ended(self) -> None:
        """Runs once when the job leaves ``running``; owners that
        persist jobs override it."""

    # ------------------------------------------------------------- claims

    def claim(
        self,
        conn: int,
        workers: int,
        pending_only: bool,
        steal: bool,
        speculation: SpeculationPolicy,
        now: float,
    ) -> Optional[tuple[list[WorkUnit], str, Optional[Lease]]]:
        """``(units, attempt, victim)`` for an idle connection, or None.
        ``workers`` caps a lease at this worker's fair share of the
        queue; ``pending_only`` claims from the queue alone; ``victim``
        is the lease a steal took its tail from."""
        units = self._claim_pending(workers)
        if units is not None:
            return units, "primary", None
        if pending_only:
            return None
        if steal:
            victim = self._steal_victim(conn)
            if victim is not None:
                stolen = [victim.remaining.pop(uid) for uid in list(victim.remaining)[1:]]
                self.stolen_units += len(stolen)
                return stolen, "stolen", victim
        if speculation.enabled:
            unit = self._claim_speculative(conn, speculation, now)
            if unit is not None:
                return [unit], "speculative", None
        return None

    def _claim_pending(self, workers: int) -> Optional[list[WorkUnit]]:
        """Pop the next lease off the pending queue (None when empty).

        Assembly prefers locality: the lease is the queue head plus the
        next pending units sharing its ``locality_key``, so a worker
        computes one scenario back to back and reuses warm kernel/epoch-
        cache state.  Skipped units keep their queue order.  Units
        completed while queued (a speculative or stolen attempt won
        after a requeue) are dropped, never re-leased.
        """
        while self.pending and self.pending[0].unit_id in self.done:
            self.pending.popleft()
        if not self.pending:
            return None
        k = self.lease_policy.lease_size(len(self.pending), workers=max(1, workers))
        lease = [self.pending.popleft()]
        if k > 1:
            key = lease[0].locality_key
            kept: deque[WorkUnit] = deque()
            for unit in self.pending:
                if unit.unit_id in self.done:
                    continue
                if len(lease) < k and unit.locality_key == key:
                    lease.append(unit)
                else:
                    kept.append(unit)
            self.pending = kept
        return lease

    def _steal_victim(self, conn: int) -> Optional[Lease]:
        """The largest other non-speculative lease with a tail to steal.
        The head of a lease is what the victim is computing right now —
        revoking it would waste that work — so only the tail moves."""
        victims = [
            lease
            for lease in self.leases.values()
            if lease.conn != conn
            and lease.attempt != "speculative"
            and len(lease.remaining) >= 2
        ]
        return max(victims, key=lambda lease: len(lease.remaining), default=None)

    def _claim_speculative(
        self, conn: int, speculation: SpeculationPolicy, now: float
    ) -> Optional[WorkUnit]:
        """Duplicate the first rescuable unit of the most-stalled lease.

        Eligibility is the policy's: the lease made no progress for
        ``slow_factor`` x the EWMA unit time, the job-wide launch budget
        is not spent, and the unit has attempts left.  Scanning each
        lease in handout order means a wedged worker's *whole* lease
        gets rescued one unit per idle claim.
        """
        if self.speculative_attempts >= speculation.budget(self.total):
            return None
        avg = self.lease_policy.observed_unit_seconds
        best: Optional[tuple[float, WorkUnit]] = None
        for lease in self.leases.values():
            if lease.conn == conn or lease.attempt == "speculative":
                continue
            stalled = now - lease.last_progress
            if not speculation.is_straggler(stalled, avg):
                continue
            for uid in lease.remaining:
                if uid in self.done:
                    continue
                if self.attempts.get(uid, 1) >= speculation.max_attempts:
                    continue
                if best is None or stalled > best[0]:
                    best = (stalled, lease.remaining[uid])
                break
        if best is None:
            return None
        unit = best[1]
        self.attempts[unit.unit_id] = self.attempts.get(unit.unit_id, 1) + 1
        self.speculative_attempts += 1
        return unit


class _Worker:
    """A connection past an accepted ``hello``."""

    __slots__ = ("conn", "dead_after", "deadline", "lease", "ever_leased")

    def __init__(self, conn: int, dead_after: float, now: float) -> None:
        self.conn = conn
        self.dead_after = dead_after
        self.deadline = now + dead_after
        self.lease: Optional[Lease] = None
        #: unit_id -> owning job for everything ever leased here: a stale
        #: ack (revoked unit, replayed delivery) must route to the job
        #: that leased it.  Unit ids can collide across jobs running the
        #: same spec; the last lease wins, which at worst lands an
        #: *identical* row in the twin job's store (idempotent append).
        self.ever_leased: dict[str, Job] = {}


def _decode(payload: dict, unit: WorkUnit):
    return result_from_dict(payload, unit.granularity, unit.rep)


class MasterCore:
    """The master's state and every decision it makes (module docstring).

    ``heartbeat`` sets the default dead-man deadline (a worker's
    ``hello`` may lengthen its own), ``slots`` counts the local workers
    whose exits :meth:`worker_exited` reports, and ``decode`` turns a
    ``result`` payload into the unit's result before it is appended.
    """

    def __init__(
        self,
        heartbeat: float,
        speculation: Optional[SpeculationPolicy] = None,
        steal: bool = True,
        slots: int = 0,
        decode: Callable = _decode,
        now: float = 0.0,
    ) -> None:
        self.heartbeat = heartbeat
        self.dead_after = max(heartbeat * DEAD_AFTER_BEATS, MIN_DEAD_AFTER_S)
        self.speculation = speculation or SpeculationPolicy()
        self.steal = steal
        self.decode = decode
        #: every job, in submission order (terminal ones stay queryable)
        self.jobs: dict[str, Job] = {}
        #: weighted-fair-queuing virtual time per tenant
        self.vtime: dict[str, float] = {}
        self.workers: dict[int, _Worker] = {}
        self.slots = slots
        self._budget = [0] * slots
        #: slots that exited and will not be relaunched -> exit code
        self.exited: dict[int, int] = {}
        self.respawns = 0
        #: the no-activity clock: when a worker last said anything
        self.last_activity = now
        self.stopping = False
        self._out: list[Action] = []

    # ------------------------------------------------------------ events

    def hello(self, conn: int, message: dict, now: float) -> list[Action]:
        self.last_activity = now
        if message.get("proto") != PROTO_VERSION:
            # Every peer ships from this repo and speaks one version; a
            # stale or foreign worker is turned away before it can lease.
            self._out += [
                Send(conn, {
                    "type": "error",
                    "error": f"wire protocol {message.get('proto')!r} is not "
                             f"supported: this master speaks {PROTO_VERSION}",
                    "key": "proto",
                }),
                Close(conn),
            ]
        elif self.stopping:
            self._out += [Send(conn, SHUTDOWN), Close(conn)]
        else:
            # Honor the worker's own heartbeat cadence (it may have been
            # started with --heartbeat much larger than the master's).
            beat = float(message.get("heartbeat", self.heartbeat))
            dead_after = max(self.dead_after, beat * DEAD_AFTER_BEATS)
            self.workers[conn] = _Worker(conn, dead_after, now)
        return self._flush(now)

    def message(self, conn: int, message: dict, now: float) -> list[Action]:
        """A worker's ``heartbeat`` or ``result``; anything else is a
        buggy worker and loses its connection (its lease requeues)."""
        self.last_activity = now
        worker = self.workers.get(conn)
        if worker is not None:
            worker.deadline = now + worker.dead_after
            kind = message.get("type")
            if kind == "result":
                self._result(worker, message, now)
            elif kind != "heartbeat":
                self._drop(worker, close=True)
        return self._flush(now)

    def disconnect(self, conn: int, now: float) -> list[Action]:
        """A connection ended: a worker's unfinished lease remainder
        requeues (per-unit acks mean completed units never rerun), and
        a relay client's job is cancelled — its results have nowhere to
        go."""
        worker = self.workers.get(conn)
        if worker is not None:
            self._drop(worker, close=False)
        for job in list(self.jobs.values()):
            if job.client == conn and job.status == "running":
                self._end(job, "cancelled")
        return self._flush(now)

    def tick(self, now: float) -> list[Action]:
        """Expire workers silent past their deadline; the closing
        dispatch also speculates on any lease that has stalled."""
        for worker in [w for w in self.workers.values() if now >= w.deadline]:
            self._drop(worker, close=True)
        return self._flush(now)

    def add_job(self, job: Job, now: float) -> list[Action]:
        self.jobs[job.job_id] = job
        if job.status == "running":
            # A tenant joining late starts at the current virtual floor,
            # not zero — otherwise it would monopolize the pool until its
            # clock caught up.
            if job.tenant not in self.vtime:
                self.vtime[job.tenant] = min(self.vtime.values(), default=0.0)
            # A fresh job gets a fresh respawn budget: its crashes are
            # charged to it, not to whatever ran before.
            self._budget = [0] * self.slots
            for slot, code in list(self.exited.items()):
                del self.exited[slot]
                self._exited(slot, code)
        return self._flush(now)

    def cancel_job(self, job_id: str, now: float) -> list[Action]:
        """Stop leasing a job and revoke what is outstanding.  Workers
        already computing a cancelled unit finish it; their acks are
        swallowed."""
        job = self.jobs.get(job_id)
        if job is not None and job.status == "running":
            self._end(job, "cancelled")
        return self._flush(now)

    def worker_exited(self, slot: int, code: int, now: float) -> list[Action]:
        self._exited(slot, code)
        return self._flush(now)

    def stop(self, now: float) -> list[Action]:
        """Shut every worker down and close every relay client.  Jobs
        keep their status: a service's running jobs resume on restart."""
        self.stopping = True
        for worker in self.workers.values():
            if worker.lease is not None:
                self._retire(worker)
            self._out += [Send(worker.conn, SHUTDOWN), Close(worker.conn)]
        self.workers.clear()
        for job in self.jobs.values():
            if job.client is not None and job.status == "running":
                self._out.append(Close(job.client))
        return self._flush(now)

    # ----------------------------------------------------------- queries

    def workers_gone(self) -> bool:
        """Every local worker exited for good and none is connected."""
        return bool(self.slots) and len(self.exited) == self.slots and not self.workers

    # ---------------------------------------------------------- internals

    def _flush(self, now: float) -> list[Action]:
        self._dispatch(now)
        out, self._out = self._out, []
        return out

    def _dispatch(self, now: float) -> None:
        """Offer work to every idle worker.  Idle workers hold no lease,
        so they are interchangeable: once one finds nothing, none will."""
        if self.stopping:
            return
        for worker in self.workers.values():
            if worker.lease is None and not self._grant(worker, now):
                return

    def _grant(self, worker: _Worker, now: float) -> bool:
        """One scheduling pass over all running jobs in fair-share order.

        Pass 1 offers only pending queues; pass 2 allows steal and
        speculation.  A grant advances the winning tenant's virtual time
        by ``1 / (1 + priority)`` — the weighted-fair-share clock."""
        by_tenant: dict[str, list[Job]] = {}
        for job in self.jobs.values():
            if job.status == "running":
                by_tenant.setdefault(job.tenant, []).append(job)
        tenants = sorted(by_tenant, key=lambda t: (self.vtime.get(t, 0.0), t))
        for pending_only in (True, False):
            for tenant in tenants:
                jobs = sorted(by_tenant[tenant], key=lambda j: (-j.priority, j.seq))
                for job in jobs:
                    claim = job.claim(
                        worker.conn, len(self.workers), pending_only,
                        self.steal, self.speculation, now,
                    )
                    if claim is None:
                        continue
                    units, attempt, victim = claim
                    if victim is not None:
                        # Advisory — the units are already re-leased; a
                        # victim that never reads it just loses the race.
                        self._out.append(
                            Send(victim.conn, _revoke([u.unit_id for u in units]))
                        )
                    lease = Lease(worker.conn, job, units, attempt, now)
                    job.leases[worker.conn] = worker.lease = lease
                    for unit in units:
                        worker.ever_leased[unit.unit_id] = job
                    weight = 1 + max(j.priority for j in jobs)
                    self.vtime[tenant] = self.vtime.get(tenant, 0.0) + 1.0 / weight
                    self._out.append(Send(worker.conn, {
                        "type": "lease", "units": [u.to_dict() for u in units],
                    }))
                    return True
        return False

    def _result(self, worker: _Worker, message: dict, now: float) -> None:
        """Route an ack: to the worker's lease when the unit is still
        its to ack, else — as a ``"stale"`` attempt — to the job that
        once leased it here.  A result for a unit never leased here is
        a buggy worker."""
        unit_id = message.get("unit_id")
        lease = worker.lease
        if lease is not None:
            lease.last_progress = now  # any ack is progress
        if lease is not None and unit_id in lease.remaining:
            job, attempt = lease.job, lease.attempt
            unit = lease.remaining.pop(unit_id)
            seconds = message.get("seconds")
            if seconds is not None:
                job.lease_policy.observe(float(seconds))
        else:
            job, attempt = worker.ever_leased.get(unit_id), "stale"
            unit = job.units.get(unit_id) if job is not None else None
            if unit is None:
                self._drop(worker, close=True)
                return
        self._complete(job, unit, message["result"], attempt)
        if lease is not None and worker.lease is lease and not lease.remaining:
            self._retire(worker)  # drained: the closing dispatch refills it

    def _complete(self, job: Job, unit: WorkUnit, payload: dict, attempt: str) -> None:
        if job.status == "cancelled":
            return
        # First ack wins: the store's idempotent append decides, so a
        # losing attempt (speculative loser, revoked unit's stale ack,
        # replayed delivery) is counted in dedup_stats under its attempt
        # tag — never stored, never double-progressed.
        if job.store is not None:
            if not job.store.append(unit, self.decode(payload, unit), attempt=attempt):
                return
        elif unit.unit_id in job.done:
            return
        else:
            self._out.append(Send(job.client, {
                "type": "result", "unit_id": unit.unit_id, "result": payload,
            }))
        job.done.add(unit.unit_id)
        if job.progress is not None:
            job.progress(unit_progress_line(unit, len(job.done), job.total))
        if len(job.done) >= job.total and job.status == "running":
            self._end(job, "done")

    def _end(self, job: Job, status: str) -> None:
        """Leave ``running``: strip every outstanding lease (revoking its
        live units, which are done or no longer wanted) so its worker is
        free for other jobs at once."""
        job.status = status
        job.pending.clear()
        for lease in list(job.leases.values()):
            if lease.remaining:
                self._out.append(Send(lease.conn, _revoke(list(lease.remaining))))
            self._retire(self.workers[lease.conn])
        if job.client is not None and status == "done":
            self._out += [
                Send(job.client, {"type": "job_done", "job_id": job.job_id}),
                Close(job.client),
            ]
        job.ended()

    def _retire(self, worker: _Worker) -> None:
        del worker.lease.job.leases[worker.conn]
        worker.lease = None

    def _drop(self, worker: _Worker, close: bool) -> None:
        """Forget a worker; its lease's unfinished remainder goes back to
        the front of its job's queue, in the original order."""
        del self.workers[worker.conn]
        lease = worker.lease
        if lease is not None:
            self._retire(worker)
            job = lease.job
            for unit in reversed(lease.remaining.values()):
                if unit.unit_id not in job.done:
                    job.pending.appendleft(unit)
        if close:
            self._out.append(Close(worker.conn))

    def _exited(self, slot: int, code: int) -> None:
        if (
            self.stopping
            or code in (WORKER_EXIT_OK, WORKER_EXIT_FAULT_INJECTED)
            or self._budget[slot] >= WORKER_RESPAWN_LIMIT
        ):
            self.exited[slot] = code
            return
        self._budget[slot] += 1
        self.respawns += 1
        self._out.append(Spawn(slot))
