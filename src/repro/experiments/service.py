"""The campaign master, and the persistent multi-tenant service on it.

:class:`_Master` is the one master in this package: a listening
socket, a local worker pool, and a table of *jobs*, each with its own
:class:`~repro.experiments.executors.socket._MasterState` (leases, crash
requeue, stealing, speculation, first-ack-wins dedup) and its own
:class:`~repro.experiments.executors.base.LeasePolicy`.  The
:class:`~repro.experiments.executors.socket.SocketExecutor` runs one
campaign as a master's only job.

:class:`CampaignService` adds the durable root: one long-lived master
process accepts many :class:`~repro.experiments.api.CampaignSpec`
submissions over the wire, runs them as jobs on one shared worker pool,
and outlives every one of them; each job's store lives under the
service root, so every bit-identical guarantee holds per job.

A connection is classified by its first message — a ``hello`` is a
worker (the worker messages are listed in
:mod:`repro.experiments.executors.socket`), anything else is a client:

================  ==============================================  =========
message           fields                                          direction
================  ==============================================  =========
``submit``        ``spec`` (CampaignSpec dict), ``tenant``,       c -> s
                  ``priority`` (int >= 0)
``submitted``     job snapshot (``job_id``, ``store``, ...)       s -> c
``status``        ``job_id``                                      c -> s
``jobs``          —                                               c -> s
``cancel``        ``job_id``                                      c -> s
``submit_units``  ``units`` (WorkUnit dicts), ``tenant``,         c -> s
                  ``priority``; the connection stays open and
                  streams ``result`` messages back
``result``        ``unit_id``, ``result``         [submit_units]  s -> c
``job_done``      ``job_id``                      [submit_units]  s -> c
``error``         ``error``, optional ``key``                     s -> c
================  ==============================================  =========

**Scheduling** is two-level.  Across tenants: weighted fair queuing —
each tenant has a virtual time advanced by ``1 / (1 + priority)`` per
granted lease, and the idle worker is offered work from the runnable
tenant with the smallest virtual time first (ties break by tenant
name), so a priority-1 tenant receives twice the grants of a priority-0
tenant while the priority-0 tenant still makes continuous progress —
neither can starve the other.  Within a tenant: highest priority, then
submission order.  An idle worker drains *pending* queues across all
jobs before stealing or speculating within one.

**Durability**: every submitted spec's store is rewritten under
``root/jobs/<job_id>/store`` (an in-memory store becomes JSONL — a
service job always survives a restart); ``job.json`` beside it records
the job's identity and terminal state, and the store manifest carries
the same identity as ``extra`` metadata.  On start the service rescans
``root/jobs``, re-opens every incomplete job's store via
:func:`~repro.experiments.store.open_store` sniffing, and resumes
exactly the units missing from it — ``run_grid(..., resume=True)``, so
a SIGKILLed service restarted on the same root finishes both halves of
every interrupted job bit-identically.  Results are queryable while
jobs run: ``status`` reports live done/total counts, and the job's
store directory can be opened read-only with ``open_store`` /
``StoreCampaignView`` at any time.

``submit_units`` jobs are the executor client path
(``ExecutorSpec(kind="service", address=...)``): the units stream in
over the connection, results stream back, and the *client* owns the
store — these jobs are not recoverable and die with their connection.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from repro.experiments.api import CampaignSpec, ExecutorSpec
from repro.experiments.executors.base import (
    LeasePolicy,
    LeaseSpec,
    ProgressFn,
    SpeculationPolicy,
    SpeculationSpec,
    parse_steal,
)
from repro.experiments.executors.socket import (
    DEAD_AFTER_BEATS,
    DEFAULT_HEARTBEAT,
    PROTO_VERSION,
    WorkerPool,
    _connect_with_backoff,
    _LineConn,
    _MasterState,
)
from repro.experiments.grid import WorkUnit
from repro.experiments.store import (
    RunStore,
    make_store,
    open_store,
    result_from_dict,
    result_to_dict,
)
from repro.utils.errors import CampaignConfigError

#: file beside each job's store recording identity and terminal state
JOB_FILE_NAME = "job.json"
#: file in the service root recording the live service's bound address
SERVICE_FILE_NAME = "service.json"
#: how long a clean :meth:`_Master.stop` waits for workers to take their
#: ``shutdown`` before terminating whatever is still running
STOP_GRACE_S = 2.0


def _atomic_write_json(path: Path, payload: Mapping) -> None:
    """Write-then-rename so a SIGKILL mid-write never leaves a torn
    file — recovery either sees the old record or the new one."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, path)


#: job states whose directories :func:`gc_job_dirs` may remove
TERMINAL_JOB_STATES = ("done", "cancelled", "failed")


def gc_job_dirs(
    root: Union[str, Path],
    ttl: float,
    now: Optional[float] = None,
) -> list[str]:
    """Prune terminal job directories older than ``ttl`` seconds.

    Scans ``root/jobs/job-*`` and removes every directory whose
    ``job.json`` records a terminal state (``done`` / ``cancelled`` /
    ``failed``) and was last written at least ``ttl`` seconds ago (by
    file mtime, against ``now`` — defaults to the current time).
    Directories without a ``job.json``, with an unreadable one, or
    recording any non-terminal state are **never** touched: a running
    or incomplete job survives every sweep and is resumed by the next
    service start.  Returns the removed job ids.
    """
    if ttl < 0:
        raise ValueError(f"job ttl must be >= 0, got {ttl}")
    if now is None:
        now = time.time()
    removed: list[str] = []
    jobs_dir = Path(root) / "jobs"
    if not jobs_dir.is_dir():
        return removed
    for job_dir in sorted(jobs_dir.glob("job-*")):
        job_file = job_dir / JOB_FILE_NAME
        try:
            meta = json.loads(job_file.read_text())
            age = now - job_file.stat().st_mtime
        except (OSError, json.JSONDecodeError):
            continue  # no/unreadable job.json: assume live, keep it
        if meta.get("state") not in TERMINAL_JOB_STATES or age < ttl:
            continue
        job_id = meta.get("job_id", job_dir.name)
        try:
            shutil.rmtree(job_dir)
        except OSError:
            continue  # a half-removed dir is retried next sweep
        removed.append(job_id)
    return removed


@dataclass
class ServiceJob:
    """One submitted campaign: identity, its own master state + store,
    and the mutable lifecycle state the service persists."""

    job_id: str
    tenant: str
    priority: int
    seq: int
    status: str
    spec: Optional[CampaignSpec] = None
    directory: Optional[Path] = None
    store: Optional[RunStore] = None
    state: Optional[_MasterState] = None
    error: Optional[str] = None
    #: terminal done/total recorded at persist time (recovered terminal
    #: jobs have no live state to count from)
    final_counts: Optional[tuple[int, int]] = None
    #: results go to a caller-owned store (a ``submit_units`` client's
    #: or a ``SocketExecutor`` run's): never persisted, closed or resumed
    relay: bool = False

    def counts(self) -> tuple[int, int]:
        if self.state is not None and self.status == "running":
            return self.state.progress_counts()
        return self.final_counts or (0, 0)

    def snapshot(self) -> dict:
        done, total = self.counts()
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.status,
            "done": done,
            "total": total,
            "store": str(self.directory / "store") if self.directory else None,
            "error": self.error,
        }

    def persist(self) -> None:
        """Write ``job.json`` (no-op for relay jobs, which die with
        their client connection and are never recovered)."""
        if self.directory is None or self.spec is None:
            return
        record = self.snapshot()
        del record["store"]  # the job directory is the record's home
        record["spec"] = self.spec.to_dict()
        _atomic_write_json(self.directory / JOB_FILE_NAME, record)


class _RelayStore:
    """The store a ``submit_units`` job appends into: each first-win
    result is streamed back to the submitting client as a ``result``
    message.  Implements exactly the slice of the store contract
    :meth:`_MasterState.complete` uses (idempotent ``append``)."""

    def __init__(self, lc: _LineConn) -> None:
        self._lc = lc
        self._lock = threading.Lock()
        self._seen: set[str] = set()

    def append(self, unit: WorkUnit, result, attempt: str = "primary") -> bool:
        with self._lock:
            if unit.unit_id in self._seen:
                return False
            self._seen.add(unit.unit_id)
            try:
                self._lc.send(
                    {
                        "type": "result",
                        "unit_id": unit.unit_id,
                        "result": result_to_dict(result),
                    }
                )
            except OSError:
                # Client vanished mid-stream; the relay handler notices
                # the dead connection and cancels the job — the unit
                # still counts as done so the job drains instead of
                # re-leasing units nobody will receive.
                pass
            return True


class _Master:
    """The campaign master: one listening socket, one local worker pool,
    and a table of jobs its worker connections lease from.

    Root-less — jobs live in memory and results go to the store each job
    was registered with.  :class:`CampaignService` adds the durable root
    and the client verbs; :class:`~repro.experiments.executors.socket.
    SocketExecutor` registers one job (:meth:`add_job`) and stops the
    master when it completes.  ``spawn_workers`` is an int or a sequence
    of extra-argv lists (one local ``campaign worker`` subprocess each);
    external ``repro-ftsched campaign worker`` processes can connect at
    any time.  ``lease`` / ``speculate`` / ``steal`` are the defaults
    every job is leased with.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: Union[int, Sequence[Sequence[str]]] = 0,
        heartbeat: float = DEFAULT_HEARTBEAT,
        lease: LeaseSpec = None,
        speculate: SpeculationSpec = None,
        steal: Union[str, bool, None] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat = heartbeat
        self._lease_spec = lease
        self.speculation = SpeculationPolicy.from_spec(speculate)
        self.steal = parse_steal(steal)
        if isinstance(spawn_workers, int):
            self._worker_specs: list[list[str]] = [[] for _ in range(spawn_workers)]
        else:
            self._worker_specs = [list(extra) for extra in spawn_workers]
        self.address: Optional[tuple[str, int]] = None
        self._server: Optional[socket.socket] = None
        self._pool: Optional[WorkerPool] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._jobs: dict[str, ServiceJob] = {}
        self._order: list[ServiceJob] = []
        self._seq = 0
        self._next_conn_id = 0
        #: weighted-fair-queuing virtual time per tenant
        self._vtime: dict[str, float] = {}
        self._conns: set[_LineConn] = set()
        #: connections past an accepted ``hello``
        self._workers = 0
        #: messages heard from workers — a run's no-activity clock (only
        #: ever compared for change, so unlocked increments are enough)
        self.activity = 0
        self._dead_after = max(heartbeat * DEAD_AFTER_BEATS, 5.0)

    # ------------------------------------------------------------ lifecycle

    def listen(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actually-bound address."""
        self._server = socket.create_server((self.host, self.port))
        self.address = self._server.getsockname()[:2]
        threading.Thread(
            target=self._accept_loop, name="campaign-master-accept", daemon=True
        ).start()
        return self.address

    def start_workers(self) -> None:
        """Spawn the local worker pool against the bound address."""
        self._pool = WorkerPool(self._worker_specs, self._spawn_worker)
        self._pool.spawn_all()

    def supervise(self) -> None:
        """Relaunch spawned workers that genuinely crashed (never a clean
        shutdown or the injected fault exit), bounded per slot so a
        crash-looping unit cannot respawn its worker forever."""
        if self._pool is not None:
            self._pool.poll_respawn()

    def workers_gone(self) -> bool:
        """Every spawned worker has exited and no worker is connected."""
        return not self._workers and self._pool is not None and self._pool.all_exited()

    @property
    def respawns(self) -> int:
        return self._pool.respawns if self._pool is not None else 0

    def stop(self, clean: bool = True) -> list[int]:
        """Shut down; returns the exit code of every spawned worker.

        A clean stop gives workers :data:`STOP_GRACE_S` to take the
        ``shutdown`` their serving loops send, then terminates whatever
        remains; an unclean one terminates at once.  Running jobs are
        finished in memory only — a service's stay ``running`` on disk
        so the next start resumes them."""
        self._stop.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        codes: list[int] = []
        if self._pool is not None:
            procs = self._pool.procs
            deadline = time.monotonic() + (STOP_GRACE_S if clean else 0.0)
            while time.monotonic() < deadline and (
                self._workers or any(p.poll() is None for p in procs)
            ):
                time.sleep(0.05)
            self._pool.terminate_all()
            codes = self._pool.reap_all()
        with self._lock:
            conns = list(self._conns)
            jobs = list(self._order)
        for lc in conns:
            lc.close()
        for job in jobs:
            if job.state is not None:
                job.state.finish()
            if job.store is not None and not job.relay:
                job.store.close()
        return codes

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ----------------------------------------------------------------- jobs

    def add_job(
        self,
        units: Sequence[WorkUnit],
        store: RunStore,
        progress: Optional[ProgressFn] = None,
        lease_policy: Optional[LeasePolicy] = None,
        tenant: str = "default",
        priority: int = 0,
    ) -> ServiceJob:
        """Register a job whose results go to a caller-owned ``store``
        (never closed or persisted by the master); leasable at once."""
        seq = self._next_seq()
        job = ServiceJob(
            job_id=f"job-{seq:06d}",
            tenant=tenant,
            priority=priority,
            seq=seq,
            status="running",
            store=store,
            relay=True,
        )
        job.state = self._new_state(
            units, store, lease_policy or self._job_lease_policy(None), progress
        )
        self._register(job)
        return job

    def _next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _register(self, job: ServiceJob) -> None:
        with self._lock:
            self._jobs[job.job_id] = job
            self._order.append(job)
            if job.status == "running" and job.tenant not in self._vtime:
                # A tenant joining late starts at the current virtual
                # floor, not zero — otherwise it would monopolize the
                # pool until its clock caught up.
                floor = min(self._vtime.values(), default=0.0)
                self._vtime[job.tenant] = floor
        if job.status == "running" and self._pool is not None:
            # A fresh job gets a fresh respawn budget: its crashes are
            # charged to it, not to whatever ran before.
            self._pool.new_job_epoch()

    def _job_lease_policy(self, spec_lease: LeaseSpec) -> LeasePolicy:
        """A fresh per-job policy: the job spec's ``lease`` field wins,
        else the master default — never a shared EWMA instance."""
        spec = spec_lease if spec_lease is not None else self._lease_spec
        policy = LeasePolicy.from_spec(spec, target_seconds=2.0 * self.heartbeat)
        if policy is spec:
            policy = policy.clone()
        return policy

    def _new_state(
        self, units, store, lease_policy: LeasePolicy, progress=None
    ) -> _MasterState:
        # SpeculationPolicy is stateless configuration (the per-job
        # launch budget counter lives in _MasterState), so sharing the
        # master-wide instance across jobs is safe.
        return _MasterState(
            units,
            store,
            progress,
            lease_policy=lease_policy,
            speculation=self.speculation,
            steal=self.steal,
        )

    def _maybe_finish(self, job: ServiceJob) -> None:
        if job.state is None or not job.state.is_complete():
            return
        with self._lock:
            if job.status != "running":
                return
            job.final_counts = job.state.progress_counts()
            job.status = "done"
        job.persist()
        if job.store is not None and not job.relay:
            job.store.close()

    # ----------------------------------------------------------- scheduling

    def _checkout(
        self, conn_id: int, lc: _LineConn
    ) -> Optional[tuple[ServiceJob, object]]:
        """One scheduling pass over all runnable jobs in fair-share
        order; ``None`` when no job has claimable work right now.

        Pass 1 offers only pending queues (an idle worker drains other
        jobs before stealing within one); pass 2 allows steal and
        speculation.  A successful grant advances the winning tenant's
        virtual time by ``1 / (1 + priority)`` — the weighted-fair-share
        clock."""
        with self._lock:
            by_tenant: dict[str, list[ServiceJob]] = {}
            for job in self._order:
                if job.status == "running" and job.state is not None:
                    by_tenant.setdefault(job.tenant, []).append(job)
            tenants = sorted(by_tenant, key=lambda t: (self._vtime.get(t, 0.0), t))
            workers = self._workers
        for pending_only in (True, False):
            for tenant in tenants:
                jobs = sorted(by_tenant[tenant], key=lambda j: (-j.priority, j.seq))
                weight = 1 + max(j.priority for j in jobs)
                for job in jobs:
                    lease, revoke = job.state.try_checkout(
                        conn_id, lc, workers, pending_only=pending_only
                    )
                    if revoke is not None:
                        # Sent outside every lock: a victim with a full
                        # TCP buffer must not stall the other handlers.
                        # Advisory — the units are already re-leased; a
                        # victim that never reads it just loses the race.
                        _send_revoke(*revoke)
                    if lease is not None:
                        with self._lock:
                            self._vtime[tenant] = (
                                self._vtime.get(tenant, 0.0) + 1.0 / weight
                            )
                        return job, lease
        return None

    # ------------------------------------------------------------- serving

    def _accept_loop(self) -> None:
        self._server.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="campaign-master-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        lc = _LineConn(conn)
        with self._lock:
            self._conns.add(lc)
        try:
            first = lc.recv(timeout=self._dead_after)
            self._dispatch(lc, first)
        except (ConnectionError, OSError, socket.timeout, json.JSONDecodeError):
            pass
        finally:
            with self._lock:
                self._conns.discard(lc)
            lc.close()

    def _dispatch(self, lc: _LineConn, first: dict) -> None:
        """Serve one connection by its first message; a root-less master
        serves workers only."""
        if first.get("type") == "hello":
            self._serve_worker(lc, first)

    def _serve_worker(self, lc: _LineConn, hello: dict) -> None:
        if hello.get("proto") != PROTO_VERSION:
            # Every peer ships from this repo and speaks one version; a
            # stale or foreign worker is turned away before it can lease.
            lc.send({
                "type": "error",
                "error": f"wire protocol {hello.get('proto')!r} is not "
                         f"supported: this master speaks {PROTO_VERSION}",
                "key": "proto",
            })
            return
        with self._lock:
            self._next_conn_id += 1
            conn_id = self._next_conn_id
            self._workers += 1
            self.activity += 1
        # Honor the worker's own heartbeat cadence (it may have been
        # started with --heartbeat much larger than the master's): the
        # deadness deadline is per-connection, from the hello.
        worker_beat = float(hello.get("heartbeat", self.heartbeat))
        dead_after = max(self._dead_after, worker_beat * DEAD_AFTER_BEATS)
        # unit_id -> owning job for everything ever leased to this
        # connection: a stale ack (revoked unit, replayed delivery) must
        # route to the job that leased it.  Unit ids can collide across
        # jobs running the same spec; last lease wins, which at worst
        # lands an *identical* row in the twin job's store (idempotent
        # append) — never a wrong row.
        ever_leased: dict[str, ServiceJob] = {}
        lease_job: Optional[ServiceJob] = None
        try:
            while not self._stop.is_set():
                claim = self._checkout(conn_id, lc)
                if claim is None:
                    # Nothing leasable: consume heartbeats (and notice a
                    # dead worker) while idling between jobs.
                    try:
                        message = lc.recv(timeout=0.2)
                    except socket.timeout:
                        continue
                    self.activity += 1
                    if message.get("type") == "result":
                        self._stale_result(message, ever_leased)
                    continue
                job, lease = claim
                lease_job = job
                for uid in lease.remaining:
                    ever_leased[uid] = job
                # The lease is tracked in the job's state BEFORE the
                # send: if the worker died at the lease boundary (send
                # raises), the claimed units requeue, not strand.
                lc.send(
                    {"type": "lease", "units": [u.to_dict() for u in lease.units()]}
                )
                # Serve acks until the lease drains — by this worker's
                # results or by a thief stealing the remainder.
                while lease.remaining:
                    message = lc.recv(timeout=dead_after)
                    self.activity += 1
                    if self._stop.is_set():
                        # Closing the connection (in _serve_connection)
                        # is what unwedges a worker stalled mid-lease.
                        return
                    kind = message.get("type")
                    if kind == "heartbeat":
                        continue
                    if kind != "result":
                        raise ConnectionError(
                            f"unexpected message type {kind!r}"
                        )
                    unit_id = message.get("unit_id")
                    unit, attempt = job.state.ack(conn_id, unit_id)
                    if unit is None:
                        self._stale_result(message, ever_leased)
                        continue
                    result = result_from_dict(
                        message["result"], unit.granularity, unit.rep
                    )
                    job.state.complete(unit, result, attempt=attempt)
                    seconds = message.get("seconds")
                    if seconds is not None:
                        job.state.lease_policy.observe(float(seconds))
                    self._maybe_finish(job)
                job.state.retire_lease(conn_id)
                lease_job = None
            lc.send({"type": "shutdown"})
        finally:
            # A worker that died or went silent has the *unfinished
            # remainder* of its lease put back on the queue (per-unit
            # acks mean completed units never rerun).
            if lease_job is not None:
                lease_job.state.requeue_lease(conn_id)
            with self._lock:
                self._workers -= 1

    def _stale_result(
        self, message: dict, ever_leased: Mapping[str, ServiceJob]
    ) -> None:
        """Route a result outside any current lease to the job that
        once leased it here — first ack wins, the copy still routes
        through the store so the losing attempt is counted.  Anything
        else is a buggy worker and kills the connection, requeueing its
        lease."""
        unit_id = message.get("unit_id")
        owner = ever_leased.get(unit_id)
        unit = owner.state.lookup(unit_id) if owner is not None else None
        if unit is None:
            raise ConnectionError(
                f"result for {unit_id!r} outside this worker's leases"
            )
        result = result_from_dict(message["result"], unit.granularity, unit.rep)
        owner.state.complete(unit, result, attempt="stale")
        self._maybe_finish(owner)

    # ----------------------------------------------------------- processes

    def _spawn_worker(self, extra_args: Sequence[str]) -> subprocess.Popen:
        host, port = self.address
        env = os.environ.copy()
        # Workers must resolve `repro` exactly like the master process.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        cmd = [
            sys.executable,
            "-m",
            "repro.cli",
            "campaign",
            "worker",
            f"{host}:{port}",
            "--heartbeat",
            str(self.heartbeat),
            *extra_args,
        ]
        return subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )


def _send_revoke(lc: _LineConn, unit_ids: list[str]) -> None:
    try:
        lc.send({"type": "revoke", "unit_ids": unit_ids})
    except OSError:
        pass  # victim already dead; its lease requeues on reap


class CampaignService(_Master):
    """A long-lived campaign master serving many jobs on one worker pool.

    ``root`` is the durable service directory (jobs live under
    ``root/jobs/<job_id>``); starting a service on a root that already
    holds jobs *resumes* every incomplete one.  ``spawn_workers`` is an
    int or a sequence of extra-argv lists exactly like
    :class:`SocketExecutor`; external ``repro-ftsched campaign worker``
    processes can connect at any time and are shared across jobs.
    ``lease`` / ``speculate`` / ``steal`` set the service-wide defaults;
    each job gets its *own* lease policy (a submitted spec's ``lease``
    field overrides the default for that job).
    """

    def __init__(
        self,
        root: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: Union[int, Sequence[Sequence[str]]] = 0,
        heartbeat: float = DEFAULT_HEARTBEAT,
        lease: LeaseSpec = None,
        speculate: SpeculationSpec = None,
        steal: Union[str, bool, None] = None,
        job_ttl: Optional[float] = None,
    ) -> None:
        super().__init__(host, port, spawn_workers, heartbeat, lease, speculate, steal)
        self.root = Path(root)
        if job_ttl is not None and job_ttl < 0:
            raise ValueError(f"job ttl must be >= 0, got {job_ttl}")
        #: prune terminal job dirs older than this many seconds (None
        #: keeps them forever); swept at start and periodically while
        #: serving
        self.job_ttl = job_ttl
        self._last_gc = time.monotonic()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> tuple[str, int]:
        """Bind, recover incomplete jobs from the root, spawn the worker
        pool, and start serving; returns the actually-bound address."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        if self.job_ttl is not None:
            gc_job_dirs(self.root, self.job_ttl)
        self._recover_jobs()
        address = self.listen()
        _atomic_write_json(
            self.root / SERVICE_FILE_NAME,
            {"host": address[0], "port": address[1], "pid": os.getpid()},
        )
        self.start_workers()
        threading.Thread(
            target=self._supervise_loop,
            name="campaign-service-supervise",
            daemon=True,
        ).start()
        return address

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (the CLI's foreground loop)."""
        while not self._stop.wait(timeout=0.5):
            if self.job_ttl is not None:
                interval = max(1.0, min(self.job_ttl, 60.0))
                if time.monotonic() - self._last_gc >= interval:
                    self.gc_now()

    def gc_now(self) -> list[str]:
        """Run one TTL sweep immediately; returns the removed job ids.

        Removed jobs are also unregistered from the live tables so
        ``jobs`` / ``status`` stop reporting them.  No-op when the
        service has no ``job_ttl``.
        """
        self._last_gc = time.monotonic()
        if self.job_ttl is None:
            return []
        removed = gc_job_dirs(self.root, self.job_ttl)
        if removed:
            with self._lock:
                for job_id in removed:
                    job = self._jobs.pop(job_id, None)
                    if job is not None:
                        self._order.remove(job)
        return removed

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to return — safe from a signal
        handler (only sets an event; the teardown runs in the caller)."""
        self._stop.set()

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    def _supervise_loop(self) -> None:
        while not self._stop.wait(timeout=0.2):
            self.supervise()

    # ------------------------------------------------------------ recovery

    def _recover_jobs(self) -> None:
        """Rescan ``root/jobs`` and resume every incomplete job.

        Terminal jobs (done/cancelled/failed) register for ``status`` /
        ``jobs`` queries without a live state; incomplete ones re-open
        their store (``open_store`` backend sniffing), verify the
        manifest against the recorded spec's grid, and lease out exactly
        the units the store does not hold yet."""
        for job_dir in sorted(self.jobs_dir.glob("job-*")):
            job_file = job_dir / JOB_FILE_NAME
            if not job_file.exists():
                continue  # a kill landed before job.json: nothing leased
            try:
                seq = int(job_dir.name.split("-", 1)[1])
            except ValueError:
                continue
            self._seq = max(self._seq, seq)
            try:
                meta = json.loads(job_file.read_text())
            except (OSError, json.JSONDecodeError):
                continue  # torn writes are impossible (atomic rename)
            job = ServiceJob(
                job_id=meta["job_id"],
                tenant=meta.get("tenant", "default"),
                priority=int(meta.get("priority", 0)),
                seq=seq,
                status=meta.get("state", "running"),
                directory=job_dir,
                final_counts=(
                    int(meta.get("done", 0)),
                    int(meta.get("total", 0)),
                ),
            )
            try:
                job.spec = CampaignSpec.from_dict(meta["spec"])
            except (KeyError, CampaignConfigError) as exc:
                job.status = "failed"
                job.error = f"unrecoverable spec: {exc}"
                self._register(job)
                continue
            if job.status in TERMINAL_JOB_STATES:
                self._register(job)
                continue
            try:
                self._resume_job(job)
            except Exception as exc:  # a corrupt store must not kill start
                job.status = "failed"
                job.error = f"resume failed: {exc}"
                job.persist()
            self._register(job)

    def _resume_job(self, job: ServiceJob) -> None:
        store_dir = job.directory / "store"
        grid = job.spec.grid()
        extra = self._manifest_extra(job)
        if store_dir.exists():
            store = open_store(store_dir)
        else:  # killed between job.json and the first manifest write
            store = make_store(job.spec.store.resolved_backend, store_dir)
        store.ensure_manifest(grid, extra=extra)
        completed = store.completed_ids()
        todo = [u for u in grid.units() if u.unit_id not in completed]
        job.store = store
        if not todo:
            job.status = "done"
            job.final_counts = (grid.total_units, grid.total_units)
            job.persist()
            store.close()
            job.store = None
            return
        job.state = self._new_state(
            todo, store, self._job_lease_policy(job.spec.lease)
        )
        job.status = "running"
        job.persist()

    # ------------------------------------------------------------- submit

    def submit_spec(
        self,
        data: Mapping,
        tenant: str = "default",
        priority: int = 0,
    ) -> dict:
        """Register one campaign-spec job; returns its status snapshot.

        The spec validates exactly like a local campaign
        (:class:`CampaignConfigError` names the offending key), then its
        store is rewritten under the job directory — ``memory`` becomes
        ``jsonl`` so every service job survives a restart — and its
        executor field is dropped (the service *is* the executor)."""
        tenant, priority = self._check_tenant(tenant, priority)
        seq = self._next_seq()
        job_id = f"job-{seq:06d}"
        job_dir = self.jobs_dir / job_id
        store_dir = job_dir / "store"
        payload = dict(data)
        store_tbl = dict(payload.get("store") or {})
        if store_tbl.get("backend") in (None, "memory"):
            store_tbl["backend"] = "jsonl"
        store_tbl["directory"] = str(store_dir)
        payload["store"] = store_tbl
        spec = CampaignSpec.from_dict(payload)
        spec = replace(spec, executor=ExecutorSpec())
        grid = spec.grid()
        job = ServiceJob(
            job_id=job_id,
            tenant=tenant,
            priority=priority,
            seq=seq,
            status="running",
            spec=spec,
            directory=job_dir,
        )
        job_dir.mkdir(parents=True, exist_ok=True)
        store = make_store(spec.store.resolved_backend, store_dir)
        store.ensure_manifest(grid, extra=self._manifest_extra(job))
        job.store = store
        job.state = self._new_state(
            grid.units(), store, self._job_lease_policy(spec.lease)
        )
        job.persist()
        self._register(job)
        return job.snapshot()

    def submit_units(
        self,
        units: Sequence[WorkUnit],
        lc: _LineConn,
        tenant: str = "default",
        priority: int = 0,
    ) -> ServiceJob:
        """Register a relay job: results stream back over ``lc``."""
        tenant, priority = self._check_tenant(tenant, priority)
        if not units:
            raise CampaignConfigError("submit_units with no units")
        return self.add_job(
            units, _RelayStore(lc), tenant=tenant, priority=priority
        )

    def _check_tenant(self, tenant, priority) -> tuple[str, int]:
        if not isinstance(tenant, str) or not tenant:
            raise CampaignConfigError(
                f"bad tenant {tenant!r}: expected a non-empty string",
                key="tenant",
            )
        if not isinstance(priority, int) or isinstance(priority, bool) or priority < 0:
            raise CampaignConfigError(
                f"bad priority {priority!r}: expected an integer >= 0",
                key="priority",
            )
        return tenant, priority

    def _manifest_extra(self, job: ServiceJob) -> dict:
        return {
            "service": {
                "job_id": job.job_id,
                "tenant": job.tenant,
                "priority": job.priority,
            }
        }

    # -------------------------------------------------------------- queries

    def status(self, job_id: str) -> dict:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise CampaignConfigError(
                f"unknown job {job_id!r}", key="job_id"
            )
        return job.snapshot()

    def jobs(self) -> list[dict]:
        with self._lock:
            order = list(self._order)
        return [job.snapshot() for job in order]

    def cancel(self, job_id: str) -> dict:
        """Stop leasing a job's units and revoke what is outstanding.

        Workers already computing a cancelled unit finish it; their acks
        land as stale and are swallowed.  Terminal jobs cancel as a
        no-op (the snapshot reports the state they already reached)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise CampaignConfigError(
                    f"unknown job {job_id!r}", key="job_id"
                )
            if job.status != "running":
                return job.snapshot()
            job.final_counts = job.counts()
            job.status = "cancelled"
        for lc, unit_ids in job.state.abort() if job.state is not None else ():
            _send_revoke(lc, unit_ids)
        job.persist()
        if job.store is not None and not job.relay:
            job.store.close()
        return job.snapshot()

    # ------------------------------------------------------------- serving

    def _dispatch(self, lc: _LineConn, first: dict) -> None:
        kind = first.get("type")
        if kind == "hello":
            self._serve_worker(lc, first)
        elif kind == "submit_units":
            self._serve_relay_client(lc, first)
        else:
            self._serve_client(lc, first)

    def _serve_client(self, lc: _LineConn, first: dict) -> None:
        """Request/response client connection (``submit`` / ``status`` /
        ``jobs`` / ``cancel``); serves until the client hangs up."""
        message = first
        while True:
            lc.send(self._client_reply(message))
            message = lc.recv(timeout=self._dead_after)

    def _client_reply(self, message: dict) -> dict:
        kind = message.get("type")
        try:
            if kind == "submit":
                snap = self.submit_spec(
                    message.get("spec") or {},
                    tenant=message.get("tenant", "default"),
                    priority=message.get("priority", 0),
                )
                return {"type": "submitted", **snap}
            if kind == "status":
                return {"type": "status", **self.status(message.get("job_id"))}
            if kind == "jobs":
                return {"type": "jobs", "jobs": self.jobs()}
            if kind == "cancel":
                return {"type": "cancelled", **self.cancel(message.get("job_id"))}
            raise CampaignConfigError(f"unknown message type {kind!r}")
        except CampaignConfigError as exc:
            return {"type": "error", "error": str(exc), "key": exc.key}

    def _serve_relay_client(self, lc: _LineConn, first: dict) -> None:
        """A ``submit_units`` connection: register the relay job, then
        watch the connection until the job drains (sending
        ``job_done``) or the client vanishes (cancelling the job)."""
        try:
            units = [WorkUnit.from_dict(d) for d in first.get("units") or []]
            job = self.submit_units(
                units,
                lc,
                tenant=first.get("tenant", "default"),
                priority=first.get("priority", 0),
            )
        except (CampaignConfigError, KeyError, TypeError, ValueError) as exc:
            lc.send({"type": "error", "error": str(exc), "key": None})
            return
        lc.send({"type": "submitted", **job.snapshot()})
        try:
            while not self._stop.is_set():
                if job.state.is_complete():
                    self._maybe_finish(job)
                    lc.send({"type": "job_done", "job_id": job.job_id})
                    return
                try:
                    message = lc.recv(timeout=0.2)
                except socket.timeout:
                    continue
                if message.get("type") == "cancel":
                    self.cancel(job.job_id)
                    lc.send({"type": "cancelled", **job.snapshot()})
                    return
        finally:
            # Whatever ends this connection ends the job: results have
            # nowhere to go without it.
            if job.status == "running":
                self.cancel(job.job_id)


# ------------------------------------------------------------------ clients


def _parse_address(address: Union[str, tuple[str, int]]) -> tuple[str, int]:
    if isinstance(address, tuple):
        return address[0], int(address[1])
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise CampaignConfigError(
            f"bad service address {address!r}: expected HOST:PORT",
            key="executor.address",
        )
    return host, int(port)


class ServiceClient:
    """Thin request/response client for a running :class:`CampaignService`.

    One connection per request; ``error`` replies raise
    :class:`CampaignConfigError` carrying the server's ``key``."""

    def __init__(
        self, address: Union[str, tuple[str, int]], timeout: float = 30.0
    ) -> None:
        self.host, self.port = _parse_address(address)
        self.timeout = timeout

    def _request(self, message: dict) -> dict:
        sock = _connect_with_backoff(self.host, self.port, retries=3)
        lc = _LineConn(sock)
        try:
            lc.send(message)
            reply = lc.recv(timeout=self.timeout)
        finally:
            lc.close()
        if reply.get("type") == "error":
            raise CampaignConfigError(reply["error"], key=reply.get("key"))
        return reply

    def submit(
        self,
        spec: Union[CampaignSpec, Mapping],
        tenant: str = "default",
        priority: int = 0,
    ) -> dict:
        """Submit a campaign spec; returns the job's status snapshot."""
        payload = spec.to_dict() if isinstance(spec, CampaignSpec) else dict(spec)
        return self._request(
            {
                "type": "submit",
                "spec": payload,
                "tenant": tenant,
                "priority": priority,
            }
        )

    def submit_handle(
        self,
        spec: Union[CampaignSpec, Mapping],
        tenant: str = "default",
        priority: int = 0,
    ) -> "ServiceJobHandle":
        snap = self.submit(spec, tenant=tenant, priority=priority)
        return ServiceJobHandle(
            client=self,
            job_id=snap["job_id"],
            store_directory=snap.get("store"),
        )

    def status(self, job_id: str) -> dict:
        return self._request({"type": "status", "job_id": job_id})

    def jobs(self) -> list[dict]:
        return self._request({"type": "jobs"})["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request({"type": "cancel", "job_id": job_id})

    def wait(
        self, job_id: str, timeout: Optional[float] = None, poll: float = 0.2
    ) -> dict:
        """Poll until the job reaches a terminal state; returns the
        final snapshot (raises ``TimeoutError`` past ``timeout``)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            snap = self.status(job_id)
            if snap["state"] != "running":
                return snap
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {snap['state']} after {timeout:.0f}s "
                    f"({snap['done']}/{snap['total']} units)"
                )
            time.sleep(poll)


@dataclass
class ServiceJobHandle:
    """A submitted job as seen by the client: poll, wait, read rows."""

    client: ServiceClient
    job_id: str
    store_directory: Optional[str] = None

    def status(self) -> dict:
        return self.client.status(self.job_id)

    def cancel(self) -> dict:
        return self.client.cancel(self.job_id)

    def wait(self, timeout: Optional[float] = None, poll: float = 0.2) -> dict:
        snap = self.client.wait(self.job_id, timeout=timeout, poll=poll)
        if snap["state"] != "done":
            raise RuntimeError(
                f"job {self.job_id} ended {snap['state']}"
                + (f": {snap['error']}" if snap.get("error") else "")
            )
        return snap

    def open_store(self) -> RunStore:
        """Open the job's store read-only — valid while the job runs
        (live partial rows) or after it finishes."""
        if self.store_directory is None:
            raise CampaignConfigError(
                f"job {self.job_id} has no client-visible store"
            )
        return open_store(self.store_directory)


class ServiceExecutor:
    """The :class:`~repro.experiments.executors.base.Executor` backed by
    a running campaign service (``ExecutorSpec(kind="service",
    address="HOST:PORT")``).

    ``run`` streams the units to the service as a ``submit_units`` job
    and appends each returned result to the *local* store as it arrives
    — results round-trip JSON exactly, so rows are bit-identical to a
    serial run.  ``timeout`` is a no-activity deadline on the
    connection, mirroring the socket master's."""

    name = "service"

    def __init__(
        self,
        address: Union[str, tuple[str, int]],
        tenant: str = "default",
        priority: int = 0,
        timeout: Optional[float] = 300.0,
    ) -> None:
        self.host, self.port = _parse_address(address)
        self.tenant = tenant
        self.priority = priority
        self.timeout = timeout
        self.job_id: Optional[str] = None

    def run(
        self,
        units: Sequence[WorkUnit],
        store: RunStore,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        if not units:
            return
        by_id = {u.unit_id: u for u in units}
        sock = _connect_with_backoff(self.host, self.port)
        lc = _LineConn(sock)
        try:
            lc.send(
                {
                    "type": "submit_units",
                    "units": [u.to_dict() for u in units],
                    "tenant": self.tenant,
                    "priority": self.priority,
                }
            )
            reply = lc.recv(timeout=self.timeout)
            if reply.get("type") == "error":
                raise CampaignConfigError(
                    reply["error"], key=reply.get("key")
                )
            self.job_id = reply.get("job_id")
            done: set[str] = set()
            while len(done) < len(by_id):
                message = lc.recv(timeout=self.timeout)
                kind = message.get("type")
                if kind == "result":
                    unit = by_id.get(message.get("unit_id"))
                    if unit is None or unit.unit_id in done:
                        continue
                    result = result_from_dict(
                        message["result"], unit.granularity, unit.rep
                    )
                    store.append(unit, result)
                    done.add(unit.unit_id)
                    if progress is not None:
                        progress(
                            f"[{len(done)}/{len(by_id)}] {unit.unit_id} "
                            f"(service {self.host}:{self.port})"
                        )
                elif kind == "job_done":
                    break
                elif kind == "error":
                    raise RuntimeError(
                        f"service failed job {self.job_id}: "
                        f"{message.get('error')}"
                    )
            missing = [uid for uid in by_id if uid not in done]
            if missing:
                raise RuntimeError(
                    f"service job {self.job_id} ended with "
                    f"{len(missing)} unit(s) missing (first: {missing[0]})"
                )
        except socket.timeout:
            raise TimeoutError(
                f"service {self.host}:{self.port} sent nothing for "
                f"{self.timeout:.0f}s (job {self.job_id}, "
                f"{len(by_id)} unit(s) submitted)"
            ) from None
        finally:
            lc.close()


__all__ = [
    "CampaignService",
    "ServiceClient",
    "ServiceExecutor",
    "ServiceJob",
    "ServiceJobHandle",
    "JOB_FILE_NAME",
    "SERVICE_FILE_NAME",
]
