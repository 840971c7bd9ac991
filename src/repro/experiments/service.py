"""The campaign master, and the persistent multi-tenant service on it.

:class:`_Master` is the one master in this package: a listening
socket, a local worker pool and one ``selectors`` loop around a
:class:`~repro.experiments.executors.master_core.MasterCore`, which
makes every decision (leases, crash requeue, stealing, speculation,
first-ack-wins dedup, fair share, respawns) from events and an
injected clock.  The
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

**Scheduling** is two-level (``MasterCore._grant``).  Across tenants:
weighted fair queuing — a tenant's virtual time advances by
``1 / (1 + priority)`` per grant and the smallest goes first (ties by
name), so a priority-1 tenant gets twice a priority-0 tenant's grants
and neither starves.  Within a tenant: highest priority, then
submission order.  An idle worker drains *pending* queues across all
jobs before stealing or speculating within one.

**Durability**: every submitted spec's store is rewritten under
``root/jobs/<job_id>/store`` (an in-memory store becomes JSONL);
``job.json`` beside it, and the store manifest's ``extra`` metadata,
record the job's identity and state.  On start the service rescans
``root/jobs``, re-opens every incomplete job's store via
:func:`~repro.experiments.store.open_store` and leases exactly the
units missing from it, so a SIGKILLed service restarted on the same
root finishes every interrupted job bit-identically.  While jobs run,
``status`` reports live done/total counts and the store directory can
be opened read-only with ``open_store`` / ``StoreCampaignView``.

``submit_units`` jobs are the executor client path
(``ExecutorSpec(kind="service", address=...)``): the units stream in
over the connection, results stream back, and the *client* owns the
store — these jobs are not recoverable and die with their connection.
"""

from __future__ import annotations

import itertools
import json
import os
import selectors
import shutil
import socket
import subprocess
import sys
import threading
import time
import traceback
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
from repro.experiments.executors.master_core import (
    Close,
    Job,
    MasterCore,
    Send,
    Spawn,
)
from repro.experiments.executors.socket import (
    DEFAULT_HEARTBEAT,
    WorkerPool,
    _connect_with_backoff,
    _encode,
    _LineConn,
)
from repro.experiments.grid import WorkUnit
from repro.experiments.store import (
    RunStore,
    make_store,
    open_store,
    result_from_dict,
)
from repro.utils.errors import CampaignConfigError

#: file beside each job's store recording identity and terminal state
JOB_FILE_NAME = "job.json"
#: file in the service root recording the live service's bound address
SERVICE_FILE_NAME = "service.json"
#: how long a clean :meth:`_Master.stop` waits for workers to take their
#: ``shutdown`` before terminating whatever is still running
STOP_GRACE_S = 2.0
#: how often the master's loop feeds the core the clock (dead-man
#: deadlines, speculation stalls) and local worker exits (respawns)
TICK_S = 0.1


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


class ServiceJob(Job):
    """One service job: the master core's :class:`~repro.experiments.
    executors.master_core.Job` plus what the service persists — its
    spec, directory, error and terminal counts."""

    def __init__(
        self,
        job_id: str,
        seq: int,
        tenant: str = "default",
        priority: int = 0,
        status: str = "running",
        spec: Optional[CampaignSpec] = None,
        directory: Optional[Path] = None,
        error: Optional[str] = None,
        final_counts: Optional[tuple[int, int]] = None,
        **live,
    ) -> None:
        super().__init__(
            job_id, tenant=tenant, priority=priority, seq=seq, status=status, **live
        )
        self.spec = spec
        self.directory = directory
        self.error = error
        #: done/total fixed when the job ended (recovered terminal jobs
        #: have no live state to count from)
        self.final_counts = final_counts

    def counts(self) -> tuple[int, int]:
        return self.final_counts or super().counts()

    def ended(self) -> None:
        """Record the terminal state; close and let go of the store if
        the service owns it (a relay job's results belong to its
        client).  Its rows stay readable from the job directory."""
        self.persist()
        if self.directory is not None:
            self.store.close()
            self.store = None

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


def _decode_result(payload: dict, unit: WorkUnit):
    # Through this module's name, so a wrapper on `result_from_dict`
    # here (perfbench's `wire.decode` span) sees every master decode.
    return result_from_dict(payload, unit.granularity, unit.rep)


def _type(message) -> Optional[str]:
    return message.get("type") if isinstance(message, dict) else None


class _Peer(_LineConn):
    """One accepted connection: its line buffer, its queued output, and
    the ``kind`` its first message made it (worker, client or relay)."""

    def __init__(self, conn_id: int, sock: socket.socket, now: float) -> None:
        super().__init__(sock)
        self.id = conn_id
        self.opened = now
        self.kind: Optional[str] = None
        #: a relay client's job
        self.job_id: Optional[str] = None
        self.outbox = bytearray()
        #: close once the outbox is written
        self.closing = False


class _Master:
    """The sockets and processes around a
    :class:`~repro.experiments.executors.master_core.MasterCore`: the
    listening socket, the local :class:`WorkerPool`, and one
    ``selectors`` loop (:meth:`turn`) that turns the lines it reads into
    core events, feeds the core the clock and local worker exits every
    :data:`TICK_S`, and writes each connection's queued output without
    blocking, so a peer that stops reading stalls only itself.  One lock
    guards the core and the queued output for in-process callers
    (:meth:`add_job`, the service's verbs), which wake the loop through
    a socket pair (DESIGN.md, "The master core").

    Root-less — jobs live in memory and results go to the store each job
    was registered with.  :class:`CampaignService` adds the durable root
    and the client verbs and turns the loop on a thread of its own;
    :class:`~repro.experiments.executors.socket.SocketExecutor` registers
    one job (:meth:`add_job`) on its own store and turns the loop on the
    caller's thread until the job ends.  ``spawn_workers`` is an int or
    a sequence of extra-argv lists (one local ``campaign worker``
    subprocess each); external ``repro-ftsched campaign worker``
    processes can connect at any time.  ``lease`` / ``speculate`` /
    ``steal`` are the defaults every job is leased with.
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
        if isinstance(spawn_workers, int):
            self._worker_specs: list[list[str]] = [[] for _ in range(spawn_workers)]
        else:
            self._worker_specs = [list(extra) for extra in spawn_workers]
        self.address: Optional[tuple[str, int]] = None
        self._server: Optional[socket.socket] = None
        self._pool: Optional[WorkerPool] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._core = MasterCore(
            heartbeat,
            SpeculationPolicy.from_spec(speculate),
            parse_steal(steal),
            slots=len(self._worker_specs),
            decode=_decode_result,
            now=time.monotonic(),
        )
        self._peers: dict[int, _Peer] = {}
        self._conn_ids = itertools.count(1)
        self._seq = 0
        self._sel: Optional[selectors.BaseSelector] = None
        self._waker: Optional[socket.socket] = None
        self._next_tick = 0.0
        #: the thread turning the loop, when it is not the caller's
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle

    def listen(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actually-bound address."""
        self._server = socket.create_server((self.host, self.port))
        self._server.setblocking(False)
        self.address = self._server.getsockname()[:2]
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._server, selectors.EVENT_READ)
        wakee, self._waker = socket.socketpair()
        self._waker.setblocking(False)
        self._sel.register(wakee, selectors.EVENT_READ)
        return self.address

    def start_workers(self) -> None:
        """Spawn the local worker pool against the bound address."""
        self._pool = WorkerPool(self._worker_specs, self._spawn_worker)
        self._pool.spawn_all()

    def turn(self) -> tuple[float, bool]:
        """One pass of the loop: wait for I/O until the next tick is
        due, turn what was read into core events, tick when due, and
        write what is queued.  Returns how long no worker has said
        anything, and whether every worker is gone for good."""
        timeout = max(0.0, self._next_tick - time.monotonic())
        for key, mask in self._sel.select(timeout):
            if key.fileobj is self._server:
                self._accept()
            elif key.data is None:
                key.fileobj.recv(4096)  # a wake-up: the writes below
            elif mask & selectors.EVENT_READ:
                self._read(key.data)
        now = time.monotonic()
        if now >= self._next_tick:
            self._next_tick = now + TICK_S
            self._tick(now)
        with self._lock:
            for peer in [p for p in self._peers.values() if p.outbox or p.closing]:
                self._write(peer)
            return now - self._core.last_activity, self._core.workers_gone()

    @property
    def respawns(self) -> int:
        return self._core.respawns

    def stop(self, clean: bool = True) -> list[int]:
        """Shut down; returns the exit code of every spawned worker.

        A clean stop gives workers :data:`STOP_GRACE_S` to take their
        ``shutdown`` and exit, then terminates whatever remains; an
        unclean one terminates at once.  Running jobs keep their state —
        a service's stay ``running`` on disk so the next start resumes
        them."""
        self._stop.set()
        self._wake()
        if self._thread is not None:
            self._thread.join()
        with self._lock:
            self._apply(self._core.stop(time.monotonic()))
            self._apply([Close(conn) for conn in self._peers])
        deadline = time.monotonic() + (STOP_GRACE_S if clean else 0.0)
        if self._sel is not None:
            self._sel.unregister(self._server)
            self._server.close()
            while self._peers and time.monotonic() < deadline:
                self.turn()
            for key in self._sel.get_map().values():
                key.fileobj.close()  # peers left, and the wake-up pair
            self._waker.close()
            self._sel.close()
            self._sel = None
        codes: list[int] = []
        if self._pool is not None:
            for proc in self._pool.procs:
                try:
                    proc.wait(max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    break
            self._pool.terminate_all()
            codes = self._pool.reap_all()
        return codes

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ----------------------------------------------------------------- jobs

    def add_job(self, job: Job) -> None:
        """Register a job; its units are leasable at once."""
        self._step(self._core.add_job, job)
        self._wake()

    def _next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _job_lease_policy(self, spec_lease: LeaseSpec) -> LeasePolicy:
        """A fresh per-job policy: the job spec's ``lease`` field wins,
        else the master default — never a shared EWMA instance."""
        spec = spec_lease if spec_lease is not None else self._lease_spec
        policy = LeasePolicy.from_spec(spec, target_seconds=2.0 * self.heartbeat)
        if policy is spec:
            policy = policy.clone()
        return policy

    # ---------------------------------------------------------------- core

    def _step(self, event, *args) -> None:
        """Run one core event (stamped with the clock) under the lock and
        carry out its actions."""
        with self._lock:
            self._apply(event(*args, time.monotonic()))

    def _apply(self, actions) -> None:
        """Carry out core actions; called with the lock held.  Sends and
        closes only queue work for the loop's next write."""
        for action in actions:
            if isinstance(action, Spawn):
                self._pool.respawn(action.slot)
            elif (peer := self._peers.get(action.conn)) is not None:
                if isinstance(action, Send):
                    peer.outbox += _encode(action.message)
                else:
                    peer.closing = True

    def _wake(self) -> None:
        """Have the loop take a turn now, to write what was queued from
        another thread."""
        if self._waker is not None:
            try:
                self._waker.send(b"\0")
            except OSError:
                pass  # stopped, or a wake-up already pending

    def _tick(self, now: float) -> None:
        """Feed the core the clock and the local workers' exits, and
        close connections that sent no first line within the dead-man
        deadline."""
        exits = self._pool.exited() if self._pool is not None else []
        for peer in list(self._peers.values()):
            if peer.kind is None and now - peer.opened >= self._core.dead_after:
                self._hang_up(peer)
        with self._lock:
            actions = self._core.tick(now)
            for slot, code in exits:
                actions += self._core.worker_exited(slot, code, now)
            self._apply(actions)

    # ------------------------------------------------------------- serving

    def _accept(self) -> None:
        try:
            sock, _addr = self._server.accept()
        except OSError:
            return  # the peer gave up before it was accepted
        sock.setblocking(False)
        peer = _Peer(next(self._conn_ids), sock, time.monotonic())
        self._peers[peer.id] = peer
        self._sel.register(sock, selectors.EVENT_READ, peer)

    def _read(self, peer: _Peer) -> None:
        try:
            peer.fill()
        except BlockingIOError:
            return
        except OSError:  # EOF included
            return self._hang_up(peer)
        while not peer.closing and (line := peer.pop_line()) is not None:
            try:
                message = json.loads(line)
            except ValueError:
                message = None  # served like any other malformed message
            try:
                self._serve(peer, message)
            except Exception:  # a bug costs its connection, not the master
                traceback.print_exc()
                self._hang_up(peer)

    def _write(self, peer: _Peer) -> None:
        """Write what the peer's socket takes now; called with the lock
        held.  A closing peer is closed once its outbox is empty."""
        try:
            while peer.outbox:
                del peer.outbox[: peer.sock.send(peer.outbox)]
        except BlockingIOError:
            pass
        except OSError:  # gone: reading it next reports the hang-up
            peer.outbox.clear()
        if peer.closing and not peer.outbox:
            self._sel.unregister(peer.sock)
            peer.close()
            del self._peers[peer.id]
        else:  # a closing peer is no longer read
            events = selectors.EVENT_WRITE if peer.outbox else 0
            if not peer.closing:
                events |= selectors.EVENT_READ
            self._sel.modify(peer.sock, events, peer)

    def _hang_up(self, peer: _Peer) -> None:
        """A connection ends: the core learns a worker or relay client
        is gone, and what is queued for it is written before it closes."""
        with self._lock:
            if peer.kind in ("worker", "relay"):
                self._apply(self._core.disconnect(peer.id, time.monotonic()))
            peer.closing = True

    def _serve(self, peer: _Peer, message) -> None:
        """Feed one message to the core.  The first classifies the
        connection; a root-less master serves workers only."""
        if peer.kind == "worker":
            self._step(self._core.message, peer.id, message)
        elif peer.kind is None and _type(message) == "hello":
            peer.kind = "worker"
            self._step(self._core.hello, peer.id, message)
        else:
            self._hang_up(peer)

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


def _service_extra(job_id: str, tenant: str, priority: int) -> dict:
    """The service identity a job's store manifest carries."""
    return {"service": {"job_id": job_id, "tenant": tenant, "priority": priority}}


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
        self._thread = threading.Thread(
            target=self._loop, name="campaign-service", daemon=True
        )
        self._thread.start()
        return address

    def serve_forever(self) -> None:
        """Block until :meth:`request_stop` or :meth:`stop` (the CLI's
        foreground wait)."""
        self._stop.wait()

    def stop(self, clean: bool = True) -> list[int]:
        codes = super().stop(clean)
        with self._lock:
            for job in self._core.jobs.values():
                if job.status == "running" and job.directory is not None:
                    job.store.close()
        return codes

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
        with self._lock:
            for job_id in removed:
                self._core.jobs.pop(job_id, None)
        return removed

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to return — safe from a signal
        handler (only sets an event; the teardown runs in the caller)."""
        self._stop.set()

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    def _loop(self) -> None:
        """The service's one thread: turn the loop until stopped, and
        sweep expired job directories every ``job_ttl`` (1 s to 60 s)."""
        while not self._stop.is_set():
            self.turn()
            if self.job_ttl is not None:
                interval = max(1.0, min(self.job_ttl, 60.0))
                if time.monotonic() - self._last_gc >= interval:
                    self.gc_now()

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
            identity = dict(
                job_id=meta["job_id"],
                seq=seq,
                tenant=meta.get("tenant", "default"),
                priority=int(meta.get("priority", 0)),
                directory=job_dir,
            )
            counts = (int(meta.get("done", 0)), int(meta.get("total", 0)))
            status = meta.get("state", "running")
            try:
                spec = CampaignSpec.from_dict(meta["spec"])
            except (KeyError, CampaignConfigError) as exc:
                job = ServiceJob(
                    **identity, status="failed", final_counts=counts,
                    error=f"unrecoverable spec: {exc}",
                )
            else:
                if status in TERMINAL_JOB_STATES:
                    job = ServiceJob(
                        **identity, status=status, spec=spec, final_counts=counts
                    )
                else:
                    try:
                        job = self._resume_job(identity, spec)
                    except Exception as exc:  # a corrupt store must not kill start
                        job = ServiceJob(
                            **identity, status="failed", spec=spec,
                            final_counts=counts, error=f"resume failed: {exc}",
                        )
                    job.persist()
            self.add_job(job)

    def _resume_job(self, identity: dict, spec: CampaignSpec) -> ServiceJob:
        store_dir = identity["directory"] / "store"
        grid = spec.grid()
        if store_dir.exists():
            store = open_store(store_dir)
        else:  # killed between job.json and the first manifest write
            store = make_store(spec.store.resolved_backend, store_dir)
        store.ensure_manifest(grid, extra=_service_extra(
            identity["job_id"], identity["tenant"], identity["priority"]
        ))
        completed = store.completed_ids()
        todo = [u for u in grid.units() if u.unit_id not in completed]
        if not todo:
            store.close()
            return ServiceJob(
                **identity, status="done", spec=spec,
                final_counts=(grid.total_units, grid.total_units),
            )
        return ServiceJob(
            **identity, spec=spec, units=todo, store=store,
            lease_policy=self._job_lease_policy(spec.lease),
        )

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
        if not isinstance(data, Mapping):
            raise CampaignConfigError(
                f"bad spec: expected an object, got {type(data).__name__}",
                key="spec",
            )
        seq = self._next_seq()
        job_id = f"job-{seq:06d}"
        job_dir = self.jobs_dir / job_id
        store_dir = job_dir / "store"
        payload = dict(data)
        store_tbl = payload.get("store") or {}
        if isinstance(store_tbl, Mapping):  # else from_dict names the error
            store_tbl = dict(store_tbl)
            if store_tbl.get("backend") in (None, "memory"):
                store_tbl["backend"] = "jsonl"
            store_tbl["directory"] = str(store_dir)
            payload["store"] = store_tbl
        spec = CampaignSpec.from_dict(payload)
        spec = replace(spec, executor=ExecutorSpec())
        grid = spec.grid()
        job_dir.mkdir(parents=True, exist_ok=True)
        store = make_store(spec.store.resolved_backend, store_dir)
        store.ensure_manifest(grid, extra=_service_extra(job_id, tenant, priority))
        job = ServiceJob(
            job_id, seq, tenant, priority, spec=spec, directory=job_dir,
            units=grid.units(), store=store,
            lease_policy=self._job_lease_policy(spec.lease),
        )
        job.persist()
        self.add_job(job)
        return job.snapshot()

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

    # -------------------------------------------------------------- queries

    def _job(self, job_id: str) -> ServiceJob:
        with self._lock:
            job = self._core.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise CampaignConfigError(f"unknown job {job_id!r}", key="job_id")
        return job

    def status(self, job_id: str) -> dict:
        return self._job(job_id).snapshot()

    def jobs(self) -> list[dict]:
        with self._lock:
            return [job.snapshot() for job in self._core.jobs.values()]

    def cancel(self, job_id: str) -> dict:
        """Stop leasing a job's units and revoke what is outstanding.

        Workers already computing a cancelled unit finish it; their acks
        are swallowed.  Terminal jobs cancel as a no-op (the snapshot
        reports the state they already reached)."""
        job = self._job(job_id)
        self._step(self._core.cancel_job, job_id)
        self._wake()
        return job.snapshot()

    # ------------------------------------------------------------- serving

    def _serve(self, peer: _Peer, message) -> None:
        """A worker, a request/response client (``submit`` / ``status``
        / ``jobs`` / ``cancel``, answered one by one until it hangs up)
        or a relay client, which may only ``cancel`` its job."""
        kind = _type(message)
        if peer.kind is None and kind == "submit_units":
            self._open_relay(peer, message)
        elif peer.kind == "relay":
            if kind == "cancel":
                self._send(peer, {"type": "cancelled", **self.cancel(peer.job_id)})
                self._hang_up(peer)
        elif peer.kind == "client" or (peer.kind is None and kind != "hello"):
            peer.kind = "client"
            self._send(peer, self._client_reply(message))
        else:
            super()._serve(peer, message)

    def _send(self, peer: _Peer, message: dict) -> None:
        with self._lock:
            self._apply([Send(peer.id, message)])

    def _client_reply(self, message) -> dict:
        kind = _type(message)
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

    def _open_relay(self, peer: _Peer, first: dict) -> None:
        """Register a ``submit_units`` job whose results, then
        ``job_done``, the core sends back to this peer.  Whatever ends
        the connection cancels the job: its results would have nowhere
        to go."""
        try:
            units = [WorkUnit.from_dict(d) for d in first.get("units") or []]
            tenant, priority = self._check_tenant(
                first.get("tenant", "default"), first.get("priority", 0)
            )
            if not units:
                raise CampaignConfigError("submit_units with no units")
        except (CampaignConfigError, KeyError, TypeError, ValueError) as exc:
            self._send(peer, {"type": "error", "error": str(exc), "key": None})
            self._hang_up(peer)
            return
        seq = self._next_seq()
        job = ServiceJob(
            f"job-{seq:06d}", seq, tenant, priority, units=units,
            client=peer.id, lease_policy=self._job_lease_policy(None),
        )
        peer.kind, peer.job_id = "relay", job.job_id
        self._send(peer, {"type": "submitted", **job.snapshot()})
        self.add_job(job)


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
            {"type": "submit", "spec": payload, "tenant": tenant, "priority": priority}
        )

    def submit_handle(
        self,
        spec: Union[CampaignSpec, Mapping],
        tenant: str = "default",
        priority: int = 0,
    ) -> "ServiceJobHandle":
        snap = self.submit(spec, tenant=tenant, priority=priority)
        return ServiceJobHandle(self, snap["job_id"], snap.get("store"))

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
            lc.send({
                "type": "submit_units", "units": [u.to_dict() for u in units],
                "tenant": self.tenant, "priority": self.priority,
            })
            reply = lc.recv(timeout=self.timeout)
            if reply.get("type") == "error":
                raise CampaignConfigError(reply["error"], key=reply.get("key"))
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
