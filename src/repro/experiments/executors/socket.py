"""Distributed campaign execution over TCP (master + remote workers).

The :class:`SocketExecutor` is a master in the mappy mould: it binds a
TCP port, streams :class:`~repro.experiments.grid.WorkUnit`\\ s to any
``repro-ftsched campaign worker`` process that connects — from this
machine or another — and appends results to the store as they arrive.
Workers heartbeat while computing; a worker that goes silent (crash,
kill, network partition) has its in-flight unit *requeued* for the next
live worker, so a campaign survives any worker failure as long as one
worker remains.  Fitting machinery for a paper about tolerating crashes.

Wire protocol: newline-delimited JSON, one message per line.  Version 2
adds batch leases — the master hands a worker several units per
round-trip and the worker acks each unit as it completes, so a dead
worker only requeues the *unfinished remainder* of its lease.  Version 3
adds ``revoke``: the master reclaims the unstarted remainder of a lease
from a straggling worker and re-leases it to an idle one (work
stealing).  Version 4 adds the campaign-service *client* messages
(``submit`` / ``status`` / ``jobs`` / ``cancel`` / ``submit_units``,
served by :mod:`repro.experiments.service`); the worker flow is
unchanged from v3.

======================  ==========================================  =========
message                 fields                                      direction
======================  ==========================================  =========
``hello``               ``worker`` (label), ``heartbeat`` (s),      w -> m
                        ``proto`` (int, absent = 1)
``unit``                ``unit`` (WorkUnit dict)           [v1]     m -> w
``lease``               ``units`` (list of WorkUnit dicts) [v2]     m -> w
``heartbeat``           —                                           w -> m
``result``              ``unit_id``, ``result`` (RepResult),        w -> m
                        ``seconds`` (compute time)         [v2]
``revoke``              ``unit_ids`` (units stolen from the         m -> w
                        lease; skip any not yet started)   [v3]
``shutdown``            —                                           m -> w
======================  ==========================================  =========

Version negotiation: the worker's ``hello`` names the highest protocol
it speaks and the master answers in ``min(worker, PROTO_VERSION)`` — a
v1 worker (no ``proto`` field) is streamed single ``unit`` messages
exactly as before, a v2 worker gets ``lease`` batches sized by the
master's :class:`~repro.experiments.executors.base.LeasePolicy`, and
only v3 workers are ever sent a ``revoke`` — a v2 worker keeps working
its lease un-revoked (the master simply never steals from it).

Straggler mitigation is master-side and per-connection:

* **Work stealing** (on by default): a worker that goes idle against an
  empty queue triggers a steal — the master removes all but the first
  remaining unit of the largest outstanding v3 lease (the head is what
  the victim is computing *right now*; everything behind it has not
  started), tells the victim via ``revoke``, and leases the reclaimed
  units to the idle worker tagged ``"stolen"``.
* **Speculation** (:class:`~repro.experiments.executors.base.
  SpeculationPolicy`, opt-in): when there is nothing to lease *or*
  steal, the master duplicates the head unit of a lease that has made
  no progress for ``slow_factor`` x the EWMA unit time onto the idle
  worker.  First ack wins; the loser's delivery is swallowed by the
  store's idempotent append and attributed in
  ``dedup_stats()["by_attempt"]``.  This is the only rescue for a
  *wedged* worker — one that heartbeats forever without finishing its
  unit, which the dead-man deadline can never catch.

Units carry their full config, so workers need no shared filesystem and
no campaign-specific state: connect, compute, reply.  Results round-trip
through JSON exactly (float ``repr``), keeping distributed rows
bit-identical to serial ones — whatever the lease size and whoever wins
a duplicated attempt.
"""

from __future__ import annotations

import json
import os
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Callable, Optional, Sequence, Union

from repro.experiments.executors.base import (
    LeasePolicy,
    LeaseSpec,
    ProgressFn,
    SpeculationPolicy,
    SpeculationSpec,
    parse_steal,
    unit_progress_line,
)
from repro.experiments.grid import WorkUnit
from repro.experiments.store import RunStore, result_from_dict, result_to_dict

#: highest wire-protocol version this build speaks (3 = lease
#: revocation; 4 = the campaign-service client messages ``submit`` /
#: ``status`` / ``jobs`` / ``cancel`` / ``submit_units`` — the worker
#: flow is unchanged from v3)
PROTO_VERSION = 4

#: worker process exit codes — the conformance harness asserts *why* a
#: worker died, so the injected fault must be distinguishable from a
#: genuine crash (exit 1) and a clean shutdown (exit 0)
WORKER_EXIT_OK = 0
WORKER_EXIT_ERROR = 1
WORKER_EXIT_FAULT_INJECTED = 3

#: how often a worker emits a heartbeat while connected
DEFAULT_HEARTBEAT = 0.5
#: master declares a worker dead after this many silent heartbeat periods
DEAD_AFTER_BEATS = 8
#: a worker that hears nothing from the master for this long gives up —
#: the master host vanished without a TCP FIN (power loss, partition).
#: Generous, because a worker legitimately idles while the master holds
#: it back waiting on another worker's in-flight unit (possible requeue).
WORKER_IDLE_TIMEOUT = 3600.0

#: how many times the master relaunches a spawned worker that genuinely
#: crashed (any exit code besides a clean shutdown and the injected
#: ``--max-units`` fault) — one crash must not strand local capacity for
#: the rest of the campaign, but a unit that crash-loops its worker must
#: not respawn forever
WORKER_RESPAWN_LIMIT = 2

#: initial-connect retry schedule: a worker often races the master's
#: bind (spawn scripts start both at once), so the connect retries with
#: exponential backoff — jittered, so a fleet of workers pointed at a
#: late master doesn't stampede it in lockstep
CONNECT_RETRIES = 8
CONNECT_BACKOFF_S = 0.1
CONNECT_BACKOFF_MAX_S = 2.0


def sockets_available() -> bool:
    """Can this host bind a localhost TCP port?  Sandboxes sometimes
    can't — callers (tests, benches) use this to skip the socket
    executor instead of failing on ``run``."""
    try:
        probe = socket.create_server(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


class _LineConn:
    """Newline-delimited JSON over one TCP socket, write-locked.

    Both sides write from two threads (workers: results from the main
    loop, heartbeats from a daemon; the master: leases from a handler
    thread, revokes from a thief's); the lock keeps lines atomic.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._rbuf = bytearray()
        self._wlock = threading.Lock()

    def send(self, message: dict) -> None:
        data = (json.dumps(message, separators=(",", ":")) + "\n").encode()
        with self._wlock:
            self.sock.sendall(data)

    def recv(self, timeout: Optional[float] = None) -> dict:
        """Next message; raises ``ConnectionError`` on EOF, ``TimeoutError``
        (``socket.timeout``) when the peer stays silent too long.

        Reads through an explicit buffer rather than ``sock.makefile``:
        a buffered file object that hits a timeout is poisoned for every
        later read, which would break callers that poll with short
        timeouts (the service's idle loops).  Here a timeout leaves any
        partial line in the buffer and the next call picks it back up.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            newline = self._rbuf.find(b"\n")
            if newline >= 0:
                line = bytes(self._rbuf[: newline + 1])
                del self._rbuf[: newline + 1]
                return json.loads(line)
            if deadline is None:
                self.sock.settimeout(None)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("no complete line before deadline")
                self.sock.settimeout(remaining)
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed the connection")
            self._rbuf.extend(chunk)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _reap_worker(proc: subprocess.Popen) -> int:
    try:
        return proc.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait(timeout=5.0)


class WorkerPool:
    """Lifecycle of locally spawned worker subprocesses — launch,
    bounded respawn, terminate, reap — shared by the one-shot campaign
    master and the long-lived campaign service.

    The respawn budget (:data:`WORKER_RESPAWN_LIMIT` relaunches per
    slot) is *per job*, not per pool lifetime: :meth:`new_job_epoch`
    resets it when a fresh job starts, so a service that outlives many
    campaigns never permanently strands a slot, while a unit that
    crash-loops its worker within one job still cannot respawn forever.
    A clean shutdown (exit 0) and the injected fault exit
    (:data:`WORKER_EXIT_FAULT_INJECTED`) are never respawned —
    whichever loop is supervising the pool.
    """

    def __init__(
        self,
        specs: Sequence[Sequence[str]],
        spawn_fn,
    ) -> None:
        self._specs = [list(extra) for extra in specs]
        self._spawn = spawn_fn
        self.procs: list[subprocess.Popen] = []
        self._budget = [0] * len(self._specs)
        self.replaced_codes: list[int] = []
        self.respawns = 0

    def spawn_all(self) -> None:
        """Launch every configured worker.

        A failure launching the Nth worker terminates and reaps the
        N-1 already running before propagating — a raised spawn must
        not orphan the children it already started."""
        try:
            for extra in self._specs:
                self.procs.append(self._spawn(extra))
        except BaseException:
            self.terminate_all()
            self.reap_all()
            raise

    def poll_respawn(self) -> None:
        """Relaunch spawned workers that genuinely crashed (never a
        clean shutdown or the injected fault exit), bounded per slot
        within the current job epoch."""
        for i, proc in enumerate(self.procs):
            code = proc.poll()
            if (
                code is None
                or code in (WORKER_EXIT_OK, WORKER_EXIT_FAULT_INJECTED)
                or self._budget[i] >= WORKER_RESPAWN_LIMIT
            ):
                continue
            self._budget[i] += 1
            self.respawns += 1
            self.replaced_codes.append(code)
            self.procs[i] = self._spawn(self._specs[i])

    def new_job_epoch(self) -> None:
        """Reset every slot's respawn budget — a new job's crashes are
        its own, not charged against a previous job's."""
        self._budget = [0] * len(self._specs)

    def all_exited(self) -> bool:
        return bool(self.procs) and all(p.poll() is not None for p in self.procs)

    def terminate_all(self) -> None:
        """Ask every live child to exit now (SIGTERM) — the exceptional
        exit path, where waiting out a worker's own shutdown would leave
        children running after the master is gone."""
        for proc in self.procs:
            if proc.poll() is None:
                try:
                    proc.terminate()
                except OSError:
                    pass

    def reap_all(self) -> list[int]:
        """Wait out (then kill) every child; the exit code of every
        worker the pool ever ran, replaced crashers included."""
        return self.replaced_codes + [_reap_worker(p) for p in self.procs]


class SocketExecutor:
    """TCP master that streams units to worker processes, requeues units
    from dead workers, and steals them back from straggling ones.

    ``spawn_workers`` launches that many local ``campaign worker``
    subprocesses against the bound port (an int, or a sequence of
    extra-argv lists for per-worker options — fault-injection tests pass
    ``["--max-units", "1"]`` to make a worker die mid-campaign).  A
    spawned worker that *genuinely* crashes (any exit code besides a
    clean shutdown or the injected fault's) is relaunched up to
    :data:`WORKER_RESPAWN_LIMIT` times, so one crash doesn't strand
    local capacity.  External workers connect with
    ``repro-ftsched campaign worker HOST:PORT`` at any time, including
    mid-campaign.  ``timeout`` is a *no-activity* deadline, not a wall
    clock for the whole run: it resets on every message any worker sends
    (heartbeats while computing, results, hellos), so a campaign with at
    least one live worker never trips it — however long the run or a
    single unit takes — while a run with no worker talking (every worker
    died and none reconnects) raises instead of hanging forever.

    ``lease`` sizes the unit batches handed to v2+ workers: an int pins
    a fixed lease size, ``"auto"`` (the default) adapts to observed unit
    latency — targeting ~2x the heartbeat interval of work per lease —
    and a configured :class:`LeasePolicy` instance passes through.

    ``steal`` (``"auto"``, the default, or ``"off"``) controls lease
    revocation: an idle worker facing an empty queue steals the
    unstarted remainder of the largest outstanding v3 lease.  An
    un-started unit costs only a protocol round-trip to move, so this is
    on by default.  ``speculate`` (``"off"`` by default, or ``"auto"``)
    additionally duplicates the slowest in-flight unit onto an idle
    worker near the campaign tail — the only rescue for a wedged worker
    that heartbeats without progressing; see
    :class:`~repro.experiments.executors.base.SpeculationPolicy`.

    After ``run`` returns, ``worker_exit_codes`` holds the exit code of
    every worker this master spawned, including replaced crashers
    (``WORKER_EXIT_FAULT_INJECTED`` identifies ``--max-units`` /
    ``--wedge-after`` fault workers), and ``stolen_units`` /
    ``speculative_attempts`` count what the straggler mitigation did.
    """

    name = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: Union[int, Sequence[Sequence[str]]] = 0,
        heartbeat: float = DEFAULT_HEARTBEAT,
        timeout: Optional[float] = 300.0,
        lease: LeaseSpec = None,
        speculate: SpeculationSpec = None,
        steal: Union[str, bool, None] = None,
        on_listen: Optional[Callable[[tuple[str, int]], None]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat = heartbeat
        self.timeout = timeout
        #: called with the *actually bound* ``(host, port)`` right after
        #: the listening socket exists — the only correct place to learn
        #: the real port of a ``--bind host:0`` ephemeral bind (the CLI
        #: announces the master address through this)
        self.on_listen = on_listen
        self.lease_policy = LeasePolicy.from_spec(
            lease, target_seconds=2.0 * heartbeat
        )
        self.speculation = SpeculationPolicy.from_spec(speculate)
        self.steal = parse_steal(steal)
        if isinstance(spawn_workers, int):
            self._worker_specs: list[list[str]] = [[] for _ in range(spawn_workers)]
        else:
            self._worker_specs = [list(extra) for extra in spawn_workers]
        self.address: Optional[tuple[str, int]] = None
        self.worker_exit_codes: list[int] = []
        self.worker_respawns = 0
        self.stolen_units = 0
        self.speculative_attempts = 0
        self._dead_after = max(heartbeat * DEAD_AFTER_BEATS, 5.0)

    # ------------------------------------------------------------- master

    def run(
        self,
        units: Sequence[WorkUnit],
        store: RunStore,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        state = _MasterState(
            units,
            store,
            progress,
            lease_policy=self.lease_policy,
            speculation=self.speculation,
            steal=self.steal,
        )
        server = socket.create_server((self.host, self.port))
        self.address = server.getsockname()[:2]
        if self.on_listen is not None:
            self.on_listen(self.address)
        stop = threading.Event()
        acceptor = threading.Thread(
            target=self._accept_loop,
            args=(server, state, stop),
            name="campaign-master-accept",
            daemon=True,
        )
        acceptor.start()
        # Workers spawn *inside* the try: an exception anywhere between
        # the first spawn and the finally (including a failed spawn
        # itself, handled inside spawn_all) must still terminate and
        # reap every child — an interrupted master cannot orphan them.
        pool = WorkerPool(self._worker_specs, self._spawn_worker)
        clean = False
        try:
            pool.spawn_all()
            last_activity = -1
            deadline: Optional[float] = None
            while not state.wait_done(0.2):
                activity = state.activity_count()
                if activity != last_activity:
                    # Any worker message (heartbeat, result, hello)
                    # resets the clock: `timeout` bounds how long the
                    # campaign may go with no worker talking, not its
                    # total length or a single unit's runtime.
                    last_activity = activity
                    deadline = (
                        None if self.timeout is None
                        else time.monotonic() + self.timeout
                    )
                if deadline is not None and time.monotonic() >= deadline:
                    missing = state.remaining()
                    raise TimeoutError(
                        f"socket campaign heard from no worker for "
                        f"{self.timeout:.0f}s: {len(missing)} unit(s) still "
                        f"pending "
                        f"(first: {missing[0].unit_id if missing else '-'}); "
                        "are any workers connected?"
                    )
                # Relaunch spawned workers that genuinely crashed (never
                # a clean shutdown or the injected --max-units fault),
                # bounded per slot so a crash-looping unit cannot
                # respawn its worker forever.
                pool.poll_respawn()
                # Every worker this master spawned has exited (respawn
                # budget included) and no connection is serving units:
                # the campaign can no longer make progress (e.g. a unit
                # crashes each worker in turn) — fail now instead of
                # sitting out the timeout.
                if pool.all_exited() and state.active_connections() == 0:
                    missing = state.remaining()
                    raise RuntimeError(
                        f"all {len(pool.procs)} spawned worker(s) exited with "
                        f"{len(missing)} unit(s) incomplete "
                        f"(first: {missing[0].unit_id if missing else '-'}); "
                        "check the worker logs — a crashing work unit kills "
                        "every worker it is requeued to"
                    )
            clean = True
        finally:
            stop.set()
            state.finish()
            try:
                server.close()
            except OSError:
                pass
            if not clean:
                # An exceptional exit (KeyboardInterrupt, timeout, a
                # raise mid-spawn) must not wait out the workers' own
                # shutdown: terminate them now so no child survives a
                # raised run.  On a clean exit the workers already got
                # `shutdown` messages and exit 0 on their own.
                pool.terminate_all()
            self.worker_exit_codes = pool.reap_all()
            self.worker_respawns += pool.respawns
            self.stolen_units = state.stolen_units
            self.speculative_attempts = state.speculative_attempts

    def _accept_loop(
        self, server: socket.socket, state: "_MasterState", stop: threading.Event
    ) -> None:
        server.settimeout(0.2)
        while not stop.is_set():
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve_worker,
                args=(conn, state),
                name="campaign-master-worker",
                daemon=True,
            ).start()

    def _serve_worker(self, conn: socket.socket, state: "_MasterState") -> None:
        lc = _LineConn(conn)
        conn_id = state.new_conn_id()
        serving = False
        # Every unit id ever leased to this connection: a result for a
        # unit outside the *current* lease is legitimate only if it was
        # once leased here (a revoked unit's ack losing the race, or a
        # replayed delivery) — anything else is a version-skewed or
        # buggy worker and kills the connection.
        ever_leased: set[str] = set()
        try:
            hello = lc.recv(timeout=self._dead_after)
            if hello.get("type") != "hello":
                return
            state.note_activity()
            state.connection_opened()
            serving = True
            # Version negotiation: speak the highest protocol both sides
            # know.  A v1 worker (no proto field) is streamed one unit at
            # a time; v2+ gets policy-sized leases; only v3 connections
            # are ever steal victims (they understand `revoke`).
            proto = min(PROTO_VERSION, int(hello.get("proto", 1)))
            # Honor the worker's own heartbeat cadence (it may have been
            # started with --heartbeat much larger than the master's):
            # the deadness deadline is per-connection, from the hello.
            worker_beat = float(hello.get("heartbeat", self.heartbeat))
            dead_after = max(
                self._dead_after, worker_beat * DEAD_AFTER_BEATS
            )
            while True:
                lease = state.checkout_lease(
                    conn_id,
                    lc,
                    proto,
                    self.lease_policy if proto >= 2 else None,
                )
                if lease is None:
                    lc.send({"type": "shutdown"})
                    return
                # The lease is tracked in master state BEFORE the send:
                # if the worker died at the lease boundary (send
                # raises), the claimed units must requeue, not strand
                # in flight.
                ever_leased.update(lease.remaining)
                if proto >= 2:
                    lc.send(
                        {"type": "lease",
                         "units": [u.to_dict() for u in lease.units()]}
                    )
                else:
                    lc.send({"type": "unit", "unit": lease.units()[0].to_dict()})
                # Serve acks until the lease drains — by this worker's
                # results or by a thief stealing the remainder (the
                # condition is rechecked after every message).
                while lease.remaining:
                    message = lc.recv(timeout=dead_after)
                    state.note_activity()
                    if state.is_finished():
                        # The campaign completed without this lease
                        # draining — a wedged worker heartbeating while
                        # speculation rescued its units.  Closing the
                        # connection (finally) is what unwedges it.
                        return
                    kind = message.get("type")
                    if kind == "heartbeat":
                        continue
                    if kind != "result":
                        raise ConnectionError(
                            f"unexpected message type {kind!r}"
                        )
                    unit_id = message.get("unit_id")
                    unit, attempt = state.ack(conn_id, unit_id)
                    if unit is None:
                        unit = (
                            state.lookup(unit_id)
                            if unit_id in ever_leased else None
                        )
                        if unit is None:
                            # A version-skewed or buggy worker answering
                            # for a unit it was never leased must not
                            # corrupt the store: drop the worker,
                            # requeue its lease.
                            raise ConnectionError(
                                f"result for {unit_id!r} outside this "
                                "worker's lease"
                            )
                        # A stale ack: the unit was revoked from this
                        # connection (or this is a replayed delivery).
                        # First ack wins — the copy still routes through
                        # the store so the losing attempt is counted.
                        attempt = "stale"
                    result = result_from_dict(
                        message["result"], unit.granularity, unit.rep
                    )
                    state.complete(unit, result, attempt=attempt)
                    seconds = message.get("seconds")
                    if seconds is not None:
                        self.lease_policy.observe(float(seconds))
                state.retire_lease(conn_id)
        except (ConnectionError, OSError, socket.timeout, json.JSONDecodeError):
            # Worker died or went silent: put the *unfinished remainder*
            # of its lease back on the queue for the next live worker
            # (per-unit acks mean completed units never rerun).
            pass
        finally:
            state.requeue_lease(conn_id)
            if serving:
                state.connection_closed()
            lc.close()

    # ------------------------------------------------------- local workers

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

    _reap_worker = staticmethod(_reap_worker)


class _Lease:
    """One outstanding lease: which units a connection owns, how to
    reach it (for revokes), and the attempt tag its acks carry.

    ``order`` preserves the handout order — workers compute leases
    sequentially, so the first id still in ``remaining`` is the unit the
    worker is computing *right now* and everything behind it has not
    started.  That head/tail split is what makes stealing safe: only the
    unstarted tail is ever revoked.
    """

    __slots__ = (
        "conn_id", "lc", "proto", "order", "remaining", "attempt",
        "last_progress",
    )

    def __init__(
        self,
        conn_id: int,
        lc: _LineConn,
        proto: int,
        units: Sequence[WorkUnit],
        attempt: str,
    ) -> None:
        self.conn_id = conn_id
        self.lc = lc
        self.proto = proto
        self.order = [u.unit_id for u in units]
        self.remaining = {u.unit_id: u for u in units}
        self.attempt = attempt
        self.last_progress = time.monotonic()

    def units(self) -> list[WorkUnit]:
        return [
            self.remaining[uid] for uid in self.order if uid in self.remaining
        ]


class _MasterState:
    """Shared queue/accounting between the master's handler threads.

    Work distribution is a three-tier claim, all under one lock:
    pending queue first, then stealing the unstarted tail of the largest
    outstanding v3 lease, then (opt-in) a speculative duplicate of the
    most-stalled in-flight unit.  Every ack routes through
    :meth:`complete`, whose store append is idempotent — first ack wins,
    losing attempts are counted, never stored.
    """

    def __init__(
        self,
        units: Sequence[WorkUnit],
        store: RunStore,
        progress: Optional[ProgressFn],
        lease_policy: Optional[LeasePolicy] = None,
        speculation: Optional[SpeculationPolicy] = None,
        steal: bool = True,
    ) -> None:
        self._cond = threading.Condition()
        self._pending: deque[WorkUnit] = deque(units)
        self._units_by_id = {u.unit_id: u for u in units}
        self._in_flight: dict[str, WorkUnit] = {}
        self._done: set[str] = set()
        self._total = len(units)
        self._store = store
        self._progress = progress
        self._finished = False
        self._active = 0
        self._activity = 0
        self._next_conn_id = 0
        self._leases: dict[int, _Lease] = {}
        self._lease_policy = lease_policy or LeasePolicy()
        self._speculation = speculation or SpeculationPolicy()
        self._steal = steal
        #: total attempts launched per unit id (absent = 1, the primary)
        self._attempts: dict[str, int] = {}
        self._spec_budget: Optional[int] = None
        self.stolen_units = 0
        self.speculative_attempts = 0

    # ------------------------------------------------------------ leases

    def new_conn_id(self) -> int:
        with self._cond:
            self._next_conn_id += 1
            return self._next_conn_id

    def lookup(self, unit_id: Optional[str]) -> Optional[WorkUnit]:
        return self._units_by_id.get(unit_id)

    def try_checkout(
        self,
        conn_id: int,
        lc: _LineConn,
        proto: int,
        policy: Optional[LeasePolicy],
        pending_only: bool = False,
    ) -> tuple[Optional[_Lease], Optional[tuple[_LineConn, list[str]]]]:
        """One non-blocking claim attempt.

        Returns ``(lease, revoke)``: the claimed lease (or ``None`` when
        nothing is claimable right now, or the campaign is complete /
        aborted — distinguish via :meth:`is_complete`), and the revoke
        notification ``(victim_lc, unit_ids)`` to deliver *outside* any
        lock when the claim stole a tail.  ``pending_only`` restricts
        the claim to the pending queue — the campaign service's first
        scheduling pass, so an idle worker drains other jobs' queues
        before stealing within one.
        """
        with self._cond:
            if self._finished or len(self._done) >= self._total:
                return None, None
            units = self._claim_pending(policy)
            attempt = "primary"
            revoke: Optional[tuple[_LineConn, list[str]]] = None
            if units is None and self._steal and not pending_only:
                claim = self._claim_steal(conn_id, proto)
                if claim is not None:
                    units, victim_lc, revoked_ids = claim
                    attempt = "stolen"
                    revoke = (victim_lc, revoked_ids)
            if units is None and self._speculation.enabled and not pending_only:
                unit = self._claim_speculative(conn_id)
                if unit is not None:
                    units, attempt = [unit], "speculative"
            if units is None:
                return None, None
            lease = _Lease(conn_id, lc, proto, units, attempt)
            self._leases[conn_id] = lease
            for unit in units:
                self._in_flight[unit.unit_id] = unit
            return lease, revoke

    def checkout_lease(
        self,
        conn_id: int,
        lc: _LineConn,
        proto: int,
        policy: Optional[LeasePolicy],
    ) -> Optional[_Lease]:
        """Claim the next lease for a connection; blocks while other
        workers hold in-flight units (a requeue, steal, or speculation
        may produce new work); ``None`` once the campaign is complete
        (or aborted).

        ``policy=None`` (a v1 worker) leases exactly one unit.  The
        claim order is pending queue, then a steal from the largest
        outstanding v3 lease, then a speculative duplicate — cheapest
        source of work first.
        """
        while True:
            lease, revoke = self.try_checkout(conn_id, lc, proto, policy)
            if revoke is not None:
                # Sent outside the lock: a victim with a full TCP buffer
                # must not stall every other handler thread.  The revoke
                # is advisory — the master already re-leased the stolen
                # units; a victim that never reads it (wedged) just
                # wastes its own cycles and its late acks lose the race.
                victim_lc, revoked_ids = revoke
                try:
                    victim_lc.send({"type": "revoke", "unit_ids": revoked_ids})
                except OSError:
                    pass  # victim already dead; its lease requeues on reap
            if lease is not None:
                return lease
            with self._cond:
                if self._finished or len(self._done) >= self._total:
                    return None
                self._cond.wait(timeout=0.1)

    def _claim_pending(
        self, policy: Optional[LeasePolicy]
    ) -> Optional[list[WorkUnit]]:
        """Pop the next lease off the pending queue (None when empty).

        Assembly prefers locality: the lease is the queue head plus the
        next pending units sharing its ``locality_key``, so a worker
        computes one scenario back to back and reuses warm kernel/epoch-
        cache state.  Skipped units keep their queue order.  Units
        completed while queued (a speculative or stolen attempt won
        after a requeue) are dropped, never re-leased.
        """
        while self._pending and self._pending[0].unit_id in self._done:
            self._pending.popleft()
        if not self._pending:
            return None
        k = 1
        if policy is not None:
            k = policy.lease_size(
                len(self._pending), workers=max(1, self._active)
            )
        lease = [self._pending.popleft()]
        if k > 1:
            key = lease[0].locality_key
            kept: deque[WorkUnit] = deque()
            for unit in self._pending:
                if unit.unit_id in self._done:
                    continue
                if len(lease) < k and unit.locality_key == key:
                    lease.append(unit)
                else:
                    kept.append(unit)
            self._pending = kept
        return lease

    def _claim_steal(
        self, conn_id: int, proto: int
    ) -> Optional[tuple[list[WorkUnit], _LineConn, list[str]]]:
        """Steal the unstarted tail of the largest outstanding v3 lease.

        The head of a lease is what the victim is computing right now —
        revoking it would waste that work — so only the tail moves.
        Victims must speak v3 (they have to understand the ``revoke``);
        a v2 worker keeps working its lease un-revoked.  Returns the
        stolen units for the thief, the victim's connection, and the
        revoked ids (a v1 thief takes a single unit; the rest of the
        tail returns to the pending queue for anyone).
        """
        victims = [
            lease
            for lease in self._leases.values()
            if lease.conn_id != conn_id
            and lease.proto >= 3
            and lease.attempt != "speculative"
            and len(lease.remaining) >= 2
        ]
        if not victims:
            return None
        victim = max(victims, key=lambda lease: len(lease.remaining))
        live = [uid for uid in victim.order if uid in victim.remaining]
        revoked_ids = live[1:]
        stolen = [victim.remaining.pop(uid) for uid in revoked_ids]
        if proto < 2 and len(stolen) > 1:
            for unit in reversed(stolen[1:]):
                self._pending.appendleft(unit)
            stolen = stolen[:1]
        self.stolen_units += len(revoked_ids)
        return stolen, victim.lc, revoked_ids

    def _claim_speculative(self, conn_id: int) -> Optional[WorkUnit]:
        """Duplicate the first rescuable unit of the most-stalled lease.

        Eligibility is the policy's: the lease made no progress for
        ``slow_factor`` x the EWMA unit time, the campaign-wide launch
        budget is not spent, and the unit has attempts left.  Scanning
        each lease in handout order means a wedged worker's *whole*
        lease gets rescued one unit per idle claim — even a v2 worker's,
        since speculation needs no protocol support at all.
        """
        avg = self._lease_policy.observed_unit_seconds
        if self._spec_budget is None:
            self._spec_budget = self._speculation.budget(self._total)
        if self.speculative_attempts >= self._spec_budget:
            return None
        now = time.monotonic()
        best: Optional[tuple[float, WorkUnit]] = None
        for lease in self._leases.values():
            if lease.conn_id == conn_id or lease.attempt == "speculative":
                continue
            stalled = now - lease.last_progress
            if not self._speculation.is_straggler(stalled, avg):
                continue
            for uid in lease.order:
                if uid not in lease.remaining or uid in self._done:
                    continue
                if (
                    self._attempts.get(uid, 1)
                    >= self._speculation.max_attempts
                ):
                    continue
                if best is None or stalled > best[0]:
                    best = (stalled, lease.remaining[uid])
                break
        if best is None:
            return None
        unit = best[1]
        self._attempts[unit.unit_id] = self._attempts.get(unit.unit_id, 1) + 1
        self.speculative_attempts += 1
        return unit

    def ack(
        self, conn_id: int, unit_id: Optional[str]
    ) -> tuple[Optional[WorkUnit], str]:
        """Claim an arriving result against the connection's lease.

        Returns the unit and the lease's attempt tag when the unit was
        still this connection's to ack; ``(None, "stale")`` when it was
        revoked, already acked, or never leased here (the caller decides
        whether a stale ack is legitimate).  Any ack counts as lease
        progress for the speculation stall clock.
        """
        with self._cond:
            lease = self._leases.get(conn_id)
            if lease is None:
                return None, "stale"
            lease.last_progress = time.monotonic()
            unit = lease.remaining.pop(unit_id, None)
            if unit is None:
                return None, "stale"
            return unit, lease.attempt

    def retire_lease(self, conn_id: int) -> None:
        """Drop a fully-drained lease (nothing left to requeue)."""
        with self._cond:
            self._leases.pop(conn_id, None)

    def requeue_lease(self, conn_id: int) -> None:
        """Return a dead connection's unfinished lease remainder to the
        queue (front of the queue, original order preserved)."""
        with self._cond:
            lease = self._leases.pop(conn_id, None)
            if lease is None:
                return
            requeued = False
            for unit in reversed(lease.units()):
                self._in_flight.pop(unit.unit_id, None)
                if unit.unit_id not in self._done:
                    self._pending.appendleft(unit)
                    requeued = True
            if requeued:
                self._cond.notify_all()

    # -------------------------------------------------------- completion

    def complete(
        self, unit: WorkUnit, result, attempt: str = "primary"
    ) -> None:
        with self._cond:
            self._in_flight.pop(unit.unit_id, None)
            # First ack wins: the store's idempotent append decides, so
            # a losing attempt (speculative loser, revoked unit's stale
            # ack, replayed delivery) is counted in dedup_stats under
            # its attempt tag — never stored, never double-progressed.
            if not self._store.append(unit, result, attempt=attempt):
                return
            self._done.add(unit.unit_id)
            if self._progress is not None:
                self._progress(
                    unit_progress_line(unit, len(self._done), self._total)
                )
            self._cond.notify_all()

    # -------------------------------------------------------- accounting

    def note_activity(self) -> None:
        """A worker message arrived (heartbeat/result/hello); the master
        uses this to distinguish "slow but alive" from "all dead"."""
        with self._cond:
            self._activity += 1

    def activity_count(self) -> int:
        with self._cond:
            return self._activity

    def connection_opened(self) -> None:
        with self._cond:
            self._active += 1

    def connection_closed(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def active_connections(self) -> int:
        with self._cond:
            return self._active

    def remaining(self) -> list[WorkUnit]:
        with self._cond:
            return list(self._pending) + list(self._in_flight.values())

    def wait_done(self, timeout: Optional[float]) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self._done) < self._total:
                wait_for = 0.2
                if deadline is not None:
                    wait_for = min(wait_for, deadline - time.monotonic())
                    if wait_for <= 0:
                        return False
                self._cond.wait(timeout=wait_for)
            return True

    def is_finished(self) -> bool:
        with self._cond:
            return self._finished

    def is_complete(self) -> bool:
        """Every unit's result is in the store (the job is done)."""
        with self._cond:
            return len(self._done) >= self._total

    def progress_counts(self) -> tuple[int, int]:
        """``(done, total)`` — the campaign service's status payload."""
        with self._cond:
            return len(self._done), self._total

    def finish(self) -> None:
        with self._cond:
            self._finished = True
            self._cond.notify_all()

    def abort(self) -> list[tuple[_LineConn, int, list[str]]]:
        """Cancel: mark finished, strip every outstanding lease (so
        serving loops drain immediately instead of waiting on results
        that no longer matter), and return ``(lc, proto, unit_ids)``
        revoke notifications to deliver outside the lock.  Late acks
        for stripped units land as stale and are swallowed by the
        store's idempotent append."""
        with self._cond:
            self._finished = True
            notices: list[tuple[_LineConn, int, list[str]]] = []
            for lease in self._leases.values():
                ids = [uid for uid in lease.order if uid in lease.remaining]
                if not ids:
                    continue
                notices.append((lease.lc, lease.proto, ids))
                for uid in ids:
                    lease.remaining.pop(uid, None)
                    self._in_flight.pop(uid, None)
            self._pending.clear()
            self._cond.notify_all()
        return notices


# ---------------------------------------------------------------- worker


def _connect_with_backoff(
    host: str,
    port: int,
    retries: int = CONNECT_RETRIES,
) -> socket.socket:
    """Connect to the master, retrying with jittered exponential backoff.

    A worker often races the master's bind — spawn scripts start both at
    once — and dying on the first ECONNREFUSED would strand capacity for
    the whole campaign.  Bounded: after ``retries`` failed attempts the
    last ``OSError`` propagates.  Jittered, so a fleet of workers
    pointed at a late master doesn't retry in lockstep.
    """
    delay = CONNECT_BACKOFF_S
    for attempt in range(retries + 1):
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            if attempt >= retries:
                raise
            pause = min(delay, CONNECT_BACKOFF_MAX_S) * (0.5 + random.random())
            print(
                f"worker: master {host}:{port} unreachable ({exc}); "
                f"retry {attempt + 1}/{retries} in {pause:.2f}s",
                file=sys.stderr,
            )
            time.sleep(pause)
            delay *= 2


def run_worker(
    host: str,
    port: int,
    max_units: Optional[int] = None,
    heartbeat: float = DEFAULT_HEARTBEAT,
    verbose: bool = False,
    idle_timeout: float = WORKER_IDLE_TIMEOUT,
    wedge_after: Optional[int] = None,
    slow_factor: Optional[float] = None,
    die_after: Optional[int] = None,
    ignore_revoke: bool = False,
    connect_retries: int = CONNECT_RETRIES,
) -> int:
    """Connect to a campaign master and compute units until shutdown.

    The body of ``repro-ftsched campaign worker HOST:PORT``.  The
    initial connect retries with jittered exponential backoff (the
    worker may race the master's bind).  A daemon thread heartbeats for
    the life of the connection so the master can tell "still computing"
    from "dead"; a second daemon owns all socket reads and feeds an
    inbox queue, so mid-lease control traffic — a v3 ``revoke`` — is
    seen between units, not after the whole lease.  A revoke drops the
    oldest pending copy of each named unit (the master already re-leased
    it); ids this worker already started or finished leave no trace, so
    a later lease of the same unit is computed.
    ``idle_timeout`` bounds how long the worker waits for the master's
    next message (keepalive plus a recv timeout), so a worker orphaned
    by a master host that died without closing the TCP connection exits
    instead of blocking forever.

    Fault injection (never used in production):

    * ``max_units`` drops the connection after that many results —
      because the budget is checked per unit, a worker holding a
      multi-unit lease dies *mid-lease*, exactly what the
      partial-requeue path needs exercised (quokka-style).
    * ``wedge_after`` stalls the worker *mid-unit* after that many
      results: it holds its next unit forever while the heartbeat
      daemon keeps beating — alive to the dead-man deadline, dead to
      the campaign.  Only speculation or stealing can rescue the work.
      The stall breaks (with the injected-fault exit code) once the
      master connection is gone.
    * ``slow_factor`` throttles every unit to that multiple of its real
      compute time — a reproducible 10x-slow straggler.
    * ``die_after`` exits with the *genuine-crash* code after that many
      results, exercising the master's bounded worker respawn (distinct
      from ``max_units``'s injected-fault code, which is never
      respawned).
    * ``ignore_revoke`` keeps computing revoked units, forcing the
      revoke-vs-ack race: its late acks must lose first-ack-wins.

    Returns a process exit code: ``WORKER_EXIT_OK`` after a clean
    shutdown, ``WORKER_EXIT_ERROR`` on a genuine failure (and from
    ``die_after``), and ``WORKER_EXIT_FAULT_INJECTED`` when the
    ``max_units`` budget ran out or a ``wedge_after`` stall ended —
    distinct codes, so the conformance harness can assert *why* a
    worker died.
    """
    sock = _connect_with_backoff(host, port, retries=connect_retries)
    sock.settimeout(None)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    # Default kernel keepalive idles ~2h — longer than the recv timeout,
    # i.e. useless.  Tighten it where the platform allows so a vanished
    # master host (no FIN) errors the socket in minutes, not an hour.
    for opt, value in (
        ("TCP_KEEPIDLE", 60), ("TCP_KEEPINTVL", 10), ("TCP_KEEPCNT", 5)
    ):
        if hasattr(socket, opt):
            sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, opt), value)
    lc = _LineConn(sock)
    label = f"{socket.gethostname()}:{os.getpid()}"
    lc.send(
        {
            "type": "hello",
            "worker": label,
            "heartbeat": heartbeat,
            "proto": PROTO_VERSION,
        }
    )
    stop = threading.Event()
    conn_dead = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat):
            try:
                lc.send({"type": "heartbeat"})
            except OSError:
                return

    inbox: queue.Queue = queue.Queue()

    def _read() -> None:
        # All reads happen on this thread: the main loop computes units
        # and polls the inbox between them, so a mid-lease revoke is
        # acted on before the next unit starts.  EOF/timeout posts the
        # None sentinel and the main loop exits.
        try:
            while True:
                inbox.put(lc.recv(timeout=idle_timeout))
        except (ConnectionError, OSError, json.JSONDecodeError):
            conn_dead.set()
            inbox.put(None)

    threading.Thread(target=_beat, name="campaign-heartbeat", daemon=True).start()
    threading.Thread(target=_read, name="campaign-worker-read", daemon=True).start()
    pending: deque[WorkUnit] = deque()
    done = 0
    try:
        while True:
            # Ingest control traffic: block when out of local work,
            # otherwise just drain whatever has already arrived.
            block = not pending
            while True:
                try:
                    message = inbox.get(block=block)
                except queue.Empty:
                    break
                if message is None:
                    # Connection gone: master shut down uncleanly, or
                    # the idle timeout expired with nothing to do.
                    return WORKER_EXIT_OK if done else WORKER_EXIT_ERROR
                kind = message.get("type")
                if kind == "shutdown":
                    if verbose:
                        print(
                            f"worker {label}: shutdown after {done} unit(s)",
                            file=sys.stderr,
                        )
                    return WORKER_EXIT_OK
                if kind == "lease":
                    pending.extend(
                        WorkUnit.from_dict(d) for d in message["units"]
                    )
                elif kind == "unit":
                    pending.append(WorkUnit.from_dict(message["unit"]))
                elif kind == "revoke":
                    ids = set(message.get("unit_ids", ()))
                    if ignore_revoke:
                        if verbose:
                            print(
                                f"worker {label}: ignoring revoke of "
                                f"{len(ids)} unit(s) (fault injection)",
                                file=sys.stderr,
                            )
                    else:
                        if verbose:
                            print(
                                f"worker {label}: master revoked "
                                f"{len(ids)} unit(s)",
                                file=sys.stderr,
                            )
                        # Drop the oldest pending copy of each id.  A
                        # unit already started is finished and acked
                        # anyway, and a lease sent after the steal may
                        # hand the same id back before this revoke lands.
                        kept: deque[WorkUnit] = deque()
                        for queued in pending:
                            if queued.unit_id in ids:
                                ids.discard(queued.unit_id)
                            else:
                                kept.append(queued)
                        pending = kept
                block = not pending
            unit = pending.popleft()
            if wedge_after is not None and done >= wedge_after:
                if verbose:
                    print(
                        f"worker {label}: wedged holding {unit.unit_id}",
                        file=sys.stderr,
                    )
                # Stall mid-unit while the heartbeat daemon keeps
                # beating: alive to the master's dead-man deadline, dead
                # to the campaign.  Unwedge once the master is gone so
                # harness runs reap quickly.
                conn_dead.wait()
                return WORKER_EXIT_FAULT_INJECTED
            if verbose:
                print(f"worker {label}: {unit.unit_id}", file=sys.stderr)
            t0 = time.perf_counter()
            result = unit.run()
            if slow_factor is not None and slow_factor > 1.0:
                # A reproducible straggler: stretch every unit to
                # slow_factor x its real compute time, visible to the
                # master's EWMA through the reported seconds.
                time.sleep((slow_factor - 1.0) * (time.perf_counter() - t0))
            # The per-unit ack: the master stores each unit the moment
            # it completes, so a later crash of this worker only
            # requeues the lease's unfinished remainder.
            lc.send(
                {
                    "type": "result",
                    "unit_id": unit.unit_id,
                    "result": result_to_dict(result),
                    "seconds": time.perf_counter() - t0,
                }
            )
            done += 1
            if max_units is not None and done >= max_units:
                # Simulated crash: vanish without a goodbye — mid-
                # lease when more units were leased — so the master
                # exercises dead-worker detection and partial-lease
                # requeue.  The distinct exit code lets a harness
                # tell this injected fault from a real crash.
                return WORKER_EXIT_FAULT_INJECTED
            if die_after is not None and done >= die_after:
                # Simulated *genuine* crash: the generic-failure exit
                # code, so the master's respawn path (which ignores the
                # injected-fault code above) kicks in.
                return WORKER_EXIT_ERROR
    except (ConnectionError, OSError):
        return WORKER_EXIT_OK if done else WORKER_EXIT_ERROR
    finally:
        stop.set()
        lc.close()
