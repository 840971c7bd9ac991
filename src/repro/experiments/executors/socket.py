"""Distributed campaign execution over TCP: the wire, the worker, and
the one-shot master.

The :class:`SocketExecutor` runs one campaign as the only job of the
campaign master (:mod:`repro.experiments.service`): it binds a port,
streams :class:`~repro.experiments.grid.WorkUnit`\\ s to any
``repro-ftsched campaign worker`` process that connects — from this
machine or another — and appends results to the store as they arrive.
Workers heartbeat while computing; a worker that goes silent (crash,
kill, network partition) has the unfinished remainder of its lease
*requeued* for the next live worker, so a campaign survives any worker
failure as long as one worker remains.

Wire protocol: newline-delimited JSON, one message per line, one
version (:data:`PROTO_VERSION`) — every peer ships from this repo.  A
``hello`` naming any other ``proto`` (or none) is answered with
``error`` and the connection is closed before anything is leased.
The worker side of the protocol:

==============  ==========================================  =========
message         fields                                      direction
==============  ==========================================  =========
``hello``       ``worker`` (label), ``heartbeat`` (s),      w -> m
                ``proto`` (must equal ``PROTO_VERSION``)
``error``       ``error``, ``key`` (a refused ``hello``)    m -> w
``lease``       ``units`` (list of WorkUnit dicts)          m -> w
``heartbeat``   —                                           w -> m
``result``      ``unit_id``, ``result`` (RepResult),        w -> m
                ``seconds`` (compute time)
``revoke``      ``unit_ids`` (units stolen from the         m -> w
                lease; skip any not yet started)
``shutdown``    —                                           m -> w
==============  ==========================================  =========

Leases are sized by a :class:`~repro.experiments.executors.base.
LeasePolicy` and acked per unit.  The service's client messages are
listed in :mod:`repro.experiments.service`.

Straggler mitigation — work stealing (on by default) and speculative
duplicates (opt-in) — is master-side and decided by
:class:`~repro.experiments.executors.master_core.MasterCore`.

Units carry their full config, so workers need no shared filesystem and
no campaign-specific state: connect, compute, reply.  Results round-trip
through JSON exactly (float ``repr``), keeping distributed rows
bit-identical to serial ones — whatever the lease size and whoever wins
a duplicated attempt.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.experiments.executors.base import (
    LeasePolicy,
    LeaseSpec,
    ProgressFn,
    SpeculationPolicy,
    SpeculationSpec,
    parse_steal,
)
from repro.experiments.executors.master_core import (
    PROTO_VERSION,
    Job,
    WORKER_EXIT_ERROR,
    WORKER_EXIT_FAULT_INJECTED,
    WORKER_EXIT_OK,
)
from repro.experiments.grid import WorkUnit
from repro.experiments.store import RunStore, result_to_dict

#: how often a worker emits a heartbeat while connected
DEFAULT_HEARTBEAT = 0.5
#: a worker that hears nothing from the master for this long gives up —
#: the master host vanished without a TCP FIN (power loss, partition).
#: Generous, because a worker legitimately idles while the master holds
#: it back waiting on another worker's in-flight unit (possible requeue).
WORKER_IDLE_TIMEOUT = 3600.0

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


def _encode(message: dict) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


class _LineConn:
    """Newline-delimited JSON over one TCP socket.

    Workers and clients block in :meth:`send` and :meth:`recv`; a worker
    sends from two threads (results from the main loop, heartbeats from
    a daemon), so sends are locked to keep lines atomic.  The master's
    loop reads a readable socket with :meth:`fill` and takes whole lines
    with :meth:`pop_line` — the same buffer either way.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._rbuf = bytearray()
        self._wlock = threading.Lock()

    def send(self, message: dict) -> None:
        data = _encode(message)
        with self._wlock:
            self.sock.sendall(data)

    def recv(self, timeout: Optional[float] = None) -> dict:
        """Next message; raises ``ConnectionError`` on EOF, ``TimeoutError``
        (``socket.timeout``) when the peer stays silent too long.

        A timeout leaves any partial line in the buffer (a buffered
        ``sock.makefile`` would be poisoned by it) for the next call.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while (line := self.pop_line()) is None:
            if deadline is None:
                self.sock.settimeout(None)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("no complete line before deadline")
                self.sock.settimeout(remaining)
            self.fill()
        return json.loads(line)

    def ready(self) -> bool:
        """Whether :meth:`recv` has something to start on without
        waiting: a whole line buffered, or bytes (or EOF) readable."""
        return b"\n" in self._rbuf or bool(select.select([self.sock], [], [], 0)[0])

    def fill(self) -> None:
        """Buffer what one read of the socket returns."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        self._rbuf.extend(chunk)

    def pop_line(self) -> Optional[bytes]:
        """The next whole buffered line, or None."""
        newline = self._rbuf.find(b"\n")
        if newline < 0:
            return None
        line = bytes(self._rbuf[: newline + 1])
        del self._rbuf[: newline + 1]
        return line

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
    """The campaign master's locally spawned worker subprocesses —
    launch, relaunch, terminate, reap.

    Whether an exited slot is relaunched is the master core's decision
    (its respawn budget); the pool reports exits (:meth:`exited`) and
    carries out relaunches (:meth:`respawn`).
    """

    def __init__(
        self,
        specs: Sequence[Sequence[str]],
        spawn_fn,
    ) -> None:
        self._specs = [list(extra) for extra in specs]
        self._spawn = spawn_fn
        self.procs: list[subprocess.Popen] = []
        self._reported: set[int] = set()
        self.replaced_codes: list[int] = []

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

    def exited(self) -> list[tuple[int, int]]:
        """``(slot, exit code)`` of every worker that exited since the
        last call."""
        exits = []
        for slot, proc in enumerate(self.procs):
            code = proc.poll()
            if code is not None and slot not in self._reported:
                self._reported.add(slot)
                exits.append((slot, code))
        return exits

    def respawn(self, slot: int) -> None:
        """Relaunch an exited slot, keeping the replaced exit code."""
        self.replaced_codes.append(self.procs[slot].poll())
        self.procs[slot] = self._spawn(self._specs[slot])
        self._reported.discard(slot)

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
    from dead workers, and steals them back from straggling ones — the
    campaign service's master, hosting this campaign as its one job.

    ``spawn_workers`` launches that many local ``campaign worker``
    subprocesses against the bound port (an int, or a sequence of
    extra-argv lists for per-worker options — fault-injection tests pass
    ``["--max-units", "1"]`` to make a worker die mid-campaign).  A
    spawned worker that *genuinely* crashes (any exit code besides a
    clean shutdown or the injected fault's) is relaunched up to
    :data:`WORKER_RESPAWN_LIMIT` times, so one crash doesn't strand
    local capacity.  External workers connect with
    ``repro-ftsched campaign worker HOST:PORT`` at any time, including
    mid-campaign.  ``timeout`` is a *no-activity* deadline: any worker
    message (heartbeats while computing included) resets it, so only a
    run with no worker talking raises instead of hanging forever.

    ``lease`` sizes the unit batches handed to workers: an int pins
    a fixed lease size, ``"auto"`` (the default) adapts to observed unit
    latency — targeting ~2x the heartbeat interval of work per lease —
    and a configured :class:`LeasePolicy` instance passes through.

    ``steal`` (``"auto"``, the default, or ``"off"``) and ``speculate``
    (``"off"``, the default, or ``"auto"``) switch the straggler
    mitigations (:class:`~repro.experiments.executors.master_core.Job`).

    After ``run`` returns, ``worker_exit_codes`` holds the exit code of
    every worker this master spawned, including replaced crashers
    (``WORKER_EXIT_FAULT_INJECTED`` identifies ``--max-units`` fault
    workers); ``worker_respawns``, ``stolen_units`` and
    ``speculative_attempts`` count what that run's master did.
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
        self.spawn_workers = spawn_workers
        self.address: Optional[tuple[str, int]] = None
        self.worker_exit_codes: list[int] = []
        self.worker_respawns = 0
        self.stolen_units = 0
        self.speculative_attempts = 0

    # ------------------------------------------------------------- master

    def run(
        self,
        units: Sequence[WorkUnit],
        store: RunStore,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        # Imported lazily: service.py imports api.py, which imports this
        # package (the cycle-dodge `_service_factory` uses too).
        from repro.experiments.service import _Master

        master = _Master(
            host=self.host,
            port=self.port,
            spawn_workers=self.spawn_workers,
            heartbeat=self.heartbeat,
            speculate=self.speculation,
            steal=self.steal,
        )
        job = Job("job-000001", units, store, self.lease_policy, progress)
        master.add_job(job)
        # Workers spawn inside the try: an exception anywhere between
        # the first spawn and the finally (including a failed spawn
        # itself, handled inside spawn_all) must still terminate and
        # reap every child — an interrupted master cannot orphan them.
        clean = False
        try:
            self.address = master.listen()
            if self.on_listen is not None:
                self.on_listen(self.address)
            master.start_workers()
            while job.status == "running":
                # The master's loop runs on this thread, a turn at a
                # time; `quiet` is how long no worker has said anything
                # — heartbeats count, so `timeout` bounds silence, not
                # the run or a single unit.
                quiet, gone = master.turn()
                if self.timeout is not None and quiet >= self.timeout:
                    missing = job.remaining()
                    raise TimeoutError(
                        f"socket campaign heard from no worker for "
                        f"{self.timeout:.0f}s: {len(missing)} unit(s) still "
                        f"pending "
                        f"(first: {missing[0].unit_id if missing else '-'}); "
                        "are any workers connected?"
                    )
                if gone:
                    # Every spawned worker exited for good (respawn
                    # budget included) and none is connected: e.g. a
                    # unit crashes each worker in turn.
                    missing = job.remaining()
                    raise RuntimeError(
                        f"every spawned worker exited with "
                        f"{len(missing)} unit(s) incomplete "
                        f"(first: {missing[0].unit_id if missing else '-'}); "
                        "check the worker logs — a crashing work unit kills "
                        "every worker it is requeued to"
                    )
            clean = True
        finally:
            # A clean exit lets the workers take their `shutdown` and
            # exit 0; an exceptional one (KeyboardInterrupt, timeout, a
            # raise mid-spawn) terminates them at once so no child
            # survives a raised run.
            self.worker_exit_codes = master.stop(clean=clean)
            self.worker_respawns = master.respawns
            self.stolen_units = job.stolen_units
            self.speculative_attempts = job.speculative_attempts


# ---------------------------------------------------------------- worker


def _connect_with_backoff(
    host: str,
    port: int,
    retries: int = CONNECT_RETRIES,
) -> socket.socket:
    """Connect to the master, retrying with jittered exponential backoff
    (see ``CONNECT_RETRIES``); after ``retries`` failed attempts the
    last ``OSError`` propagates."""
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


def drop_revoked(pending: Iterable[WorkUnit], unit_ids: Iterable[str]) -> deque:
    """A worker's pending queue after a ``revoke``: the oldest pending
    copy of each named unit is dropped (the master already re-leased
    it).  An id this worker already started or finished leaves no
    trace, so a later lease of the same unit is computed — and a lease
    sent after the steal may hand the same id back before this revoke
    lands, which is why only the oldest copy goes."""
    ids = set(unit_ids)
    kept: deque[WorkUnit] = deque()
    for unit in pending:
        if unit.unit_id in ids:
            ids.discard(unit.unit_id)
        else:
            kept.append(unit)
    return kept


def run_worker(
    host: str,
    port: int,
    max_units: Optional[int] = None,
    heartbeat: float = DEFAULT_HEARTBEAT,
    verbose: bool = False,
    idle_timeout: float = WORKER_IDLE_TIMEOUT,
    slow_factor: Optional[float] = None,
    die_after: Optional[int] = None,
    connect_retries: int = CONNECT_RETRIES,
) -> int:
    """Connect to a campaign master and compute units until shutdown.

    The body of ``repro-ftsched campaign worker HOST:PORT``.  A daemon
    thread heartbeats for the life of the connection so the master can
    tell "still computing" from "dead".  Between units the worker reads
    whatever the master has sent without blocking, so mid-lease control
    traffic — a ``revoke`` — is seen between units, not after the whole
    lease (:func:`drop_revoked`); it blocks for the master's next
    message only when it has no pending work, and then for at most
    ``idle_timeout`` (keepalive plus a recv timeout), so a worker
    orphaned by a master host that died without closing the TCP
    connection exits instead of blocking forever.

    Fault injection (never used in production):

    * ``max_units`` drops the connection after that many results —
      because the budget is checked per unit, a worker holding a
      multi-unit lease dies *mid-lease*, exactly what the
      partial-requeue path needs exercised (quokka-style).
    * ``slow_factor`` throttles every unit to that multiple of its real
      compute time — a reproducible 10x-slow straggler.
    * ``die_after`` exits with the *genuine-crash* code after that many
      results, exercising the master's bounded worker respawn (distinct
      from ``max_units``'s injected-fault code, which is never
      respawned).

    Returns a process exit code: ``WORKER_EXIT_OK`` after a clean
    shutdown, ``WORKER_EXIT_ERROR`` on a genuine failure (and from
    ``die_after``), and ``WORKER_EXIT_FAULT_INJECTED`` when the
    ``max_units`` budget ran out —
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
    lc.send({"type": "hello", "worker": label, "heartbeat": heartbeat,
             "proto": PROTO_VERSION})
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat):
            try:
                lc.send({"type": "heartbeat"})
            except OSError:
                return

    threading.Thread(target=_beat, name="campaign-heartbeat", daemon=True).start()
    pending: deque[WorkUnit] = deque()
    done = 0
    try:
        while True:
            # Block for the master only when out of work; otherwise take
            # just what has already arrived.
            while not pending or lc.ready():
                message = lc.recv(timeout=idle_timeout)
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
                elif kind == "revoke":
                    if verbose:
                        print(
                            f"worker {label}: master revoked "
                            f"{len(message.get('unit_ids', ()))} unit(s)",
                            file=sys.stderr,
                        )
                    pending = drop_revoked(pending, message.get("unit_ids", ()))
            unit = pending.popleft()
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
            lc.send({
                "type": "result", "unit_id": unit.unit_id,
                "result": result_to_dict(result),
                "seconds": time.perf_counter() - t0,
            })
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
    except (ConnectionError, OSError, json.JSONDecodeError):
        # Connection gone: the master shut down uncleanly, or the idle
        # timeout expired with nothing to do.
        return WORKER_EXIT_OK if done else WORKER_EXIT_ERROR
    finally:
        stop.set()
        lc.close()
