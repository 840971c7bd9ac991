"""A scripted transport for the campaign master's core.

:class:`ScriptedRun` drives a :class:`~repro.experiments.executors.
master_core.MasterCore` with in-process workers on a virtual clock.
Every message crosses a JSON round trip exactly as it would on the
wire, every worker computes ``unit.run()`` for real and reports its
result through the core into the job's store, and a worker drains its
inbox between units the way ``run_worker`` does (revokes go through the
worker's own :func:`~repro.experiments.executors.socket.drop_revoked`).
Nothing depends on thread timing, so the fault cells built on it assert
exact counts: stolen units, speculative attempts, and
``dedup_stats()["by_attempt"]``.

Each worker is a local slot: its exit is reported to the core, and a
``Spawn`` relaunches the slot with the same knobs — what a real pool
does with the same argv.  The knobs mirror the worker's fault flags:

==================  ====================================================
knob                behaviour
==================  ====================================================
``unit_seconds``    virtual compute time per unit (also the reported
                    ``seconds`` the lease EWMA sees)
``max_units``       vanish after that many results (injected-fault exit)
``die_after``       exit with the genuine-crash code after that many
``wedge``           hold the first unit forever while heartbeating;
                    exit with the injected-fault code once disconnected
``ignore_revoke``   keep computing revoked units
``heartbeat``       the cadence announced in ``hello`` and kept
``silent``          send no heartbeats
==================  ====================================================
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from typing import Optional, Sequence

from repro.experiments.executors import LeasePolicy
from repro.experiments.executors.master_core import (
    PROTO_VERSION,
    WORKER_EXIT_ERROR,
    WORKER_EXIT_FAULT_INJECTED,
    WORKER_EXIT_OK,
    Close,
    Job,
    MasterCore,
    Send,
)
from repro.experiments.executors.socket import DEFAULT_HEARTBEAT, drop_revoked
from repro.experiments.grid import WorkUnit
from repro.experiments.store import result_to_dict


def _wire(message: dict) -> dict:
    return json.loads(json.dumps(message, separators=(",", ":")))


class ScriptedWorker:
    def __init__(
        self,
        conn: int,
        slot: int,
        unit_seconds: float = 1.0,
        heartbeat: float = DEFAULT_HEARTBEAT,
        max_units: Optional[int] = None,
        die_after: Optional[int] = None,
        wedge: bool = False,
        ignore_revoke: bool = False,
        silent: bool = False,
    ) -> None:
        self.conn = conn
        self.slot = slot
        self.unit_seconds = unit_seconds
        self.heartbeat = heartbeat
        self.max_units = max_units
        self.die_after = die_after
        self.wedge = wedge
        self.ignore_revoke = ignore_revoke
        self.silent = silent
        self.inbox: deque = deque()
        self.pending: deque[WorkUnit] = deque()
        #: the unit being computed and when it finishes
        self.busy: Optional[tuple[WorkUnit, float]] = None
        self.done = 0
        self.next_beat = heartbeat


class ScriptedRun:
    """One job on a master core, served by scripted workers.

    ``workers`` holds one knob dict per local slot; the workers connect
    in that order at time 0.  Each :meth:`step` advances the clock by
    ``dt``: every worker finishes a due unit, drains its inbox, starts
    its next unit and heartbeats, then the master ticks.
    """

    def __init__(
        self,
        units: Sequence[WorkUnit],
        store,
        workers: Sequence[dict],
        lease=None,
        steal: bool = True,
        speculation=None,
        heartbeat: float = DEFAULT_HEARTBEAT,
        dt: float = 0.25,
    ) -> None:
        self.core = MasterCore(
            heartbeat, speculation, steal, slots=len(workers)
        )
        self.job = Job(
            "job-000001", units, store,
            LeasePolicy.from_spec(lease, target_seconds=2.0 * heartbeat),
        )
        self.now = 0.0
        self.dt = dt
        self.knobs = [dict(k) for k in workers]
        self.workers: dict[int, ScriptedWorker] = {}
        #: exit code of every worker that ended, in order
        self.exit_codes: list[int] = []
        #: (slot, unit_id) of every result a worker sent, in order
        self.computed: list[tuple[int, str]] = []
        #: every action the core emitted, in order
        self.actions: list = []
        self._conn_ids = itertools.count(1)
        self._apply(self.core.add_job(self.job, self.now))
        for slot in range(len(workers)):
            self.connect(slot)

    # ------------------------------------------------------------ driving

    def run(self, max_steps: int = 2000) -> "ScriptedRun":
        """Step until the job ends, stop the master, and let every
        worker take its shutdown (or notice its closed connection)."""
        for _ in range(max_steps):
            if self.job.status != "running":
                break
            self.step()
        else:
            raise AssertionError(f"job stalled at {self.job.counts()}")
        self._apply(self.core.stop(self.now))
        for _ in range(max_steps):
            if not self.workers:
                return self
            self.step()
        raise AssertionError("workers never exited after stop")

    def step(self) -> None:
        self.now += self.dt
        for worker in list(self.workers.values()):
            self._step_worker(worker)
        self._apply(self.core.tick(self.now))

    def connect(self, slot: int) -> ScriptedWorker:
        worker = ScriptedWorker(next(self._conn_ids), slot, **self.knobs[slot])
        worker.next_beat = self.now + worker.heartbeat
        self.workers[worker.conn] = worker
        hello = {
            "type": "hello", "worker": f"scripted-{slot}",
            "heartbeat": worker.heartbeat, "proto": PROTO_VERSION,
        }
        self._apply(self.core.hello(worker.conn, _wire(hello), self.now))
        return worker

    # ---------------------------------------------------------- internals

    def _apply(self, actions) -> None:
        for action in actions:
            self.actions.append(action)
            if isinstance(action, (Send, Close)):
                worker = self.workers.get(action.conn)
                if worker is not None:  # Close reads as EOF after the sends
                    worker.inbox.append(
                        _wire(action.message) if isinstance(action, Send) else None
                    )
            else:
                self.connect(action.slot)

    def _send(self, worker: ScriptedWorker, message: dict) -> None:
        self._apply(self.core.message(worker.conn, _wire(message), self.now))

    def _exit(self, worker: ScriptedWorker, code: int) -> None:
        del self.workers[worker.conn]
        self.exit_codes.append(code)
        self._apply(self.core.disconnect(worker.conn, self.now))
        self._apply(self.core.worker_exited(worker.slot, code, self.now))

    def _step_worker(self, w: ScriptedWorker) -> None:
        if w.busy is not None:
            unit, finish = w.busy
            if self.now < finish:
                if w.wedge and None in w.inbox:
                    # The wedge breaks once the master connection is gone.
                    return self._exit(w, WORKER_EXIT_FAULT_INJECTED)
                return self._beat(w)
            w.busy = None
            try:
                result = unit.run()
            except Exception:  # a crashing unit kills the worker process
                return self._exit(w, WORKER_EXIT_ERROR)
            self.computed.append((w.slot, unit.unit_id))
            self._send(w, {
                "type": "result", "unit_id": unit.unit_id,
                "result": result_to_dict(result), "seconds": w.unit_seconds,
            })
            w.done += 1
            if w.max_units is not None and w.done >= w.max_units:
                return self._exit(w, WORKER_EXIT_FAULT_INJECTED)
            if w.die_after is not None and w.done >= w.die_after:
                return self._exit(w, WORKER_EXIT_ERROR)
        while w.inbox:
            message = w.inbox.popleft()
            if message is None:
                return self._exit(w, WORKER_EXIT_OK if w.done else WORKER_EXIT_ERROR)
            kind = message["type"]
            if kind == "shutdown":
                return self._exit(w, WORKER_EXIT_OK)
            if kind == "lease":
                w.pending.extend(WorkUnit.from_dict(d) for d in message["units"])
            elif kind == "revoke" and not w.ignore_revoke:
                w.pending = drop_revoked(w.pending, message["unit_ids"])
        if w.pending:
            finish = math.inf if w.wedge else self.now + w.unit_seconds
            w.busy = (w.pending.popleft(), finish)
        self._beat(w)

    def _beat(self, w: ScriptedWorker) -> None:
        if not w.silent and self.now >= w.next_beat:
            w.next_beat = self.now + w.heartbeat
            self._send(w, {"type": "heartbeat"})
