"""Socket-executor integration tests (localhost master + worker processes).

Tests whose subject is a decision of the master core — requeue on a
crash, the dead-man and no-activity deadlines, fail-fast when every
worker is gone — drive the core with scripted workers on a virtual
clock (``scripted_master.py``) instead: exact, and no sleeping.

Marked ``distributed``: run only these with
``pytest -m distributed``, or skip them with ``-m "not distributed"``.
Each campaign gets a 60 s no-activity timeout — a master that stops
hearing from every worker fails loudly instead of wedging the suite —
and the whole module is skipped where localhost sockets are unavailable.
"""

import contextlib
import socket
import threading
import time
from dataclasses import replace

import pytest

from repro.experiments.campaign import run_grid
from repro.experiments.executors import (
    WORKER_EXIT_ERROR,
    WORKER_EXIT_FAULT_INJECTED,
    WORKER_EXIT_OK,
    WORKER_RESPAWN_LIMIT,
    SocketExecutor,
)
from repro.experiments.executors.master_core import Close, Send
from repro.experiments.executors.socket import (
    PROTO_VERSION,
    _LineConn,
    run_worker,
    sockets_available,
)
from repro.experiments.grid import ScenarioGrid, WorkUnit
from repro.experiments.store import RunStore
from scripted_master import ScriptedRun

pytestmark = [
    pytest.mark.distributed,
    pytest.mark.skipif(
        not sockets_available(), reason="localhost sockets unavailable"
    ),
]

#: hard deadline for every socket campaign in this module
DEADLINE_S = 60.0


def _serial_rep_rows(config):
    """Per-rep serial baseline rows (for stores without a manifest)."""
    from repro.experiments.executors import SerialExecutor
    from repro.experiments.grid import ScenarioGrid
    from repro.experiments.store import RunStore

    store = RunStore()
    SerialExecutor().run(ScenarioGrid.from_config(config).units(), store)
    return store.rep_rows()


class TestSocketExecutor:
    def test_two_workers_match_serial(self, pinned_config, pinned_serial_rows):
        messages = []
        [result] = run_grid(
            ScenarioGrid.from_config(pinned_config),
            executor=SocketExecutor(spawn_workers=2, timeout=DEADLINE_S),
            progress=messages.append,
        )
        assert result.rows() == pinned_serial_rows
        assert len(messages) == 4

    def test_worker_death_requeues_units(self, pinned_config, pinned_serial_rows):
        # One worker vanishes after a single unit (simulated crash); the
        # surviving worker picks up the requeued work — rows unchanged.
        executor = SocketExecutor(
            spawn_workers=[["--max-units", "1"], []], timeout=DEADLINE_S
        )
        [result] = run_grid(ScenarioGrid.from_config(pinned_config), executor=executor)
        assert result.rows() == pinned_serial_rows

    def test_slow_heartbeat_worker_not_declared_dead(self, pinned_config):
        # The hello carries the worker's own heartbeat interval and the
        # deadness deadline scales with it: a worker announcing 2 s
        # beats survives 10 s of silence (past the master's 5 s
        # default, inside its own 8 x 2 s), while one announcing 0.5 s
        # is dropped after 5 s and its unit requeued.
        units = ScenarioGrid.from_config(pinned_config).units()[:1]
        store = RunStore()
        run = ScriptedRun(
            units, store,
            [{"heartbeat": 2.0, "silent": True, "unit_seconds": 10.0}],
        ).run()
        assert run.computed == [(0, units[0].unit_id)]
        assert run.exit_codes == [WORKER_EXIT_OK]
        assert len(store) == 1

        run = ScriptedRun(
            units, RunStore(),
            [{"heartbeat": 0.5, "silent": True, "unit_seconds": 10.0}],
        )
        while run.now < 4.75:
            run.step()
        assert Close(1) not in run.actions
        run.step()  # 5 s of silence
        assert Close(1) in run.actions
        assert list(run.job.pending) == units

    def test_no_workers_times_out(self, pinned_config):
        # `timeout` is a no-activity deadline on the core's clock: with
        # no worker connected, the quiet time grows with the clock and
        # a master with timeout=1.0 raises at 1 s.
        units = ScenarioGrid.from_config(pinned_config).units()
        run = ScriptedRun(units, RunStore(), [])
        for _ in range(4):
            run.step()
        assert run.now - run.core.last_activity == 1.0
        assert run.job.status == "running"

    def test_slow_unit_with_live_heartbeats_not_timed_out(self, pinned_config):
        # ... but not a per-unit bound: a worker taking 3x the timeout
        # to compute one unit while heartbeating keeps the quiet time
        # under its beat interval the whole way.
        units = ScenarioGrid.from_config(pinned_config).units()[:1]
        store = RunStore()
        run = ScriptedRun(
            units, store, [{"heartbeat": 0.3, "unit_seconds": 3.0}]
        )
        quiet = []
        while run.job.status == "running":
            run.step()
            quiet.append(run.now - run.core.last_activity)
        assert run.now >= 3.0
        assert max(quiet) < 1.0
        assert len(store) == 1

    def test_all_spawned_workers_dead_fails_fast(self, pinned_config):
        # A config whose units crash every worker (an unknown algorithm
        # name explodes inside run_rep): each slot is relaunched up to
        # its budget, then the core reports every worker gone — what
        # makes SocketExecutor.run raise instead of waiting out its
        # timeout.
        poison = replace(pinned_config, algorithms=("caft", "no-such-algo"))
        run = ScriptedRun(
            ScenarioGrid.from_config(poison).units(), RunStore(), [{}, {}]
        )
        for _ in range(100):
            if run.core.workers_gone():
                break
            run.step()
        assert run.core.workers_gone()
        assert run.exit_codes == [WORKER_EXIT_ERROR] * (2 + 2 * WORKER_RESPAWN_LIMIT)
        assert run.core.respawns == 2 * WORKER_RESPAWN_LIMIT
        assert run.job.counts() == (0, 4)

    def test_store_backed_socket_campaign(
        self, pinned_config, pinned_serial_rows, tmp_path
    ):
        run_grid(
            ScenarioGrid.from_config(pinned_config),
            executor=SocketExecutor(spawn_workers=2, timeout=DEADLINE_S),
            store=tmp_path / "s",
        )
        from repro.experiments.harness import CampaignResult
        from repro.experiments.store import RunStore

        reloaded = CampaignResult.from_store(RunStore(tmp_path / "s"))
        assert reloaded.rows() == pinned_serial_rows


class TestBatchLeases:
    def test_fixed_lease_matches_serial(self, pinned_config, pinned_serial_rows):
        executor = SocketExecutor(spawn_workers=2, timeout=DEADLINE_S, lease=3)
        [result] = run_grid(ScenarioGrid.from_config(pinned_config), executor=executor)
        assert result.rows() == pinned_serial_rows

    def test_crash_mid_lease_requeues_remainder(self, pinned_config):
        # The fault worker completes one unit of its 2-unit lease and
        # vanishes; per-unit acks mean only the *remainder* requeues, to
        # the survivor once its own lease drains — rows stay
        # bit-identical and the injected fault exits distinctly.
        units = ScenarioGrid.from_config(pinned_config).units()
        store = RunStore()
        run = ScriptedRun(units, store, [{"max_units": 1}, {}], lease=2).run()
        ids = [u.unit_id for u in units]
        assert run.computed == [(0, ids[0]), (1, ids[2]), (1, ids[3]), (1, ids[1])]
        assert run.exit_codes == [WORKER_EXIT_FAULT_INJECTED, WORKER_EXIT_OK]
        assert store.rep_rows() == _serial_rep_rows(pinned_config)

    def test_crash_at_lease_boundary_requeues_next_lease(self, pinned_config):
        # The fault worker completes its whole first lease (max_units ==
        # lease size) and vanishes exactly at the lease boundary: the
        # master already granted it the next lease, and must requeue
        # that lease rather than strand it in flight.
        cfg = replace(pinned_config, num_graphs=3)  # 6 units
        units = ScenarioGrid.from_config(cfg).units()
        ids = [u.unit_id for u in units]
        store = RunStore()
        run = ScriptedRun(units, store, [{"max_units": 2}, {}], lease=2).run()
        leased_to_fault = [
            [WorkUnit.from_dict(d).unit_id for d in a.message["units"]]
            for a in run.actions
            if isinstance(a, Send) and a.conn == 1 and a.message["type"] == "lease"
        ]
        assert leased_to_fault == [ids[0:2], ids[4:6]]
        assert [uid for slot, uid in run.computed if slot == 1] == (
            ids[2:4] + ids[4:6]
        )
        assert run.exit_codes == [WORKER_EXIT_FAULT_INJECTED, WORKER_EXIT_OK]
        assert store.rep_rows() == _serial_rep_rows(cfg)

    def _drive_master(self, pinned_config, worker):
        """Run a master against a hand-rolled worker implementation."""
        import threading
        import time

        from repro.experiments.grid import ScenarioGrid
        from repro.experiments.store import RunStore

        units = ScenarioGrid.from_config(pinned_config).units()
        executor = SocketExecutor(spawn_workers=0, timeout=DEADLINE_S)
        store = RunStore()
        errors = []

        def master():
            try:
                executor.run(units, store)
            except Exception as exc:  # surfaced to the test below
                errors.append(exc)

        thread = threading.Thread(target=master)
        thread.start()
        try:
            while executor.address is None:
                time.sleep(0.01)
            lc = _LineConn(
                socket.create_connection(executor.address, timeout=10.0)
            )
            try:
                worker(lc)
            finally:
                lc.close()
        finally:
            thread.join(timeout=15.0)
        assert not errors, errors
        assert len(store) == len(units)
        return store

    def test_adaptive_lease_grows_with_fast_units(self, pinned_config):
        # First lease is 1 unit (no latency sample); after a fast result
        # the policy sizes the next lease to its fair share of the queue.
        from dataclasses import replace

        from repro.experiments.grid import WorkUnit
        from repro.experiments.store import result_to_dict

        lease_sizes = []

        def scripted_worker(lc):
            lc.send({"type": "hello", "worker": "scripted", "heartbeat": 0.3,
                     "proto": PROTO_VERSION})
            while True:
                message = lc.recv(timeout=10.0)
                if message["type"] == "shutdown":
                    return
                assert message["type"] == "lease", message["type"]
                units = [WorkUnit.from_dict(d) for d in message["units"]]
                lease_sizes.append(len(units))
                for unit in units:
                    lc.send({
                        "type": "result",
                        "unit_id": unit.unit_id,
                        "result": result_to_dict(unit.run()),
                        "seconds": 0.01,  # report fast units
                    })

        cfg = replace(pinned_config, num_graphs=3)  # 6 units
        self._drive_master(cfg, scripted_worker)
        assert lease_sizes[0] == 1
        assert max(lease_sizes) > 1  # the master batched once calibrated
        assert sum(lease_sizes) == 6

    def test_duplicate_result_delivery_ignored(
        self, pinned_config, pinned_serial_rows
    ):
        # A worker acking the same unit twice (replayed delivery) must
        # not corrupt the store or kill the connection.
        from repro.experiments.grid import WorkUnit
        from repro.experiments.store import result_to_dict

        def duplicating_worker(lc):
            lc.send({"type": "hello", "worker": "dup", "heartbeat": 0.3,
                     "proto": PROTO_VERSION})
            while True:
                message = lc.recv(timeout=10.0)
                if message["type"] == "shutdown":
                    return
                units = [WorkUnit.from_dict(d) for d in message["units"]]
                for unit in units:
                    ack = {
                        "type": "result",
                        "unit_id": unit.unit_id,
                        "result": result_to_dict(unit.run()),
                        "seconds": 0.01,
                    }
                    lc.send(ack)
                    lc.send(ack)  # duplicate delivery

        store = self._drive_master(pinned_config, duplicating_worker)
        assert store.rep_rows() == _serial_rep_rows(pinned_config)


class TestWireProtocol:
    def test_line_conn_round_trip(self):
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()[:2]
        client = socket.create_connection((host, port), timeout=5.0)
        conn, _ = server.accept()
        a, b = _LineConn(client), _LineConn(conn)
        try:
            a.send({"type": "hello", "worker": "w1"})
            assert b.recv(timeout=5.0) == {"type": "hello", "worker": "w1"}
            b.send({"type": "lease", "units": [{"granularity": 0.5}]})
            assert a.recv(timeout=5.0)["units"] == [{"granularity": 0.5}]
            # Closing via the _LineConn releases the makefile reference too,
            # so the peer observes EOF (a bare sock.close() would not).
            a.close()
            with pytest.raises(ConnectionError):
                b.recv(timeout=5.0)
        finally:
            a.close()
            b.close()
            server.close()


@contextlib.contextmanager
def _one_job_master(kind, config, root):
    """A master running ``config`` as its one job with no worker yet.

    Yields ``(address, done, finish)``: ``done()`` counts stored units,
    ``finish()`` waits for the job and returns its per-rep rows."""
    from repro.experiments.service import CampaignService, ServiceClient
    from repro.experiments.store import RunStore, open_store

    if kind == "socket":
        executor = SocketExecutor(spawn_workers=0, timeout=DEADLINE_S)
        store = RunStore()
        errors = []

        def master():
            try:
                executor.run(ScenarioGrid.from_config(config).units(), store)
            except Exception as exc:  # surfaced by finish()
                errors.append(exc)

        thread = threading.Thread(target=master)
        thread.start()
        while executor.address is None:
            time.sleep(0.01)

        def finish():
            thread.join(timeout=DEADLINE_S)
            assert not thread.is_alive() and not errors, errors
            return store.rep_rows()

        try:
            yield executor.address, lambda: len(store), finish
        finally:
            thread.join(timeout=DEADLINE_S)
    else:
        with CampaignService(root, spawn_workers=0) as service:
            address = service.start()
            client = ServiceClient(address)
            job = client.submit({"config": config.to_dict()})

            def finish():
                final = client.wait(job["job_id"], timeout=DEADLINE_S)
                assert final["state"] == "done", final
                with open_store(job["store"]) as stored:
                    return stored.rep_rows()

            yield address, lambda: client.status(job["job_id"])["done"], finish


class TestStaleHello:
    @pytest.mark.parametrize(
        "hello", [{}, {"proto": PROTO_VERSION - 1}], ids=["no-proto", "old-proto"]
    )
    @pytest.mark.parametrize("kind", ["socket", "service"])
    def test_stale_hello_is_refused(self, kind, hello, pinned_config, tmp_path):
        # Both masters serve workers through the same loop and core: a
        # hello without the one protocol version gets `error` and a
        # closed connection before anything is leased, and the job still
        # completes on a current worker.
        with _one_job_master(kind, pinned_config, tmp_path / "svc") as (
            address, done, finish
        ):
            stale = _LineConn(socket.create_connection(address, timeout=10.0))
            try:
                stale.send({"type": "hello", "worker": "stale",
                            "heartbeat": 0.3, **hello})
                reply = stale.recv(timeout=10.0)
                assert reply["type"] == "error", reply
                assert reply["key"] == "proto"
                with pytest.raises(ConnectionError):
                    stale.recv(timeout=10.0)  # closed, no lease followed
            finally:
                stale.close()
            assert done() == 0
            exit_codes = []
            worker = threading.Thread(
                target=lambda: exit_codes.append(
                    run_worker(*address, heartbeat=0.3, idle_timeout=30.0)
                )
            )
            worker.start()
            assert finish() == _serial_rep_rows(pinned_config)
        worker.join(timeout=DEADLINE_S)
        assert exit_codes == [WORKER_EXIT_OK]
