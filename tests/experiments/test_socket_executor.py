"""Socket-executor integration tests (localhost master + worker processes).

Marked ``distributed``: run only these with
``pytest -m distributed``, or skip them with ``-m "not distributed"``.
Each campaign gets a 60 s no-activity timeout — a master that stops
hearing from every worker fails loudly instead of wedging the suite —
and the whole module is skipped where localhost sockets are unavailable.
"""

import socket

import pytest

from repro.experiments.campaign import run_grid
from repro.experiments.executors import SocketExecutor
from repro.experiments.grid import ScenarioGrid
from repro.experiments.executors.socket import _LineConn, sockets_available

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

    def test_slow_heartbeat_worker_not_declared_dead(
        self, pinned_config, pinned_serial_rows
    ):
        # The hello message carries the worker's own heartbeat interval;
        # the master scales its deadness deadline per connection, so a
        # worker beating slower than the master's default survives.
        executor = SocketExecutor(
            spawn_workers=[["--heartbeat", "2.0"]], timeout=DEADLINE_S
        )
        [result] = run_grid(ScenarioGrid.from_config(pinned_config), executor=executor)
        assert result.rows() == pinned_serial_rows

    def test_no_workers_times_out(self, pinned_config):
        executor = SocketExecutor(spawn_workers=0, timeout=1.0)
        with pytest.raises(TimeoutError, match="workers connected"):
            run_grid(ScenarioGrid.from_config(pinned_config), executor=executor)

    def test_slow_unit_with_live_heartbeats_not_timed_out(self, pinned_config):
        # `timeout` is a no-activity deadline, not a per-unit bound: a
        # worker that takes 3x the timeout to compute one unit while
        # heartbeating must not kill the campaign.
        import threading
        import time

        from repro.experiments.grid import ScenarioGrid, WorkUnit
        from repro.experiments.store import RunStore, result_to_dict

        units = ScenarioGrid.from_config(pinned_config).units()[:1]
        executor = SocketExecutor(spawn_workers=0, timeout=1.0)
        store = RunStore()
        errors = []

        def master():
            try:
                executor.run(units, store)
            except Exception as exc:
                errors.append(exc)

        thread = threading.Thread(target=master)
        thread.start()
        while executor.address is None:
            time.sleep(0.01)
        lc = _LineConn(socket.create_connection(executor.address, timeout=10.0))
        try:
            lc.send({"type": "hello", "worker": "slow", "heartbeat": 0.3})
            message = lc.recv(timeout=10.0)
            assert message["type"] == "unit"
            unit = WorkUnit.from_dict(message["unit"])
            result = unit.run()
            for _ in range(10):  # pretend the compute takes 3 s
                time.sleep(0.3)
                lc.send({"type": "heartbeat"})
            lc.send({"type": "result", "unit_id": unit.unit_id,
                     "result": result_to_dict(result)})
            assert lc.recv(timeout=10.0)["type"] == "shutdown"
        finally:
            lc.close()
            thread.join(timeout=10.0)
        assert not errors
        assert len(store) == 1

    def test_all_spawned_workers_dead_fails_fast(self, pinned_config):
        # A config whose units crash every worker (unknown algorithm name
        # explodes inside run_rep) must not sit out the full timeout: the
        # master notices all its spawned workers exited and raises.
        from dataclasses import replace

        poison = replace(pinned_config, algorithms=("caft", "no-such-algo"))
        executor = SocketExecutor(spawn_workers=2, timeout=DEADLINE_S)
        with pytest.raises(RuntimeError, match="spawned worker"):
            run_grid(ScenarioGrid.from_config(poison), executor=executor)

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

    def test_crash_mid_lease_requeues_remainder(
        self, pinned_config, pinned_serial_rows
    ):
        # The fault worker completes one unit of its 2-unit lease and
        # vanishes; per-unit acks mean only the *remainder* requeues —
        # rows stay bit-identical and the injected fault exits distinctly.
        # The survivor is throttled so it cannot finish the whole
        # campaign before the fault worker takes a lease.
        from repro.experiments.executors import (
            WORKER_EXIT_FAULT_INJECTED,
            WORKER_EXIT_OK,
        )

        executor = SocketExecutor(
            spawn_workers=[["--max-units", "1"], ["--slow-factor", "4"]],
            timeout=DEADLINE_S,
            lease=2,
        )
        [result] = run_grid(ScenarioGrid.from_config(pinned_config), executor=executor)
        assert result.rows() == pinned_serial_rows
        assert sorted(executor.worker_exit_codes) == sorted(
            [WORKER_EXIT_FAULT_INJECTED, WORKER_EXIT_OK]
        )

    def test_crash_at_lease_boundary_requeues_next_lease(self, pinned_config):
        # The fault worker completes its whole first lease (--max-units
        # == lease size) and vanishes exactly at the lease boundary: the
        # master has already claimed the next lease when the send/recv
        # fails, and must requeue it rather than strand it in flight.
        from dataclasses import replace

        cfg = replace(pinned_config, num_graphs=3)  # 6 units
        executor = SocketExecutor(
            spawn_workers=[["--max-units", "2"], []],
            timeout=DEADLINE_S,
            lease=2,
        )
        [result] = run_grid(ScenarioGrid.from_config(cfg), executor=executor)
        assert result.rows() == run_grid(ScenarioGrid.from_config(cfg))[0].rows()

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

    def test_v1_worker_negotiation(self, pinned_config, pinned_serial_rows):
        # A hello without a proto field is a v1 worker: the master must
        # stream single `unit` messages, never a `lease`.
        from repro.experiments.grid import WorkUnit
        from repro.experiments.store import result_to_dict

        def v1_worker(lc):
            lc.send({"type": "hello", "worker": "legacy", "heartbeat": 0.3})
            while True:
                message = lc.recv(timeout=10.0)
                if message["type"] == "shutdown":
                    return
                assert message["type"] == "unit", message["type"]
                unit = WorkUnit.from_dict(message["unit"])
                lc.send({
                    "type": "result",
                    "unit_id": unit.unit_id,
                    "result": result_to_dict(unit.run()),
                })

        store = self._drive_master(pinned_config, v1_worker)
        assert store.rep_rows() == _serial_rep_rows(pinned_config)

    def test_adaptive_lease_grows_with_fast_units(self, pinned_config):
        # First lease is 1 unit (no latency sample); after a fast result
        # the policy sizes the next lease to its fair share of the queue.
        from dataclasses import replace

        from repro.experiments.grid import WorkUnit
        from repro.experiments.store import result_to_dict

        lease_sizes = []

        def v2_worker(lc):
            lc.send({"type": "hello", "worker": "v2", "heartbeat": 0.3,
                     "proto": 2})
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
        self._drive_master(cfg, v2_worker)
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
                     "proto": 2})
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
            b.send({"type": "unit", "unit": {"granularity": 0.5}})
            assert a.recv(timeout=5.0)["unit"] == {"granularity": 0.5}
            # Closing via the _LineConn releases the makefile reference too,
            # so the peer observes EOF (a bare sock.close() would not).
            a.close()
            with pytest.raises(ConnectionError):
                b.recv(timeout=5.0)
        finally:
            a.close()
            b.close()
            server.close()
