"""Straggler-mitigation tests: speculation policy, work stealing, and
the revoke/stale-ack races, pinned with scripted wire-protocol workers.

The conformance matrix (``executor_conformance.py``) proves the
*outcome* — bit-identical rows under wedged workers, revoked leases,
and speculative duplicates.  This module pins the *mechanism*: policy
arithmetic, the exact revoke a victim receives, first-ack-wins in both
orders of the revoke-vs-stale-ack race, a worker computing a unit leased
back to it after a late revoke, connect backoff, and the master's
bounded respawn of crashed local workers.

Scripted-worker and spawned-worker tests are marked ``distributed``
like the rest of the socket suite.
"""

import socket
import threading
import time

import pytest

from repro.experiments.campaign import run_grid
from repro.experiments.executors import SocketExecutor, SpeculationPolicy, parse_steal
from repro.experiments.executors.socket import (
    PROTO_VERSION,
    WORKER_EXIT_ERROR,
    WORKER_EXIT_OK,
    _connect_with_backoff,
    _LineConn,
    run_worker,
    sockets_available,
)
from repro.experiments.grid import ScenarioGrid, WorkUnit
from repro.experiments.store import RunStore, result_to_dict

#: hard deadline for every socket campaign in this module
DEADLINE_S = 60.0


class TestSpeculationPolicy:
    def test_from_spec_resolution(self):
        assert SpeculationPolicy.from_spec(None).enabled is False
        assert SpeculationPolicy.from_spec("off").enabled is False
        assert SpeculationPolicy.from_spec(False).enabled is False
        assert SpeculationPolicy.from_spec("auto").enabled is True
        assert SpeculationPolicy.from_spec(True).enabled is True
        configured = SpeculationPolicy(enabled=True, slow_factor=5.0)
        assert SpeculationPolicy.from_spec(configured) is configured
        with pytest.raises(ValueError, match="bad speculate spec"):
            SpeculationPolicy.from_spec("sometimes")

    def test_budget_caps_launches(self):
        assert SpeculationPolicy(enabled=False).budget(100) == 0
        policy = SpeculationPolicy(enabled=True)  # default fraction 0.25
        assert policy.budget(100) == 25
        assert policy.budget(4) == 1
        # Never zero for a non-empty campaign: one rescue is always
        # allowed, or tiny campaigns could not speculate at all.
        assert policy.budget(1) == 1
        assert SpeculationPolicy(
            enabled=True, budget_fraction=1.0
        ).budget(4) == 4

    def test_is_straggler_needs_calibrated_ewma(self):
        policy = SpeculationPolicy(enabled=True)
        assert policy.is_straggler(1e9, None) is False  # no sample yet
        assert SpeculationPolicy(enabled=False).is_straggler(1e9, 1.0) is False

    def test_is_straggler_thresholds(self):
        policy = SpeculationPolicy(
            enabled=True, slow_factor=3.0, min_seconds=0.5
        )
        # Fast units: the min_seconds floor dominates, so scheduling
        # noise on sub-millisecond campaigns never looks slow.
        assert policy.is_straggler(0.4, 0.01) is False
        assert policy.is_straggler(0.6, 0.01) is True
        # Slow units: slow_factor x EWMA dominates.
        assert policy.is_straggler(2.9, 1.0) is False
        assert policy.is_straggler(3.1, 1.0) is True


class TestParseSteal:
    def test_resolution(self):
        assert parse_steal(None) is True  # on by default
        assert parse_steal("auto") is True
        assert parse_steal(True) is True
        assert parse_steal("off") is False
        assert parse_steal(False) is False
        with pytest.raises(ValueError, match="bad steal spec"):
            parse_steal("maybe")


@pytest.mark.distributed
@pytest.mark.skipif(
    not sockets_available(), reason="localhost sockets unavailable"
)
class TestConnectBackoff:
    def test_retries_until_master_binds(self, capfd):
        # Reserve a port, release it, and bind it back only after the
        # worker's first connect attempts have failed: the jittered
        # backoff must carry the worker over the race with the
        # master's bind instead of dying on the first ECONNREFUSED.
        probe = socket.create_server(("127.0.0.1", 0))
        host, port = probe.getsockname()[:2]
        probe.close()
        server_box = []

        def late_bind():
            time.sleep(0.4)
            server_box.append(socket.create_server((host, port)))

        binder = threading.Thread(target=late_bind)
        binder.start()
        try:
            conn = _connect_with_backoff(host, port)
            conn.close()
        finally:
            binder.join()
            for server in server_box:
                server.close()
        assert "unreachable" in capfd.readouterr().err

    def test_gives_up_after_bounded_retries(self, capfd):
        probe = socket.create_server(("127.0.0.1", 0))
        host, port = probe.getsockname()[:2]
        probe.close()
        with pytest.raises(OSError):
            _connect_with_backoff(host, port, retries=1)
        assert "retry 1/1" in capfd.readouterr().err


def _serial_rep_rows(config):
    """Per-rep serial baseline rows (what every scripted run must match)."""
    from repro.experiments.executors import SerialExecutor

    store = RunStore()
    SerialExecutor().run(ScenarioGrid.from_config(config).units(), store)
    return store.rep_rows()


def _wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.01)


@pytest.mark.distributed
@pytest.mark.skipif(
    not sockets_available(), reason="localhost sockets unavailable"
)
class TestScriptedStraggler:
    """Drive a real master with hand-rolled workers so every race is
    sequenced deterministically from the test body."""

    def _start_master(self, units, executor, store):
        errors = []

        def master():
            try:
                executor.run(units, store)
            except Exception as exc:  # surfaced by _finish below
                errors.append(exc)

        thread = threading.Thread(target=master)
        thread.start()
        _wait_until(
            lambda: executor.address is not None, message="master bind"
        )
        return thread, errors

    @staticmethod
    def _finish(thread, errors):
        thread.join(timeout=15.0)
        assert not thread.is_alive(), "master did not finish"
        assert not errors, errors

    @staticmethod
    def _hello(executor):
        lc = _LineConn(socket.create_connection(executor.address, timeout=10.0))
        lc.send({
            "type": "hello", "worker": "scripted",
            "heartbeat": 0.3, "proto": PROTO_VERSION,
        })
        return lc

    @staticmethod
    def _ack(lc, unit, seconds=0.01):
        lc.send({
            "type": "result",
            "unit_id": unit.unit_id,
            "result": result_to_dict(unit.run()),
            "seconds": seconds,
        })

    @staticmethod
    def _lease_units(message):
        assert message["type"] == "lease", message["type"]
        return [WorkUnit.from_dict(d) for d in message["units"]]

    def _steal_setup(self, pinned_config, **executor_kwargs):
        """Master + victim holding a 4-unit lease + thief that stole its
        unstarted tail.  Returns everything the race tests sequence."""
        units = ScenarioGrid.from_config(pinned_config).units()
        executor = SocketExecutor(
            spawn_workers=0, timeout=DEADLINE_S, lease=len(units),
            **executor_kwargs,
        )
        store = RunStore()
        thread, errors = self._start_master(units, executor, store)
        victim = self._hello(executor)
        leased = self._lease_units(victim.recv(timeout=10.0))
        assert len(leased) == len(units)  # one lease spans the campaign
        thief = self._hello(executor)
        stolen = self._lease_units(thief.recv(timeout=10.0))
        # The head of the victim's lease is what it is computing right
        # now; only the unstarted tail moves.
        assert [u.unit_id for u in stolen] == [
            u.unit_id for u in leased[1:]
        ]
        revoke = victim.recv(timeout=10.0)
        assert revoke == {
            "type": "revoke",
            "unit_ids": [u.unit_id for u in leased[1:]],
        }
        return executor, store, thread, errors, victim, thief, leased, stolen

    def test_idle_worker_steals_unstarted_tail(self, pinned_config):
        (executor, store, thread, errors, victim, thief, leased, stolen) = (
            self._steal_setup(pinned_config)
        )
        try:
            for unit in stolen:
                self._ack(thief, unit)
            self._ack(victim, leased[0])
            assert victim.recv(timeout=10.0)["type"] == "shutdown"
            assert thief.recv(timeout=10.0)["type"] == "shutdown"
        finally:
            victim.close()
            thief.close()
            self._finish(thread, errors)
        assert executor.stolen_units == len(leased) - 1
        assert executor.speculative_attempts == 0
        # An obedient victim produces no duplicate deliveries at all.
        assert store.dedup_stats() == {
            "duplicate_appends": 0, "replayed_rows": 0,
        }
        assert store.rep_rows() == _serial_rep_rows(pinned_config)

    def test_stale_ack_after_thief_loses(self, pinned_config):
        # Race order A: the thief's result lands first; the victim
        # (ignoring its revoke) acks the same unit afterwards.  The late
        # copy must lose first-ack-wins and be attributed as "stale".
        (executor, store, thread, errors, victim, thief, leased, stolen) = (
            self._steal_setup(pinned_config)
        )
        try:
            for unit in stolen:
                self._ack(thief, unit)
            _wait_until(
                lambda: len(store) == len(stolen),
                message="thief results stored",
            )
            self._ack(victim, stolen[0])  # revoked: a stale delivery
            _wait_until(
                lambda: store.dedup_stats().get("by_attempt")
                == {"stale": 1},
                message="stale ack counted",
            )
            self._ack(victim, leased[0])
            assert victim.recv(timeout=10.0)["type"] == "shutdown"
            assert thief.recv(timeout=10.0)["type"] == "shutdown"
        finally:
            victim.close()
            thief.close()
            self._finish(thread, errors)
        assert store.dedup_stats() == {
            "duplicate_appends": 1,
            "replayed_rows": 0,
            "by_attempt": {"stale": 1},
        }
        assert store.rep_rows() == _serial_rep_rows(pinned_config)

    def test_stale_ack_before_thief_wins(self, pinned_config):
        # Race order B: the victim finished a revoked unit before it
        # read the revoke, and its ack beats the thief's.  First ack
        # wins regardless of who holds the lease now — the stale copy
        # is stored, the thief's later delivery is the duplicate.
        (executor, store, thread, errors, victim, thief, leased, stolen) = (
            self._steal_setup(pinned_config)
        )
        try:
            self._ack(victim, stolen[0])  # revoked, but first to land
            _wait_until(lambda: len(store) == 1, message="stale ack stored")
            for unit in stolen:
                self._ack(thief, unit)
            self._ack(victim, leased[0])
            assert victim.recv(timeout=10.0)["type"] == "shutdown"
            assert thief.recv(timeout=10.0)["type"] == "shutdown"
        finally:
            victim.close()
            thief.close()
            self._finish(thread, errors)
        assert store.dedup_stats() == {
            "duplicate_appends": 1,
            "replayed_rows": 0,
            "by_attempt": {"stolen": 1},
        }
        assert store.rep_rows() == _serial_rep_rows(pinned_config)

    def test_speculation_rescues_wedged_lease(self, pinned_config):
        # A wedged victim: acks one unit (calibrating the EWMA), then
        # holds the rest of its lease forever.  With stealing off, only
        # speculation can finish the campaign — one duplicate per idle
        # claim, in lease order.
        units = ScenarioGrid.from_config(pinned_config).units()
        executor = SocketExecutor(
            spawn_workers=0, timeout=DEADLINE_S, lease=len(units),
            steal="off",
            speculate=SpeculationPolicy(
                enabled=True, min_seconds=0.2, budget_fraction=1.0
            ),
        )
        store = RunStore()
        thread, errors = self._start_master(units, executor, store)
        victim = self._hello(executor)
        rescuer = None
        try:
            leased = self._lease_units(victim.recv(timeout=10.0))
            self._ack(victim, leased[0])  # then wedge, heartbeats only
            rescuer = self._hello(executor)
            for expected in leased[1:]:
                duplicate = self._lease_units(rescuer.recv(timeout=10.0))
                assert [u.unit_id for u in duplicate] == [expected.unit_id]
                self._ack(rescuer, duplicate[0])
            assert rescuer.recv(timeout=10.0)["type"] == "shutdown"
        finally:
            victim.close()
            if rescuer is not None:
                rescuer.close()
            self._finish(thread, errors)
        assert executor.speculative_attempts == len(units) - 1
        assert executor.stolen_units == 0
        # The wedged worker never delivered its duplicates, so the
        # store saw each unit exactly once.
        assert store.dedup_stats() == {
            "duplicate_appends": 0, "replayed_rows": 0,
        }
        assert store.rep_rows() == _serial_rep_rows(pinned_config)


@pytest.mark.distributed
@pytest.mark.skipif(
    not sockets_available(), reason="localhost sockets unavailable"
)
class TestScriptedMaster:
    """Drive a real ``run_worker`` from a hand-rolled master."""

    @staticmethod
    def _next_result(lc):
        while True:
            message = lc.recv(timeout=10.0)
            if message["type"] != "heartbeat":
                assert message["type"] == "result", message
                return message

    def test_late_revoke_does_not_block_a_later_lease(self, pinned_config):
        # A revoke that reaches the worker after it started the unit
        # (here: after it acked it) is moot.  When a later steal leases
        # the same id back to this worker, it must compute and ack it,
        # or the master waits on that unit forever.
        unit = ScenarioGrid.from_config(pinned_config).units()[0]
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()[:2]
        exit_codes = []
        worker = threading.Thread(
            target=lambda: exit_codes.append(
                run_worker(host, port, heartbeat=0.3, idle_timeout=30.0)
            )
        )
        worker.start()
        conn, _ = server.accept()
        lc = _LineConn(conn)
        try:
            assert lc.recv(timeout=10.0)["type"] == "hello"
            lc.send({"type": "lease", "units": [unit.to_dict()]})
            assert self._next_result(lc)["unit_id"] == unit.unit_id
            lc.send({"type": "revoke", "unit_ids": [unit.unit_id]})
            lc.send({"type": "lease", "units": [unit.to_dict()]})
            again = self._next_result(lc)
            assert again["unit_id"] == unit.unit_id
            assert again["result"] == result_to_dict(unit.run())
            lc.send({"type": "shutdown"})
            worker.join(timeout=10.0)
        finally:
            lc.close()
            server.close()
            worker.join(timeout=10.0)
        assert exit_codes == [WORKER_EXIT_OK]


@pytest.mark.distributed
@pytest.mark.skipif(
    not sockets_available(), reason="localhost sockets unavailable"
)
class TestWorkerRespawn:
    def test_crashed_local_worker_is_respawned(
        self, pinned_config, pinned_serial_rows
    ):
        # The only spawned worker genuinely crashes (exit 1) every two
        # units: the campaign cannot complete without the master's
        # bounded respawn relaunching it.
        executor = SocketExecutor(
            spawn_workers=[["--die-after", "2"]], timeout=DEADLINE_S
        )
        [result] = run_grid(ScenarioGrid.from_config(pinned_config), executor=executor)
        assert result.rows() == pinned_serial_rows
        assert executor.worker_respawns >= 1
        assert WORKER_EXIT_ERROR in executor.worker_exit_codes
