"""Master lifecycle regression tests: spawned workers never outlive a run.

The bugs pinned here: an exception anywhere in ``SocketExecutor.run``
(mid-spawn or mid-campaign) used to orphan already-spawned worker
subprocesses; the respawn budget was accounted per ``run()`` instead of
per job; and ``--bind host:0`` announced the requested port 0 instead of
the ephemeral port the OS actually bound.  :class:`WorkerPool` tests are
pure (fake processes and the master core, no sockets); the
executor-level tests are marked ``distributed``.
"""

import subprocess

import pytest

from repro.experiments.campaign import run_grid
from repro.experiments.grid import ScenarioGrid
from repro.experiments.executors import (
    SocketExecutor,
    WORKER_EXIT_FAULT_INJECTED,
    WORKER_EXIT_OK,
    WORKER_RESPAWN_LIMIT,
    WorkerPool,
    sockets_available,
)
from repro.experiments.executors.master_core import Job, MasterCore, Spawn


class FakeProc:
    """A stand-in subprocess: pollable, terminable, crashable on cue."""

    def __init__(self):
        self.code = None
        self.terminated = False

    def poll(self):
        return self.code

    def wait(self, timeout=None):
        if self.code is None:
            raise subprocess.TimeoutExpired("fake", timeout)
        return self.code

    def terminate(self):
        self.terminated = True
        self.code = -15

    def kill(self):
        self.code = -9

    def crash(self, code=1):
        self.code = code


class TestWorkerPool:
    """The pool launches and reports; the master core decides respawns."""

    def _pool(self, slots=1):
        spawned = []

        def spawn(extra_args):
            proc = FakeProc()
            spawned.append(proc)
            return proc

        pool = WorkerPool([[] for _ in range(slots)], spawn)
        pool.spawn_all()
        return pool, spawned

    @staticmethod
    def _supervise(pool, core):
        """One tick of the master: report exits, carry out respawns."""
        for slot, code in pool.exited():
            for action in core.worker_exited(slot, code, now=0.0):
                pool.respawn(action.slot)

    def test_respawn_budget_is_per_job(self):
        pool, spawned = self._pool()
        core = MasterCore(heartbeat=0.5, slots=1)
        # First job: the slot crash-loops to its budget, then stays dead.
        for crashes in range(WORKER_RESPAWN_LIMIT):
            pool.procs[0].crash()
            self._supervise(pool, core)
            assert core.respawns == crashes + 1
        pool.procs[0].crash()
        self._supervise(pool, core)
        assert core.respawns == WORKER_RESPAWN_LIMIT, (
            "budget exceeded within one job"
        )
        assert core.workers_gone()
        # A new job resets the budget: the same slot is respawned again.
        assert core.add_job(Job("next"), now=0.0) == [Spawn(0)]
        assert core.respawns == WORKER_RESPAWN_LIMIT + 1
        assert not core.workers_gone()

    def test_clean_and_fault_exits_never_respawned(self):
        pool, spawned = self._pool(slots=2)
        core = MasterCore(heartbeat=0.5, slots=2)
        pool.procs[0].crash(WORKER_EXIT_OK)
        pool.procs[1].crash(WORKER_EXIT_FAULT_INJECTED)
        for _ in range(3):
            self._supervise(pool, core)
        assert core.respawns == 0
        assert pool.procs == spawned[:2]
        # ... even across a job boundary: the budget reset must not turn
        # a clean shutdown or an injected fault into a relaunch.
        assert core.add_job(Job("next"), now=0.0) == []
        assert core.respawns == 0
        assert core.workers_gone()

    def test_spawn_failure_terminates_already_started(self):
        spawned = []

        def spawn(extra_args):
            if len(spawned) == 1:
                raise OSError("spawn exploded")
            proc = FakeProc()
            spawned.append(proc)
            return proc

        pool = WorkerPool([[], []], spawn)
        with pytest.raises(OSError, match="spawn exploded"):
            pool.spawn_all()
        assert len(spawned) == 1
        assert spawned[0].terminated, (
            "a failed spawn orphaned the already-started worker"
        )
        assert spawned[0].poll() is not None

    def test_reap_all_includes_replaced_exit_codes(self):
        pool, spawned = self._pool()
        pool.procs[0].crash(9)
        assert pool.exited() == [(0, 9)]
        pool.respawn(0)
        assert pool.exited() == []
        pool.procs[0].crash(WORKER_EXIT_OK)
        codes = pool.reap_all()
        assert sorted(codes) == [WORKER_EXIT_OK, 9]


@pytest.mark.distributed
@pytest.mark.skipif(
    not sockets_available(), reason="localhost sockets unavailable"
)
class TestMasterLifecycle:
    @staticmethod
    def _track_spawns(monkeypatch, fail_after=None):
        """Record every worker the master spawns; the spawn after
        ``fail_after`` successful ones raises instead."""
        from repro.experiments.service import _Master

        procs = []
        inner = _Master._spawn_worker

        def tracking_spawn(master, extra_args):
            if fail_after is not None and len(procs) >= fail_after:
                raise OSError("second spawn exploded")
            proc = inner(master, extra_args)
            procs.append(proc)
            return proc

        monkeypatch.setattr(_Master, "_spawn_worker", tracking_spawn)
        return procs

    def test_interrupted_run_reaps_all_spawned_workers(
        self, monkeypatch, pinned_config
    ):
        # The regression: an interrupt mid-campaign must terminate and
        # reap every --spawn-workers subprocess on the way out — no
        # child survives a raised run.
        from repro.experiments.service import _Master

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(_Master, "turn", interrupted)
        procs = self._track_spawns(monkeypatch)
        executor = SocketExecutor(timeout=60.0, spawn_workers=2)
        with pytest.raises(KeyboardInterrupt):
            run_grid(ScenarioGrid.from_config(pinned_config), executor=executor)
        assert len(procs) == 2
        assert all(proc.poll() is not None for proc in procs), (
            "interrupted master left worker subprocesses running"
        )
        assert len(executor.worker_exit_codes) == 2

    def test_mid_spawn_failure_reaps_earlier_workers(
        self, monkeypatch, pinned_config
    ):
        procs = self._track_spawns(monkeypatch, fail_after=1)
        executor = SocketExecutor(timeout=60.0, spawn_workers=2)
        with pytest.raises(OSError, match="second spawn exploded"):
            run_grid(ScenarioGrid.from_config(pinned_config), executor=executor)
        assert len(procs) == 1
        assert procs[0].poll() is not None, (
            "mid-spawn failure orphaned the first worker"
        )

    def test_bind_port_zero_reports_actual_port(
        self, pinned_config, pinned_serial_rows
    ):
        # on_listen fires with the *bound* address: port 0 in, a real
        # ephemeral port out — what the CLI announce line prints.
        seen = []
        executor = SocketExecutor(
            timeout=60.0, spawn_workers=2, port=0, on_listen=seen.append
        )
        [result] = run_grid(ScenarioGrid.from_config(pinned_config), executor=executor)
        assert result.rows() == pinned_serial_rows
        assert len(seen) == 1
        host, port = seen[0]
        assert port != 0
        assert (host, port) == executor.address


def test_cli_builds_socket_executor_with_announce():
    """The CLI pre-builds socket executors so the announce line can
    carry the actually-bound address (not ``--bind``'s literal text)."""
    from repro.cli import _announce_master, _cli_executor
    from repro.experiments.api import CampaignSpec, ExecutorSpec

    spec = CampaignSpec(
        figure=1,
        executor=ExecutorSpec(kind="socket", bind="127.0.0.1:0",
                              spawn_workers=2),
    )
    executor = _cli_executor(spec)
    assert isinstance(executor, SocketExecutor)
    assert executor.on_listen is _announce_master
    assert (executor.host, executor.port) == ("127.0.0.1", 0)
    # non-socket kinds defer to Campaign's own builder
    assert _cli_executor(CampaignSpec(figure=1)) is None
