"""Reusable executor conformance + fault-injection harness.

The executor stack's core contract is *bit-identical stored rows*: any
executor, any worker count, any lease size, and any fault along the way
must leave the store exactly as a fault-free serial run would.  This
module packages that contract as a matrix any executor implementation
can be driven through:

========================  ==================================================
fault cell                what is injected
========================  ==================================================
``none``                  nothing — the plain equivalence run
``worker-crash``          the computing side dies mid-campaign: a socket
                          worker vanishes mid-lease (so the partial-lease
                          remainder requeues to the survivor),
                          serial/process abort after two units and a fresh
                          executor finishes via ``resume=True``
``master-kill-resume``    the whole campaign process takes ``SIGKILL``
                          mid-run; a new process resumes the store
``duplicate-delivery``    every result is delivered to the store twice
                          (requeue-race replay); idempotent appends must
                          swallow each copy exactly once
``speculative-duplicate`` a worker wedges mid-unit (heartbeating, never
                          finishing) and speculation rescues its lease with
                          duplicate attempts; serial/process replay every
                          append as a losing ``"speculative"`` attempt and
                          the per-attempt dedup counts must be exact
``lease-revocation``      an idle worker steals the unstarted remainder of
                          a straggler's lease (``revoke``);
                          serial/process abort mid-campaign, a fresh
                          executor finishes the re-leased remainder, and a
                          revoked unit's late ``"stale"`` ack is swallowed
``wedged-worker``         a worker stalls mid-unit without dying — alive to
                          the dead-man deadline, dead to the campaign —
                          and stealing + speculation together must rescue
                          every unit it holds
``revoke-ack-race``       the victim ignores the revoke and keeps acking
                          revoked units, racing the thief; first ack wins
                          in both orders and losers are counted per attempt
========================  ==================================================

``run_cell`` executes one (executor, fault, backend) cell against a
store directory and returns the store's canonical per-rep rows for
comparison against the serial baseline.  The socket executor's
``worker-crash``, ``speculative-duplicate``, ``lease-revocation``,
``wedged-worker`` and ``revoke-ack-race`` cells drive its master core
(:class:`~repro.experiments.executors.master_core.MasterCore`) with
scripted workers on a virtual clock, so they assert exact counts; its
other cells run real master and worker processes.  The same matrix runs against
both result-store backends — the JSONL rows file and the columnar
chunk store (with ``chunk_rows`` shrunk so every cell exercises chunk
sealing mid-campaign) — pinning the two to identical semantics under
every fault.  ``test_conformance.py`` drives the full matrix under the
``conformance`` pytest marker; the module itself is importable (no
``test_`` prefix) so future executors can reuse it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Union

from repro.experiments.campaign import run_grid
from repro.experiments.columnar import ColumnarStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.store import RunStore, open_store
from repro.experiments.executors import (
    ProcessExecutor,
    SerialExecutor,
    SocketExecutor,
    SpeculationPolicy,
    WORKER_EXIT_FAULT_INJECTED,
    WORKER_EXIT_OK,
    sockets_available,
)
from repro.experiments.grid import ScenarioGrid, WorkUnit
from repro.experiments.harness import RepResult
from scripted_master import ScriptedRun

EXECUTORS: tuple[str, ...] = ("serial", "process", "socket")
BACKENDS: tuple[str, ...] = ("jsonl", "columnar")
#: tiny sealing threshold so every columnar cell rotates chunks mid-run
#: (each pinned-config unit flattens to several rows)
CONFORMANCE_CHUNK_ROWS = 3
FAULTS: tuple[str, ...] = (
    "none",
    "worker-crash",
    "master-kill-resume",
    "duplicate-delivery",
    "speculative-duplicate",
    "lease-revocation",
    "wedged-worker",
    "revoke-ack-race",
)

#: the socket cells that run real master and worker processes; the
#: other socket cells drive the master core with scripted workers
#: (``scripted_master.py``) and need no sockets
REAL_SOCKET_FAULTS: tuple[str, ...] = (
    "none", "master-kill-resume", "duplicate-delivery",
)

#: hard no-activity deadline for every real socket cell — a wedged
#: master fails loudly instead of hanging the suite
DEADLINE_S = 60.0


class FaultInjected(RuntimeError):
    """Raised by the harness to kill the computing side mid-campaign."""


class DuplicatingAppends:
    """A store whose every append is delivered twice.

    Models the requeue-race replay (a presumed-dead worker's result
    arriving after the rerun's) uniformly for all executors: the second
    delivery must be swallowed by idempotency, never duplicate a row.
    Composed over either backend class by :func:`_new_store`.
    """

    def append(
        self, unit: WorkUnit, result: RepResult, attempt: str = "primary"
    ) -> bool:
        first = super().append(unit, result, attempt=attempt)
        replay = super().append(unit, result, attempt=attempt)
        assert not replay, f"duplicate append of {unit.unit_id} was stored"
        return first


class AttemptReplayAppends:
    """A store where every unit's result also arrives from a losing
    speculative attempt — the serial/process model of first-ack-wins:
    the replay must never be stored, and must be attributed to its
    attempt tag exactly in ``dedup_stats()["by_attempt"]``."""

    def append(
        self, unit: WorkUnit, result: RepResult, attempt: str = "primary"
    ) -> bool:
        first = super().append(unit, result, attempt=attempt)
        replay = super().append(unit, result, attempt="speculative")
        assert not replay, f"speculative replay of {unit.unit_id} was stored"
        return first


class RacingAppends:
    """A store delivering each unit from both sides of the revoke-vs-ack
    race, alternating which attempt wins: the thief's ``"stolen"`` ack
    first for even units, the ignoring victim's ``"stale"`` ack first
    for odd ones.  Whichever order, first ack wins, the loser is counted
    under its tag, and the stored row is the same bits."""

    def append(
        self, unit: WorkUnit, result: RepResult, attempt: str = "primary"
    ) -> bool:
        winner, loser = ("stolen", "stale") if len(self) % 2 == 0 else (
            "stale", "stolen"
        )
        first = super().append(unit, result, attempt=winner)
        replay = super().append(unit, result, attempt=loser)
        assert not replay, f"losing {loser} ack of {unit.unit_id} was stored"
        return first


_BACKEND_BASES = {"jsonl": RunStore, "columnar": ColumnarStore}
_fault_store_cache: dict[tuple[str, str], type] = {}


def _new_store(
    backend: str, store_dir: Union[str, Path], mixin: Optional[type] = None
):
    """A fresh store of ``backend`` (columnar sized to seal mid-cell),
    optionally composed with a fault-injection append mixin."""
    base = _BACKEND_BASES[backend]
    cls = base
    if mixin is not None:
        key = (backend, mixin.__name__)
        cls = _fault_store_cache.get(key)
        if cls is None:
            cls = type(f"{mixin.__name__}_{base.__name__}", (mixin, base), {})
            _fault_store_cache[key] = cls
    if backend == "columnar":
        return cls(store_dir, chunk_rows=CONFORMANCE_CHUNK_ROWS)
    return cls(store_dir)


def make_cell_executor(name: str):
    """A fresh executor for one conformance cell."""
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(2, clamp=False, lease="auto")
    if name == "socket":
        return SocketExecutor(spawn_workers=2, timeout=DEADLINE_S, lease="auto")
    raise ValueError(f"unknown conformance executor {name!r}")


def stored_rows(store_dir: Union[str, Path]) -> list[dict]:
    """The canonical per-rep rows of a store directory (any backend)."""
    with open_store(store_dir) as store:
        return store.rep_rows()


def run_cell(
    config: ExperimentConfig,
    executor_name: str,
    fault: str,
    store_dir: Union[str, Path],
    backend: str = "jsonl",
) -> list[dict]:
    """Run one (executor, fault, backend) cell; returns the stored rows.

    Every cell finishes the full campaign into ``store_dir`` — through
    the fault — and additionally asserts the fault-specific invariants
    (partial progress before resume, distinct fault exit codes, dedup
    counts).  The caller compares the returned rows against the serial
    baseline.
    """
    store_dir = Path(store_dir)
    grid = ScenarioGrid.from_config(config)
    total = grid.total_units

    if fault == "none":
        with _new_store(backend, store_dir) as store:
            run_grid(grid, executor=make_cell_executor(executor_name),
                     store=store)

    elif fault == "duplicate-delivery":
        store = _new_store(backend, store_dir, DuplicatingAppends)
        try:
            run_grid(grid, executor=make_cell_executor(executor_name),
                     store=store)
        finally:
            store.close()
        stats = store.dedup_stats()
        assert stats["duplicate_appends"] >= total, (
            f"expected >= {total} swallowed replays, saw {stats}"
        )

    elif fault == "worker-crash":
        if executor_name == "socket":
            # Worker 0 vanishes after the first unit of its 2-unit lease
            # (max_units 1): the master requeues the lease's unfinished
            # remainder, and the survivor computes it after its own lease.
            run = _scripted(grid, backend, store_dir,
                            [{"max_units": 1}, {}], lease=2)
            assert run.exit_codes == [WORKER_EXIT_FAULT_INJECTED, WORKER_EXIT_OK]
            ids = [u.unit_id for u in grid.units()]
            assert run.computed == [
                (0, ids[0]), (1, ids[2]), (1, ids[3]), (1, ids[1]),
            ]
            assert run.core.respawns == 0
        else:
            # Serial/process have no independently-killable worker with a
            # survivor, so the computing side aborts mid-campaign and a
            # fresh executor finishes from the partial store.
            _abort_then_resume(config, executor_name, store_dir, total,
                               backend, abort_after=2)

    elif fault == "master-kill-resume":
        _sigkill_master_then_resume(
            config, executor_name, store_dir, total, backend
        )

    elif fault == "speculative-duplicate":
        if executor_name == "socket":
            # Worker 0 wedges on its very first unit (heartbeating the
            # whole time, so the dead-man deadline never fires) while
            # stealing is off: once its 2-unit lease has stalled past
            # 3x the unit time, speculation duplicates both units onto
            # the healthy worker, one per idle claim.
            run = _scripted(
                grid, backend, store_dir, [{"wedge": True}, {}], lease=2,
                steal=False,
                speculation=SpeculationPolicy(
                    enabled=True, budget_fraction=1.0, min_seconds=0.3
                ),
            )
            assert run.job.speculative_attempts == 2
            assert run.job.stolen_units == 0
            assert run.exit_codes == [WORKER_EXIT_FAULT_INJECTED, WORKER_EXIT_OK]
            # The wedged worker never delivered its copies.
            assert run.dedup == {"duplicate_appends": 0, "replayed_rows": 0}
        else:
            store = _new_store(backend, store_dir, AttemptReplayAppends)
            try:
                run_grid(
                    grid,
                    executor=make_cell_executor(executor_name),
                    store=store,
                )
            finally:
                store.close()
            stats = store.dedup_stats()
            assert stats["duplicate_appends"] == total, stats
            assert stats["by_attempt"] == {"speculative": total}, stats

    elif fault == "lease-revocation":
        if executor_name == "socket":
            # One 4-unit lease pins the campaign on worker 0; worker 1
            # connects idle and steals its unstarted tail (3 units).
            # Whoever drains first steals the other's tail back — 2, then
            # 1 more — and every revoke is obeyed, so each unit is
            # computed exactly once.
            run = _scripted(grid, backend, store_dir, [{}, {}],
                            lease=total, steal=True)
            assert run.job.stolen_units == 6
            assert sorted(uid for _, uid in run.computed) == sorted(
                u.unit_id for u in grid.units()
            )
            assert run.dedup == {"duplicate_appends": 0, "replayed_rows": 0}
        else:
            # Serial/process analog: the computing side is revoked
            # mid-campaign (abort after two units), a fresh executor is
            # re-leased the remainder, and the revoked attempt's late
            # ack for an already-stored unit must be swallowed as a
            # counted "stale" duplicate.
            _abort_then_resume(config, executor_name, store_dir, total,
                               backend, abort_after=2)
            with open_store(store_dir) as store:
                unit = grid.units()[0]
                late = store.result(unit.unit_id)
                assert not store.append(unit, late, attempt="stale")
                assert store.dedup_stats()["by_attempt"] == {"stale": 1}

    elif fault == "wedged-worker":
        if executor_name == "socket":
            # The full rescue path: worker 0 takes the whole campaign as
            # one lease and wedges on the head unit.  Stealing reclaims
            # the 3-unit tail, speculation duplicates the wedged head —
            # between them every unit it holds completes, and its
            # injected-fault exit code stays distinct.
            run = _scripted(grid, backend, store_dir, [{"wedge": True}, {}],
                            lease=total, steal=True,
                            speculation=SpeculationPolicy.from_spec("auto"))
            assert run.job.stolen_units == 3
            assert run.job.speculative_attempts == 1
            assert run.exit_codes == [WORKER_EXIT_FAULT_INJECTED, WORKER_EXIT_OK]
            assert run.dedup == {"duplicate_appends": 0, "replayed_rows": 0}
        else:
            # Serial/process analog: the run stalls mid-unit (the wedge)
            # and is abandoned after a single completed unit; a fresh
            # executor must finish the rest.
            _abort_then_resume(config, executor_name, store_dir, total,
                               backend, abort_after=1, stall_seconds=0.3)

    elif fault == "revoke-ack-race":
        if executor_name == "socket":
            # Both workers ignore revokes, so stolen units are computed
            # twice and the race goes both ways.  Unit 1: the thief's
            # "stolen" ack lands first, the ignoring victim's "stale" copy
            # loses.  Unit 2 (stolen back from the thief): the thief, now
            # the victim, acks first as "stale" and the new thief's
            # "stolen" copy loses.  The job completes on unit 3 before
            # worker 0's last duplicate arrives, so nothing else counts.
            run = _scripted(
                grid, backend, store_dir,
                [{"ignore_revoke": True}, {"ignore_revoke": True}],
                lease=total, steal=True,
            )
            assert run.job.stolen_units == 6
            assert run.dedup == {
                "duplicate_appends": 2,
                "replayed_rows": 0,
                "by_attempt": {"stale": 1, "stolen": 1},
            }
        else:
            # Serial/process exercise both orders of the race directly
            # at the store layer: half the units are won by the thief's
            # "stolen" ack, half by the ignoring victim's "stale" ack.
            store = _new_store(backend, store_dir, RacingAppends)
            try:
                run_grid(
                    grid,
                    executor=make_cell_executor(executor_name),
                    store=store,
                )
            finally:
                store.close()
            stats = store.dedup_stats()
            assert stats["duplicate_appends"] == total, stats
            half, other = total // 2, total - total // 2
            assert stats["by_attempt"] == {"stale": half, "stolen": other}, (
                stats
            )

    else:
        raise ValueError(f"unknown conformance fault {fault!r}")

    rows = stored_rows(store_dir)
    with open_store(store_dir) as store:
        assert store.backend_name == backend, (
            f"cell store reopened as {store.backend_name!r}, not {backend!r}"
        )
        missing = {u.unit_id for u in grid.units()} - set(store.completed_ids())
    assert not missing, f"cell left {len(missing)} unit(s) incomplete"
    return rows


def _scripted(grid, backend, store_dir, workers, **master):
    """Run the grid on the master core with scripted workers into a
    fresh store of ``backend``; the run carries the store's final
    ``dedup`` stats."""
    store = _new_store(backend, store_dir)
    try:
        run = ScriptedRun(grid.units(), store, workers, **master).run()
    finally:
        store.close()
    run.dedup = store.dedup_stats()
    return run


def _abort_then_resume(
    config: ExperimentConfig,
    executor_name: str,
    store_dir: Path,
    total: int,
    backend: str,
    abort_after: int,
    stall_seconds: float = 0.0,
) -> None:
    """Abort an in-process campaign after ``abort_after`` units, then
    finish it with a fresh executor via ``resume=True``.

    ``stall_seconds`` sleeps before the abort — the serial/process model
    of a wedged computation that an operator eventually abandons.
    """
    grid = ScenarioGrid.from_config(config)
    calls = 0

    def dying_progress(message: str) -> None:
        nonlocal calls
        calls += 1
        if calls >= abort_after:
            if stall_seconds:
                time.sleep(stall_seconds)
            raise FaultInjected(message)

    try:
        with _new_store(backend, store_dir) as store:
            run_grid(
                grid,
                executor=make_cell_executor(executor_name),
                store=store,
                progress=dying_progress,
            )
    except FaultInjected:
        pass
    with open_store(store_dir) as partial:
        done = len(partial)
    assert 0 < done < total, (
        f"abort landed outside the campaign: {done}/{total} done"
    )
    with _new_store(backend, store_dir) as store:
        run_grid(grid, executor=make_cell_executor(executor_name),
                 store=store, resume=True)


#: the SIGKILL victim subprocess builds its executor from the cell name
#: (socket masters self-host two local workers; process pools skip the
#: CPU clamp so the fault lands mid-drain even on a 1-CPU container)
_VICTIM_SCRIPT = """\
import json, sys, time
from repro.experiments.campaign import run_grid
from repro.experiments.columnar import ColumnarStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.executors import (
    ProcessExecutor, SerialExecutor, SocketExecutor,
)
from repro.experiments.grid import ScenarioGrid
from repro.experiments.store import RunStore

executor = {
    "serial": lambda: SerialExecutor(),
    "process": lambda: ProcessExecutor(2, clamp=False, lease="auto"),
    "socket": lambda: SocketExecutor(spawn_workers=2, lease="auto"),
}[sys.argv[3]]()
cfg = ExperimentConfig.from_dict(json.load(open(sys.argv[1])))
if sys.argv[4] == "columnar":
    store = ColumnarStore(sys.argv[2], chunk_rows=int(sys.argv[5]))
else:
    store = RunStore(sys.argv[2])
# Slow the append rate so the parent can land SIGKILL mid-campaign
# instead of racing a fast finish.
run_grid(
    ScenarioGrid.from_config(cfg),
    executor=executor,
    store=store,
    progress=lambda message: time.sleep(0.4),
)
store.close()
"""


#: the persistent-service conformance cell's victim: a campaign service
#: whose spawned workers are throttled so the parent can land SIGKILL
#: while both submitted jobs are mid-flight
_SERVICE_VICTIM_SCRIPT = """\
import sys
from repro.experiments.service import CampaignService

service = CampaignService(
    sys.argv[1],
    spawn_workers=[["--slow-factor", sys.argv[2]] for _ in range(2)],
)
service.start()
service.serve_forever()
"""


def run_service_cell(
    config: ExperimentConfig, root: Union[str, Path], slow_factor: float = 6.0
) -> tuple[list[dict], list[dict]]:
    """The persistent-service conformance cell.

    A service subprocess (two throttled shared workers) accepts two
    concurrent jobs over the wire — one JSONL store, one columnar — and
    takes ``SIGKILL`` while at least one unit is done and at least one
    is not.  A fresh service started on the same root must resume both
    jobs to completion without rerunning any completed unit's row.
    Returns the two jobs' canonical per-rep rows ``(jsonl, columnar)``
    for comparison against the serial baseline.
    """
    from repro.experiments.service import (
        SERVICE_FILE_NAME,
        CampaignService,
        ServiceClient,
    )

    root = Path(root)
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", _SERVICE_VICTIM_SCRIPT, str(root),
         str(slow_factor)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    service_file = root / SERVICE_FILE_NAME
    deadline = time.monotonic() + DEADLINE_S
    try:
        while not service_file.exists():
            assert proc.poll() is None, "service victim died before binding"
            assert time.monotonic() < deadline, "service never bound"
            time.sleep(0.02)
        info = json.loads(service_file.read_text())
        client = ServiceClient((info["host"], info["port"]))
        jsonl_snap = client.submit({"config": config.to_dict()},
                                   tenant="alice")
        columnar_snap = client.submit(
            {"config": config.to_dict(), "store": {"backend": "columnar"}},
            tenant="bob",
            priority=1,
        )
        done = 0
        while time.monotonic() < deadline:
            done = sum(
                client.status(snap["job_id"])["done"]
                for snap in (jsonl_snap, columnar_snap)
            )
            if done >= 1:
                break
            time.sleep(0.05)
        assert done >= 1, "no unit completed before the kill"
    finally:
        _sigkill_group(proc)

    total = jsonl_snap["total"] + columnar_snap["total"]
    done_on_disk = 0
    for snap in (jsonl_snap, columnar_snap):
        with open_store(snap["store"]) as partial:
            done_on_disk += len(partial)
    assert done_on_disk < total, "kill landed after both jobs finished"

    service = CampaignService(root, spawn_workers=2)
    service.start()
    try:
        client = ServiceClient(service.address)
        for snap in (jsonl_snap, columnar_snap):
            final = client.wait(snap["job_id"], timeout=DEADLINE_S)
            assert final["state"] == "done", final
    finally:
        service.stop()
    with open_store(jsonl_snap["store"]) as store:
        assert store.backend_name == "jsonl"
        jsonl_rows = store.rep_rows()
    with open_store(columnar_snap["store"]) as store:
        assert store.backend_name == "columnar"
        columnar_rows = store.rep_rows()
    return jsonl_rows, columnar_rows


def _group_alive(pgid: int) -> bool:
    """Whether any process of group ``pgid`` is still running (zombies
    awaiting their reaper count as gone)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _sigkill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a victim started with ``start_new_session=True`` together
    with every process it spawned (pool workers, service workers share
    its process group), then assert that none of them survives."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group already exited
    proc.wait(timeout=30)
    deadline = time.monotonic() + 30
    while _group_alive(proc.pid):
        assert time.monotonic() < deadline, (
            f"process group {proc.pid} survived SIGKILL"
        )
        time.sleep(0.02)


def _sigkill_master_then_resume(
    config: ExperimentConfig,
    executor_name: str,
    store_dir: Path,
    total: int,
    backend: str,
) -> None:
    """SIGKILL a campaign subprocess mid-run, then resume it here.

    The kill lands after at least one row hit the disk (polled) and the
    resume must not rerun any completed unit.  Append-only discipline is
    asserted per backend: the JSONL rows file must survive as a byte
    prefix, while columnar sealed chunks must survive byte-identical
    (the tail legitimately truncates when the resume seals it).
    """
    grid = ScenarioGrid.from_config(config)
    cfg_path = store_dir.parent / "victim-config.json"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(config.to_dict()))
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            _VICTIM_SCRIPT,
            str(cfg_path),
            str(store_dir),
            executor_name,
            backend,
            str(CONFORMANCE_CHUNK_ROWS),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    rows_name = "tail.jsonl" if backend == "columnar" else "rows.jsonl"
    rows_path = store_dir / rows_name

    def row_on_disk() -> bool:
        if rows_path.exists() and rows_path.read_bytes().count(b"\n") >= 1:
            return True
        return backend == "columnar" and any(store_dir.glob("chunk-*.npz"))

    deadline = time.monotonic() + DEADLINE_S
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if row_on_disk():
                break
            time.sleep(0.02)
        assert row_on_disk(), "victim campaign never wrote a row"
    finally:
        _sigkill_group(proc)
    with open_store(store_dir) as partial:
        done_before = len(partial)
    assert done_before < total, "kill landed too late to exercise resume"
    bytes_before = rows_path.read_bytes() if rows_path.exists() else b""
    chunks_before = {
        p.name: p.read_bytes() for p in store_dir.glob("chunk-*.npz")
    }

    with _new_store(backend, store_dir) as store:
        run_grid(grid, executor=make_cell_executor(executor_name),
                 store=store, resume=True)

    if backend == "columnar":
        # Sealed chunks are immutable and only ever accrue.
        chunks_after = {
            p.name: p.read_bytes() for p in store_dir.glob("chunk-*.npz")
        }
        for name, blob in chunks_before.items():
            assert chunks_after.get(name) == blob, (
                f"resume rewrote sealed chunk {name}"
            )
        assert len(chunks_after) >= len(chunks_before)
    else:
        bytes_after = rows_path.read_bytes()
        # Append-only discipline: completed rows survive the kill
        # untouched (modulo the documented partial-final-line repair,
        # which only ever removes bytes of the interrupted, *incomplete*
        # record).
        repaired_prefix = bytes_before
        if not bytes_before.endswith(b"\n"):
            repaired_prefix = bytes_before[: bytes_before.rfind(b"\n") + 1]
        assert bytes_after.startswith(repaired_prefix), (
            "resume rewrote completed rows"
        )
