"""Executor-comparison benchmark: serial vs process pool vs TCP workers.

Times the same small figure-1 campaign through all three executors,
verifies the rows are bit-identical (the executor stack's core
contract), and appends the timing triple to ``BENCH_fastpath.json`` so
the overhead of each execution path is tracked across PRs.

On a 1-CPU container the pool and socket paths pay pure overhead
(process spawn, worker interpreter start-up, JSON framing) — the numbers
quantify the fixed cost that multi-core boxes amortize into near-linear
scaling.  Run directly::

    PYTHONPATH=src REPRO_GRAPHS=2 python -m pytest benchmarks/bench_campaign.py -s
"""

from __future__ import annotations

import os
import time
from datetime import datetime, timezone

import pytest

from benchmarks.bench_fastpath import append_bench_record
from benchmarks.conftest import bench_graphs, bench_spec, bench_workers
from repro.experiments import (
    Campaign,
    ProcessExecutor,
    SerialExecutor,
    SocketExecutor,
)
from repro.experiments.executors import sockets_available


def _timed(executor) -> tuple[float, object]:
    campaign = Campaign(bench_spec(1, bench_graphs(default=1)))
    t0 = time.perf_counter()
    result = campaign.run(executor=executor).result()
    return time.perf_counter() - t0, result


def test_campaign_lease_scaling():
    """Socket-executor wall clock at lease sizes {1, auto}.

    Lease 1 is the PR-3 protocol (one unit per round-trip); ``auto``
    adapts to observed unit latency and batches.  On a 1-CPU container
    the units dominate and auto must at least not regress; on many-
    worker masters the saved round-trips are the point.  The pair lands
    in BENCH_fastpath.json so lease scaling is tracked across PRs.
    """
    if not sockets_available():
        pytest.skip("localhost sockets unavailable")
    graphs = bench_graphs(default=1)
    workers = bench_workers(default=2)

    serial_s, serial = _timed(SerialExecutor())
    lease1_s, leased1 = _timed(
        SocketExecutor(spawn_workers=workers, timeout=600.0, lease=1)
    )
    assert leased1.rows() == serial.rows(), "lease=1 changed rows"
    auto_s, auto = _timed(
        SocketExecutor(spawn_workers=workers, timeout=600.0, lease="auto")
    )
    assert auto.rows() == serial.rows(), "lease=auto changed rows"

    record = {
        "bench": "campaign-lease-scaling",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "graphs_per_point": graphs,
        "workers": workers,
        "cpus": os.cpu_count(),
        "serial_s": round(serial_s, 3),
        "socket_lease1_s": round(lease1_s, 3),
        "socket_auto_s": round(auto_s, 3),
    }
    append_bench_record(record)

    print(f"\ncampaign lease scaling: figure1 x{graphs} graphs, "
          f"{workers} socket workers")
    print(f"  serial        {serial_s:7.2f}s")
    print(f"  socket lease1 {lease1_s:7.2f}s")
    print(f"  socket auto   {auto_s:7.2f}s "
          f"({lease1_s / auto_s:.2f}x vs lease1)")


@pytest.mark.guard
def test_campaign_straggler_tail():
    """Tail latency with one 10x-slow worker: mitigation on vs off.

    Two spawned workers, one throttled to 10x its real unit time
    (``--slow-factor``), pinned 4-unit leases so the slow worker strands
    a meaty lease tail.  With stealing and speculation off the campaign
    ends when the straggler finishes its whole lease; with them on the
    master revokes the unstarted tail for the fast worker and the wall
    clock collapses to roughly one slow unit.  Guard-tier: the speedup
    is asserted against a floor, so a regression that quietly disables
    the mitigation (or breaks revocation) fails ``pytest benchmarks -m
    guard`` instead of only drifting in BENCH_fastpath.json.
    """
    if not sockets_available():
        pytest.skip("localhost sockets unavailable")
    graphs = bench_graphs(default=1)
    spawn = [["--slow-factor", "10"], []]

    def timed_straggler(speculate, steal):
        executor = SocketExecutor(
            spawn_workers=spawn, timeout=600.0, lease=4,
            speculate=speculate, steal=steal,
        )
        elapsed, result = _timed(executor)
        return elapsed, result, executor

    off_s, off, _ = timed_straggler("off", "off")
    on_s, on, mitigated = timed_straggler("auto", "auto")
    assert on.rows() == off.rows(), "straggler mitigation changed rows"
    speedup = off_s / on_s

    record = {
        "bench": "campaign-straggler-tail",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "graphs_per_point": graphs,
        "workers": 2,
        "cpus": os.cpu_count(),
        "straggler_off_s": round(off_s, 3),
        "straggler_on_s": round(on_s, 3),
        "speedup": round(speedup, 2),
        "stolen_units": mitigated.stolen_units,
        "speculative_attempts": mitigated.speculative_attempts,
    }
    append_bench_record(record)

    print(f"\ncampaign straggler tail: figure1 x{graphs} graphs, "
          f"2 socket workers (one 10x slow), lease=4")
    print(f"  mitigation off {off_s:7.2f}s")
    print(f"  mitigation on  {on_s:7.2f}s ({speedup:.2f}x, "
          f"{mitigated.stolen_units} stolen, "
          f"{mitigated.speculative_attempts} speculative)")

    # The slow worker's lease tail is ~3 slow units; stealing should
    # recover nearly all of it (~3x here).  The floor is deliberately
    # loose for shared-box noise — a broken mitigation lands at ~1.0x,
    # far below it.
    assert speedup >= 1.3, (
        f"straggler mitigation speedup {speedup:.2f}x below the 1.3x "
        f"floor (off {off_s:.2f}s, on {on_s:.2f}s) — lease revocation / "
        "speculation is no longer rescuing a slow worker's lease tail"
    )


@pytest.mark.guard
def test_campaign_service_submit_latency():
    """Submit-to-first-result latency against a *warm* campaign service.

    The persistent service's pitch over the one-shot socket master is
    amortized start-up: workers are already spawned, connected, and
    idle when a job arrives, so a submission should start producing
    rows in well under the cost of spawning a fresh master + workers.
    A first job warms the pool (paying interpreter start-up), then the
    measured job's submit->first-row latency is guarded against a loose
    ceiling — a regression that serializes submission behind worker
    respawn (or breaks idle-worker wakeup) lands far above it.
    """
    if not sockets_available():
        pytest.skip("localhost sockets unavailable")
    import tempfile

    from repro.experiments import apply_overrides, figure_spec
    from repro.experiments.service import CampaignService, ServiceClient

    spec = apply_overrides(
        figure_spec(1),
        {
            "graphs": 1,
            "config.granularities": [0.4],
            "config.num_procs": 6,
            "config.task_range": [12, 18],
        },
    )
    with tempfile.TemporaryDirectory() as root:
        with CampaignService(root, spawn_workers=2) as service:
            service.start()
            client = ServiceClient(service.address)
            warm = client.submit(spec, tenant="warmup")
            client.wait(warm["job_id"], timeout=600.0)

            t0 = time.perf_counter()
            snap = client.submit(spec, tenant="measured")
            first_result_s = None
            while time.perf_counter() - t0 < 60.0:
                status = client.status(snap["job_id"])
                if status["done"] >= 1:
                    first_result_s = time.perf_counter() - t0
                    break
                time.sleep(0.01)
            final = client.wait(snap["job_id"], timeout=600.0)
            total_s = time.perf_counter() - t0
    assert final["state"] == "done"
    assert first_result_s is not None, (
        "warm service produced no row within 60s of the submit"
    )

    record = {
        "bench": "campaign-service-latency",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workers": 2,
        "cpus": os.cpu_count(),
        "units": final["total"],
        "submit_to_first_result_s": round(first_result_s, 3),
        "submit_to_done_s": round(total_s, 3),
    }
    append_bench_record(record)

    print(f"\ncampaign service latency: warm pool, 2 workers, "
          f"{final['total']} unit(s)")
    print(f"  submit -> first result {first_result_s:7.3f}s")
    print(f"  submit -> job done     {total_s:7.3f}s")

    # A warm pool answers in well under a second on an idle box; the
    # ceiling is deliberately loose for shared-box noise.  Paying a
    # worker (re)spawn or a wedged scheduling pass lands far above it.
    assert first_result_s < 10.0, (
        f"warm-service first result took {first_result_s:.2f}s (>= 10s "
        "floor) — submission is no longer served by the idle pool"
    )


def test_campaign_executors():
    graphs = bench_graphs(default=1)
    workers = bench_workers(default=2)

    serial_s, serial = _timed(SerialExecutor())
    process_s, process = _timed(ProcessExecutor(workers))
    assert process.rows() == serial.rows(), "process executor changed rows"

    socket_s = None
    if sockets_available():
        socket_s, socketed = _timed(
            SocketExecutor(spawn_workers=workers, timeout=600.0)
        )
        assert socketed.rows() == serial.rows(), "socket executor changed rows"

    record = {
        "bench": "campaign-executors",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "graphs_per_point": graphs,
        "workers": workers,
        "cpus": os.cpu_count(),
        "serial_s": round(serial_s, 3),
        "process_s": round(process_s, 3),
        "socket_s": round(socket_s, 3) if socket_s is not None else None,
    }
    append_bench_record(record)

    print(f"\ncampaign executors: figure1 x{graphs} graphs, {workers} workers")
    print(f"  serial   {serial_s:7.2f}s")
    print(f"  process  {process_s:7.2f}s ({serial_s / process_s:.2f}x vs serial)")
    if socket_s is not None:
        print(f"  socket   {socket_s:7.2f}s ({serial_s / socket_s:.2f}x vs serial)")
    else:
        print("  socket   skipped (sockets unavailable)")
