"""Persistent campaign-service integration tests.

Marked ``service`` (run alone with ``pytest -m service``): one
long-lived :class:`CampaignService` master accepting many campaign
submissions over the wire protocol on a shared worker pool.  The
contract under test is the executor stack's, lifted to jobs: every
submitted job's stored rows must be bit-identical to a serial run of
the same config — across concurrent tenants, fair-share scheduling,
worker faults, cancellation, and a restart of the service itself.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import Campaign, CampaignSpec, ExecutorSpec
from repro.experiments.campaign import run_grid
from repro.experiments.config import FIGURES
from repro.experiments.executors import (
    WORKER_EXIT_ERROR,
    WORKER_EXIT_FAULT_INJECTED,
    WORKER_EXIT_OK,
    WORKER_RESPAWN_LIMIT,
    sockets_available,
)
from repro.experiments.executors.master_core import Spawn
from repro.experiments.executors.socket import PROTO_VERSION, _LineConn
from repro.experiments.grid import ScenarioGrid, WorkUnit
from repro.experiments.service import CampaignService, ServiceClient
from repro.experiments.store import RunStore, open_store, result_to_dict
from repro.utils.errors import CampaignConfigError

import repro
import executor_conformance as ec
from scripted_master import ScriptedRun

pytestmark = [
    pytest.mark.service,
    pytest.mark.skipif(
        not sockets_available(), reason="localhost sockets unavailable"
    ),
]

#: hard deadline for every service campaign in this module — like the
#: ``distributed`` tier, a wedged service fails loudly, never hangs
DEADLINE_S = 60.0


@pytest.fixture(scope="module")
def serial_rep_rows(pinned_config, tmp_path_factory):
    """Per-rep serial baseline rows for the pinned equivalence config."""
    directory = tmp_path_factory.mktemp("serial-baseline")
    run_grid(ScenarioGrid.from_config(pinned_config), store=directory)
    with open_store(directory) as store:
        return store.rep_rows()


def _one_unit_lease(lc):
    """The next grant of a ``lease=1`` service: one unit per lease."""
    message = lc.recv(timeout=30.0)
    assert message["type"] == "lease", message["type"]
    [unit] = [WorkUnit.from_dict(d) for d in message["units"]]
    return unit


class TestMultiTenantService:
    def test_two_concurrent_jobs_shared_pool_bit_identical(
        self, tmp_path, pinned_config, serial_rep_rows
    ):
        # One persistent master, two tenants, two store backends, one
        # shared worker pool — both jobs' rows must match serial.
        with CampaignService(tmp_path / "svc", spawn_workers=2) as service:
            address = service.start()
            client = ServiceClient(address)
            jsonl = client.submit(
                {"config": pinned_config.to_dict()}, tenant="alice"
            )
            columnar = client.submit(
                {"config": pinned_config.to_dict(),
                 "store": {"backend": "columnar"}},
                tenant="bob",
                priority=1,
            )
            assert jsonl["job_id"] != columnar["job_id"]
            for snap in (jsonl, columnar):
                final = client.wait(snap["job_id"], timeout=DEADLINE_S)
                assert final["state"] == "done"
                assert final["done"] == final["total"]
        with open_store(jsonl["store"]) as store:
            assert store.backend_name == "jsonl"
            assert store.rep_rows() == serial_rep_rows
        with open_store(columnar["store"]) as store:
            assert store.backend_name == "columnar"
            assert store.rep_rows() == serial_rep_rows

    def test_weighted_fair_share_grant_order(self, tmp_path):
        # alice (priority 0) submits first; bob (priority 1) second.
        # Weighted fair queuing must give bob ~2/3 of the grants while
        # alice keeps ~1/3 — neither tenant starves the other.  A
        # hand-rolled worker against one-unit leases observes the exact
        # grant sequence; jobs are distinguished by granularity.
        base = replace(
            FIGURES[1].with_graphs(4).with_network(topology="ring"),
            num_procs=6,
            task_range=(12, 18),
        )
        cfg_a = replace(base, granularities=(0.4,))
        cfg_b = replace(base, granularities=(1.2,))
        with CampaignService(
            tmp_path / "svc", spawn_workers=0, lease=1
        ) as service:
            address = service.start()
            client = ServiceClient(address)
            job_a = client.submit({"config": cfg_a.to_dict()},
                                  tenant="alice", priority=0)
            job_b = client.submit({"config": cfg_b.to_dict()},
                                  tenant="bob", priority=1)
            order = []
            lc = _LineConn(socket.create_connection(address, timeout=10.0))
            try:
                lc.send({"type": "hello", "worker": "probe",
                         "heartbeat": 0.3, "proto": PROTO_VERSION})
                for _ in range(8):
                    unit = _one_unit_lease(lc)
                    order.append("A" if unit.granularity == 0.4 else "B")
                    lc.send({
                        "type": "result",
                        "unit_id": unit.unit_id,
                        "result": result_to_dict(unit.run()),
                    })
            finally:
                lc.close()
            # Virtual time: alice weight 1, bob weight 2 (1 + priority).
            # The deterministic WFQ sequence is A B B A B B, then only
            # alice's units remain.
            assert order == ["A", "B", "B", "A", "B", "B", "A", "A"]
            # the last ack may still be in flight when the probe hangs up
            for job in (job_a, job_b):
                final = client.wait(job["job_id"], timeout=DEADLINE_S)
                assert final["state"] == "done"

    def test_priority_zero_tenant_cannot_starve_priority_one(
        self, tmp_path, pinned_config
    ):
        # The starvation direction the WFQ floor guards: a tenant
        # hammering priority-0 submissions before a priority-1 tenant
        # arrives must not monopolize the pool — the late tenant joins
        # at the current virtual-time floor and immediately gets the
        # larger share.
        base = replace(
            FIGURES[1].with_graphs(4).with_network(topology="ring"),
            num_procs=6,
            task_range=(12, 18),
        )
        cfg_a = replace(base, granularities=(0.4,))
        cfg_b = replace(base, granularities=(1.2,))
        with CampaignService(
            tmp_path / "svc", spawn_workers=0, lease=1
        ) as service:
            address = service.start()
            client = ServiceClient(address)
            for _ in range(2):
                client.submit({"config": cfg_a.to_dict()},
                              tenant="flood", priority=0)
            high = client.submit({"config": cfg_b.to_dict()},
                                 tenant="urgent", priority=1)
            grants_until_high = 0
            lc = _LineConn(socket.create_connection(address, timeout=10.0))
            try:
                lc.send({"type": "hello", "worker": "probe",
                         "heartbeat": 0.3, "proto": PROTO_VERSION})
                for _ in range(12):
                    unit = _one_unit_lease(lc)
                    if unit.granularity == 1.2:
                        break
                    grants_until_high += 1
                    lc.send({
                        "type": "result",
                        "unit_id": unit.unit_id,
                        "result": result_to_dict(unit.run()),
                    })
                else:
                    pytest.fail(
                        "priority-1 tenant starved: no grant in 12 rounds"
                    )
            finally:
                lc.close()
            # The fresh tenant starts at the vtime floor, so its first
            # grant arrives within the very next scheduling rounds.
            assert grants_until_high <= 2
            assert client.status(high["job_id"])["state"] == "running"


class TestServiceLifecycle:
    def test_restart_resumes_incomplete_jobs(
        self, tmp_path, pinned_config, serial_rep_rows
    ):
        # A service stopped with a job still running leaves the job
        # `running` on disk; a fresh service on the same root must
        # resume it — same job id, no rerun of completed units.
        root = tmp_path / "svc"
        with CampaignService(root, spawn_workers=0) as service:
            address = service.start()
            snap = ServiceClient(address).submit(
                {"config": pinned_config.to_dict()}
            )
            assert snap["state"] == "running"
        with CampaignService(root, spawn_workers=2) as service:
            address = service.start()
            final = ServiceClient(address).wait(
                snap["job_id"], timeout=DEADLINE_S
            )
            assert final["state"] == "done"
        with open_store(snap["store"]) as store:
            assert store.rep_rows() == serial_rep_rows

    @pytest.mark.conformance
    def test_sigkill_restart_conformance_cell(
        self, tmp_path, pinned_config, serial_rep_rows
    ):
        # The service conformance cell: SIGKILL mid-flight with two
        # concurrent jobs (JSONL + columnar), restart, both resumed —
        # rows bit-identical to serial for both backends.
        jsonl_rows, columnar_rows = ec.run_service_cell(
            pinned_config, tmp_path / "cell"
        )
        assert jsonl_rows == serial_rep_rows
        assert columnar_rows == serial_rep_rows

    def test_cancel_is_terminal_and_survives_restart(
        self, tmp_path, pinned_config
    ):
        root = tmp_path / "svc"
        with CampaignService(root, spawn_workers=0) as service:
            address = service.start()
            client = ServiceClient(address)
            snap = client.submit({"config": pinned_config.to_dict()})
            cancelled = client.cancel(snap["job_id"])
            assert cancelled["state"] == "cancelled"
            # cancelling a terminal job is an idempotent no-op
            assert client.cancel(snap["job_id"])["state"] == "cancelled"
        with CampaignService(root, spawn_workers=0) as service:
            address = service.start()
            status = ServiceClient(address).status(snap["job_id"])
            assert status["state"] == "cancelled"

    def test_fault_exit_worker_never_respawned(
        self, tmp_path, pinned_config, serial_rep_rows
    ):
        # A worker exiting with the injected-fault code 3 (max_units)
        # must not be respawned; the survivor finishes the job.  Driven
        # on the master core with scripted workers.
        with RunStore(tmp_path / "store") as store:
            run = ScriptedRun(
                ScenarioGrid.from_config(pinned_config).units(), store,
                [{"max_units": 1}, {}],
            ).run()
        assert run.exit_codes == [WORKER_EXIT_FAULT_INJECTED, WORKER_EXIT_OK]
        assert run.core.respawns == 0
        assert not any(isinstance(a, Spawn) for a in run.actions)
        with open_store(tmp_path / "store") as store:
            assert store.rep_rows() == serial_rep_rows

    def test_crashed_worker_respawned(
        self, tmp_path, pinned_config, serial_rep_rows
    ):
        # A genuine crash (die_after exits 1) is respawned, bounded per
        # slot per job: slot 0 dies after each unit it computes, is
        # relaunched twice (the budget), and its third incarnation is
        # still alive when the job completes bit-identical.
        with RunStore(tmp_path / "store") as store:
            run = ScriptedRun(
                ScenarioGrid.from_config(pinned_config).units(), store,
                [{"die_after": 1}, {}],
            ).run()
        assert run.core.respawns == WORKER_RESPAWN_LIMIT
        assert [a for a in run.actions if isinstance(a, Spawn)] == [
            Spawn(0)
        ] * WORKER_RESPAWN_LIMIT
        assert run.exit_codes == [
            WORKER_EXIT_ERROR, WORKER_EXIT_ERROR, WORKER_EXIT_OK, WORKER_EXIT_OK,
        ]
        with open_store(tmp_path / "store") as store:
            assert store.rep_rows() == serial_rep_rows


class TestRelayBackpressure:
    def test_slow_relay_client_gets_every_result(self, tmp_path, pinned_config):
        # A `submit_units` client with a 4 KiB receive buffer reads
        # nothing for over a second — far past any poll interval — while
        # 10 MB of results pile up for it.  It must then receive every
        # result, in order and intact, and another tenant's job must
        # finish in the meantime: each peer is written by its own
        # writer, so a peer that stops reading stalls only itself.
        relay_units = ScenarioGrid.from_config(
            replace(pinned_config, name="slow-relay", num_graphs=20)
        ).units()
        relay_ids = {u.unit_id for u in relay_units}
        pad = "x" * 256 * 1024
        sent = []

        def worker(address):
            lc = _LineConn(socket.create_connection(address, timeout=30.0))
            lc.send({"type": "hello", "worker": "probe", "heartbeat": 5.0,
                     "proto": PROTO_VERSION})
            try:
                while (message := lc.recv(timeout=30.0))["type"] != "shutdown":
                    if message["type"] != "lease":
                        continue
                    for d in message["units"]:
                        unit = WorkUnit.from_dict(d)
                        if unit.unit_id in relay_ids:
                            payload = {"n": len(sent), "pad": pad}
                            sent.append((unit.unit_id, payload))
                        else:
                            payload = result_to_dict(unit.run())
                        lc.send({"type": "result", "unit_id": unit.unit_id,
                                 "result": payload})
            except ConnectionError:
                pass
            finally:
                lc.close()

        with CampaignService(tmp_path / "svc", spawn_workers=0, lease=1) as service:
            address = service.start()
            slow = socket.socket()
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.connect(address)
            slow_lc = _LineConn(slow)
            started = time.monotonic()
            slow_lc.send({"type": "submit_units", "tenant": "slow",
                          "units": [u.to_dict() for u in relay_units]})
            client = ServiceClient(address)
            other = client.submit({"config": pinned_config.to_dict()},
                                  tenant="other")
            probe = threading.Thread(target=worker, args=(address,))
            probe.start()
            try:
                final = client.wait(other["job_id"], timeout=DEADLINE_S)
                assert final["state"] == "done"
                while len(sent) < len(relay_units):
                    assert time.monotonic() - started < DEADLINE_S
                    time.sleep(0.05)
                time.sleep(max(0.0, started + 1.0 - time.monotonic()))
                assert slow_lc.recv(timeout=DEADLINE_S)["type"] == "submitted"
                received = []
                while (message := slow_lc.recv(timeout=DEADLINE_S))["type"] == "result":
                    received.append((message["unit_id"], message["result"]))
                assert message["type"] == "job_done"
            finally:
                slow_lc.close()
            assert received == sent
        probe.join(timeout=DEADLINE_S)


    def test_racing_workers_relay_every_unit_exactly_once(self, tmp_path, pinned_config):
        # Stress: more worker connections than cores, 4-unit leases,
        # stealing on and a tiny switch interval, so reader threads
        # interleave inside every step.  Workers ack whole leases at
        # once and ignore revokes, so steals race acks and stale copies
        # arrive; the relay client must still see each unit exactly once.
        units = ScenarioGrid.from_config(
            replace(pinned_config, name="stress", num_graphs=150)
        ).units()

        def worker(address):
            lc = _LineConn(socket.create_connection(address, timeout=30.0))
            lc.send({"type": "hello", "worker": "w", "heartbeat": 5.0,
                     "proto": PROTO_VERSION})
            try:
                while (message := lc.recv(timeout=30.0))["type"] != "shutdown":
                    for d in message.get("units", ()):
                        uid = WorkUnit.from_dict(d).unit_id
                        lc.send({"type": "result", "unit_id": uid,
                                 "result": {"id": uid}})
            except (ConnectionError, OSError):
                pass
            finally:
                lc.close()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CampaignService(tmp_path / "svc", spawn_workers=0, lease=4) as service:
                address = service.start()
                threads = [
                    threading.Thread(target=worker, args=(address,)) for _ in range(6)
                ]
                for thread in threads:
                    thread.start()
                client = _LineConn(socket.create_connection(address, timeout=30.0))
                client.send({"type": "submit_units", "tenant": "t",
                             "units": [u.to_dict() for u in units]})
                assert client.recv(timeout=DEADLINE_S)["type"] == "submitted"
                received = []
                while (message := client.recv(timeout=DEADLINE_S))["type"] == "result":
                    assert message["result"] == {"id": message["unit_id"]}
                    received.append(message["unit_id"])
                assert message["type"] == "job_done"
                client.close()
        finally:
            sys.setswitchinterval(switch)
        for thread in threads:
            thread.join(timeout=DEADLINE_S)
            assert not thread.is_alive()
        assert sorted(received) == sorted(u.unit_id for u in units)


class TestClientSurface:
    def test_service_executor_spec_matches_serial(
        self, tmp_path, pinned_config, pinned_serial_rows
    ):
        # ExecutorSpec(kind="service"): the campaign runs remotely, the
        # results stream back into the *local* store.
        with CampaignService(tmp_path / "svc", spawn_workers=2) as service:
            host, port = service.start()
            spec = CampaignSpec(
                config=pinned_config,
                executor=ExecutorSpec(
                    kind="service",
                    address=f"{host}:{port}",
                    tenant="exec",
                    timeout=DEADLINE_S,
                ),
            )
            handle = Campaign(spec).run()
            assert handle.result().rows() == pinned_serial_rows

    def test_campaign_submit_handle(
        self, tmp_path, pinned_config, serial_rep_rows
    ):
        with CampaignService(tmp_path / "svc", spawn_workers=2) as service:
            address = service.start()
            handle = Campaign(
                CampaignSpec(config=pinned_config)
            ).submit(address, tenant="alice")
            final = handle.wait(timeout=DEADLINE_S)
            assert final["state"] == "done"
            with handle.open_store() as store:
                assert store.rep_rows() == serial_rep_rows

    def test_bad_submit_rejected_without_residue(self, tmp_path):
        with CampaignService(tmp_path / "svc", spawn_workers=0) as service:
            address = service.start()
            client = ServiceClient(address)
            with pytest.raises(CampaignConfigError):
                client.submit({"config": {"bogus_key": 1}})
            # a rejected submit leaves no job behind — in memory or on disk
            assert client.jobs() == []
            assert list((tmp_path / "svc" / "jobs").glob("job-*")) == []

    def test_unknown_job_id_carries_key(self, tmp_path):
        with CampaignService(tmp_path / "svc", spawn_workers=0) as service:
            address = service.start()
            with pytest.raises(CampaignConfigError) as excinfo:
                ServiceClient(address).status("job-999999")
            assert excinfo.value.key == "job_id"

    def test_malformed_requests_get_an_error_and_the_service_keeps_serving(
        self, tmp_path
    ):
        with CampaignService(tmp_path / "svc", spawn_workers=0) as service:
            address = service.start()
            for line in (
                b'{"type":"submit","spec":[1]}\n',
                b'{"type":"status","job_id":["x"]}\n',
                b'[1,2]\n',
                b'not json\n',
            ):
                lc = _LineConn(socket.create_connection(address, timeout=10.0))
                try:
                    lc.sock.sendall(line)
                    assert lc.recv(timeout=10.0)["type"] == "error", line
                finally:
                    lc.close()
            assert ServiceClient(address).jobs() == []


class TestServiceLoop:
    def test_no_thread_per_connection(self, tmp_path):
        # One loop thread serves every connection: 20 idle clients and a
        # worker add none.
        before = set(threading.enumerate())
        peers = []
        with CampaignService(tmp_path / "svc", spawn_workers=0) as service:
            address = service.start()
            started = set(threading.enumerate()) - before
            assert len(started) == 1
            try:
                for _ in range(20):
                    lc = _LineConn(socket.create_connection(address, timeout=10.0))
                    peers.append(lc)
                    lc.send({"type": "jobs"})
                    assert lc.recv(timeout=10.0) == {"type": "jobs", "jobs": []}
                worker = _LineConn(socket.create_connection(address, timeout=10.0))
                peers.append(worker)
                worker.send({"type": "hello", "worker": "idle", "heartbeat": 5.0,
                             "proto": PROTO_VERSION})
                deadline = time.monotonic() + DEADLINE_S
                while not service._core.workers:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                assert set(threading.enumerate()) - before == started
            finally:
                for lc in peers:
                    lc.close()


class TestServiceCli:
    def test_start_submit_status_jobs_cancel_gc_and_sigterm(
        self, tmp_path, pinned_config
    ):
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        root = tmp_path / "svc"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"config": pinned_config.to_dict()}))

        def cli(*args):
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "service", *args],
                env=env, capture_output=True, text=True, timeout=DEADLINE_S,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout

        service = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "service", "start",
             "--root", str(root), "--bind", "127.0.0.1:0", "--workers", "1"],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            host, port = re.search(
                r"listening on (\S+):(\d+) ", service.stdout.readline()
            ).groups()
            address = ("--address", f"{host}:{port}")
            out = cli("submit", str(spec), *address, "--wait")
            assert out.splitlines()[-1].split()[:2] == ["job-000001", "done"]
            assert cli("status", "job-000001", *address).split()[1] == "done"
            big = cli("submit", str(spec), *address, "--override", "graphs=300")
            assert big.split()[:2] == ["job-000002", "running"]
            assert cli("cancel", "job-000002", *address).split()[1] == "cancelled"
            assert [line.split()[:2] for line in cli("jobs", *address).splitlines()] == [
                ["job-000001", "done"], ["job-000002", "cancelled"],
            ]
            assert "pruned 2 terminal job dir(s)" in cli(
                "gc", "--root", str(root), "--job-ttl", "0"
            )
            service.send_signal(signal.SIGTERM)
            assert service.wait(timeout=DEADLINE_S) == 0
        finally:
            if service.poll() is None:
                service.kill()
                service.wait()
            service.stdout.close()
