"""Persistent campaign-service integration tests.

Marked ``service`` (run alone with ``pytest -m service``): one
long-lived :class:`CampaignService` master accepting many campaign
submissions over the v4 wire protocol on a shared worker pool.  The
contract under test is the executor stack's, lifted to jobs: every
submitted job's stored rows must be bit-identical to a serial run of
the same config — across concurrent tenants, fair-share scheduling,
worker faults, cancellation, and a restart of the service itself.
"""

import socket
import time
from dataclasses import replace

import pytest

from repro.experiments import (
    Campaign,
    CampaignSpec,
    ExecutorSpec,
    open_store,
    run_campaign,
)
from repro.experiments.config import FIGURES
from repro.experiments.executors import (
    WORKER_EXIT_FAULT_INJECTED,
    sockets_available,
)
from repro.experiments.executors.socket import _LineConn
from repro.experiments.grid import WorkUnit
from repro.experiments.service import CampaignService, ServiceClient
from repro.experiments.store import result_to_dict
from repro.utils.errors import CampaignConfigError

import executor_conformance as ec

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
    run_campaign(pinned_config, executor="serial", store=directory)
    with open_store(directory) as store:
        return store.rep_rows()


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
        # hand-rolled v1 worker (one unit per round-trip) observes the
        # exact grant sequence; jobs are distinguished by granularity.
        base = replace(
            FIGURES[1].with_graphs(4).with_network(topology="ring"),
            num_procs=6,
            task_range=(12, 18),
        )
        cfg_a = replace(base, granularities=(0.4,))
        cfg_b = replace(base, granularities=(1.2,))
        with CampaignService(tmp_path / "svc", spawn_workers=0) as service:
            address = service.start()
            client = ServiceClient(address)
            job_a = client.submit({"config": cfg_a.to_dict()},
                                  tenant="alice", priority=0)
            job_b = client.submit({"config": cfg_b.to_dict()},
                                  tenant="bob", priority=1)
            order = []
            lc = _LineConn(socket.create_connection(address, timeout=10.0))
            try:
                # no `proto` field -> the service speaks v1: single
                # `unit` messages, so every grant is observable
                lc.send({"type": "hello", "worker": "probe",
                         "heartbeat": 0.3})
                for _ in range(8):
                    message = lc.recv(timeout=30.0)
                    assert message["type"] == "unit"
                    unit = WorkUnit.from_dict(message["unit"])
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
            assert client.status(job_a["job_id"])["state"] == "done"
            assert client.status(job_b["job_id"])["state"] == "done"

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
        with CampaignService(tmp_path / "svc", spawn_workers=0) as service:
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
                         "heartbeat": 0.3})
                for _ in range(12):
                    message = lc.recv(timeout=30.0)
                    unit = WorkUnit.from_dict(message["unit"])
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
        # A worker exiting with the injected-fault code 3 (--max-units)
        # must not be respawned by the service loop; the survivor
        # finishes the job.  The survivor is throttled so it cannot
        # finish the job before the fault worker takes a unit.
        with CampaignService(
            tmp_path / "svc",
            spawn_workers=[["--max-units", "1"], ["--slow-factor", "4"]],
        ) as service:
            service.start()
            client = ServiceClient(service.address)
            snap = client.submit({"config": pinned_config.to_dict()})
            final = client.wait(snap["job_id"], timeout=DEADLINE_S)
            assert final["state"] == "done"
            deadline = time.monotonic() + 10.0
            while (
                time.monotonic() < deadline
                and service._pool.procs[0].poll() is None
            ):
                time.sleep(0.05)
            assert (
                service._pool.procs[0].poll() == WORKER_EXIT_FAULT_INJECTED
            )
            assert service._pool.respawns == 0
        with open_store(snap["store"]) as store:
            assert store.rep_rows() == serial_rep_rows

    def test_crashed_worker_respawned(
        self, tmp_path, pinned_config, serial_rep_rows
    ):
        # A genuine crash (--die-after exits 1) is respawned — bounded
        # per slot per job — and the job still completes bit-identical.
        # The healthy worker is throttled so the job outlasts the crash
        # long enough for the supervisor's poll to respawn it.
        with CampaignService(
            tmp_path / "svc",
            spawn_workers=[["--die-after", "1"], ["--slow-factor", "4"]],
        ) as service:
            service.start()
            client = ServiceClient(service.address)
            snap = client.submit({"config": pinned_config.to_dict()})
            final = client.wait(snap["job_id"], timeout=DEADLINE_S)
            assert final["state"] == "done"
            assert service._pool.respawns >= 1
        with open_store(snap["store"]) as store:
            assert store.rep_rows() == serial_rep_rows


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
