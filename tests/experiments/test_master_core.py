"""The campaign master's core as a pure state machine: no I/O, no
clock, and leases granted in the same step that makes work available."""

import ast
import inspect

from repro.experiments.executors import LeasePolicy, master_core
from repro.experiments.executors.master_core import (
    PROTO_VERSION,
    Close,
    Job,
    MasterCore,
    Send,
)
from repro.experiments.grid import ScenarioGrid
from repro.experiments.store import RunStore, result_to_dict


def _hello(heartbeat=0.5):
    return {"type": "hello", "worker": "w", "heartbeat": heartbeat,
            "proto": PROTO_VERSION}


def _leases(actions, conn):
    return [
        [d["rep"] for d in a.message["units"]]
        for a in actions
        if isinstance(a, Send) and a.conn == conn and a.message["type"] == "lease"
    ]


def test_core_imports_no_io_or_clock():
    tree = ast.parse(inspect.getsource(master_core))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    forbidden = {"socket", "threading", "subprocess", "select", "selectors", "time"}
    assert not imported & forbidden


def test_idle_worker_is_leased_in_the_step_that_adds_work(pinned_config):
    units = ScenarioGrid.from_config(pinned_config).units()
    core = MasterCore(heartbeat=0.5)
    assert core.hello(1, _hello(), now=0.0) == []  # nothing to lease yet
    actions = core.add_job(Job("j", units, RunStore()), now=1.0)
    assert _leases(actions, 1) == [[units[0].rep]]


def test_requeued_lease_goes_to_an_idle_worker_at_once(pinned_config):
    units = ScenarioGrid.from_config(pinned_config).units()[:2]
    core = MasterCore(heartbeat=0.5, steal=False)
    core.add_job(Job("j", units, RunStore(), LeasePolicy(size=2)), now=0.0)
    assert len(_leases(core.hello(1, _hello(), now=0.0), 1)) == 1
    assert core.hello(2, _hello(), now=0.0) == []  # idle: nothing left
    # Worker 1 vanishes: its whole lease is worker 2's in the same step.
    assert _leases(core.disconnect(1, now=1.0), 2) == [[0, 1]]


def test_stale_proto_is_refused_and_closed():
    actions = MasterCore(heartbeat=0.5).hello(1, {"type": "hello"}, now=0.0)
    assert [type(a) for a in actions] == [Send, Close]
    assert actions[0].message["key"] == "proto"


def test_relay_job_streams_results_then_job_done(pinned_config):
    # A store-less job: first-win results go to the client connection
    # as sent, a duplicate goes nowhere, and the last one is followed by
    # job_done and the client's close.
    [unit] = ScenarioGrid.from_config(pinned_config).units()[:1]
    payload = result_to_dict(unit.run())
    core = MasterCore(heartbeat=0.5)
    core.add_job(Job("j", [unit], client=9), now=0.0)
    core.hello(1, _hello(), now=0.0)
    result = {"type": "result", "unit_id": unit.unit_id, "result": payload}
    actions = core.message(1, result, now=1.0)
    assert actions == [
        Send(9, {"type": "result", "unit_id": unit.unit_id, "result": payload}),
        Send(9, {"type": "job_done", "job_id": "j"}),
        Close(9),
    ]
    assert core.message(1, result, now=2.0) == []


def test_relay_client_disconnect_cancels_its_job(pinned_config):
    units = ScenarioGrid.from_config(pinned_config).units()
    core = MasterCore(heartbeat=0.5)
    job = Job("j", units, client=9)
    core.add_job(job, now=0.0)
    core.hello(1, _hello(), now=0.0)
    actions = core.disconnect(9, now=1.0)
    assert job.status == "cancelled"
    # The worker's outstanding units are revoked; it is idle again.
    assert [a.message["type"] for a in actions] == ["revoke"]
    assert core.workers[1].lease is None


def test_malformed_result_requeues_the_whole_lease(pinned_config):
    # Each bad line closes only its worker, before anything leaves the
    # lease: both units go to the next worker and the job completes.
    units = ScenarioGrid.from_config(pinned_config).units()[:2]
    uid = units[0].unit_id
    for bad in (
        {"type": "result", "unit_id": uid, "result": {"bogus": 1}},
        {"type": "result", "unit_id": uid},
        {"type": "result", "unit_id": [uid], "result": {}},
        [1, 2],
        None,
    ):
        core = MasterCore(heartbeat=0.5, steal=False)
        job = Job("j", units, RunStore(), LeasePolicy(size=2))
        core.add_job(job, now=0.0)
        core.hello(1, _hello(), now=0.0)
        assert core.message(1, bad, now=1.0) == [Close(1)], bad
        assert _leases(core.hello(2, _hello(), now=1.0), 2) == [[u.rep for u in units]]
        for unit in units:
            core.message(2, {"type": "result", "unit_id": unit.unit_id,
                             "result": result_to_dict(unit.run())}, now=2.0)
        assert job.status == "done" and job.counts() == (2, 2)


def test_non_numeric_heartbeat_is_refused_and_closed():
    actions = MasterCore(heartbeat=0.5).hello(1, _hello(heartbeat="fast"), now=0.0)
    assert [type(a) for a in actions] == [Send, Close]
    assert actions[0].message["key"] == "heartbeat"
