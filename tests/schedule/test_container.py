"""Tests for the Schedule container object itself."""

import pytest

from repro.core.caft import caft
from repro.schedule.schedule import CommEvent, Replica
from repro.schedulers.ftsa import ftsa
from repro.schedulers.heft import heft
from tests.conftest import make_instance


@pytest.fixture(scope="module")
def sched():
    inst = make_instance(num_tasks=20, num_procs=5, seed=2)
    return ftsa(inst, 1, rng=0)


class TestAccessors:
    def test_task_replicas(self, sched):
        reps = sched.task_replicas(3)
        assert reps is sched.replicas[3]
        assert all(r.task == 3 for r in reps)

    def test_all_replicas_count(self, sched):
        assert sum(1 for _ in sched.all_replicas()) == 2 * 20

    def test_replication_factor(self, sched):
        assert sched.replication_factor() == pytest.approx(2.0)

    def test_latency_definition(self, sched):
        expected = max(min(r.finish for r in reps) for reps in sched.replicas)
        assert sched.latency() == expected

    def test_makespan_definition(self, sched):
        expected = max(r.finish for reps in sched.replicas for r in reps)
        assert sched.makespan() == expected

    def test_message_count_matches_events(self, sched):
        assert sched.message_count() == len(sched.events)

    def test_comm_volume_positive(self, sched):
        assert sched.comm_volume() > 0
        assert sched.comm_busy_time() > 0

    def test_repr(self, sched):
        text = repr(sched)
        assert "ftsa" in text and "eps=1" in text


class TestCommitLogStructure:
    def test_log_contains_everything(self, sched):
        replicas = sum(1 for e in sched.commit_log if isinstance(e, Replica))
        events = sum(1 for e in sched.commit_log if isinstance(e, CommEvent))
        assert replicas == 2 * 20
        assert events == len(sched.events)

    def test_task_order_is_topological(self, sched):
        pos = {t: i for i, t in enumerate(sched.task_order)}
        for u, v, _vol in sched.instance.graph.edges():
            assert pos[u] < pos[v]

    def test_proc_replicas_sorted_by_start(self, sched):
        for reps in sched.proc_replicas:
            starts = [r.start for r in reps]
            assert starts == sorted(starts)

    def test_event_endpoints_consistent(self, sched):
        for e in sched.events:
            assert e.src_proc == e.src_replica.proc
            assert sched.receiver(e) is not None
            assert e.dst_proc == sched.receiver(e).proc
            assert e.dst_task == sched.receiver(e).task


class TestReplicaObject:
    def test_duration(self, sched):
        r = next(sched.all_replicas())
        assert r.duration == pytest.approx(r.finish - r.start)

    def test_repr_format(self, sched):
        r = next(sched.all_replicas())
        text = repr(r)
        assert f"t{r.task}" in text and f"P{r.proc}" in text

    def test_event_repr(self, sched):
        e = sched.events[0]
        assert "->" in repr(e)

    def test_kind_values(self):
        inst = make_instance(num_tasks=15, num_procs=5)
        assert {r.kind for r in heft(inst).all_replicas()} == {"primary"}
        kinds_caft = {r.kind for r in caft(inst, 1, rng=0).all_replicas()}
        assert kinds_caft <= {"channel", "mixed", "greedy"}
