"""Tests for ScheduleBuilder trial/commit semantics."""

import numpy as np
import pytest

from repro.comm.oneport import OnePortNetwork
from repro.dag.generators import chain, fork_join, join
from repro.platform.instance import ProblemInstance
from repro.platform.platform import Platform
from repro.schedule.schedule import ScheduleBuilder
from repro.utils.errors import SchedulingError


def builder_for(graph, m=3, exec_time=5.0, delay=1.0, epsilon=0, **kw) -> ScheduleBuilder:
    platform = Platform.homogeneous(m, unit_delay=delay)
    E = np.full((graph.num_tasks, m), exec_time)
    inst = ProblemInstance(graph, platform, E)
    net = OnePortNetwork(platform)
    return ScheduleBuilder(inst, net, epsilon, "test", **kw)


class TestBasicCommit:
    def test_entry_task_starts_at_zero(self):
        b = builder_for(chain(2, volume=10.0))
        r = b.commit(0, 0, {})
        assert (r.start, r.finish) == (0.0, 5.0)

    def test_successor_same_proc_no_comm(self):
        b = builder_for(chain(2, volume=10.0))
        r0 = b.commit(0, 0, {})
        r1 = b.commit(1, 0, {0: [r0]})
        assert r1.start == 5.0  # local data, no transfer
        assert r1.local_inputs[0] is r0
        assert not r1.inputs

    def test_successor_other_proc_pays_comm(self):
        b = builder_for(chain(2, volume=10.0))
        r0 = b.commit(0, 0, {})
        r1 = b.commit(1, 1, {0: [r0]})
        assert r1.start == 15.0  # 5 exec + 10 transfer
        assert len(r1.inputs[0]) == 1
        ev = r1.inputs[0][0]
        assert (ev.start, ev.finish) == (5.0, 15.0)
        assert ev.src_replica is r0 and b.schedule.receiver(ev) is r1

    def test_processor_ready_serializes_tasks(self):
        g = fork_join(2, volume=0.0)
        b = builder_for(g)
        r0 = b.commit(0, 0, {})
        r1 = b.commit(1, 0, {0: [r0]})
        r2 = b.commit(2, 0, {0: [r0]})
        assert r1.start == 5.0
        assert r2.start == 10.0  # waits for r1 on the same processor

    def test_trial_has_no_side_effects(self):
        b = builder_for(chain(2, volume=10.0))
        r0 = b.commit(0, 0, {})
        before = b.network.send_free(0)
        t = b.trial(1, 1, {0: [r0]})
        assert t.finish == 20.0
        assert b.network.send_free(0) == before
        assert b.proc_ready[1] == 0.0
        assert len(b.schedule.events) == 0

    def test_trial_equals_commit(self):
        b = builder_for(chain(3, volume=10.0))
        r0 = b.commit(0, 0, {})
        t = b.trial(1, 1, {0: [r0]})
        r1 = b.commit(1, 1, {0: [r0]})
        assert (t.start, t.finish) == (r1.start, r1.finish)


class TestReceptionSerialization:
    """Eq. (6): messages to the same processor serialize at reception."""

    def test_join_arrivals_serialize(self):
        g = join(2, volume=10.0)  # t0, t1 -> t2
        b = builder_for(g)
        r0 = b.commit(0, 0, {})
        r1 = b.commit(1, 1, {})
        r2 = b.commit(2, 2, {0: [r0], 1: [r1]})
        evs = sorted(b.schedule.events, key=lambda e: e.start)
        assert evs[0].start == 5.0 and evs[0].finish == 15.0
        assert evs[1].start == 15.0 and evs[1].finish == 25.0  # serialized
        assert r2.start == 25.0

    def test_sort_by_sender_bound(self):
        # t1 finishes later than t0 => its message is serialized second
        g = join(2, volume=10.0)
        platform = Platform.homogeneous(3, unit_delay=1.0)
        E = np.array([[5.0] * 3, [8.0] * 3, [5.0] * 3])
        inst = ProblemInstance(g, platform, E)
        b = ScheduleBuilder(inst, OnePortNetwork(platform), 0, "test")
        r0 = b.commit(0, 0, {})
        r1 = b.commit(1, 1, {})
        r2 = b.commit(2, 2, {0: [r0], 1: [r1]})
        ev_by_src = {e.src_task: e for e in b.schedule.events}
        assert ev_by_src[0].start == 5.0
        assert ev_by_src[1].start == 15.0  # max(RF, its own ready=8) after first

    def test_first_arrival_semantics(self):
        """A task starts after the FIRST arrival per predecessor."""
        g = chain(2, volume=10.0)
        b = builder_for(g, m=4, epsilon=1)
        r0a = b.commit(0, 0, {})
        r0b = b.commit(0, 1, {})
        # replica of t1 on P2 receives from both copies of t0
        r1 = b.commit(1, 2, {0: [r0a, r0b]})
        assert len(r1.inputs[0]) == 2
        first = min(e.finish for e in r1.inputs[0])
        assert r1.start == first


class TestLocalSuppression:
    def test_self_sufficient_local_suppresses(self):
        g = chain(2, volume=10.0)
        b = builder_for(g, m=4, epsilon=1)
        r0a = b.commit(0, 0, {})
        r0b = b.commit(0, 1, {})
        r1 = b.commit(1, 0, {0: [r0a, r0b]})  # co-located with r0a
        assert r1.local_inputs[0] is r0a
        assert 0 not in r1.inputs  # no remote messages at all
        assert r1.start == 5.0

    def test_fragile_local_keeps_remote(self):
        g = chain(2, volume=10.0)
        b = builder_for(g, m=4, epsilon=1)
        r0a = b.commit(0, 0, {}, support=frozenset({0, 3}))  # fragile
        r0b = b.commit(0, 1, {})
        r1 = b.commit(1, 0, {0: [r0a, r0b]})
        assert r1.local_inputs[0] is r0a
        assert len(r1.inputs[0]) == 1  # remote copy still sends
        assert r1.inputs[0][0].src_replica is r0b

    def test_strict_mode_suppresses_fragile(self):
        g = chain(2, volume=10.0)
        b = builder_for(g, m=4, epsilon=1, strict_local_suppression=True)
        r0a = b.commit(0, 0, {}, support=frozenset({0, 3}))
        r0b = b.commit(0, 1, {})
        r1 = b.commit(1, 0, {0: [r0a, r0b]})
        assert 0 not in r1.inputs  # paper §6 reading


class TestErrors:
    def test_space_exclusion_enforced(self):
        b = builder_for(chain(2), epsilon=1)
        b.commit(0, 0, {})
        with pytest.raises(SchedulingError, match="space exclusion"):
            b.commit(0, 0, {})

    def test_missing_sources_rejected(self):
        b = builder_for(chain(2))
        b.commit(0, 0, {})
        with pytest.raises(SchedulingError, match="no sources"):
            b.commit(1, 1, {})

    def test_empty_source_list_rejected(self):
        b = builder_for(chain(2))
        b.commit(0, 0, {})
        with pytest.raises(SchedulingError, match="empty source"):
            b.commit(1, 1, {0: []})

    def test_epsilon_needs_enough_procs(self):
        with pytest.raises(SchedulingError, match="space"):
            builder_for(chain(2), m=2, epsilon=2)

    def test_negative_epsilon(self):
        with pytest.raises(SchedulingError):
            builder_for(chain(2), epsilon=-1)

    def test_finish_requires_all_tasks(self):
        b = builder_for(chain(2))
        b.commit(0, 0, {})
        with pytest.raises(SchedulingError, match="never scheduled"):
            b.finish()


class TestCommitLog:
    def test_events_precede_their_replica(self):
        g = join(2, volume=10.0)
        b = builder_for(g)
        r0 = b.commit(0, 0, {})
        r1 = b.commit(1, 1, {})
        r2 = b.commit(2, 2, {0: [r0], 1: [r1]})
        log = b.schedule.commit_log
        idx = {id(entry): i for i, entry in enumerate(log)}
        for evs in r2.inputs.values():
            for e in evs:
                assert idx[id(e)] < idx[id(r2)]

    def test_seq_strictly_increasing(self):
        g = join(2, volume=10.0)
        b = builder_for(g)
        r0 = b.commit(0, 0, {})
        r1 = b.commit(1, 1, {})
        b.commit(2, 2, {0: [r0], 1: [r1]})
        seqs = [e.seq for e in b.schedule.commit_log]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_task_order_recorded(self):
        b = builder_for(chain(2))
        r0 = b.commit(0, 0, {})
        b.mark_task_done(0)
        b.commit(1, 0, {0: [r0]})
        b.mark_task_done(1)
        assert b.schedule.task_order == [0, 1]
