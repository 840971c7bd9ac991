"""Tests for the schedule validator: every check must catch its violation."""

import numpy as np
import pytest

from repro.core.caft import caft
from repro.schedule.schedule import CommEvent
from repro.schedule.validation import is_valid, validate_schedule
from repro.schedulers.ftsa import ftsa
from repro.schedulers.heft import heft
from repro.utils.errors import ScheduleValidationError
from tests.conftest import make_instance


@pytest.fixture
def schedule():
    inst = make_instance(num_tasks=15, num_procs=5)
    return ftsa(inst, epsilon=1, rng=0)


class TestValidSchedules:
    def test_ftsa_valid(self, schedule):
        validate_schedule(schedule)  # does not raise

    def test_heft_valid(self):
        inst = make_instance()
        validate_schedule(heft(inst), expected_replicas=1)

    def test_caft_valid(self):
        inst = make_instance()
        validate_schedule(caft(inst, epsilon=2), expected_replicas=3)

    def test_is_valid_wrapper(self, schedule):
        assert is_valid(schedule)


class TestTamperDetection:
    """Each mutation of a valid schedule must trip exactly its check."""

    def test_missing_replica(self, schedule):
        schedule.replicas[3].pop()
        with pytest.raises(ScheduleValidationError, match="replicas, expected"):
            validate_schedule(schedule)

    def test_space_exclusion(self, schedule):
        reps = schedule.replicas[3]
        reps[1].proc = reps[0].proc
        with pytest.raises(ScheduleValidationError, match="space exclusion"):
            validate_schedule(schedule)

    def test_wrong_duration(self, schedule):
        r = schedule.replicas[3][0]
        r.finish = r.finish + 5.0
        with pytest.raises(ScheduleValidationError, match="duration"):
            validate_schedule(schedule)

    def test_processor_overlap(self, schedule):
        # find a processor with two replicas and force them to overlap
        for p, reps in enumerate(schedule.proc_replicas):
            if len(reps) >= 2:
                dur0 = reps[0].duration
                dur1 = reps[1].duration
                reps[1].start = reps[0].start
                reps[1].finish = reps[1].start + dur1
                break
        with pytest.raises(ScheduleValidationError):
            validate_schedule(schedule)

    def test_start_before_supply(self, schedule):
        # find a replica fed by a remote message and start it too early
        for reps in schedule.replicas:
            for r in reps:
                if r.inputs:
                    dur = r.duration
                    r.start = 0.0
                    r.finish = dur
                    with pytest.raises(ScheduleValidationError):
                        validate_schedule(schedule)
                    return
        pytest.skip("no remote-fed replica in this schedule")

    def test_message_before_source(self, schedule):
        ev = schedule.events[0]
        ev.start = ev.src_replica.finish - 1.0
        ev.finish = ev.start + ev.duration
        with pytest.raises(ScheduleValidationError):
            validate_schedule(schedule)

    def test_message_wrong_duration(self, schedule):
        ev = schedule.events[0]
        ev.finish += 3.0
        with pytest.raises(ScheduleValidationError):
            validate_schedule(schedule)

    def test_port_overlap(self, schedule):
        # two messages out of the same processor forced to overlap
        by_src: dict[int, list[CommEvent]] = {}
        for e in schedule.events:
            by_src.setdefault(e.src_proc, []).append(e)
        pair = next((evs for evs in by_src.values() if len(evs) >= 2), None)
        if pair is None:
            pytest.skip("no shared send port in this schedule")
        a, b = pair[0], pair[1]
        dur = b.duration
        b.start = a.start
        b.finish = b.start + dur
        # keep the source-consistency check quiet
        if b.start < b.src_replica.finish:
            b.src_replica.finish = b.start
            b.src_replica.start = b.start - b.src_replica.duration
        with pytest.raises(ScheduleValidationError):
            validate_schedule(schedule)

    def test_intra_processor_event_rejected(self, schedule):
        ev = schedule.events[0]
        old_delay = schedule.instance.platform.delay(ev.src_proc, ev.dst_proc)
        ev.dst_proc = ev.src_proc
        with pytest.raises(ScheduleValidationError):
            validate_schedule(schedule)

    def test_local_input_on_wrong_proc(self, schedule):
        for reps in schedule.replicas:
            for r in reps:
                if r.local_inputs:
                    pred, local = next(iter(r.local_inputs.items()))
                    r.proc = (r.proc + 1) % schedule.instance.num_procs
                    # avoid tripping space exclusion first: revert any clash
                    with pytest.raises(ScheduleValidationError):
                        validate_schedule(schedule)
                    return
        pytest.skip("no local input in this schedule")


class TestExpectedReplicas:
    def test_explicit_count_mismatch(self, schedule):
        with pytest.raises(ScheduleValidationError):
            validate_schedule(schedule, expected_replicas=3)

    def test_heft_wrong_default(self):
        inst = make_instance()
        sched = heft(inst)
        # heft schedules carry epsilon=0 so the default expectation is 1
        validate_schedule(sched)


def _hand_schedule(order, model="oneport"):
    """t0 -> t1 and t2 -> t3 (volume 10) on three identical processors
    (unit delay, cost 5), committed in ``order`` as (task, proc) pairs."""
    from repro.dag.graph import TaskGraph
    from repro.platform.instance import ProblemInstance
    from repro.platform.platform import Platform
    from repro.schedulers.base import make_builder

    graph = TaskGraph(4, [(0, 1, 10.0), (2, 3, 10.0)])
    inst = ProblemInstance(graph, Platform.homogeneous(3, unit_delay=1.0), np.full((4, 3), 5.0))
    builder = make_builder(inst, 0, model, "hand")
    for t, p in order:
        builder.commit(t, p, {q: builder.schedule.replicas[q] for q in graph.preds(t)})
    return builder.finish()


class TestPortVariants:
    """The §2 variants' own rules, each with a schedule built to break it:
    valid under the bi-directional one-port model, rejected under the
    variant it violates."""

    def test_uniport_rejects_simultaneous_send_and_receive(self):
        # P1 receives t0 -> t1 over [5, 15] while it sends t2 -> t3 over
        # [5, 15]: two engines under one-port, one under uniport
        sched = _hand_schedule([(0, 0), (2, 1), (1, 1), (3, 2)])
        validate_schedule(sched)
        sched.model = "uniport"
        with pytest.raises(ScheduleValidationError, match="shared port of P1"):
            validate_schedule(sched)

    def test_nooverlap_rejects_compute_during_transfer(self):
        # P0 sends t0 -> t1 over [5, 15] and computes t2 over [5, 10]
        sched = _hand_schedule([(0, 0), (1, 1), (2, 0), (3, 2)])
        validate_schedule(sched)
        sched.model = "oneport-nooverlap"
        with pytest.raises(ScheduleValidationError, match="P0 computes while communicating"):
            validate_schedule(sched)

    @pytest.mark.parametrize("model", ["uniport", "oneport-nooverlap"])
    def test_variant_builders_respect_their_rules(self, model):
        # the same commit orders through the variant's own network model
        for order in ([(0, 0), (2, 1), (1, 1), (3, 2)], [(0, 0), (1, 1), (2, 0), (3, 2)]):
            validate_schedule(_hand_schedule(order, model))


class TestRoutedHops:
    """``routed-oneport`` transfers hold every directed hop of their
    route, not just a logical (src, dst) link."""

    @staticmethod
    def _line_schedule():
        # on the line P0 - P1 - P2 - P3, t0 -> t1 crosses P0->P1->P2 and
        # t2 -> t3 crosses P1->P2->P3; both messages run over [5, 15]
        # with four distinct ports, so they only collide on hop P1->P2
        from repro.comm.routed import RoutedOnePortNetwork
        from repro.dag.graph import TaskGraph
        from repro.platform.instance import ProblemInstance
        from repro.platform.platform import Platform
        from repro.platform.topology import Topology
        from repro.schedulers.base import make_builder

        graph = TaskGraph(4, [(0, 1, 10.0), (2, 3, 10.0)])
        inst = ProblemInstance(
            graph, Platform.homogeneous(4, unit_delay=1.0), np.full((4, 4), 5.0)
        )
        builder = make_builder(inst, 0, "oneport", "hand")
        for t, p in ((0, 0), (2, 1), (1, 2), (3, 3)):
            builder.commit(t, p, {q: builder.schedule.replicas[q] for q in graph.preds(t)})
        sched = builder.finish()
        assert [(e.start, e.finish) for e in sched.events] == [(5.0, 15.0)] * 2
        topology = Topology.line(4)
        return sched, lambda: RoutedOnePortNetwork(topology)

    def test_rejects_transfers_sharing_a_physical_hop(self):
        sched, routed = self._line_schedule()
        validate_schedule(sched)
        sched.model = "routed-oneport"
        sched.make_network = routed
        with pytest.raises(ScheduleValidationError, match=r"physical link P1->P2"):
            validate_schedule(sched)
