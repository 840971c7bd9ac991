"""Property tests: the two-timeline gap scan vs the interval-list walks.

The insertion policy places a transfer at the least common free start of
the sender's send timeline and the receiver's receive timeline
(:func:`repro.comm.base.common_gap`, over split ``starts``/``ends``
lists); the fast kernel runs the same scan over the committed send
timeline and a trial-local copy of the receive timeline.  The link
between the two is never scanned: on a clique it carries only its
sender's messages, so its busy intervals are a subset of the sender's.

The oracle below is the plain interval walk the policy was first
specified with — every resource (send, receive *and* link) scanned as a
sorted ``(start, finish)`` list, rounds restarted until no resource
moves the candidate.  Hypothesis hunts any float on which the two
disagree, including touching intervals, zero gaps, interleaved
insert/scan sequences, and checkpoint/rollback on a real network.
"""

from bisect import insort

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.comm.base import common_gap, insert_interval
from repro.comm.oneport import OnePortNetwork, _GapTimeline
from repro.platform.platform import Platform
from repro.schedule.kernel import _GapTable
from repro.schedulers.base import make_builder
from tests.conftest import make_instance

#: bounded, finite, non-degenerate floats — timeline times are finite
_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_durations = st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)


def earliest_gap(intervals, ready, duration):
    """First feasible start for ``duration`` in a sorted interval list."""
    t = ready
    for s, f in intervals:
        if t + duration <= s:
            return t
        t = max(t, f)
    return t


def common_gap_start(interval_lists, ready, duration):
    """Least start at which every list has a common free gap: rounds of
    :func:`earliest_gap` from the same candidate until none moves it."""
    start = ready
    while True:
        s2 = start
        for iv in interval_lists:
            e = earliest_gap(iv, start, duration)
            if e > s2:
                s2 = e
        if s2 == start:
            return start
        start = s2


def _split(intervals):
    return [s for s, _ in intervals], [f for _, f in intervals]


@st.composite
def interval_lists(draw, max_n=10):
    """Sorted, disjoint (possibly touching) busy intervals — exactly the
    invariant real ``_GapTimeline`` reservations maintain."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    t = draw(_times)
    out = []
    for _ in range(n):
        gap = draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
        dur = draw(_durations)
        s = t + gap
        f = s + dur
        out.append((s, f))
        t = f
    return out


class ThreeTimelineModel:
    """The insertion policy as first specified: every transfer scans and
    reserves its send, receive and link timelines as interval lists."""

    def __init__(self, m):
        self.send = [[] for _ in range(m)]
        self.recv = [[] for _ in range(m)]
        self.link = {(a, b): [] for a in range(m) for b in range(m)}
        self.log = []

    def place(self, src, dst, ready, w):
        ivs = (self.send[src], self.recv[dst], self.link[src, dst])
        start = common_gap_start(ivs, ready, w)
        finish = start + w
        for iv in ivs:
            insort(iv, (start, finish))
            self.log.append((iv, (start, finish)))
        return start, finish

    def checkpoint(self):
        return len(self.log)

    def rollback(self, token):
        while len(self.log) > token:
            iv, item = self.log.pop()
            iv.remove(item)

    def commit(self):
        self.log.clear()


#: random transfers on a 4-processor clique: (src, dst, ready, w)
_transfers = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), _times, _durations),
    max_size=14,
)


@given(interval_lists(), interval_lists(), _times, _durations)
@settings(max_examples=300, deadline=None)
def test_overlay_earliest_matches_interval_walk(intervals, other, ready, duration):
    """The receiver-side scan alone is that timeline's walk; with both
    timelines busy it is the walk over the merged intervals when those
    stay disjoint."""
    starts, ends = _split(intervals)
    want = earliest_gap(intervals, ready, duration)
    assert common_gap([], [], starts, ends, ready, duration) == want
    merged = sorted(intervals + other)
    if all(f <= s for (_, f), (s, _) in zip(merged, merged[1:])):
        got = common_gap(starts, ends, *_split(other), ready, duration)
        assert got == earliest_gap(merged, ready, duration)


@given(interval_lists(), _times, _durations)
@settings(max_examples=200, deadline=None)
def test_common_gap3_single_busy_resource(intervals, ready, duration):
    """Empty resources degenerate the common-gap fixpoint to the one busy
    resource's gap walk, in either argument position — the alternation
    must not stop early or late on the trivial timeline."""
    starts, ends = _split(intervals)
    want = earliest_gap(intervals, ready, duration)
    assert common_gap(starts, ends, [], [], ready, duration) == want
    assert common_gap([], [], starts, ends, ready, duration) == want


@given(interval_lists(), _times)
@settings(max_examples=200, deadline=None)
def test_overlay_earliest_zero_duration(intervals, ready):
    starts, ends = _split(intervals)
    assert common_gap(starts, ends, [], [], ready, 0.0) == earliest_gap(
        intervals, ready, 0.0
    )


@given(
    interval_lists(max_n=6),
    st.lists(st.tuples(_times, _durations), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_overlay_insert_sequence_matches_insort(intervals, requests):
    """Interleaved place-and-insert: after every simulated reservation the
    split lists and the insort-maintained list must agree on the next
    scan — the access pattern of the kernel's receiver copy."""
    ivs = list(intervals)
    starts, ends = _split(intervals)
    for ready, duration in requests:
        want = earliest_gap(ivs, ready, duration)
        got = common_gap([], [], starts, ends, ready, duration)
        assert got == want
        finish = want + duration
        insort(ivs, (want, finish))
        insert_interval(starts, ends, want, finish)
    assert (starts, ends) == _split(ivs)


@given(interval_lists(max_n=6), interval_lists(max_n=6), _times, _durations)
@settings(max_examples=300, deadline=None)
def test_common_gap_matches_common_gap_start(a, b, ready, duration):
    """The alternating two-walk fixpoint vs the restarted rounds of the
    oracle — both reach the least common start, as the same float."""
    got = common_gap(*_split(a), *_split(b), ready, duration)
    assert got == common_gap_start((a, b), ready, duration)


@given(
    _transfers,
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 3), _times, _durations), min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_two_timeline_scan_matches_three_timeline_walk(committed, proc, trial):
    """The subset argument, on reservations built the way
    ``place_transfer`` builds them: a trial toward ``proc`` scanned over
    (committed send, recv ∪ trial) gives the same floats as the walk over
    (send ∪ trial, recv ∪ trial, link ∪ trial) the kernel used to copy."""
    model = ThreeTimelineModel(4)
    for src, dst, ready, w in committed:
        if src != dst:
            model.place(src, dst, ready, w)
    rs, re_ = _split(model.recv[proc])
    send_ov, link_ov = {}, {}
    recv_ov = list(model.recv[proc])
    for src, ready, w in trial:
        if src == proc:
            continue
        sov = send_ov.setdefault(src, list(model.send[src]))
        lov = link_ov.setdefault(src, list(model.link[src, proc]))
        want = common_gap_start((sov, recv_ov, lov), ready, w)
        for iv in (sov, recv_ov, lov):
            insort(iv, (want, want + w))
        got = common_gap(*_split(model.send[src]), rs, re_, ready, w)
        assert got == want
        insert_interval(rs, re_, got, got + w)
    assert (rs, re_) == _split(recv_ov)


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("place"), st.integers(0, 3), st.integers(0, 3), _times, _durations
        ),
        st.tuples(st.sampled_from(["checkpoint", "rollback", "commit"])),
    ),
    max_size=30,
)


@given(_ops, st.lists(st.floats(0.5, 2.0), min_size=16, max_size=16))
@settings(max_examples=200, deadline=None)
def test_insertion_network_matches_three_timeline_model(ops, delays):
    """Random ``place_transfer``/``checkpoint``/``rollback``/``commit``
    sequences on an insertion ``OnePortNetwork`` give the same
    ``(start, finish)`` floats as the three-timeline reference model, and
    leave the same send and receive timelines behind."""
    d = np.array(delays).reshape(4, 4)
    np.fill_diagonal(d, 0.0)
    plat = Platform(d)
    delay = plat.delay_matrix.tolist()
    net = OnePortNetwork(plat, policy="insertion")
    model = ThreeTimelineModel(4)
    tokens = []
    for op in ops:
        if op[0] == "place":
            _op, src, dst, ready, volume = op
            got = net.place_transfer(src, dst, ready, volume)
            w = volume * delay[src][dst]
            want = (ready, ready) if src == dst else model.place(src, dst, ready, w)
            assert got == want
        elif op[0] == "checkpoint":
            tokens.append((net.checkpoint(), model.checkpoint()))
        elif op[0] == "rollback" and tokens:
            token, mtoken = tokens.pop()
            net.rollback(token)
            model.rollback(mtoken)
        elif op[0] == "commit":
            net.commit()
            model.commit()
            tokens.clear()
    view = net.frontier_view()
    for p in range(4):
        assert (view.send_timelines[p].starts, view.send_timelines[p].ends) == (
            _split(model.send[p])
        )
        assert (view.recv_timelines[p].starts, view.recv_timelines[p].ends) == (
            _split(model.recv[p])
        )


def test_overlay_copies_do_not_alias_timeline_vectors():
    """The kernel's receiver copy is trial-local: a candidate sweep must
    leave every committed timeline as it was, and each swept row must
    equal the exact reserve-and-rollback trial."""
    inst = make_instance(num_tasks=12, num_procs=4, granularity=0.5, seed=5)
    m = inst.num_procs
    builder = make_builder(inst, 1, "oneport", "t", fast=True, policy="insertion")
    assert builder.kernel_stats()["evaluator"] == "insertion"
    view = builder.network.frontier_view()
    timelines = view.send_timelines + view.recv_timelines
    replicas = builder.schedule.replicas
    for task in inst.graph.topological_order():
        sources = {p: replicas[p] for p in inst.graph.preds(task)}
        before = [(tl.starts[:], tl.ends[:]) for tl in timelines]
        trials = builder.candidate_sweep(task, range(m), sources, keep=m)
        assert [(tl.starts, tl.ends) for tl in timelines] == before
        for p, tr in enumerate(trials):
            exact = builder.trial(task, p, sources)
            assert (tr.start, tr.finish) == (exact.start, exact.finish)
        for tr in sorted(trials, key=lambda t: (t.finish, t.proc))[:2]:
            builder.commit(task, tr.proc, sources)
        builder.mark_task_done(task)
    assert any(tl.starts for tl in timelines)


def test_timeline_split_lists_track_reserve_and_release():
    """``_GapTimeline`` keeps its split lists sorted through reservations
    and releases (the undo log releases on rollback)."""
    tl = _GapTimeline()
    assert tl.starts == [] and tl.ends == []
    tl.reserve(4.0, 5.5)
    tl.reserve(1.0, 2.0)
    tl.reserve(2.0, 4.0)
    assert tl.starts == [1.0, 2.0, 4.0] and tl.ends == [2.0, 4.0, 5.5]
    tl.release(2.0, 4.0)
    assert tl.starts == [1.0, 4.0] and tl.ends == [2.0, 5.5]
    tl.release(1.0, 2.0)
    assert tl.starts == [4.0] and tl.ends == [5.5]
    # equal starts (a zero-width interval) keep insort's tuple order,
    # so ends stay sorted for the scan's bisect
    tl.reserve(4.0, 4.0)
    tl.reserve(5.5, 5.5)
    assert tl.starts == [4.0, 4.0, 5.5] and tl.ends == [4.0, 5.5, 5.5]
    tl.release(4.0, 5.5)
    assert tl.starts == [4.0, 5.5] and tl.ends == [4.0, 5.5]


@given(
    st.lists(interval_lists(), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), _times, _durations), min_size=1, max_size=12),
    st.integers(0, 10),
)
@settings(max_examples=200, deadline=None)
def test_vectorized_earliest_gaps_match_interval_walk(timelines, queries, cut):
    """The pressure sweep's vectorized gap scan (one query per message,
    over committed timelines) equals the scalar walk query by query —
    also after the timelines gained intervals and the table re-synced
    only the rows that moved."""
    tls = [_GapTimeline() for _ in timelines]
    for tl, intervals in zip(tls, timelines):
        for s, f in intervals[:cut]:
            tl.reserve(s, f)
    table = _GapTable(tls)
    for tl, intervals in zip(tls, timelines):
        for s, f in intervals[cut:]:
            tl.reserve(s, f)
    table.sync()
    queries = [(i % len(tls), ready, w) for i, ready, w in queries]
    which, ready, w = (np.array(col) for col in zip(*queries))
    got = table.earliest(which, ready, w).tolist()
    assert got == [earliest_gap(timelines[i], r, d) for i, r, d in queries]
