"""Property tests: gap-vector scans vs the interval-list implementation.

The insertion-policy fast path replays ``place_transfer``'s
first-common-gap scan against split start/end gap-vector overlays
(:class:`repro.schedule.kernel._GapOverlay`); the slow path walks plain
sorted interval lists (:func:`repro.comm.base.earliest_gap` /
:func:`common_gap_start`).  Bit-identity of the whole insertion
equivalence matrix rests on these two implementations agreeing on every
float — hypothesis hunts the disagreement directly, including touching
intervals, zero gaps, and interleaved insert/scan sequences.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.comm.base import common_gap_start, earliest_gap
from repro.comm.oneport import _GapTimeline
from repro.schedule.kernel import _common_gap3, _earliest_gaps, _GapOverlay

#: bounded, finite, non-degenerate floats — timeline times are finite
_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_durations = st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)


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


def _overlay_from(intervals):
    starts = [s for s, _ in intervals]
    ends = [f for _, f in intervals]
    return _GapOverlay((starts, ends))


@given(interval_lists(), _times, _durations)
@settings(max_examples=300, deadline=None)
def test_overlay_earliest_matches_interval_walk(intervals, ready, duration):
    got = _overlay_from(intervals).earliest(ready, duration)
    want = earliest_gap(intervals, ready, duration)
    assert got == want  # exact float equality — bit-identity is the contract


@given(interval_lists(), _times)
@settings(max_examples=200, deadline=None)
def test_overlay_earliest_zero_duration(intervals, ready):
    assert _overlay_from(intervals).earliest(ready, 0.0) == earliest_gap(
        intervals, ready, 0.0
    )


@given(
    interval_lists(max_n=6),
    st.lists(st.tuples(_times, _durations), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_overlay_insert_sequence_matches_insort(intervals, requests):
    """Interleaved place-and-insert: after every simulated reservation the
    overlay and the insort-maintained list must agree on the next scan —
    the exact access pattern of the kernel's insertion evaluator."""
    from bisect import insort

    ivs = list(intervals)
    ov = _overlay_from(intervals)
    for ready, duration in requests:
        want = earliest_gap(ivs, ready, duration)
        got = ov.earliest(ready, duration)
        assert got == want
        finish = want + duration
        insort(ivs, (want, finish))
        ov.insert(want, finish)
    assert ov.starts == [s for s, _ in ivs]
    assert ov.ends == [f for _, f in ivs]


@given(
    interval_lists(max_n=6),
    interval_lists(max_n=6),
    interval_lists(max_n=6),
    _times,
    _durations,
)
@settings(max_examples=200, deadline=None)
def test_common_gap3_matches_common_gap_start(a, b, c, ready, duration):
    """The specialized send/recv/link fixpoint vs the generic one the
    slow path runs — same resource order, bit-identical starts."""
    sov, rov, lov = (_overlay_from(iv) for iv in (a, b, c))
    got = _common_gap3(
        sov.starts, sov.ends,
        rov.starts, rov.ends,
        lov.starts, lov.ends,
        ready, duration,
    )
    want = common_gap_start((a, b, c), ready, duration)
    assert got == want


@given(
    interval_lists(max_n=8),
    _times,
    _durations,
)
@settings(max_examples=200, deadline=None)
def test_common_gap3_single_busy_resource(intervals, ready, duration):
    """Two empty resources degenerate the fixpoint to one resource's
    gap walk — the quiet-counter round-robin must not terminate early
    or late on the trivial resources."""
    ov = _overlay_from(intervals)
    got = _common_gap3(
        ov.starts, ov.ends, [], [], [], [], ready, duration
    )
    assert got == earliest_gap(intervals, ready, duration)


def test_overlay_copies_do_not_alias_timeline_vectors():
    """Overlay ``insert`` is copy-on-touch — it must never write through
    to the committed timeline's cached vectors."""
    tl = _GapTimeline()
    tl.reserve(1.0, 2.0)
    starts, ends = tl.gap_vectors()
    ov = _GapOverlay((starts, ends))
    ov.insert(3.0, 4.0)
    assert starts == [1.0] and ends == [2.0]
    assert ov.starts == [1.0, 3.0] and ov.ends == [2.0, 4.0]


def test_timeline_gap_vectors_track_versions():
    """``_GapTimeline.gap_vectors()`` is cached per version and must
    follow reservations and releases (the undo log releases on
    rollback)."""
    tl = _GapTimeline()
    s0, e0 = tl.gap_vectors()
    assert s0 == [] and e0 == []
    tl.reserve(1.0, 2.0)
    tl.reserve(4.0, 5.5)
    s1, e1 = tl.gap_vectors()
    assert s1 == [1.0, 4.0] and e1 == [2.0, 5.5]
    assert tl.gap_vectors()[0] is s1  # cached while the version is unchanged
    tl.release(1.0, 2.0)
    s2, e2 = tl.gap_vectors()
    assert s2 == [4.0] and e2 == [5.5]


@given(
    st.lists(interval_lists(), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), _times, _durations), min_size=1, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_vectorized_earliest_gaps_match_interval_walk(timelines, queries):
    """The pressure sweep's vectorized gap scan (one query per message,
    over committed timelines) equals the scalar walk query by query."""
    tls = []
    for intervals in timelines:
        tl = _GapTimeline()
        for s, f in intervals:
            tl.reserve(s, f)
        tls.append(tl)
    queries = [(i % len(tls), ready, w) for i, ready, w in queries]
    which, ready, w = (np.array(col) for col in zip(*queries))
    got = _earliest_gaps(tls, which, ready, w).tolist()
    assert got == [earliest_gap(timelines[i], r, d) for i, r, d in queries]
