"""The vectorized placement kernel (fast-path trial evaluation).

:class:`TrialKernel` mirrors the arithmetic of
``ScheduleBuilder._place(record=False)`` — eq. (6) message serialization
under the bi-directional one-port model and its variants — **without**
touching the network's undo log.  A slow-path ``trial()`` reserves every
message on the real network and rolls the reservations back; profiling
shows that reserve-and-rollback bookkeeping dominates scheduler wall
clock (>80% on the figure campaigns).  The kernel instead reads the
network's committed frontiers and simulates the serialization locally,
so evaluating a candidate has no side effects to undo.

Model support comes from the **resource-frontier protocol**
(:mod:`repro.comm.base`): every network model declares its contended
resources via ``kernel_caps()`` and exposes them through
``frontier_view()``.  The kernel dispatches purely on the declared
capabilities — it never inspects concrete model types — and covers:

* scalar port/link frontiers (the paper's bi-directional one-port, the
  §2 uni-port and no-overlap variants, and the contention-free
  macro-dataflow model);
* **routed** models (§7 sparse topologies): serialization takes the max
  over the per-hop link frontiers of each message's static route, and
  the epoch cache tracks per-directed-link versions so two routes
  sharing a physical link invalidate each other;
* **gap-timeline** models (``OnePortNetwork(policy="insertion")``):
  trials replay the insertion scan against trial-local copies of the
  busy-interval timelines.

A model whose ``kernel_caps()`` is ``None`` (or declares a combination
the kernel cannot mirror) falls back to the exact slow path with a
one-time ``logging`` warning — ``fast=True`` never changes results.

Three evaluation paths, all producing **bit-identical** results (same
IEEE-754 operations in the same order — the equivalence test suite
asserts identical commit logs end to end):

* ``pressure_sweep`` — FTBAR's free-task × all-processor re-scoring
  sweep.  One NumPy pass computes a sound **lower bound** on the start
  of every stale (task, processor) row from the committed frontiers
  (:meth:`TrialKernel._pressure_bounds`); only the rows whose bound could
  still put them among their task's ε+1 minimum-``(σ, proc)`` rows are
  evaluated exactly (:func:`select_pressure`), in as few batched rounds
  as the bounds allow.  Exact starts, the commit versions they were
  computed at and every free task's message tables live in per-schedule
  arrays (:class:`_SweepState`), so no :class:`Trial` is built for a row
  that is served from them or pruned.
* ``candidate_sweep`` — one placement's candidate processors (the
  HEFT/FTSA/CAFT candidate loops), optionally with designated
  per-predecessor heads per candidate (CAFT's one-to-one rounds, picked
  for every candidate in one pass by ``candidate_heads``).  The eq. (6)
  message prologue — supplier pools, sender-side key bases, suppression
  tables — is built once per task and shared across every candidate.
  Rows the epoch cache serves are exact; every other row gets a sound
  lower bound on its finish (:meth:`TrialKernel._finish_bounds`), and
  :func:`select_candidates` evaluates exactly, in ``(bound, proc)``
  order, only the rows that can still be the minimum, tie with it, or
  be among the first ``keep``.  Evaluated rows go one vectorized pass
  per evaluator family once a batch is big enough to pay for itself:

  - scalar-frontier models lexsort the eq. (6) keys for every row at
    once and advance the serialization frontier matrices step by step
    (``_eval_rows``);
  - **routed** models compute every route's hop maximum as one CSR
    ``np.maximum.reduceat`` over the committed link frontiers and run
    the serialization recurrence ``f = max(key, rf + w)`` in lockstep
    across rows (``_eval_rows_routed``) — exact, because every
    simulated frontier a later message could read is dominated by the
    receiver frontier (see the evaluator docstring);
  - **gap-timeline** models share the vectorized key prologue and
    replay each row's first-common-gap placements against trial-local
    NumPy gap-array overlays (``_eval_rows_insertion``), copied on
    first touch per resource.
* an **epoch cache** — a placement only dirties the processors (and,
  for routed models, directed links) it touched.  Each committed
  replica/message bumps the epochs of the resources it reserved; a
  cached trial (``candidate_sweep``) or exact start (``pressure_sweep``)
  is reused verbatim when the epochs of every resource it read are
  unchanged and the supplier pools did not grow.

``kernel_stats()`` exposes the observability counters (evaluator
family, epoch-cache hits/misses, bounded and pruned sweep rows, batch vs
scalar evaluation volumes).
"""

from __future__ import annotations

import logging
from bisect import bisect_right, insort
from itertools import islice
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.comm.base import KernelCaps
from repro.schedule.schedule import TIE_EPS, Replica, Trial
from repro.utils.errors import SchedulingError

_INF = float("inf")

logger = logging.getLogger(__name__)

#: model signatures already warned about (one warning per model kind)
_fallback_warned: set[str] = set()


def _caps_flags(caps: KernelCaps) -> str:
    """The declared capability flags as a ``+``-joined string (for the
    fallback warning, which must name what forced the slow path)."""
    return "+".join(
        name
        for name in ("shared_port", "compute_blocks", "gap_timelines", "routed")
        if getattr(caps, name)
    )


def _unsupported_reason(caps: Optional[KernelCaps]) -> Optional[str]:
    """Why the kernel cannot serve a model; ``None`` = fully supported."""
    if caps is None:
        return "it declares no kernel capabilities (kernel_caps() is None)"
    flags = _caps_flags(caps)
    if caps.routed and (caps.gap_timelines or caps.shared_port or caps.compute_blocks):
        return (
            f"it declares {flags!r}: the kernel has no evaluator for routed "
            "combined with gap-timeline/shared-port/no-overlap capabilities"
        )
    if caps.gap_timelines and (caps.shared_port or caps.compute_blocks):
        return (
            f"it declares {flags!r}: the kernel has no evaluator for gap "
            "timelines combined with shared-port/no-overlap capabilities"
        )
    if caps.shared_port and caps.compute_blocks:
        return (
            f"it declares {flags!r}: the kernel has no evaluator for a "
            "shared port combined with compute-blocking communication"
        )
    if not caps.contention and flags:
        return (
            f"it declares contention=False together with {flags!r}: a "
            "contention-free model cannot declare contended-resource capabilities"
        )
    return None


def _warn_fallback(network, reason: str) -> None:
    """One-time warning when ``fast=True`` degrades to the exact path."""
    key = (
        f"{type(network).__module__}.{type(network).__qualname__}"
        f":{getattr(network, 'name', '')}"
    )
    if key in _fallback_warned:
        return
    _fallback_warned.add(key)
    logger.warning(
        "fast=True: network model %r (%s) is outside the placement kernel — %s; "
        "falling back to the exact reserve-and-rollback path "
        "(identical schedules, slower trials)",
        getattr(network, "name", type(network).__name__),
        type(network).__qualname__,
        reason,
    )


def _caps_kind(caps: KernelCaps) -> str:
    """Internal evaluator family for a supported capability set."""
    if not caps.contention:
        return "macro"
    if caps.routed:
        return "routed"
    if caps.gap_timelines:
        return "insertion"
    if caps.shared_port:
        return "uniport"
    if caps.compute_blocks:
        return "nooverlap"
    return "oneport"


class _GapOverlay:
    """Trial-local busy-interval overlay on one resource's gap vectors.

    Seeded by slice-copying the committed split ``(starts, ends)``
    mirror (:meth:`repro.comm.oneport._GapTimeline.gap_vectors`, cached
    per version, so repeated trials between commits share one build);
    the trial's simulated reservations are spliced in with C-backed
    ``bisect`` + ``list.insert``.  No per-trial tuple lists are built,
    and :meth:`earliest` skips the committed prefix the scalar interval
    walk re-scans on every call.

    Plain lists beat ndarray ``searchsorted`` here: the scans are a few
    dozen intervals long and run hundreds of thousands of times per
    campaign, so per-call constants dominate asymptotics.
    """

    __slots__ = ("starts", "ends")

    def __init__(self, vectors) -> None:
        starts, ends = vectors
        self.starts = starts[:]
        self.ends = ends[:]

    def earliest(self, ready: float, duration: float) -> float:
        """First feasible start for ``duration`` — bit-identical to
        :func:`repro.comm.base.earliest_gap` over the same intervals.

        ``bisect`` skips every interval ending at or before ``ready``
        (the scalar walk only advances ``t`` through those, and the gap
        test cannot fire inside them); from there the walk is the scalar
        one, with ``t = max(t, f)`` collapsing to ``t = f`` because ends
        are strictly increasing past the skip point.
        """
        ends = self.ends
        i = bisect_right(ends, ready)
        n = len(ends)
        if i == n:
            return ready
        starts = self.starts
        t = ready
        while i < n:
            if t + duration <= starts[i]:
                return t
            t = ends[i]
            i += 1
        return t

    def insert(self, start: float, finish: float) -> None:
        i = bisect_right(self.starts, start)
        self.starts.insert(i, start)
        self.ends.insert(i, finish)


def _common_gap3(ss, se, rs, re_, ls, le, ready: float, duration: float) -> float:
    """:func:`repro.comm.base.common_gap_start` over three gap vectors.

    The send/recv/link trio is the only shape ``place_transfer`` ever
    scans, so the fixed point is specialized to six flat lists with the
    per-resource gap walk inlined.  Each walk chains off the previous
    one's candidate (Gauss-Seidel) instead of restarting the round
    (Jacobi, what ``common_gap_start`` does); both iterations converge
    to the *least* common feasible start at or after ``ready`` — each
    per-resource ``earliest_gap`` map is monotone and inflationary, so
    every iterate stays bounded by any common fixed point — and no step
    does arithmetic on times (candidates are existing interval ends or
    ``ready`` itself), so the result is the identical float.  The
    replay calls this hundreds of thousands of times per campaign;
    dispatch and round count dominate, not asymptotics.

    A resource's walk is skipped when it was the last to move the
    candidate (round-robin with a quiet counter): the walk that set
    ``t`` already certified ``t`` feasible for its own resource, so
    re-walking it is pure confirmation overhead.  The sequence of
    walks actually executed is a subsequence of the plain rounds with
    identical inputs, so the least fixed point — and the exact float —
    is unchanged.
    """
    t = ready
    quiet = 0
    while True:
        t0 = t
        i = bisect_right(se, t)
        n = len(se)
        while i < n:
            if t + duration <= ss[i]:
                break
            t = se[i]
            i += 1
        if t == t0:
            quiet += 1
            if quiet == 3:
                return t
        else:
            quiet = 1
        t0 = t
        i = bisect_right(re_, t)
        n = len(re_)
        while i < n:
            if t + duration <= rs[i]:
                break
            t = re_[i]
            i += 1
        if t == t0:
            quiet += 1
            if quiet == 3:
                return t
        else:
            quiet = 1
        t0 = t
        i = bisect_right(le, t)
        n = len(le)
        while i < n:
            if t + duration <= ls[i]:
                break
            t = le[i]
            i += 1
        if t == t0:
            quiet += 1
            if quiet == 3:
                return t
        else:
            quiet = 1


class _TaskEntries:
    """Per-task supplier state shared by every candidate processor.

    Built once per (task, supplier-pool version) and reused across the
    whole candidate sweep — this is the per-predecessor
    message-serialization state the kernel caches.
    """

    __slots__ = (
        "preds",
        "vols",
        "pools",
        "local",
        "selfsuff",
        "srcs",
        "sig",
        "nwork",
        "np_arrays",
        "np_proc_tables",
        "np_padded",
        "np_sbase",
    )

    def __init__(self, graph, task: int, sources: Mapping[int, Sequence[Replica]]):
        preds = graph.preds(task)
        self.preds = preds
        self.vols: list[float] = []
        #: per pred slot: [(index, src proc, ready time), ...] in pool order
        self.pools: list[list[tuple[int, int, float]]] = []
        #: per pred slot: proc -> earliest co-located supply (min by (finish, index))
        self.local: list[dict[int, float]] = []
        #: per pred slot: procs hosting a self-sufficient co-located replica
        self.selfsuff: list[frozenset[int]] = []
        srcs: set[int] = set()
        for pred in preds:
            try:
                srcs_list = sources[pred]
            except KeyError:
                raise SchedulingError(
                    f"no sources provided for predecessor t{pred} of t{task}"
                ) from None
            if not srcs_list:
                raise SchedulingError(
                    f"empty source list for predecessor t{pred} of t{task}"
                )
            self.vols.append(graph.volume(pred, task))
            pool = []
            local: dict[int, tuple[float, int]] = {}
            suff = set()
            for r in srcs_list:
                proc = r.proc
                pool.append((r.index, proc, r.finish))
                srcs.add(proc)
                key = (r.finish, r.index)
                prev = local.get(proc)
                if prev is None or key < prev:
                    local[proc] = key
                if r.support <= frozenset((proc,)):
                    suff.add(proc)
            self.pools.append(pool)
            self.local.append({p: k[0] for p, k in local.items()})
            self.selfsuff.append(frozenset(suff))
        self.srcs = sorted(srcs)
        self.sig = tuple(len(p) for p in self.pools)
        self.nwork = max(1, sum(self.sig))
        self.np_arrays = None
        self.np_proc_tables = None
        self.np_padded: dict = {}
        self.np_sbase = None

    def sbase_pools(self, send0, version: int) -> list[list[float]]:
        """Per-slot sender-side key bases ``max(ready, send_free[src])``.

        The candidate-processor-independent half of each eq. (6) key:
        computed once per (task, commit version) and shared by every
        candidate processor of the sweep, instead of re-reading the
        sender frontier per (processor, pool entry).  Keyed by the
        kernel's commit version — ``send_free`` only moves on commits.
        Models without a send frontier (``send0`` is ``None``) get
        ``ready``.
        """
        cached = self.np_sbase
        if cached is None or cached[0] != version:
            out = []
            for pool in self.pools:
                lst = []
                for _index, src, ready in pool:
                    sf = ready if send0 is None else send0[src]
                    lst.append(sf if sf > ready else ready)
                out.append(lst)
            cached = (version, out)
            self.np_sbase = cached
        return cached[1]

    def arrays(self):
        """Flat NumPy arrays over all pool entries (built lazily)."""
        if self.np_arrays is None:
            pred_l, idx_l, src_l, ready_l, slot_l, vol_l = [], [], [], [], [], []
            for slot, (pred, pool) in enumerate(zip(self.preds, self.pools)):
                vol = self.vols[slot]
                for index, src, ready in pool:
                    pred_l.append(pred)
                    idx_l.append(index)
                    src_l.append(src)
                    ready_l.append(ready)
                    slot_l.append(slot)
                    vol_l.append(vol)
            self.np_arrays = (
                np.asarray(pred_l, dtype=np.int64),
                np.asarray(idx_l, dtype=np.int64),
                np.asarray(src_l, dtype=np.int64),
                np.asarray(ready_l, dtype=np.float64),
                np.asarray(slot_l, dtype=np.int64),
                np.asarray(vol_l, dtype=np.float64),
            )
        return self.np_arrays

    def proc_tables(self, num_procs: int, strict: bool):
        """Per-(slot, proc) local-supply and suppression tables (lazy).

        ``local_sup[s, p]`` is the earliest co-located supply of slot ``s``
        on processor ``p`` (``inf`` when none); ``suppressed[s, p]`` marks
        predecessors whose whole remote pool is dropped on ``p`` (strict
        mode, or a self-sufficient co-located replica).
        """
        if self.np_proc_tables is None:
            nslots = len(self.preds)
            local_sup = np.full((nslots, num_procs), _INF)
            suppressed = np.zeros((nslots, num_procs), dtype=bool)
            for slot in range(nslots):
                suff = self.selfsuff[slot]
                for p, finish in self.local[slot].items():
                    local_sup[slot, p] = finish
                    if strict or p in suff:
                        suppressed[slot, p] = True
            self.np_proc_tables = (local_sup, suppressed)
        return self.np_proc_tables

    def padded(self, rmax: int, smax: int, num_procs: int, strict: bool):
        """All per-task arrays padded to the sweep's ``(rmax, smax)`` shape.

        Cached per shape: a task re-swept with the same global padding
        (the common FTBAR case) contributes zero assembly work beyond a
        stack of cached rows.
        """
        key = (rmax, smax)
        cached = self.np_padded.get(key)
        if cached is not None:
            return cached
        pred_a, idx_a, src_a, ready_a, slot_a, vol_a = self.arrays()
        r = pred_a.size
        nslots = len(self.preds)
        pred = np.zeros(rmax, dtype=np.int64)
        idx = np.zeros(rmax, dtype=np.int64)
        src = np.zeros(rmax, dtype=np.int64)
        ready = np.zeros(rmax)
        slot = np.zeros(rmax, dtype=np.int64)
        vol = np.zeros(rmax)
        mask = np.zeros(rmax, dtype=bool)
        sup = np.zeros((rmax, num_procs), dtype=bool)
        local = np.full((smax, num_procs), _INF)
        slotmask = np.zeros(smax, dtype=bool)
        pred[:r] = pred_a
        idx[:r] = idx_a
        src[:r] = src_a
        ready[:r] = ready_a
        slot[:r] = slot_a
        vol[:r] = vol_a
        mask[:r] = True
        slotmask[:nslots] = True
        if nslots:
            local_sup, suppressed = self.proc_tables(num_procs, strict)
            local[:nslots] = local_sup
            sup[:r] = suppressed[slot_a]
        cached = (pred, idx, src, ready, slot, vol, mask, sup, local, slotmask)
        self.np_padded[key] = cached
        return cached


class _SweepState:
    """Per-schedule arrays behind :meth:`TrialKernel.pressure_sweep`.

    ``start[t, p]`` is the exact start of ``t`` on ``p`` computed at
    commit version ``version[t, p]`` (``-1`` = never).  The message
    tables hold each loaded task's supplier pools on a ``(slot, k)``
    grid — ``S`` slots (the graph's largest in-degree) by ``K`` pool
    entries — with the per-processor transfer durations ``w`` and the
    ``valid`` mask (remote, not suppressed) that the bound pass reads;
    ``local[t, s, p]`` is the co-located supply (``inf`` when none,
    ``-inf`` on padding slots so they never raise the data-ready max).
    ``entries[t]`` is the :class:`_TaskEntries` the row was loaded from:
    a new supplier pool means new entries, which reloads the tables and
    forgets the task's exact starts.
    """

    __slots__ = ("start", "version", "entries", "src", "ready", "w", "valid", "local")

    def __init__(self, n: int, m: int, slots: int, k: int) -> None:
        self.start = np.zeros((n, m))
        self.version = np.full((n, m), -1, dtype=np.int64)
        self.entries: list[Optional[_TaskEntries]] = [None] * n
        self.src = np.zeros((n, slots, k), dtype=np.int64)
        self.ready = np.zeros((n, slots, k))
        self.w = np.zeros((n, slots, k, m))
        self.valid = np.zeros((n, slots, k, m), dtype=bool)
        self.local = np.full((n, slots, m), -_INF)

    def load(self, task: int, entries: _TaskEntries, delay, strict: bool) -> None:
        grow = max(entries.sig, default=0) - self.src.shape[2]
        if grow > 0:
            # a pool wider than the grid: widen every message table
            pad = ((0, 0), (0, 0), (0, grow))
            self.src = np.pad(self.src, pad)
            self.ready = np.pad(self.ready, pad)
            self.w = np.pad(self.w, pad + ((0, 0),))
            self.valid = np.pad(self.valid, pad + ((0, 0),))
        self.entries[task] = entries
        self.version[task] = -1
        self.valid[task] = False
        local = self.local[task]
        local[:] = -_INF
        for slot, pool in enumerate(entries.pools):
            local[slot] = _INF
            for p, finish in entries.local[slot].items():
                local[slot, p] = finish
            suppressed = list(entries.local[slot] if strict else entries.selfsuff[slot])
            vol = entries.vols[slot]
            for k, (_index, src, ready) in enumerate(pool):
                self.src[task, slot, k] = src
                self.ready[task, slot, k] = ready
                self.w[task, slot, k] = vol * delay[src]
                valid = self.valid[task, slot, k]
                valid[:] = True
                valid[src] = False
                valid[suppressed] = False


#: query rows per chunk of :func:`_earliest_gaps` times the widest
#: timeline: keeps its temporaries near 256 KiB each
_GAP_CHUNK = 1 << 15


def _earliest_gaps(timelines, which, ready, w) -> np.ndarray:
    """Per query ``q``: the earliest start ``>= ready[q]`` at which
    ``w[q] > 0`` fits between the committed busy intervals of
    ``timelines[which[q]]`` — :func:`repro.comm.base.earliest_gap`
    vectorized over queries: the first gap ``j`` (from the end of
    interval ``j-1`` to the start of interval ``j``) with ``max(gap
    start, ready) + w <= gap end``, the walk's own fit test."""
    used, row = np.unique(which, return_inverse=True)
    vecs = [timelines[i].gap_vectors() for i in used.tolist()]
    width = max(len(starts) for starts, _ends in vecs) + 1
    gap_start = np.full((used.size, width), _INF)
    gap_end = np.full((used.size, width), _INF)
    gap_start[:, 0] = -_INF
    for i, (starts, ends) in enumerate(vecs):
        gap_start[i, 1 : len(ends) + 1] = ends
        gap_end[i, : len(starts)] = starts
    out = np.empty(row.size)
    step = max(1, _GAP_CHUNK // width)
    for lo in range(0, row.size, step):
        r = row[lo : lo + step]
        cand = np.maximum(gap_start[r], ready[lo : lo + step, None])
        first = (cand + w[lo : lo + step, None] <= gap_end[r]).argmax(axis=1)
        out[lo : lo + step] = cand[np.arange(r.size), first]
    return out


def select_pressure(starts, exact, bl, current_length, keep, evaluate=None):
    """FTBAR's per-task ε+1 minimum-``(σ, proc)`` sets from row starts.

    ``starts[i, p]`` is the start of task ``i`` on processor ``p`` —
    exact where ``exact[i, p]``, else a lower bound.  ``σ = (start +
    bl[i]) - current_length`` (FTBAR's arithmetic, monotone in the
    start), so a row's bound-σ never exceeds its exact σ.  Each round
    evaluates (through ``evaluate(rows, procs)``, which returns their
    exact starts) every inexact row among the first ``keep`` of its task
    in ``(σ, proc)`` order; the loop ends when those are all exact.
    Then every other row's ``(σ, proc)`` — exact, or bounded below by its
    bound's — sorts after them, so the kept sets, their order and the
    urgencies are exactly those of evaluating every row.  Both arrays
    are updated in place.

    Returns one ``(urgency, procs)`` per task: the kept processors in
    ``(σ, proc)`` order and the σ of the last one.
    """
    sigma = (starts + bl[:, None]) - current_length
    tasks = np.arange(len(sigma))[:, None]
    while True:
        order = np.argsort(sigma, axis=1, kind="stable")[:, :keep]
        rows, cols = np.nonzero(~exact[tasks, order])
        if not rows.size:
            break
        procs = order[rows, cols]
        starts[rows, procs] = evaluate(rows, procs)
        exact[rows, procs] = True
        sigma[rows, procs] = (starts[rows, procs] + bl[rows]) - current_length
    urgency = sigma[tasks[:, 0], order[:, -1]]
    return list(zip(urgency.tolist(), order.tolist()))


def select_candidates(bounds, finishes, keep, evaluate):
    """One placement's candidate rows, evaluated only where they can win.

    ``finishes[i]`` is row ``i``'s exact finish, or ``None`` where only
    ``bounds[i]``, a lower bound on it, is known.  Inexact rows are
    evaluated (``evaluate(i)`` returns the exact finish) in ``(bound,
    i)`` order until the next row's bound exceeds ``max(keep-th smallest
    exact finish, best + TIE_EPS)``; the keep-th term applies only once
    ``keep`` rows are exact.  Every row left over then finishes after
    the best by more than ``TIE_EPS`` and, once ``keep`` rows are exact,
    strictly after ``keep`` of them: it can be neither the minimum, nor
    in its tie set, nor among the first ``keep`` in ``(finish, proc)``
    order.

    Returns the finishes, ``None`` for every pruned row.
    """
    out = list(finishes)
    # the `keep` smallest exact finishes, ascending
    kept = sorted([f for f in out if f is not None])[:keep]
    for bound, i in sorted([(b, i) for i, b in enumerate(bounds) if out[i] is None]):
        if len(kept) == keep and bound > max(kept[-1], kept[0] + TIE_EPS):
            break
        f = out[i] = evaluate(i)
        if len(kept) < keep:
            insort(kept, f)
        elif f < kept[-1]:
            kept.pop()
            insort(kept, f)
    return out


class TrialKernel:
    """Exact, side-effect-free trial evaluation over frontier views."""

    #: switch to the NumPy batch formulation past this many work items
    #: (candidates × pool entries); below it the scalar loop wins.
    numpy_threshold = 2048
    #: vectorize a cross-task sweep once it has at least this many
    #: uncached (task, processor) rows; below that the scalar loop beats
    #: the NumPy dispatch overhead (the crossover sits around the
    #: paper's m=20 platforms).
    sweep_numpy_threshold = 256
    #: vectorize routed sweeps at this many uncached rows — the lockstep
    #: recurrence carries one scalar frontier per row, so it pays off
    #: earlier than the clique matrix formulation.
    routed_numpy_threshold = 64
    #: vectorize insertion sweeps at this many uncached rows (the key
    #: prologue vectorizes; the per-row gap replay stays scalar).
    insertion_numpy_threshold = 64

    __slots__ = (
        "builder",
        "network",
        "instance",
        "graph",
        "caps",
        "kind",
        "_frontiers",
        "_vector_ok",
        "_cost",
        "_delay",
        "_m",
        "_version",
        "_send_changed",
        "_recv_changed",
        "_link_changed",
        "_entries",
        "_cache",
        "_ctx_version",
        "_routemax",
        "_cols",
        "_delay_cols",
        "_sweep",
        "_stats",
    )

    def __init__(self, builder, caps: KernelCaps) -> None:
        self.builder = builder
        self.network = builder.network
        self.instance = builder.instance
        self.graph = builder.instance.graph
        self.caps = caps
        self.kind = _caps_kind(caps)
        view = self.network.frontier_view()
        if view is None:
            raise SchedulingError(
                f"network model {self.network.name!r} declares kernel_caps() "
                "but frontier_view() returned None"
            )
        self._frontiers = view
        #: the NumPy batch formulation covers the scalar-frontier algebra
        #: only; routed hop maxima and gap-timeline scans stay scalar
        self._vector_ok = not (caps.routed or caps.gap_timelines)
        self._cost = builder.instance.exec_cost.tolist()
        #: unit delays come from the *network's* platform (for routed
        #: models these are the end-to-end route delays), exactly what
        #: the slow path's ``transfer_time`` uses
        self._delay = view.delay
        self._m = builder.instance.num_procs
        #: monotone commit counter plus, per processor, the version at
        #: which its send side (port + outgoing links) and receive side
        #: (port, incoming links, ready time, compute floor) last moved
        self._version = 0
        self._send_changed = [0] * self._m
        self._recv_changed = [0] * self._m
        #: routed models: per-directed-physical-link versions — two
        #: routes sharing a hop must invalidate each other's cache lines
        self._link_changed = [0] * view.num_links if caps.routed else None
        #: task -> (pool signature, _TaskEntries)
        self._entries: dict[int, tuple[tuple, _TaskEntries]] = {}
        #: task -> (pool signature, {proc: (version, Trial)})
        self._cache: dict[int, tuple[tuple, dict]] = {}
        #: commit version the per-version derived state below is valid
        #: for (-1 = never built)
        self._ctx_version = -1
        #: routed: (m, m) max committed hop frontier per (src, dst) route
        self._routemax: Optional[np.ndarray] = None
        #: routed: per destination, the plain-list column of
        #: ``_routemax`` (see :meth:`_frontier_cols`)
        self._cols: Optional[list] = None
        #: per destination, the unit delays from every source
        self._delay_cols = view.delay_np.T.tolist()
        #: pressure-sweep arrays (built on the first :meth:`pressure_sweep`)
        self._sweep: Optional[_SweepState] = None
        #: observability counters (see :meth:`kernel_stats`)
        self._stats = {
            "cache_hits": 0,
            "cache_misses": 0,
            "bound_rows": 0,
            "pruned_rows": 0,
            "batch_calls": 0,
            "batch_rows": 0,
            "scalar_calls": 0,
            "scalar_rows": 0,
        }

    @classmethod
    def create(cls, builder) -> Optional["TrialKernel"]:
        """Kernel for ``builder``'s network, or ``None`` (with a one-time
        warning) when the model's declared capabilities are unsupported."""
        caps = builder.network.kernel_caps()
        reason = _unsupported_reason(caps)
        if reason is not None:
            _warn_fallback(builder.network, reason)
            return None
        return cls(builder, caps)

    # ------------------------------------------------------------------
    # Cache invalidation
    # ------------------------------------------------------------------
    def note_commit(self, proc: int, placed) -> None:
        """Record which resources a commit dirtied.

        ``proc`` hosts the new replica: its ready time, receive port,
        incoming links and compute floor moved (receive side).  Every
        placed message with nonzero duration moved its sender's port and
        the link(s) toward ``proc`` (send side; for routed models every
        directed hop of the message's route gets its epoch bumped).  The
        contention-free macro model reserves nothing, so only the host's
        ready time moves.

        The shared-port (uniport) model has one engine per processor —
        its send and receive frontiers are the *same* array — so there
        every touched processor moves on both sides at once.
        """
        self._version += 1
        v = self._version
        kind = self.kind
        recv_changed = self._recv_changed
        recv_changed[proc] = v
        if kind == "macro":
            return
        send_changed = self._send_changed
        if kind == "routed":
            link_changed = self._link_changed
            hop_row = self._frontiers.route_hops
            for _pred, r, start, finish in placed:
                if finish > start:
                    send_changed[r.proc] = v
                    for h in hop_row[r.proc][proc]:
                        link_changed[h] = v
            return
        uni = kind == "uniport"
        if uni:
            # the host's receive activity occupies its shared port, which
            # is also what suppliers' sender_bound/send state reads
            send_changed[proc] = v
        for _pred, r, start, finish in placed:
            if finish > start:
                send_changed[r.proc] = v
                if uni:
                    # a sender's shared port is likewise its receive side
                    recv_changed[r.proc] = v
        if kind == "nooverlap":
            # note_compute advances the host's send port as well
            send_changed[proc] = v

    # ------------------------------------------------------------------
    # Entry building / caching
    # ------------------------------------------------------------------
    def _entries_for(self, task: int, sources) -> tuple[_TaskEntries, bool]:
        """Entry state for ``task``; second element: came from the cache line.

        Only *canonical* source maps — every pool is the live
        ``schedule.replicas[pred]`` list — are cached: those lists are
        append-only, so (task, per-pool length) fully determines their
        content.  An arbitrary filtered pool of the same length would
        alias the cache line, so it is built fresh (and the caller must
        not reuse cached trials for it either).
        """
        preds = self.graph.preds(task)
        replicas = self.builder.schedule.replicas
        try:
            canonical = all(sources[p] is replicas[p] for p in preds)
        except KeyError as exc:
            raise SchedulingError(
                f"no sources provided for predecessor t{exc.args[0]} of t{task}"
            ) from None
        if not canonical:
            return _TaskEntries(self.graph, task, sources), False
        sig = tuple(len(sources[p]) for p in preds)
        cached = self._entries.get(task)
        if cached is not None and cached[0] == sig:
            return cached[1], True
        entries = _TaskEntries(self.graph, task, sources)
        self._entries[task] = (sig, entries)
        return entries, True

    def _srcs_changed_after(self, entries: _TaskEntries) -> int:
        """Latest version at which any supplier's send side moved.

        A trial of this task on candidate ``p`` reads ``send_free[src]``
        and the link frontier(s) toward ``p`` for every supplier ``src``
        — both move only when ``src`` sends (routed link sharing is
        covered separately by the per-hop epochs).  Shared by every
        candidate, so the cache validity check per processor is O(1)
        for clique models: a cached trial computed at version ``v`` is
        exact iff ``v >= max(srcs_changed, recv_changed[p])`` (plus
        ``send_changed[p]`` for the no-overlap compute floor, plus the
        hop epochs of every supplier route for routed models).
        """
        if self.kind == "macro":
            return 0
        send_changed = self._send_changed
        latest = 0
        for s in entries.srcs:
            c = send_changed[s]
            if c > latest:
                latest = c
        return latest

    def _hops_changed_after(self, entries: _TaskEntries, proc: int) -> int:
        """Latest version at which any supplier-route hop toward ``proc``
        moved (routed models only — route sharing invalidation)."""
        link_changed = self._link_changed
        hop_row = self._frontiers.route_hops
        latest = 0
        for s in entries.srcs:
            for h in hop_row[s][proc]:
                c = link_changed[h]
                if c > latest:
                    latest = c
        return latest

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def candidate_sweep(
        self,
        task: int,
        procs: Sequence[int],
        sources: Mapping[int, Sequence[Replica]],
        heads: Optional[Sequence[Mapping[int, Replica]]] = None,
        keep: int = 1,
    ) -> list[Optional[Trial]]:
        """One placement's candidate trials, aligned to ``procs``.

        ``heads[i]`` (when given) maps predecessors to the designated
        supplier of candidate ``procs[i]`` (CAFT's one-to-one rounds);
        the other predecessors use the full ``sources`` pool.  A row
        without heads whose cached trial is still valid under the epoch
        rules (canonical pools only) is exact; every other row gets a
        lower bound on its finish (:meth:`_finish_bounds`), and
        :func:`select_candidates` evaluates exactly only the rows that
        can still be the minimum, tie with it, or — for ``keep > 1`` —
        be among the first ``keep`` in ``(finish, proc)`` order.  The
        other rows come back as ``None``.  With ``keep >= len(procs)``
        nothing can be pruned, so no bound is computed.
        """
        stats = self._stats
        entries, cacheable = self._entries_for(task, sources)
        if not cacheable:
            # non-canonical pools must not alias the trial cache
            self._cache.pop(task, None)
            per_proc: dict[int, tuple[int, Trial]] = {}
        else:
            cached = self._cache.get(task)
            if cached is None or cached[0] != entries.sig:
                per_proc = {}
                self._cache[task] = (entries.sig, per_proc)
            else:
                per_proc = cached[1]
        recv_changed = self._recv_changed
        send_changed = self._send_changed
        nooverlap = self.kind == "nooverlap"
        routed = self.kind == "routed"
        srcs_changed = self._srcs_changed_after(entries)
        n = len(procs)
        trials: list[Optional[Trial]] = [None] * n
        finishes: list[Optional[float]] = [None] * n
        for i, p in enumerate(procs):
            if heads is not None and heads[i]:
                continue
            hit = per_proc.get(p)
            if (
                hit is not None
                and hit[0] >= srcs_changed
                and hit[0] >= recv_changed[p]
                and (not nooverlap or hit[0] >= send_changed[p])
                and (not routed or hit[0] >= self._hops_changed_after(entries, p))
            ):
                trials[i] = hit[1]
                finishes[i] = hit[1].finish
                stats["cache_hits"] += 1
        version = self._version

        def evaluate(i: int) -> float:
            p = procs[i]
            if heads is not None and heads[i]:
                stats["scalar_calls"] += 1
                stats["scalar_rows"] += 1
                trial = self._eval(task, p, entries, heads[i])
            else:
                trial = self._eval_misses([(entries, task, p)])[0]
                per_proc[p] = (version, trial)
            stats["cache_misses"] += 1
            trials[i] = trial
            return trial.finish

        if n > keep:
            stats["bound_rows"] += finishes.count(None)
            bounds = self._finish_bounds(task, procs, entries, heads)
        else:
            bounds = [0.0] * n  # nothing can be pruned: evaluate every row
        out = select_candidates(bounds, finishes, keep, evaluate)
        stats["pruned_rows"] += out.count(None)
        return trials

    def candidate_heads(
        self,
        task: int,
        procs: Sequence[int],
        pools: Mapping[int, Sequence[Replica]],
    ) -> list[dict[int, Replica]]:
        """Per candidate in ``procs``, the head of every pool: the replica
        with the minimum ``(eq. (6) sender key toward the candidate,
        index)`` (Algorithm 5.2, lines 3–4).  The key is
        ``sender_bound``'s arithmetic on the committed frontiers —
        ``max(ready, send_free[src], link or route-hop max) + w``,
        ``ready + w`` on macro-dataflow, ``ready`` for a co-located
        replica or ``w == 0`` — in one pass over every (candidate,
        predecessor, eligible replica) instead of one ``sender_bound``
        call each."""
        macro = self.kind == "macro"
        send0 = self._frontiers.send_free
        dcols = self._delay_cols
        extras = [None] * len(procs) if macro else self._frontier_cols(procs)
        graph = self.graph
        out: list[dict[int, Replica]] = [{} for _ in procs]
        for pred, pool in pools.items():
            vol = graph.volume(pred, task)
            cands = [
                (r, r.proc, r.finish, r.index,
                 r.finish if macro or r.finish >= send0[r.proc] else send0[r.proc])
                for r in pool
            ]
            for heads, p, extra in zip(out, procs, extras):
                dcol = dcols[p]
                best = None
                bkey = bidx = 0
                for r, src, ready, index, base in cands:
                    if src == p:
                        key = ready
                    else:
                        w = vol * dcol[src]
                        if w == 0.0:
                            key = ready
                        elif macro:
                            key = ready + w
                        else:
                            ex = extra[src]
                            key = (ex if ex > base else base) + w
                    if best is None or key < bkey or (key == bkey and index < bidx):
                        best, bkey, bidx = r, key, index
                heads[pred] = best
        return out

    def pressure_sweep(
        self, tasks: Sequence[int], bl: np.ndarray, current_length: float
    ) -> list[tuple[float, list[int]]]:
        """FTBAR's schedule-pressure step over every (free task, processor).

        ``tasks`` are unscheduled tasks whose predecessors are all placed
        (every processor eligible, full fan-in supply); ``bl[i]`` is the
        bottom level of ``tasks[i]`` and ``current_length`` the schedule
        length ``R``.  Rows whose exact start is still valid under the
        epoch rules are served from the sweep arrays; every other row
        gets a lower bound (:meth:`_pressure_bounds`), and
        :func:`select_pressure` evaluates exactly only the rows whose
        bound could still place them in their task's ε+1 set.

        Returns one ``(urgency, kept processors)`` per task, in ``tasks``
        order — exactly what evaluating every row would select.
        """
        st = self._sweep
        if st is None:
            graph = self.graph
            slots = max((len(graph.preds(t)) for t in range(graph.num_tasks)), default=0)
            st = self._sweep = _SweepState(
                graph.num_tasks, self._m, max(1, slots), self.builder.epsilon + 1
            )
        replicas = self.builder.schedule.replicas
        ents = []
        for t in tasks:
            entries = st.entries[t]
            if entries is None or entries.sig != tuple(
                len(replicas[p]) for p in entries.preds
            ):
                entries, _ = self._entries_for(
                    t, {p: replicas[p] for p in self.graph.preds(t)}
                )
                st.load(
                    t, entries, self._frontiers.delay_np,
                    self.builder.strict_local_suppression,
                )
            ents.append(entries)

        version = self._version
        tix = np.asarray(tasks, dtype=np.int64)
        starts = st.start[tix]
        exact = st.version[tix] >= self._epochs_read(tix)
        stale = ~exact
        nstale = int(stale.sum())
        stats = self._stats
        stats["cache_hits"] += exact.size - nstale
        stats["bound_rows"] += nstale
        if nstale:
            bound, certified = self._pressure_bounds(tix)
            starts[stale] = bound[stale]
            # a bound with no contended message in it is the exact start
            fresh = stale & certified
            exact |= fresh
            rows, procs = np.nonzero(fresh)
            st.start[tix[rows], procs] = starts[rows, procs]
            st.version[tix[rows], procs] = version

        def evaluate(rows, procs):
            found = self._eval_misses(
                [(ents[r], tasks[r], p) for r, p in zip(rows.tolist(), procs.tolist())]
            )
            stats["cache_misses"] += len(found)
            out = [trial.start for trial in found]
            st.start[tix[rows], procs] = out
            st.version[tix[rows], procs] = version
            return out

        misses = stats["cache_misses"]
        kept = select_pressure(
            starts, exact, np.asarray(bl, dtype=np.float64), current_length,
            self.builder.epsilon + 1, evaluate,
        )
        stats["pruned_rows"] += nstale - (stats["cache_misses"] - misses)
        return kept

    def _finish_bounds(self, task, procs, entries, heads) -> list[float]:
        """Lower bounds on the finish of ``task`` on each of ``procs``.

        The per-row form of :meth:`_pressure_bounds`, with the designated
        heads of :meth:`candidate_sweep`: a remote message gets
        ``max(ready, send_free[src], F(src→p), recv_free[p]) + w`` — ``F``
        the directed-link frontier (clique) or the route-hop maximum
        (routed) — ``ready + w`` on macro-dataflow, and ``ready`` when
        ``w == 0``.  Every frontier an evaluator simulates is at least its
        committed value and IEEE-754 rounding is monotone, so each exact
        arrival is at least its bound.  On the insertion family a message
        gets the first common gap of the committed send, receive and link
        timelines that fits it (:func:`_common_gap3`), plus ``w``: the
        trial overlays only add busy intervals, so the gap the exact
        replay finds fits the committed timelines too, and the scan
        returns the least such start.  A predecessor with a head is
        supplied by that head alone (its finish when co-located); the
        others take the minimum over their pool's messages and the
        co-located supply, with :meth:`_eval`'s suppression rules.  Then
        the maximum over predecessors and 0, ``proc_ready[p]`` and the
        no-overlap floor ``max(send_free[p], recv_free[p])``, all
        monotone, plus ``cost[task][p]``.  Hence bound ≤ exact finish.
        """
        kind = self.kind
        view = self._frontiers
        m = self._m
        strict = self.builder.strict_local_suppression
        preds = entries.preds
        vols = entries.vols
        pools = entries.pools
        locals_ = entries.local
        selfsuff = entries.selfsuff
        proc_ready = self.builder.proc_ready
        cost = self._cost[task]
        dcols = self._delay_cols
        send0 = view.send_free
        recv0 = view.recv_free
        macro = kind == "macro"
        # no scalar port frontier bounds a message start on these
        plain = macro or kind == "insertion"
        sb_pools = entries.sbase_pools(send0, self._version)
        if not plain:
            extras = self._frontier_cols(procs)
        send_tls = view.send_timelines
        recv_tls = view.recv_timelines
        link_tls = view.link_timelines
        out = []
        for i, p in enumerate(procs):
            hp = heads[i] if heads is not None else None
            dcol = dcols[p]
            if not plain:
                extra = extras[i]
                rf = recv0[p]
            data_ready = 0.0
            for slot, pred in enumerate(preds):
                h = hp.get(pred) if hp else None
                if h is not None:
                    # the designated head is the slot's only supplier
                    src = h.proc
                    ready = h.finish
                    if src == p:
                        if ready > data_ready:
                            data_ready = ready
                        continue
                    supply = _INF
                    pool = ((h.index, src, ready),)
                    sbases = ((ready if macro or ready > send0[src] else send0[src]),)
                else:
                    supply = locals_[slot].get(p)
                    if supply is None:
                        supply = _INF
                    elif strict or p in selfsuff[slot]:
                        if supply > data_ready:
                            data_ready = supply
                        continue
                    pool = pools[slot]
                    sbases = sb_pools[slot]
                vol = vols[slot]
                for (_index, src, ready), a in zip(pool, sbases):
                    if src == p:
                        continue
                    w = vol * dcol[src]
                    if w == 0.0:
                        b = ready
                    elif not plain:
                        ex = extra[src]
                        if ex > a:
                            a = ex
                        if rf > a:
                            a = rf
                        b = a + w
                    elif macro:
                        b = ready + w
                    else:
                        # the message's start were it alone in the trial
                        ss, se = send_tls[src].gap_vectors()
                        rs, re_ = recv_tls[p].gap_vectors()
                        ls, le = link_tls[src * m + p].gap_vectors()
                        b = _common_gap3(ss, se, rs, re_, ls, le, ready, w) + w
                    if b < supply:
                        supply = b
                if supply > data_ready:
                    data_ready = supply
            start = proc_ready[p]
            if data_ready > start:
                start = data_ready
            if kind == "nooverlap":
                floor = send0[p] if send0[p] > rf else rf
                if floor > start:
                    start = floor
            out.append(start + cost[p])
        return out

    def _epochs_read(self, tix: np.ndarray) -> np.ndarray:
        """``(T, m)`` latest commit version at which any resource a trial
        of ``tasks[i]`` on ``p`` reads moved — the vectorized form of
        :meth:`candidate_sweep`'s epoch check: a start computed at version
        ``v`` is exact iff ``v`` is at least this."""
        st = self._sweep
        read = np.asarray(self._recv_changed, dtype=np.int64)[None, :]
        if self.kind == "macro":
            return np.broadcast_to(read, (tix.size, self._m))
        # the pool entries some row reads (padding and entries every
        # processor suppresses or hosts locally read nothing)
        pooled = st.valid[tix].any(axis=3)
        SRC = st.src[tix]
        send_changed = np.asarray(self._send_changed, dtype=np.int64)
        srcs = np.where(pooled, send_changed[SRC], 0).max(axis=(1, 2))
        read = np.maximum(read, srcs[:, None])
        if self.kind == "nooverlap":
            read = np.maximum(read, send_changed[None, :])
        elif self.kind == "routed":
            hops = self._route_max(self._link_changed)[SRC]
            read = np.maximum(
                read, np.where(pooled[..., None], hops, 0).max(axis=(1, 2))
            )
        return read

    def _pressure_bounds(self, tix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower bounds on the start of every ``(tasks[i], p)`` row.

        Each remote message gets ``max(ready, send_free[src], F(src→p),
        recv_free[p]) + w`` — ``F`` the directed-link frontier (clique)
        or the route-hop maximum (routed) — ``ready + w`` on
        macro-dataflow, and ``ready`` when ``w == 0``.  Every frontier
        the evaluators simulate is at least its committed value and
        IEEE-754 rounding is monotone, so each exact arrival is at least
        its bound.  On the insertion family a message gets the later of
        the earliest gaps fitting it on the committed send timeline of
        ``src`` and receive timeline of ``p``, plus ``w``: the trial
        overlays only add busy intervals, and the common gap the exact
        replay finds must fit each timeline alone.  Supplies then merge
        exactly as in :meth:`_finish_trial` (min per predecessor, local
        supply included; max over predecessors and 0; max with the
        processor's ready time, and the no-overlap compute floor
        ``max(send_free[p], recv_free[p])``), all monotone.  Hence
        bound ≤ exact start.

        Also returns which bounds *are* the exact start: every row of the
        macro-dataflow family (``ready + w`` is its exact arrival) and
        every row without a positive-duration remote message.
        """
        st = self._sweep
        kind = self.kind
        view = self._frontiers
        READY = st.ready[tix][..., None]
        W = st.w[tix]
        VALID = st.valid[tix]
        if kind == "macro":
            lb = READY + W
        elif kind == "insertion":
            # a link's busy intervals are also its sender's, so the link
            # timeline cannot raise the bound
            busy = VALID & (W > 0.0)
            lb = np.where(busy, _INF, READY)
            t, s, k, p = np.nonzero(busy)
            if t.size:
                src = st.src[tix][t, s, k]
                ready = READY[t, s, k, 0]
                w = W[t, s, k, p]
                start = np.maximum(
                    _earliest_gaps(view.send_timelines, src, ready, w),
                    _earliest_gaps(view.recv_timelines, p, ready, w),
                )
                lb[t, s, k, p] = start + w
        else:
            m = self._m
            SRC = st.src[tix]
            send0 = np.asarray(view.send_free, dtype=np.float64)
            recv0 = np.asarray(view.recv_free, dtype=np.float64)
            if kind == "routed":
                F = self._routemax_matrix()[SRC]
            else:
                F = np.asarray(view.link_free, dtype=np.float64).reshape(m, m)[SRC]
            base = np.maximum(READY, send0[SRC][..., None])
            lb = np.maximum(np.maximum(base, F), recv0) + W
            lb = np.where(W > 0.0, lb, READY)
        arrival = np.where(VALID, lb, _INF).min(axis=2)
        supply = np.minimum(st.local[tix], arrival)
        start = np.maximum(supply.max(axis=1), 0.0)
        start = np.maximum(np.asarray(self.builder.proc_ready, dtype=np.float64), start)
        if kind == "nooverlap":
            start = np.maximum(start, np.maximum(send0, recv0))
        if kind == "macro":
            certified = np.ones(start.shape, dtype=bool)
        else:
            certified = ~(VALID & (W > 0.0)).any(axis=(1, 2))
        return start, certified

    def _eval_misses(self, misses) -> list[Trial]:
        """Evaluate uncached ``(entries, task, proc)`` rows, choosing the
        vectorized pass for the kernel's evaluator family once the batch
        is big enough to pay for the NumPy dispatch overhead."""
        n = len(misses)
        kind = self.kind
        stats = self._stats
        if kind == "routed":
            if n >= self.routed_numpy_threshold:
                stats["batch_calls"] += 1
                stats["batch_rows"] += n
                return self._eval_rows_routed(misses)
        elif kind == "insertion":
            if n >= self.insertion_numpy_threshold:
                stats["batch_calls"] += 1
                stats["batch_rows"] += n
                return self._eval_rows_insertion(misses)
        elif n >= self.sweep_numpy_threshold or (
            sum(e.nwork for e, _t, _p in misses) >= self.numpy_threshold
        ):
            stats["batch_calls"] += 1
            stats["batch_rows"] += n
            return self._eval_rows(misses)
        stats["scalar_calls"] += 1
        stats["scalar_rows"] += n
        return [self._eval(t, p, e) for e, t, p in misses]

    def kernel_stats(self) -> dict:
        """Observability counters: evaluator family, epoch-cache traffic,
        bounded and pruned pressure-sweep rows, and how many rows went
        through the batched vs scalar evaluators.

        ``cache_hits`` counts (task, proc) rows served exact from the
        epoch cache or the sweep arrays, ``cache_misses`` every row
        evaluated exactly (with or without designated heads);
        ``bound_rows`` counts the pressure- and candidate-sweep rows that
        got a lower bound instead, and ``pruned_rows`` those of them that
        were never evaluated, so every row of a sweep is a hit, a miss
        or pruned.  ``batch_calls``/``batch_rows`` count the vectorized
        evaluations, ``scalar_calls``/``scalar_rows`` the scalar ones;
        together they cover exactly the misses.
        """
        s = dict(self._stats)
        s["evaluator"] = self.kind
        looked_up = s["cache_hits"] + s["cache_misses"]
        s["cache_hit_rate"] = s["cache_hits"] / looked_up if looked_up else 0.0
        return s

    # ------------------------------------------------------------------
    # Per-commit-version derived frontier state
    # ------------------------------------------------------------------
    def _sync_version(self) -> None:
        """Drop derived frontier state when a commit moved the frontiers."""
        if self._ctx_version != self._version:
            self._ctx_version = self._version
            self._routemax = None
            self._cols = None

    def _routemax_matrix(self) -> np.ndarray:
        """Routed models: ``(m, m)`` matrix of the max committed frontier
        over each static route's directed hops.

        One ``np.maximum.reduceat`` over the topology's flat hop CSR
        replaces ``m²`` Python hop loops; rebuilt once per commit and
        shared by the scalar evaluator (as plain-list columns) and the
        lockstep batch evaluator (as the full matrix).
        """
        self._sync_version()
        rm = self._routemax
        if rm is None:
            rm = self._routemax = self._route_max(
                np.asarray(self._frontiers.link_free, dtype=np.float64)
            )
        return rm

    def _route_max(self, per_link) -> np.ndarray:
        """``(m, m)`` maximum of ``per_link`` (one value per directed
        physical link) over each static route's hops; 0 on the diagonal."""
        m = self._m
        indptr, ids = self._frontiers.hop_csr()
        if not ids.size:
            return np.zeros((m, m), dtype=np.asarray(per_link).dtype)
        vals = np.asarray(per_link)[ids]
        seg = indptr[:-1]
        empty = seg == indptr[1:]
        # reduceat cannot take an empty segment at the end of the id
        # array (and yields vals[seg] for interior ones): clamp, then
        # zero the empty rows — those are the diagonal src == dst
        # routes, which no message ever reads.
        out = np.maximum.reduceat(vals, np.minimum(seg, vals.size - 1))
        out[empty] = 0
        return out.reshape(m, m)

    def _frontier_cols(self, procs: Sequence[int]) -> list[list]:
        """Per processor in ``procs``, a plain list indexed by source of
        the committed frontier a message toward it clears beside its
        sender port: the route-hop maximum (routed; columns of
        :meth:`_routemax_matrix`, one ``tolist`` per commit) or the
        directed-link frontier (clique; link ``src * m + p``, a strided
        slice)."""
        if self.kind != "routed":
            link0 = self._frontiers.link_free
            m = self._m
            return [link0[p::m] for p in procs]
        self._sync_version()
        cols = self._cols
        if cols is None:
            cols = self._cols = self._routemax_matrix().T.tolist()
        return [cols[p] for p in procs]

    # ------------------------------------------------------------------
    # Scalar evaluation (exact mirror of ScheduleBuilder._place)
    # ------------------------------------------------------------------
    def _finish_trial(
        self,
        task: int,
        proc: int,
        loc: list,
        arrival: list,
        floor: float,
    ) -> Trial:
        """Shared eq. (6) epilogue: merge local/remote supplies into the
        data-ready time, apply the compute floor and processor ready
        time, and materialize the :class:`Trial`.  Single-sourced so the
        scalar, routed and insertion evaluators cannot drift apart."""
        data_ready = 0.0
        for slot in range(len(loc)):
            supply = loc[slot]
            if supply is None:
                supply = _INF
            a = arrival[slot]
            if a < supply:
                supply = a
            if supply > data_ready:
                data_ready = supply

        start = self.builder.proc_ready[proc]
        if floor > start:
            start = floor
        if data_ready > start:
            start = data_ready
        finish = start + self._cost[task][proc]
        return Trial(task, proc, start, finish, data_ready)

    def _eval(
        self,
        task: int,
        proc: int,
        entries: _TaskEntries,
        heads: Optional[Mapping[int, Replica]] = None,
    ) -> Trial:
        kind = self.kind
        if kind == "routed":
            return self._eval_routed(task, proc, entries, heads)
        if kind == "insertion":
            return self._eval_insertion(task, proc, entries, heads)
        view = self._frontiers
        m = self._m
        delay = self._delay
        strict = self.builder.strict_local_suppression
        preds = entries.preds
        vols = entries.vols
        pools = entries.pools
        locals_ = entries.local
        selfsuff = entries.selfsuff
        nslots = len(preds)
        macro = kind == "macro"
        if not macro:
            send0 = view.send_free
            link0 = view.link_free
            lbase = proc  # link index of src -> proc is src * m + proc

        # eq. (6): collect remote messages with their sender-side keys.
        # (The contention-free macro model needs no keys: arrivals are
        # order-independent, so the sort is skipped entirely.)
        remote: list[tuple] = []
        loc: list[Optional[float]] = [None] * nslots
        for slot in range(nslots):
            pred = preds[slot]
            if heads is not None and pred in heads:
                # Designated one-to-one supplier: sole source for this
                # predecessor — co-located means pure local supply.
                h = heads[pred]
                src = h.proc
                if src == proc:
                    loc[slot] = h.finish
                    continue
                ready = h.finish
                w = vols[slot] * delay[src][proc]
                if macro or w == 0.0:
                    key = ready
                else:
                    key = ready
                    sf = send0[src]
                    if sf > key:
                        key = sf
                    lf = link0[src * m + lbase]
                    if lf > key:
                        key = lf
                    key += w
                remote.append((key, pred, h.index, src, slot, ready, w))
                continue
            local = locals_[slot]
            lf_local = local.get(proc)
            if lf_local is not None:
                loc[slot] = lf_local
                if strict or proc in selfsuff[slot]:
                    continue
            vol = vols[slot]
            for index, src, ready in pools[slot]:
                if src == proc:
                    continue
                w = vol * delay[src][proc]
                if macro or w == 0.0:
                    key = ready
                else:
                    key = ready
                    sf = send0[src]
                    if sf > key:
                        key = sf
                    lf = link0[src * m + lbase]
                    if lf > key:
                        key = lf
                    key += w
                remote.append((key, pred, index, src, slot, ready, w))

        # Serialize the messages against simulated port/link frontiers.
        arrival = [_INF] * nslots
        if macro:
            for _key, _pred, _index, _src, slot, ready, w in remote:
                f = ready + w
                if f < arrival[slot]:
                    arrival[slot] = f
            floor = 0.0
        else:
            remote.sort()
            # Uniport aliasing needs no special casing: ``send_free`` IS
            # ``recv_free`` there, so ``send0`` reads the shared port and
            # the overlays below touch disjoint indices (src != proc).
            rf = view.recv_free[proc]
            sf_sim: dict[int, float] = {}
            lf_sim: dict[int, float] = {}
            for _key, _pred, _index, src, slot, ready, w in remote:
                if w == 0.0:
                    f = ready
                else:
                    start = ready
                    s = sf_sim.get(src)
                    if s is None:
                        s = send0[src]
                    if s > start:
                        start = s
                    if rf > start:
                        start = rf
                    l = lf_sim.get(src)
                    if l is None:
                        l = link0[src * m + lbase]
                    if l > start:
                        start = l
                    f = start + w
                    sf_sim[src] = f
                    rf = f
                    lf_sim[src] = f
                if f < arrival[slot]:
                    arrival[slot] = f
            if kind == "nooverlap":
                floor = send0[proc]
                if rf > floor:
                    floor = rf
            else:
                floor = 0.0

        return self._finish_trial(task, proc, loc, arrival, floor)

    def _collect_messages(self, proc, entries, heads, extra):
        """eq. (6) prologue shared by the routed/insertion evaluators.

        Splits each predecessor's supply into a co-located replica and
        remote messages sorted by their sender-side keys — the same slot
        loop ``_eval`` inlines for the scalar-frontier models.
        ``extra[src]`` is the per-candidate-processor frontier a message
        from ``src`` additionally clears (the route-hop maximum for
        routed models, the directed-link scalar for insertion); the
        sender-side bases ``max(ready, send_free[src])`` come precomputed
        per task (:meth:`_TaskEntries.sbase_pools`), so the per-processor
        work is one max and one add per pool entry — no closure
        allocation, no repeated sender-frontier reads.
        """
        delay = self._delay
        send0 = self._frontiers.send_free
        strict = self.builder.strict_local_suppression
        preds = entries.preds
        vols = entries.vols
        pools = entries.pools
        locals_ = entries.local
        selfsuff = entries.selfsuff
        nslots = len(preds)
        sb_pools = entries.sbase_pools(send0, self._version)
        remote: list[tuple] = []
        loc: list[Optional[float]] = [None] * nslots
        for slot in range(nslots):
            pred = preds[slot]
            if heads is not None and pred in heads:
                h = heads[pred]
                src = h.proc
                if src == proc:
                    loc[slot] = h.finish
                    continue
                ready = h.finish
                w = vols[slot] * delay[src][proc]
                if w == 0.0:
                    key = ready
                else:
                    key = ready
                    sf = send0[src]
                    if sf > key:
                        key = sf
                    ex = extra[src]
                    if ex > key:
                        key = ex
                    key += w
                remote.append((key, pred, h.index, src, slot, ready, w))
                continue
            local = locals_[slot]
            lf_local = local.get(proc)
            if lf_local is not None:
                loc[slot] = lf_local
                if strict or proc in selfsuff[slot]:
                    continue
            vol = vols[slot]
            sbases = sb_pools[slot]
            pool = pools[slot]
            for i in range(len(pool)):
                index, src, ready = pool[i]
                if src == proc:
                    continue
                w = vol * delay[src][proc]
                if w == 0.0:
                    key = ready
                else:
                    key = sbases[i]
                    ex = extra[src]
                    if ex > key:
                        key = ex
                    key += w
                remote.append((key, pred, index, src, slot, ready, w))
        remote.sort()
        return loc, remote

    def _eval_routed(
        self,
        task: int,
        proc: int,
        entries: _TaskEntries,
        heads: Optional[Mapping[int, Replica]] = None,
    ) -> Trial:
        """Route-aware serialization (§7): a message's start clears its
        sender port, the receiver port and **every** directed hop of its
        static route.

        The committed half of each hop maximum is one precomputed
        per-(src, proc) value (:meth:`_routemax_matrix`); reception then
        serializes by the exact recurrence ``f = max(key, rf + w)``.
        This is bit-identical to simulating per-hop frontiers: after any
        prefix of the key-sorted messages, every simulated sender or hop
        frontier equals the finish of some earlier message, and the
        receiver frontier ``rf`` (updated to every finish) dominates all
        of them — so a message's start is ``max(base, rf)`` with ``base``
        its committed bound, and since IEEE-754 rounding is monotone,
        ``fl(max(base, rf) + w) = max(fl(base + w), fl(rf + w)) =
        max(key, fl(rf + w))``.
        """
        loc, remote = self._collect_messages(
            proc, entries, heads, self._frontier_cols((proc,))[0]
        )

        arrival = [_INF] * len(entries.preds)
        rf = self._frontiers.recv_free[proc]
        for key, _pred, _index, _src, slot, ready, w in remote:
            if w == 0.0:
                f = ready
            else:
                t = rf + w
                f = key if key > t else t
                rf = f
            if f < arrival[slot]:
                arrival[slot] = f

        return self._finish_trial(task, proc, loc, arrival, 0.0)

    def _eval_insertion(
        self,
        task: int,
        proc: int,
        entries: _TaskEntries,
        heads: Optional[Mapping[int, Replica]] = None,
    ) -> Trial:
        """Gap-aware serialization for the insertion policy: eq. (6)
        ordering still comes from the scalar sender-side frontiers (that
        is what ``sender_bound`` reads), but each message is then placed
        by the same first-common-gap scan ``place_transfer`` runs — over
        trial-local :class:`_GapOverlay` copies of the busy timelines
        (NumPy gap arrays, copied on first touch per resource), so
        nothing is reserved.  A trial whose messages are all local or
        zero-volume touches no timeline and copies nothing — including
        the receiver's, which is only materialized for the first remote
        message.
        """
        view = self._frontiers
        m = self._m
        loc, remote = self._collect_messages(
            proc, entries, heads, self._frontier_cols((proc,))[0]
        )

        arrival = [_INF] * len(entries.preds)
        #: trial-local overlays (copy-on-first-touch per resource; the
        #: link toward ``proc`` is unique per sender, so both the send
        #: and link overlays key on ``src``)
        recv_ov: Optional[_GapOverlay] = None
        send_ov: dict[int, _GapOverlay] = {}
        link_ov: dict[int, _GapOverlay] = {}
        for _key, _pred, _index, src, slot, ready, w in remote:
            if w == 0.0:
                f = ready
            else:
                sov = send_ov.get(src)
                if sov is None:
                    sov = _GapOverlay(view.gap_arrays("send", src))
                    send_ov[src] = sov
                if recv_ov is None:
                    recv_ov = _GapOverlay(view.gap_arrays("recv", proc))
                lov = link_ov.get(src)
                if lov is None:
                    lov = _GapOverlay(view.gap_arrays("link", src * m + proc))
                    link_ov[src] = lov
                # the same first-common-gap scan place_transfer runs,
                # against the trial-local overlays (send/recv/link order)
                start = _common_gap3(
                    sov.starts, sov.ends,
                    recv_ov.starts, recv_ov.ends,
                    lov.starts, lov.ends,
                    ready, w,
                )
                f = start + w
                sov.insert(start, f)
                recv_ov.insert(start, f)
                lov.insert(start, f)
            if f < arrival[slot]:
                arrival[slot] = f

        return self._finish_trial(task, proc, loc, arrival, 0.0)

    # ------------------------------------------------------------------
    # NumPy batch evaluation (one pass over arbitrary (task, proc) rows)
    # ------------------------------------------------------------------
    def _assemble_rows(self, jobs):
        """Shared row-table assembly for the batch evaluators.

        Builds the padded per-row message tables for arbitrary
        ``(entries, task, proc)`` rows: distinct entry objects are padded
        once to the sweep's ``(Rmax, Smax)`` shape and gathered per row.
        Returns ``(proc, task_ids, pr, cost, tix, uniq, Rmax, Smax,
        tables)`` with ``tables`` ``None`` when no row has any
        predecessor (``Rmax == 0``).
        """
        nrows = len(jobs)
        strict = self.builder.strict_local_suppression
        m = self._m
        proc = np.fromiter((j[2] for j in jobs), dtype=np.int64, count=nrows)
        task_ids = np.fromiter((j[1] for j in jobs), dtype=np.int64, count=nrows)
        pr = np.asarray(self.builder.proc_ready, dtype=np.float64)[proc]
        cost = self.instance.exec_cost[task_ids, proc]

        table_ix: dict[int, int] = {}
        uniq: list[_TaskEntries] = []
        for e, _t, _p in jobs:
            if id(e) not in table_ix:
                table_ix[id(e)] = len(uniq)
                uniq.append(e)
        tix = np.fromiter(
            (table_ix[id(j[0])] for j in jobs), dtype=np.int64, count=nrows
        )
        Rmax = max(e.arrays()[0].size for e in uniq)
        Smax = max(len(e.preds) for e in uniq)
        if Rmax == 0:
            return proc, task_ids, pr, cost, tix, uniq, Rmax, Smax, None
        pads = [e.padded(Rmax, Smax, m, strict) for e in uniq]
        tables = tuple(np.stack([p[i] for p in pads]) for i in range(10))
        return proc, task_ids, pr, cost, tix, uniq, Rmax, Smax, tables

    def _eval_rows(self, jobs) -> list[Trial]:
        """One NumPy pass over arbitrary ``(entries, task, proc)`` rows.

        The workhorse behind both the per-task candidate sweep and the
        cross-task FTBAR sweep: every row's eq. (6) serialization runs in
        lockstep against its own frontier vectors, with per-row lexsorted
        message orders.  Operations mirror the scalar path exactly (same
        IEEE-754 maxima/additions in the same order), so results are
        bit-identical.  Scalar-frontier models only (``_vector_ok``).
        """
        kind = self.kind
        view = self._frontiers
        m = self._m
        macro = kind == "macro"
        strict = self.builder.strict_local_suppression
        nrows = len(jobs)
        rows = np.arange(nrows)
        proc = np.fromiter((j[2] for j in jobs), dtype=np.int64, count=nrows)
        task_ids = np.fromiter((j[1] for j in jobs), dtype=np.int64, count=nrows)
        pr = np.asarray(self.builder.proc_ready, dtype=np.float64)[proc]
        cost = self.instance.exec_cost[task_ids, proc]

        # Distinct entry objects -> padded (T, Rmax)/(T, Smax) tables.
        table_ix: dict[int, int] = {}
        uniq: list[_TaskEntries] = []
        for e, _t, _p in jobs:
            if id(e) not in table_ix:
                table_ix[id(e)] = len(uniq)
                uniq.append(e)
        tix = np.fromiter(
            (table_ix[id(j[0])] for j in jobs), dtype=np.int64, count=nrows
        )
        flats = [e.arrays() for e in uniq]
        Rmax = max(f[0].size for f in flats)
        Smax = max(len(e.preds) for e in uniq)

        if not macro:
            send0 = np.asarray(view.send_free, dtype=np.float64)
            recv0 = np.asarray(view.recv_free, dtype=np.float64)
            link0 = np.asarray(view.link_free, dtype=np.float64).reshape(m, m)

        if Rmax == 0:
            data_ready = np.zeros(nrows)
        else:
            pads = [e.padded(Rmax, Smax, m, strict) for e in uniq]
            Tpred = np.stack([p[0] for p in pads])
            Tidx = np.stack([p[1] for p in pads])
            Tsrc = np.stack([p[2] for p in pads])
            Tready = np.stack([p[3] for p in pads])
            Tslot = np.stack([p[4] for p in pads])
            Tvol = np.stack([p[5] for p in pads])
            Tmask = np.stack([p[6] for p in pads])
            Tsup = np.stack([p[7] for p in pads])
            Tlocal = np.stack([p[8] for p in pads])
            Tslotmask = np.stack([p[9] for p in pads])

            SRC = Tsrc[tix]
            READY = Tready[tix]
            PRED = Tpred[tix]
            IDX = Tidx[tix]
            SLOT = Tslot[tix]
            D = view.delay_np
            W = Tvol[tix] * D[SRC, proc[:, None]]
            pcol = proc[:, None]
            valid = Tmask[tix] & (SRC != pcol)
            valid &= ~np.take_along_axis(
                Tsup[tix], pcol[:, :, None], axis=2
            )[:, :, 0]

            arrival = np.full((nrows, Smax), _INF)
            if macro:
                fin = np.where(valid, READY + W, _INF)
                np.minimum.at(
                    arrival,
                    (np.repeat(rows, Rmax)[valid.ravel()], SLOT.ravel()[valid.ravel()]),
                    fin.ravel()[valid.ravel()],
                )
                floor = np.zeros(nrows)
            else:
                LF0 = link0[SRC, pcol]
                base = np.maximum(READY, send0[SRC])
                key = np.where(W > 0.0, np.maximum(base, LF0) + W, READY)
                key_masked = np.where(valid, key, _INF)
                order = np.lexsort((SRC, IDX, PRED, key_masked))
                counts = valid.sum(axis=1)

                SF = np.broadcast_to(send0, (nrows, m)).copy()
                RF = recv0[proc].copy()
                LFm = link0.T[proc].copy()  # (nrows, m): link src -> proc
                uni = kind == "uniport"
                for k in range(int(counts.max()) if nrows else 0):
                    act = k < counts
                    if not act.any():
                        break
                    j = order[:, k]
                    src = SRC[rows, j]
                    ready = READY[rows, j]
                    w = W[rows, j]
                    slot = SLOT[rows, j]
                    start = np.maximum(
                        np.maximum(ready, SF[rows, src]),
                        np.maximum(RF, LFm[rows, src]),
                    )
                    fin = np.where(w > 0.0, start + w, ready)
                    upd = act & (w > 0.0)
                    if upd.any():
                        SF[rows[upd], src[upd]] = fin[upd]
                        if uni:
                            SF[rows[upd], proc[upd]] = fin[upd]
                        RF[upd] = fin[upd]
                        LFm[rows[upd], src[upd]] = fin[upd]
                    cur = arrival[rows[act], slot[act]]
                    arrival[rows[act], slot[act]] = np.minimum(cur, fin[act])
                if kind == "nooverlap":
                    floor = np.maximum(send0[proc], RF)
                else:
                    floor = np.zeros(nrows)

            LS = np.take_along_axis(
                Tlocal[tix], pcol[:, :, None], axis=2
            )[:, :, 0]
            supply = np.minimum(LS, arrival)
            supply = np.where(Tslotmask[tix], supply, -_INF)
            if Smax:
                data_ready = np.maximum(supply.max(axis=1), 0.0)
            else:
                data_ready = np.zeros(nrows)

        if Rmax == 0:
            if kind == "nooverlap":
                floor = np.maximum(send0[proc], recv0[proc])
            else:
                floor = np.zeros(nrows)

        start = np.maximum(np.maximum(pr, floor), data_ready)
        finish = start + cost
        return [
            Trial(int(t), int(p), float(s), float(f), float(d))
            for t, p, s, f, d in zip(task_ids, proc, start, finish, data_ready)
        ]

    def _keys_and_order(self, view_extra, proc, tix, tables):
        """Vectorized eq. (6) key prologue shared by the routed and
        insertion batch evaluators.

        ``view_extra[src, dst]`` is the committed per-pair frontier each
        message additionally clears (route-hop max / link scalar).
        Returns the gathered message tables plus each row's lexsorted
        message order and valid-message count; the lexsort tiebreak
        ``(PRED, IDX, SRC)`` mirrors the scalar tuple sort — ``(pred,
        index)`` uniquely identifies a message, so later tuple fields are
        never reached.
        """
        view = self._frontiers
        (Tpred, Tidx, Tsrc, Tready, Tslot, Tvol, Tmask, Tsup, _Tl, _Tm) = tables
        SRC = Tsrc[tix]
        READY = Tready[tix]
        PRED = Tpred[tix]
        IDX = Tidx[tix]
        SLOT = Tslot[tix]
        pcol = proc[:, None]
        W = Tvol[tix] * view.delay_np[SRC, pcol]
        valid = Tmask[tix] & (SRC != pcol)
        valid &= ~np.take_along_axis(Tsup[tix], pcol[:, :, None], axis=2)[:, :, 0]

        send0 = np.asarray(view.send_free, dtype=np.float64)
        base = np.maximum(READY, send0[SRC])
        key = np.where(W > 0.0, np.maximum(base, view_extra[SRC, pcol]) + W, READY)
        key_masked = np.where(valid, key, _INF)
        order = np.lexsort((SRC, IDX, PRED, key_masked))
        counts = valid.sum(axis=1)
        return SRC, READY, SLOT, W, key, order, counts

    def _rows_epilogue(self, proc, task_ids, pr, cost, tix, tables, arrival, Smax):
        """Shared batch epilogue: merge local/remote supplies per row and
        materialize the trials (the vectorized ``_finish_trial``, with a
        zero compute floor — routed/insertion models never block
        compute)."""
        Tlocal, Tslotmask = tables[8], tables[9]
        LS = np.take_along_axis(Tlocal[tix], proc[:, None, None], axis=2)[:, :, 0]
        supply = np.minimum(LS, arrival)
        supply = np.where(Tslotmask[tix], supply, -_INF)
        if Smax:
            data_ready = np.maximum(supply.max(axis=1), 0.0)
        else:
            data_ready = np.zeros(len(task_ids))
        start = np.maximum(pr, data_ready)
        finish = start + cost
        return [
            Trial(t, p, s, f, d)
            for t, p, s, f, d in zip(
                task_ids.tolist(),
                proc.tolist(),
                start.tolist(),
                finish.tolist(),
                data_ready.tolist(),
            )
        ]

    def _eval_rows_routed(self, jobs) -> list[Trial]:
        """One lockstep pass over routed ``(entries, task, proc)`` rows.

        Every row's committed route-hop maxima come from the single CSR
        ``reduceat`` matrix, the eq. (6) keys for all rows are lexsorted
        at once, and the serialization recurrence ``f = max(key, rf +
        w)`` (see :meth:`_eval_routed` for the exactness argument)
        advances one receiver-frontier scalar per row in lockstep —
        bit-identical to the scalar evaluator.
        """
        proc, task_ids, pr, cost, tix, uniq, Rmax, Smax, tables = (
            self._assemble_rows(jobs)
        )
        nrows = len(jobs)
        if Rmax == 0:
            start = np.maximum(pr, 0.0)
            finish = start + cost
            return [
                Trial(int(t), int(p), float(s), float(f), 0.0)
                for t, p, s, f in zip(task_ids, proc, start, finish)
            ]
        SRC, READY, SLOT, W, key, order, counts = self._keys_and_order(
            self._routemax_matrix(), proc, tix, tables
        )
        rows = np.arange(nrows)
        arrival = np.full((nrows, Smax), _INF)
        RF = np.asarray(self._frontiers.recv_free, dtype=np.float64)[proc]
        for k in range(int(counts.max()) if nrows else 0):
            act = k < counts
            if not act.any():
                break
            j = order[:, k]
            w = W[rows, j]
            slot = SLOT[rows, j]
            fin = np.where(w > 0.0, np.maximum(key[rows, j], RF + w), READY[rows, j])
            upd = act & (w > 0.0)
            if upd.any():
                RF[upd] = fin[upd]
            cur = arrival[rows[act], slot[act]]
            arrival[rows[act], slot[act]] = np.minimum(cur, fin[act])
        return self._rows_epilogue(
            proc, task_ids, pr, cost, tix, tables, arrival, Smax
        )

    def _eval_rows_insertion(self, jobs) -> list[Trial]:
        """Batched insertion rows: the eq. (6) key prologue (sender-side
        keys, per-row lexsort, suppression masks) runs vectorized across
        every row at once; each row then replays its first-common-gap
        placements against trial-local gap-array overlays — bit-identical
        to the scalar evaluator, which shares both halves.
        """
        view = self._frontiers
        m = self._m
        proc, task_ids, pr, cost, tix, uniq, Rmax, Smax, tables = (
            self._assemble_rows(jobs)
        )
        nrows = len(jobs)
        if Rmax == 0:
            start = np.maximum(pr, 0.0)
            finish = start + cost
            return [
                Trial(int(t), int(p), float(s), float(f), 0.0)
                for t, p, s, f in zip(task_ids, proc, start, finish)
            ]
        link0 = np.asarray(view.link_free, dtype=np.float64).reshape(m, m)
        SRC, READY, SLOT, W, key, order, counts = self._keys_and_order(
            link0, proc, tix, tables
        )
        # The gap replay is scalar per row — pull each row's gathered
        # tables out as plain lists once (``tolist`` preserves bits), so
        # the inner loop pays no ndarray scalar-indexing overhead.
        # The replay walks messages in serialization order, so gather
        # every table through ``order`` once in C and drop to plain
        # lists (``tolist`` preserves bits) — the inner loop then pays
        # neither ndarray scalar indexing nor index indirection.
        SRC_l = np.take_along_axis(SRC, order, axis=1).tolist()
        READY_l = np.take_along_axis(READY, order, axis=1).tolist()
        SLOT_l = np.take_along_axis(SLOT, order, axis=1).tolist()
        W_l = np.take_along_axis(W, order, axis=1).tolist()
        counts_l = counts.tolist()
        proc_l = proc.tolist()
        # Overlays are raw (starts, ends) list pairs here rather than
        # _GapOverlay objects: the replay builds ~half a million of them
        # per m=40 campaign and object construction + method dispatch is
        # measurable at that volume.  A copy is made — and a simulated
        # reservation spliced in — only when a later message in the same
        # trial will read that timeline again: the send and link vectors
        # of a source that sends once, and the recv vectors after the
        # last port message, are scanned in place (the skipped writes
        # are never read, so the replay stays bit-identical).
        send_tls = view.send_timelines
        recv_tls = view.recv_timelines
        link_tls = view.link_timelines
        # Committed vectors are constant within one batched eval (no
        # commits between rows), so one lookup per resource serves every
        # row that touches it.
        sv_cache: dict[int, tuple] = {}
        lv_cache: dict[int, tuple] = {}
        rv_cache: dict[int, tuple] = {}
        br = bisect_right
        cg3 = _common_gap3
        arrival_rows: list[list[float]] = []
        for r in range(nrows):
            cnt = counts_l[r]
            arow = [_INF] * Smax
            p = proc_l[r]
            msgs = list(
                islice(zip(W_l[r], SLOT_l[r], SRC_l[r], READY_l[r]), cnt)
            )
            remaining: dict[int, int] = {}
            nleft = 0
            for w, _, src, _ in msgs:
                if w != 0.0:
                    nleft += 1
                    remaining[src] = remaining.get(src, 0) + 1
            # Most rows draw every port message from a distinct sender
            # (replicas spread over distinct processors): then no send
            # or link timeline is ever re-read in this trial and the
            # whole overlay apparatus reduces to read-only scans of the
            # committed vectors plus the shared recv overlay.
            distinct = len(remaining) == nleft
            recv_pair = None
            send_ov: dict[int, tuple] = {}
            link_ov: dict[int, tuple] = {}
            for w, slot, src, ready_k in msgs:
                if w == 0.0:
                    f = ready_k
                else:
                    nleft -= 1
                    if distinct:
                        rem = 0
                        ss_se = sv_cache.get(src)
                        if ss_se is None:
                            ss_se = send_tls[src].gap_vectors()
                            sv_cache[src] = ss_se
                        ss, se = ss_se
                        lid = src * m + p
                        ls_le = lv_cache.get(lid)
                        if ls_le is None:
                            ls_le = link_tls[lid].gap_vectors()
                            lv_cache[lid] = ls_le
                        ls, le = ls_le
                    else:
                        rem = remaining[src] - 1
                        remaining[src] = rem
                        pair = send_ov.get(src)
                        if pair is not None:
                            ss, se = pair
                        else:
                            base = sv_cache.get(src)
                            if base is None:
                                base = send_tls[src].gap_vectors()
                                sv_cache[src] = base
                            if rem:
                                ss = base[0][:]
                                se = base[1][:]
                                send_ov[src] = (ss, se)
                            else:
                                ss, se = base
                        lpair = link_ov.get(src)
                        if lpair is not None:
                            ls, le = lpair
                        else:
                            lid = src * m + p
                            base = lv_cache.get(lid)
                            if base is None:
                                base = link_tls[lid].gap_vectors()
                                lv_cache[lid] = base
                            if rem:
                                ls = base[0][:]
                                le = base[1][:]
                                link_ov[src] = (ls, le)
                            else:
                                ls, le = base
                    if recv_pair is not None:
                        rs, re_ = recv_pair
                    else:
                        base = rv_cache.get(p)
                        if base is None:
                            base = recv_tls[p].gap_vectors()
                            rv_cache[p] = base
                        if nleft:
                            rs = base[0][:]
                            re_ = base[1][:]
                            recv_pair = (rs, re_)
                        else:
                            rs, re_ = base
                    start = cg3(ss, se, rs, re_, ls, le, ready_k, w)
                    f = start + w
                    if rem:
                        i = br(ss, start)
                        ss.insert(i, start)
                        se.insert(i, f)
                        i = br(ls, start)
                        ls.insert(i, start)
                        le.insert(i, f)
                    if nleft:
                        i = br(rs, start)
                        rs.insert(i, start)
                        re_.insert(i, f)
                if f < arow[slot]:
                    arow[slot] = f
            arrival_rows.append(arow)
        arrival = (
            np.asarray(arrival_rows)
            if Smax
            else np.empty((nrows, 0))
        )
        return self._rows_epilogue(
            proc, task_ids, pr, cost, tix, tables, arrival, Smax
        )
