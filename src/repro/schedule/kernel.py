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

* scalar port frontiers (the paper's bi-directional one-port, the §2
  uni-port and no-overlap variants, and the contention-free
  macro-dataflow model).  A clique's link constraint (1) never binds
  beside the sender port (a link's frontier is at most its sender's
  ``send_free``, see :mod:`repro.comm.oneport`), so no clique evaluator,
  key or bound reads a link;
* **routed** models (§7 sparse topologies): serialization takes the max
  over the per-hop link frontiers of each message's static route, and
  the epoch cache tracks per-directed-link versions so two routes
  sharing a physical link invalidate each other;
* **gap-timeline** models (``OnePortNetwork(policy="insertion")``):
  trials replay the insertion scan against the committed send
  timelines and a trial-local copy of the receiver's timeline.

A model whose ``kernel_caps()`` is ``None`` (or declares a combination
the kernel cannot mirror) falls back to the exact slow path with a
one-time ``logging`` warning — ``fast=True`` never changes results.

Every exact row goes through one scalar evaluator per family, which
mirrors ``_place``'s IEEE-754 operations in the same order, so results
are **bit-identical** (the equivalence test suite asserts identical
commit logs end to end).  Sound lower bounds decide which rows need
that evaluation:

* ``pressure_sweep`` — FTBAR's free-task × all-processor re-scoring
  sweep, which schedules only the most urgent task.  One NumPy pass over
  the free tasks' message tables (:class:`_SweepState`) gives every
  stale (task, processor) row a sound **lower** and **upper** bound on
  its start (:meth:`TrialKernel._pressure_bounds`).  A task's urgency is
  at most ``hi``, the σ of its (ε+1)-th smallest upper bound; tasks are
  resolved exactly in decreasing ``hi`` order, and every task whose
  ``hi`` is clear of the best resolved urgency by ``2·TIE_EPS`` is
  pruned without a single exact row; so is one whose ε+1 rows with the
  smallest upper bounds, evaluated exactly, cap its urgency clear of
  the best.  The tie loop over the resolved
  tasks (:func:`urgency_ties`) is certified against the largest pruned
  ``hi``, falling back to resolving every task when the certificate
  fails.  Within a resolved task a heap over its rows, keyed by the σ
  of each row's best-known start, evaluates exactly only the rows that
  can enter its ε+1 kept set (:meth:`TrialKernel._resolve_urgency`).
  Exact starts and the commit versions they were computed at live in
  the sweep arrays, so no :class:`Trial` is built for a row that is
  served from them or pruned.
* ``candidate_sweep`` — one placement's candidate processors (the
  HEFT/FTSA/CAFT candidate loops), optionally with designated
  per-predecessor heads per candidate (CAFT's one-to-one rounds, picked
  for every candidate in one pass by ``candidate_heads``).  The eq. (6)
  message prologue — supplier pools, sender-side key bases, suppression
  tables — is gathered once per task and shared across every candidate.
  Its per-predecessor part is a supply record (:class:`_Supply`) kept
  per predecessor and rebuilt only when that predecessor gains a
  replica, so a task's entries cost O(in-degree), not a walk over every
  replica of every predecessor.
  Rows the epoch cache serves are exact; every other row gets a sound
  lower bound on its finish (:meth:`TrialKernel._finish_bounds`), and
  :func:`select_candidates` evaluates exactly, in ``(bound, proc)``
  order, only the rows that can still be the minimum, tie with it, or
  be among the first ``keep``.

The evaluator families (:meth:`TrialKernel._eval` dispatches):

* scalar-frontier models sort the eq. (6) keys and advance simulated
  port frontiers message by message;
* **routed** models read each route's committed hop maximum from one
  CSR ``np.maximum.reduceat`` per commit (:meth:`TrialKernel._routemax_matrix`)
  and run the serialization recurrence ``f = max(key, rf + w)``
  (``_eval_routed``) — exact, because every simulated frontier a later
  message could read is dominated by the receiver frontier (see the
  evaluator docstring);
* **gap-timeline** models replay each message's first-common-gap scan
  (:func:`repro.comm.base.common_gap`, the one ``transfer_slot`` runs)
  over the sender's committed send timeline and a trial-local copy of
  the receiver's timeline (``_eval_insertion``).

An **epoch cache** skips rows whose inputs did not move: a placement only
dirties the processors (and, for routed models, directed links) it
touched.  Each committed replica/message bumps the epochs of the
resources it reserved; a cached trial (``candidate_sweep``) or exact
start (``pressure_sweep``) is reused verbatim when the epochs of every
resource it read are unchanged and the supplier pools did not grow.

``kernel_stats()`` exposes the observability counters (evaluator
family, epoch-cache hits/misses, bounded and pruned sweep rows).
"""

from __future__ import annotations

import logging
from bisect import insort
from heapq import heapify, heappop, heapreplace
from operator import is_
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.comm.base import KernelCaps, common_gap, insert_interval
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


class _Supply:
    """One predecessor's supplier pool, in the form every sweep reads.

    Depends only on the replica list it was built from.  The kernel keeps
    one per predecessor for the live ``schedule.replicas[pred]`` list,
    valid while that list's length is unchanged: the list is append-only
    and a committed replica never changes, so the length fixes the
    content (:meth:`TrialKernel._supply`).  Every successor's
    :class:`_TaskEntries` gathers these records instead of re-walking
    the replicas.
    """

    __slots__ = ("pool", "local", "selfsuff", "procs")

    def __init__(self, replicas: Sequence[Replica]) -> None:
        #: [(index, src proc, ready time), ...] in pool order
        self.pool: list[tuple[int, int, float]] = []
        #: proc -> earliest co-located supply (min by (finish, index))
        self.local: dict[int, float] = {}
        suff = []
        keys: dict[int, tuple[float, int]] = {}
        for r in replicas:
            proc = r.proc
            self.pool.append((r.index, proc, r.finish))
            key = (r.finish, r.index)
            prev = keys.get(proc)
            if prev is None or key < prev:
                keys[proc] = key
                self.local[proc] = r.finish
            support = r.support
            if not support or (len(support) == 1 and proc in support):
                suff.append(proc)
        #: procs hosting a self-sufficient co-located replica (its
        #: support is at most ``{proc}``)
        self.selfsuff = frozenset(suff)
        #: procs hosting a replica of the pool
        self.procs = keys.keys()


class _TaskEntries:
    """Per-task supplier state shared by every candidate processor.

    Gathers each predecessor's :class:`_Supply` and edge volume, in
    O(in-degree); built once per (task, supplier-pool version) and
    reused across the whole candidate sweep.
    """

    __slots__ = (
        "preds",
        "vols",
        "pools",
        "local",
        "selfsuff",
        "srcs",
        "sig",
        "np_sbase",
    )

    def __init__(self, preds, vols: list[float], supplies: list[_Supply]) -> None:
        self.preds = preds
        self.vols = vols
        #: per pred slot: the :class:`_Supply` fields
        self.pools = [s.pool for s in supplies]
        self.local = [s.local for s in supplies]
        self.selfsuff = [s.selfsuff for s in supplies]
        self.srcs = sorted(set().union(*(s.procs for s in supplies)))
        self.sig = tuple(len(p) for p in self.pools)
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


class _SweepState:
    """Per-schedule arrays behind :meth:`TrialKernel.pressure_sweep`.

    ``start[t, p]`` is the exact start of ``t`` on ``p`` computed at
    commit version ``version[t, p]`` (``-1`` = never).  The message
    tables hold each loaded task's supplier pools on a ``(slot, k)``
    grid — ``S`` slots (the graph's largest in-degree) by ``K`` pool
    entries — with the per-processor transfer durations ``w`` and the
    ``valid`` mask (remote, not suppressed, ``w > 0``) that the bound
    pass reads, and ``pooled[t, s, k]``, whether any processor's row reads
    entry ``(s, k)`` (``valid`` on some processor); ``local[t, s, p]`` is the earliest supply that reads no
    frontier — a co-located replica, or a zero-duration message, which
    arrives at its ``ready`` and moves nothing — (``inf`` when none,
    ``-inf`` on padding slots so they never raise the data-ready max).
    ``entries[t]`` is the :class:`_TaskEntries` the row was loaded from,
    or ``None`` once a predecessor of ``t`` commits another replica
    (:meth:`TrialKernel.note_commit`): a new supplier pool means new
    entries, which reloads the tables and forgets the task's exact starts.
    """

    __slots__ = (
        "start", "version", "entries", "src", "ready", "w", "valid", "pooled", "local"
    )

    def __init__(self, n: int, m: int, slots: int, k: int) -> None:
        self.start = np.zeros((n, m))
        self.version = np.full((n, m), -1, dtype=np.int64)
        self.entries: list[Optional[_TaskEntries]] = [None] * n
        self.src = np.zeros((n, slots, k), dtype=np.int64)
        self.ready = np.zeros((n, slots, k))
        self.w = np.zeros((n, slots, k, m))
        self.valid = np.zeros((n, slots, k, m), dtype=bool)
        self.pooled = np.zeros((n, slots, k), dtype=bool)
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
            self.pooled = np.pad(self.pooled, pad)
        self.entries[task] = entries
        self.version[task] = -1
        self.valid[task] = False
        self.pooled[task] = False
        local = self.local[task]
        local[:] = -_INF
        local[: len(entries.pools)] = _INF
        # one row per pool entry (slot, k), filled in one pass per table
        slots: list[int] = []
        ks: list[int] = []
        srcs: list[int] = []
        readys: list[float] = []
        vols: list[float] = []
        suppressed = np.zeros(local.shape, dtype=bool)
        for slot, pool in enumerate(entries.pools):
            for p, finish in entries.local[slot].items():
                local[slot, p] = finish
            off = entries.local[slot] if strict else entries.selfsuff[slot]
            suppressed[slot, list(off)] = True
            vol = entries.vols[slot]
            for k, (_index, src, ready) in enumerate(pool):
                slots.append(slot)
                ks.append(k)
                srcs.append(src)
                readys.append(ready)
                vols.append(vol)
        if not slots:
            return
        src = np.asarray(srcs, dtype=np.int64)
        ready = np.asarray(readys)
        w = np.asarray(vols)[:, None] * delay[src]
        valid = ~suppressed[slots]
        valid[np.arange(src.size), src] = False
        # a zero-duration message reads no frontier: it is a local supply
        free = valid & (w == 0.0)
        valid &= ~free
        self.src[task, slots, ks] = src
        self.ready[task, slots, ks] = ready
        self.w[task, slots, ks] = w
        self.valid[task, slots, ks] = valid
        self.pooled[task, slots, ks] = valid.any(axis=1)
        rows, procs = np.nonzero(free)
        if rows.size:
            np.minimum.at(local, (np.asarray(slots)[rows], procs), ready[rows])


#: query rows per chunk of :meth:`_GapTable.earliest` times the widest
#: timeline: keeps its temporaries near 256 KiB each
_GAP_CHUNK = 1 << 15


class _GapTable:
    """Committed busy timelines as padded gap arrays: gap ``j`` of
    timeline ``i`` runs from ``start[i, j]`` (the end of interval
    ``j-1``, ``-inf`` for the first gap) to ``end[i, j]`` (the start of
    interval ``j``, ``inf`` for the last and on padding).

    :meth:`sync` re-reads only the timelines whose interval count moved:
    committed timelines only gain intervals while a schedule is built
    (a trial's reservations are rolled back before the next sync), so an
    unchanged count means unchanged intervals."""

    __slots__ = ("timelines", "lens", "start", "end")

    def __init__(self, timelines) -> None:
        self.timelines = timelines
        self.lens = [-1] * len(timelines)
        self.start = np.full((len(timelines), 1), _INF)
        self.end = np.full((len(timelines), 1), _INF)
        self.sync()

    def sync(self) -> None:
        lens = [len(tl.starts) for tl in self.timelines]
        width = self.start.shape[1]
        need = max(lens, default=0) + 1
        if need > width:
            # grow geometrically; padding gaps never fit (see earliest)
            pad = ((0, 0), (0, max(need, 2 * width) - width))
            self.start = np.pad(self.start, pad, constant_values=_INF)
            self.end = np.pad(self.end, pad, constant_values=_INF)
        for i, (n, old) in enumerate(zip(lens, self.lens)):
            if n != old:
                tl = self.timelines[i]
                start, end = self.start[i], self.end[i]
                start[0] = -_INF
                start[1 : n + 1] = tl.ends
                start[n + 1 :] = _INF
                end[:n] = tl.starts
                end[n:] = _INF
        self.lens = lens

    def earliest(self, which, ready, w) -> np.ndarray:
        """Per query ``q``: the earliest start ``>= ready[q]`` at which
        ``w[q] > 0`` fits between the busy intervals of timeline
        ``which[q]`` — one timeline's walk of
        :func:`repro.comm.base.common_gap`, vectorized over queries: the
        first gap with ``max(gap start, ready) + w <= gap end``, the
        walk's own fit test.  The last real gap of every queried
        timeline always fits, so no padding gap is ever the first fit."""
        width = max((self.lens[i] for i in set(which.tolist())), default=0) + 1
        start = self.start[:, :width]
        end = self.end[:, :width]
        out = np.empty(len(which))
        step = max(1, _GAP_CHUNK // width)
        for lo in range(0, len(which), step):
            r = which[lo : lo + step]
            cand = np.maximum(start[r], ready[lo : lo + step, None])
            first = (cand + w[lo : lo + step, None] <= end[r]).argmax(axis=1)
            out[lo : lo + step] = cand[np.arange(r.size), first]
        return out


def urgency_ties(selections, ceiling: float = -_INF):
    """FTBAR's streaming tie loop: the most urgent tasks, within
    ``TIE_EPS`` of each other.

    ``selections`` holds ``(task, urgency, kept processors)`` in
    free-list order.  A task more urgent than the running best by more
    than ``TIE_EPS`` resets the best and the tie list; one within
    ``TIE_EPS`` below or above it joins the list.  The loop depends on
    order — with ``TIE_EPS = 1`` the urgencies 8.9, 9.5, 10 give
    ``[10]``, but ``[9.5, 10]`` once 8.9 is left out — so leaving tasks
    out needs a certificate.

    ``ceiling`` is an upper bound on the urgency of every task left out
    of ``selections`` (``-inf``: none left out).  Returns the tie list,
    or ``None`` when the certificate fails: some urgency lies in the band
    ``(ceiling, ceiling + 2·TIE_EPS]`` (tested as ``u − TIE_EPS <=
    ceiling + TIE_EPS``), or none lies above it.  Otherwise the loop over
    ``selections`` returns what the loop over every task would.  *Proof.*
    Call an urgency low when it is at most ``ceiling`` (every omitted
    task is low) and clear when ``u − TIE_EPS > ceiling + TIE_EPS``.
    Before the first clear task the running best is low or ``-inf``, so
    ``best + TIE_EPS <= ceiling + TIE_EPS < u − TIE_EPS <= u`` (IEEE-754
    rounding is monotone) and the clear task resets the loop, dropping
    every earlier tie.  From then on ``best`` never falls, so for a low
    ``u``, ``best − TIE_EPS >= u_clear − TIE_EPS > ceiling + TIE_EPS >=
    u``: it neither resets the loop nor joins the ties.  Both loops
    therefore agree from the first clear task on, and low tasks change
    neither.
    """
    best = -_INF
    ties: list[tuple[int, list[int]]] = []
    band_top = ceiling + TIE_EPS
    for task, urgency, procs in selections:
        if urgency > ceiling and urgency - TIE_EPS <= band_top:
            return None
        if urgency > best + TIE_EPS:
            best = urgency
            ties = [(task, procs)]
        elif urgency >= best - TIE_EPS:
            ties.append((task, procs))
    return ties if best > ceiling else None


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

    __slots__ = (
        "schedule",
        "epsilon",
        "network",
        "graph",
        "caps",
        "kind",
        "_frontiers",
        "_cost",
        "_m",
        "_proc_ready",
        "_strict",
        "_version",
        "_send_changed",
        "_recv_changed",
        "_link_changed",
        "_supplies",
        "_entries",
        "_cache",
        "_ctx_version",
        "_routemax",
        "_cols",
        "_delay_cols",
        "_sweep",
        "_gaps",
        "_stats",
    )

    def __init__(self, builder, caps: KernelCaps) -> None:
        # Everything read from the builder is fixed after its __init__
        # (``proc_ready`` is updated in place), so the kernel keeps its
        # own references and never points back at the builder: builder
        # and kernel stay acyclic and are freed by reference counting.
        self.schedule = builder.schedule
        self.epsilon = builder.epsilon
        self._proc_ready = builder.proc_ready
        self._strict = builder.strict_local_suppression
        self.network = builder.network
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
        self._cost = builder.instance.exec_cost.tolist()
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
        #: pred -> _Supply of the live replica list (see _supply)
        self._supplies: dict[int, _Supply] = {}
        #: task -> _TaskEntries of the live pools (keyed by its ``sig``)
        self._entries: dict[int, _TaskEntries] = {}
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
        #: per destination, the unit delays from every source.  They come
        #: from the *network's* platform (for routed models the
        #: end-to-end route delays), exactly what the slow path's
        #: ``transfer_time`` uses
        self._delay_cols = view.delay_np.T.tolist()
        #: pressure-sweep arrays (built on the first :meth:`pressure_sweep`)
        self._sweep: Optional[_SweepState] = None
        #: insertion family: [commit version synced at, send and receive
        #: :class:`_GapTable`] behind :meth:`_gap_bounds`
        self._gaps: Optional[list] = None
        #: observability counters (see :meth:`kernel_stats`)
        self._stats = {
            "cache_hits": 0,
            "cache_misses": 0,
            "bound_rows": 0,
            "pruned_rows": 0,
            "urgency_tasks": 0,
            "urgency_pruned": 0,
            "urgency_fallbacks": 0,
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
    def note_commit(self, task: int, proc: int, placed) -> None:
        """Record which resources a commit of ``task`` dirtied.

        ``proc`` hosts the new replica: its ready time, receive port and
        compute floor moved (receive side).  Every placed message with
        nonzero duration moved its sender's port (send side; for routed
        models every directed hop of the message's route gets its epoch
        bumped too).  The contention-free macro model reserves nothing,
        so only the host's ready time moves.

        The shared-port (uniport) model has one engine per processor —
        its send and receive frontiers are the *same* array — so there
        every touched processor moves on both sides at once.

        ``task``'s replica list grew, so a successor whose sweep tables
        were loaded from the shorter list is reloaded on its next
        pressure sweep.
        """
        st = self._sweep
        if st is not None:
            for succ in self.graph.succs(task):
                st.entries[succ] = None
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
            for _pred, r, start, finish, _vol in placed:
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
        for _pred, r, start, finish, _vol in placed:
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
        alias the cache line, so it is built fresh, from uncached
        :class:`_Supply` records (and the caller must not reuse cached
        trials for it either).
        """
        graph = self.graph
        preds = graph.preds(task)
        replicas = self.schedule.replicas
        try:
            lists = list(map(sources.__getitem__, preds))
        except KeyError as exc:
            raise SchedulingError(
                f"no sources provided for predecessor t{exc.args[0]} of t{task}"
            ) from None
        canonical = all(map(is_, lists, map(replicas.__getitem__, preds)))
        if canonical:
            cached = self._entries.get(task)
            if cached is not None and cached.sig == tuple(map(len, lists)):
                return cached, True
        supplies = []
        for pred, lst in zip(preds, lists):
            if not lst:
                raise SchedulingError(
                    f"empty source list for predecessor t{pred} of t{task}"
                )
            supplies.append(self._supply(pred, lst) if canonical else _Supply(lst))
        entries = _TaskEntries(
            preds, [graph.volume(pred, task) for pred in preds], supplies
        )
        if canonical:
            self._entries[task] = entries
        return entries, canonical

    def _supply(self, pred: int, replicas: Sequence[Replica]) -> _Supply:
        """The cached :class:`_Supply` of the live ``replicas`` list of
        ``pred``, rebuilt when the list has grown since."""
        rec = self._supplies.get(pred)
        if rec is None or len(rec.pool) != len(replicas):
            rec = self._supplies[pred] = _Supply(replicas)
        return rec

    def _srcs_changed_after(self, entries: _TaskEntries) -> int:
        """Latest version at which any supplier's send side moved.

        A trial of this task on candidate ``p`` reads ``send_free[src]``
        (and, on routed models, the hop frontiers toward ``p``) for every
        supplier ``src`` — it moves only when ``src`` sends (routed link
        sharing is covered separately by the per-hop epochs).  Shared by
        every candidate, so the cache validity check per processor is O(1)
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
            hp = heads[i] if heads is not None else None
            trial = self._eval(task, p, entries, hp)
            if not hp:  # only full-pool trials go in the epoch cache
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
        ``max(ready, send_free[src]) + w``, with the route-hop maximum
        inside the max on routed models,
        ``ready + w`` on macro-dataflow, ``ready`` for a co-located
        replica or ``w == 0`` — in one pass over every (candidate,
        predecessor, eligible replica) instead of one ``sender_bound``
        call each."""
        macro = self.kind == "macro"
        send0 = self._frontiers.send_free
        dcols = self._delay_cols
        extras = (
            self._frontier_cols(procs) if self.kind == "routed" else [None] * len(procs)
        )
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
                        elif extra is None:
                            key = base + w
                        else:
                            ex = extra[src]
                            key = (ex if ex > base else base) + w
                    if best is None or key < bkey or (key == bkey and index < bidx):
                        best, bkey, bidx = r, key, index
                heads[pred] = best
        return out

    def pressure_sweep(
        self, tasks: Sequence[int], bl: np.ndarray, current_length: float
    ) -> list[tuple[int, list[int]]]:
        """FTBAR's schedule-pressure step: the tie list of the most urgent
        free tasks, each with its ε+1 minimum-``(σ, proc)`` processors.

        ``tasks`` are unscheduled tasks whose predecessors are all placed
        (every processor eligible, full fan-in supply); ``bl[i]`` is the
        bottom level of ``tasks[i]`` and ``current_length`` the schedule
        length ``R``.  Rows whose exact start is still valid under the
        epoch rules are served from the sweep arrays; every other row
        gets a lower and an upper bound on its start
        (:meth:`_pressure_bounds`).  A task's urgency — the σ of its
        (ε+1)-th smallest ``(σ, proc)`` row — is at most ``hi``, the σ of
        its (ε+1)-th smallest upper bound (order statistics are monotone
        and so is σ).

        Tasks are taken in decreasing ``hi`` order.  Once the next ``hi``
        is clear of the best resolved urgency (``hi + TIE_EPS < best −
        TIE_EPS``) that task and every later one are pruned.  Before it
        resolves any task but the first, the sweep evaluates exactly the
        task's ε+1 rows with the smallest upper bounds: the largest of
        their σ also caps its urgency (the (ε+1)-th smallest of all rows
        is at most the largest of any ε+1 of them), and a cap clear of
        ``best`` prunes the task too.  Every other task is resolved
        exactly (:meth:`_resolve_urgency`).  A pruned task's urgency is at
        most ``θ``, the largest ``hi`` or cap among the pruned, so
        :func:`urgency_ties` over the resolved tasks alone is certified
        against ``θ``; when the certificate fails the pruned tasks are
        resolved too.  The tie list is therefore exactly that of scoring
        every row and running FTBAR's tie loop over every task.

        Every free task's predecessors are fully placed, so its supplier
        pools never grow while it waits: its sweep rows stay loaded until
        the task is scheduled (a commit to a predecessor would unload
        them, see :meth:`note_commit`).
        """
        st = self._sweep
        if st is None:
            graph = self.graph
            slots = max((len(graph.preds(t)) for t in range(graph.num_tasks)), default=0)
            st = self._sweep = _SweepState(
                graph.num_tasks, self._m, max(1, slots), self.epsilon + 1
            )
        replicas = self.schedule.replicas
        ents = []
        for t in tasks:
            entries = st.entries[t]
            if entries is None:  # never loaded, or a predecessor grew since
                # the live replica lists are the canonical pools
                entries, _ = self._entries_for(t, replicas)
                st.load(
                    t, entries, self._frontiers.delay_np,
                    self._strict,
                )
            ents.append(entries)

        version = self._version
        keep = self.epsilon + 1
        tix = np.asarray(tasks, dtype=np.int64)
        lower = st.start[tix]
        cached = st.version[tix] >= self._epochs_read(tix)
        exact = cached.copy()
        upper = lower
        if not cached.all():
            lb, ub, certified = self._pressure_bounds(tix)
            stale = ~cached
            lower = np.where(cached, lower, lb)
            upper = np.where(cached, lower, ub)
            # a bound with no contended message in it is the exact start
            fresh = stale & certified
            exact = cached | fresh
            rows, procs = np.nonzero(fresh)
            st.start[tix[rows], procs] = lower[rows, procs]
            st.version[tix[rows], procs] = version
        bls = np.asarray(bl, dtype=np.float64)
        kth = np.partition(upper, keep - 1, axis=1)[:, keep - 1]
        hi = ((kth + bls) - current_length).tolist()
        bls = bls.tolist()

        stats = self._stats
        misses = stats["cache_misses"]
        resolved: dict[int, tuple[float, list[int]]] = {}

        def resolve(i: int, limit: float) -> float:
            out = resolved[i] = self._resolve_urgency(
                tasks[i], ents[i], lower[i].tolist(), exact[i].tolist(),
                bls[i], current_length, keep, version, limit,
            )
            return out[0]

        def cap(i: int) -> float:
            # the largest σ among the task's ε+1 rows with the smallest
            # upper bounds, evaluated exactly: its urgency is at most that
            row_lower, row_exact = lower[i], exact[i]
            task = tasks[i]
            sigma = -_INF
            for p in np.argpartition(upper[i], keep - 1)[:keep].tolist():
                if not row_exact[p]:
                    s = self._eval(task, p, ents[i]).start
                    stats["cache_misses"] += 1
                    st.start[task, p] = row_lower[p] = s
                    st.version[task, p] = version
                    row_exact[p] = True
                sigma = max(sigma, (float(row_lower[p]) + bls[i]) - current_length)
            return sigma

        order = sorted(range(len(tasks)), key=hi.__getitem__, reverse=True)
        best = -_INF
        pruned: list[int] = []
        ceiling = -_INF
        for n, i in enumerate(order):
            if hi[i] + TIE_EPS < best - TIE_EPS:
                pruned += order[n:]
                ceiling = max(ceiling, hi[i])
                break
            bound = hi[i]
            if resolved:
                bound = cap(i)
                if bound + TIE_EPS < best - TIE_EPS:
                    pruned.append(i)
                    ceiling = max(ceiling, bound)
                    continue
            best = max(best, resolve(i, bound))
        ties = urgency_ties(
            [(tasks[i], *resolved[i]) for i in sorted(resolved)], ceiling
        )
        if ties is None:
            stats["urgency_fallbacks"] += 1
            for i in pruned:
                resolve(i, hi[i])
            pruned = []
            ties = urgency_ties([(tasks[i], *resolved[i]) for i in range(len(tasks))])

        # row accounting: hits come only from resolved tasks and misses
        # from evaluated rows; every other row of the sweep is pruned
        hits = int(cached[list(resolved)].sum())
        evaluated = stats["cache_misses"] - misses
        total = len(tasks) * self._m
        stats["cache_hits"] += hits
        stats["bound_rows"] += total - hits
        stats["pruned_rows"] += total - hits - evaluated
        stats["urgency_tasks"] += len(tasks)
        stats["urgency_pruned"] += len(pruned)
        return ties

    def _resolve_urgency(
        self, task, entries, starts, exact, bl, current_length, keep, version, limit
    ) -> tuple[float, list[int]]:
        """One free task's urgency and kept processors, exactly.

        ``starts[p]`` is the start of ``task`` on ``p`` — exact where
        ``exact[p]``, else a lower bound.  A heap holds every row keyed by
        ``(σ of its best-known start, proc)``.  The top row, if exact, is
        the next kept processor: every other row's exact ``(σ, proc)`` is
        at least its key, which sorts after the top's.  An inexact top is
        refined and pushed back: on the insertion family it first gets
        its committed-gap bound (:meth:`_gap_bounds`, computed for every
        row of the task at once when the first inexact row reaches the
        top); then :meth:`_eval`, whose exact start goes into the sweep
        arrays at ``version``.  The first ``keep`` exact rows popped are
        the task's kept set in the ``(σ, proc)`` order of sorting every
        exact row, and the urgency is the last one's σ — the same
        IEEE-754 operations ``(start + bl) − R`` as the exact path.
        ``limit`` is an upper bound on the task's urgency: every kept
        row's key is at most its exact σ, which is at most ``limit``, so
        a row keyed above ``limit`` would reach the top only after the
        kept set is complete and never enters the heap.
        """
        st = self._sweep
        insertion = self.kind == "insertion"
        # stage per row: 0 = the bound pass's bound, 1 = the insertion
        # family's committed-gap bound, 2 = exact
        heap = []
        for p, (s, e) in enumerate(zip(starts, exact)):
            sigma = (s + bl) - current_length
            if sigma <= limit:
                heap.append((sigma, p, 2 if e else 0))
        heapify(heap)
        kept: list[int] = []
        stats = self._stats
        gaps = None
        while True:
            sigma, p, stage = heap[0]
            if stage == 2:
                heappop(heap)
                kept.append(p)
                if len(kept) == keep:
                    return sigma, kept
                continue
            if stage == 0 and insertion:
                if gaps is None:
                    gaps = self._gap_bounds(
                        task, [q for _sigma, q, stage in heap if stage == 0]
                    )
                s = gaps[p]
                stage = 1
            else:
                s = self._eval(task, p, entries).start
                stats["cache_misses"] += 1
                st.start[task, p] = s
                st.version[task, p] = version
                stage = 2
            heapreplace(heap, ((s + bl) - current_length, p, stage))

    def _gap_bounds(self, task: int, procs: list[int]) -> dict[int, float]:
        """Insertion family: lower bounds on the start of ``task`` on each
        of ``procs``, from the committed gap timelines.

        Each message gets the later of the earliest gaps that fit it on
        the committed send timeline of ``src`` and receive timeline of
        ``p`` (:class:`_GapTable`, both synced once per commit version),
        plus ``w``: the exact replay only adds trial intervals to the
        receiver's copy, and the common gap it finds must fit each
        committed timeline alone (the link timeline adds nothing: every
        interval on a link is also on its sender's port).  Supplies then
        merge as in :meth:`_pressure_bounds`.  Hence bound ≤ exact start.
        """
        st = self._sweep
        gaps = self._gaps
        if gaps is None:
            view = self._frontiers
            gaps = self._gaps = [
                self._version,
                _GapTable(view.send_timelines),
                _GapTable(view.recv_timelines),
            ]
        elif gaps[0] != self._version:
            gaps[0] = self._version
            gaps[1].sync()
            gaps[2].sync()
        _version, send, recv = gaps
        cols = np.asarray(procs)
        valid = st.valid[task][:, :, cols]
        s, k, j = np.nonzero(valid)
        p = cols[j]
        ready = st.ready[task][s, k]
        w = st.w[task][s, k, p]
        start = np.maximum(
            send.earliest(st.src[task][s, k], ready, w), recv.earliest(p, ready, w)
        )
        lb = np.full(valid.shape, _INF)
        lb[s, k, j] = start + w
        supply = np.minimum(st.local[task][:, cols], lb.min(axis=1))
        start = np.maximum(supply.max(axis=0), 0.0)
        proc_ready = np.asarray(self._proc_ready)[cols]
        return dict(zip(procs, np.maximum(proc_ready, start).tolist()))

    def _finish_bounds(self, task, procs, entries, heads) -> list[float]:
        """Lower bounds on the finish of ``task`` on each of ``procs``.

        The per-row form of :meth:`_pressure_bounds`, with the designated
        heads of :meth:`candidate_sweep`: a remote message gets
        ``max(ready, send_free[src], recv_free[p]) + w`` — with the
        route-hop maximum inside the max on routed models —
        ``ready + w`` on macro-dataflow, and ``ready`` when
        ``w == 0``.  Every frontier an evaluator simulates is at least its
        committed value and IEEE-754 rounding is monotone, so each exact
        arrival is at least its bound.  On the insertion family a message
        gets the first common gap of the committed send and receive
        timelines that fits it (:func:`repro.comm.base.common_gap`), plus
        ``w``: the trial copy only adds busy intervals, so the gap the
        exact replay finds fits the committed timelines too, and the scan
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
        strict = self._strict
        preds = entries.preds
        vols = entries.vols
        pools = entries.pools
        locals_ = entries.local
        selfsuff = entries.selfsuff
        proc_ready = self._proc_ready
        cost = self._cost[task]
        dcols = self._delay_cols
        send0 = view.send_free
        recv0 = view.recv_free
        macro = kind == "macro"
        routed = kind == "routed"
        # no scalar port frontier bounds a message start on these
        plain = macro or kind == "insertion"
        sb_pools = entries.sbase_pools(send0, self._version)
        if routed:
            extras = self._frontier_cols(procs)
        send_tls = view.send_timelines
        recv_tls = view.recv_timelines
        out = []
        for i, p in enumerate(procs):
            hp = heads[i] if heads is not None else None
            dcol = dcols[p]
            if not plain:
                if routed:
                    extra = extras[i]
                rf = recv0[p]
            elif not macro:
                rtl = recv_tls[p]
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
                        if routed:
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
                        stl = send_tls[src]
                        b = common_gap(
                            stl.starts, stl.ends, rtl.starts, rtl.ends, ready, w
                        ) + w
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
        pooled = st.pooled[tix]
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

    def _pressure_bounds(
        self, tix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lower and upper bounds on the start of every ``(tasks[i], p)``
        row, in one pass over the sweep's message tables.

        Zero-duration messages arrive at their ``ready`` and move no
        frontier; the tables hold them as supplies that read no frontier
        (``_SweepState.local``), so every message below has ``w > 0``.

        *Lower bound.*  Each remote message gets ``max(ready,
        send_free[src], F(src→p), recv_free[p]) + w`` — ``F`` the
        route-hop maximum on routed models, absent on a clique (whose
        link frontier never exceeds ``send_free[src]``) — and
        ``ready + w`` on macro-dataflow and on the insertion family
        (whose committed-gap bound :meth:`_gap_bounds` is computed only
        for the tasks :meth:`_resolve_urgency` resolves).  Every frontier the
        evaluators simulate is at least its committed value and IEEE-754
        rounding is monotone, so each exact arrival is at least its
        bound.  Supplies then merge exactly as in :meth:`_finish_trial`
        (min per predecessor, local supply included; max over
        predecessors and 0; max with the processor's ready time, and the
        no-overlap compute floor ``max(send_free[p], recv_free[p])``), all
        monotone.  Hence bound ≤ exact start.

        *Upper bound.*  A live message's eq. (6) key is ``max(ready,
        send_free[src], F(src→p)) + w``, the order every evaluator
        serializes in (zero-duration messages sort among them but move
        nothing).  ``K*`` is the largest over
        predecessors of their smallest key; the messages with key ≤ ``K*``
        include every predecessor's first supplier and every message
        serialized before one.  In every contended family message ``j``
        starts at most ``max(C_j, rf)`` with ``C_j = key − w`` its
        committed base and ``rf`` the latest finish on the receiver so
        far (initially ``recv_free[p]``): on one-port and uni-port the
        simulated sender frontiers are finishes of earlier messages,
        dominated by ``rf``; on routed models it is
        ``_eval_routed``'s recurrence ``f = max(key, rf + w)``; on the
        insertion family appending after both timelines' last ends always
        fits, and the scalar frontiers are those last ends.  So every
        first supplier arrives by ``max(recv_free[p], max C) + Σ w`` over
        those messages, inflated by ``(n + 2)·2⁻⁵⁰`` for the rounding of
        ``n`` additions and of the bound's own sum.  No-overlap's compute
        floor adds the same bound over all of a row's messages.  The
        supply merge then runs as for the lower bound.  Macro rows are
        exact.

        Also returns which lower bounds *are* the exact start: every row
        of the macro-dataflow family (``ready + w`` is its exact arrival)
        and every row without a positive-duration remote message; their
        upper bound is the same value.
        """
        st = self._sweep
        kind = self.kind
        view = self._frontiers
        READY = st.ready[tix][..., None]
        W = st.w[tix]
        VALID = st.valid[tix]
        LOCAL = st.local[tix]
        proc_ready = np.asarray(self._proc_ready, dtype=np.float64)

        def merge(arrival):
            supply = np.minimum(LOCAL, arrival)
            return np.maximum(proc_ready, np.maximum(supply.max(axis=1), 0.0))

        if kind == "macro":
            start = merge(np.where(VALID, READY + W, _INF).min(axis=2))
            return start, start, np.ones(start.shape, dtype=bool)
        SRC = st.src[tix]
        send0 = np.asarray(view.send_free, dtype=np.float64)
        recv0 = np.asarray(view.recv_free, dtype=np.float64)
        # every valid message has w > 0 (zero-duration ones are in LOCAL)
        base = np.maximum(READY, send0[SRC][..., None])
        if kind == "routed":
            base = np.maximum(base, self._routemax_matrix()[SRC])
        key = np.where(VALID, base + W, _INF)
        if kind == "insertion":
            lb = np.where(VALID, READY + W, _INF)
        else:
            lb = np.maximum(key, recv0 + W)
        lower = merge(lb.min(axis=2))

        first = key.min(axis=2)
        live = first < _INF
        kstar = np.where(live, first, -_INF).max(axis=1)
        ahead = key <= kstar[:, None, None, :]

        def serialized(msgs):
            top = np.maximum(np.where(msgs, base, -_INF).max(axis=(1, 2)), recv0)
            total = np.where(msgs, W, 0.0).sum(axis=(1, 2))
            n = msgs.sum(axis=(1, 2))
            return (top + total) * (1.0 + (n + 2) * 2.0**-50)

        upper = merge(np.where(live, serialized(ahead)[:, None, :], _INF))
        if kind == "nooverlap":
            lower = np.maximum(lower, np.maximum(send0, recv0))
            upper = np.maximum(upper, np.maximum(send0, serialized(VALID)))
        certified = ~live.any(axis=1)
        upper = np.where(certified, lower, upper)
        return lower, upper, certified

    def kernel_stats(self) -> dict:
        """Observability counters: evaluator family, epoch-cache traffic,
        bounded and pruned sweep rows, and FTBAR's urgency pruning.

        ``cache_hits`` counts (task, proc) rows served exact from the
        epoch cache or the sweep arrays, ``cache_misses`` every row
        evaluated exactly (with or without designated heads);
        ``bound_rows`` counts the pressure- and candidate-sweep rows that
        got a bound instead, and ``pruned_rows`` those of them that were
        never evaluated, so every row of a sweep is a hit, a miss or
        pruned.  In a pressure sweep hits come only from the tasks it
        resolved and misses only from the rows it evaluated (for a
        resolved task, or to cap a pruned one): every other row of a
        pruned task counts as pruned, cached or not, so
        ``cache_hit_rate`` is the hit share of the rows the kernel
        actually looked up.  ``urgency_tasks`` counts the
        free tasks the pressure sweeps saw, ``urgency_pruned`` those left
        unresolved, and ``urgency_fallbacks`` the sweeps whose tie
        certificate failed and resolved every task.
        """
        s = dict(self._stats)
        s["evaluator"] = self.kind
        looked_up = s["cache_hits"] + s["cache_misses"]
        s["cache_hit_rate"] = s["cache_hits"] / looked_up if looked_up else 0.0
        # every exact evaluation is scalar; perfbench's span ledger
        # (spans._add_kernel_stats) still indexes both keys
        s["scalar_rows"] = s["cache_misses"]
        s["batch_rows"] = 0
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
        shared by the routed evaluator (as plain-list columns, through
        :meth:`_frontier_cols`) and the bound passes (as the full
        matrix).
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
        per_link = np.asarray(per_link)
        # A trailing zero gives the last route — the empty diagonal
        # (m-1, m-1) — a start inside the array.  Clamping that start
        # instead would cut the route before it, (m-1, m-2), short by
        # its last hop.  Values are frontiers and epochs, never
        # negative, so the zero cannot win a max.
        vals = np.append(per_link[ids], np.zeros(1, dtype=per_link.dtype))
        seg = indptr[:-1]
        empty = seg == indptr[1:]
        out = np.maximum.reduceat(vals, seg)
        # reduceat yields vals[seg] for an empty segment: zero the empty
        # rows — the diagonal src == dst routes, which no message reads
        out[empty] = 0
        return out.reshape(m, m)

    def _frontier_cols(self, procs: Sequence[int]) -> list[list]:
        """Routed models: per processor in ``procs``, a plain list indexed
        by source of the route-hop maximum a message toward it clears
        beside its sender port (columns of :meth:`_routemax_matrix`, one
        ``tolist`` per commit).  Clique models have no such frontier."""
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

        start = self._proc_ready[proc]
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
        loc, remote = self._collect_messages(proc, entries, heads, None)
        arrival = [_INF] * len(loc)
        if kind == "macro":
            # contention-free: arrivals are order-independent
            for _key, _pred, _index, _src, slot, ready, w in remote:
                f = ready + w
                if f < arrival[slot]:
                    arrival[slot] = f
            return self._finish_trial(task, proc, loc, arrival, 0.0)

        # Serialize the messages against simulated port frontiers.
        # Uniport aliasing needs no special casing: ``send_free`` IS
        # ``recv_free`` there, so ``send0`` reads the shared port and the
        # overlays below touch disjoint indices (src != proc).
        view = self._frontiers
        send0 = view.send_free
        rf = view.recv_free[proc]
        sf_sim: dict[int, float] = {}
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
                f = start + w
                sf_sim[src] = f
                rf = f
            if f < arrival[slot]:
                arrival[slot] = f
        floor = 0.0
        if kind == "nooverlap":
            floor = send0[proc]
            if rf > floor:
                floor = rf
        return self._finish_trial(task, proc, loc, arrival, floor)

    def _collect_messages(self, proc, entries, heads, extra):
        """eq. (6) prologue shared by every evaluator.

        Splits each predecessor's supply into a co-located replica and
        remote messages sorted by their sender-side keys.  ``extra[src]``
        is the per-candidate-processor frontier a message from ``src``
        additionally clears: the route-hop maximum on routed models,
        ``None`` on a clique, whose link never binds beside the sender
        port.  The sender-side bases ``max(ready, send_free[src])`` come
        precomputed per task and commit version
        (:meth:`_TaskEntries.sbase_pools`), so the per-processor work is
        one add (and, routed, one max) per pool entry.  Macro-dataflow
        keys are ``ready + w``; its evaluator ignores the order.
        """
        dcol = self._delay_cols[proc]
        send0 = self._frontiers.send_free
        strict = self._strict
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
                sf = ready if send0 is None else send0[src]
                pool = ((h.index, src, ready),)
                sbases = (sf if sf > ready else ready,)
            else:
                lf_local = locals_[slot].get(proc)
                if lf_local is not None:
                    loc[slot] = lf_local
                    if strict or proc in selfsuff[slot]:
                        continue
                pool = pools[slot]
                sbases = sb_pools[slot]
            vol = vols[slot]
            for (index, src, ready), key in zip(pool, sbases):
                if src == proc:
                    continue
                w = vol * dcol[src]
                if w == 0.0:
                    key = ready
                else:
                    if extra is not None:
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
        by the same first-common-gap scan ``transfer_slot`` runs
        (:func:`repro.comm.base.common_gap`), so nothing is reserved.

        Only the receiver's timeline gets a trial-local copy: every
        simulated message reserves ``recv[proc]``, so the trial's own
        send intervals are a subset of the copy's, and adding a subset
        of another constraint's intervals leaves the least common
        feasible start unchanged.  Senders read their committed
        timelines directly.  A trial whose messages are all local or
        zero-volume copies nothing — the receiver's copy is made for the
        first remote message.
        """
        send_tls = self._frontiers.send_timelines
        loc, remote = self._collect_messages(proc, entries, heads, None)

        arrival = [_INF] * len(entries.preds)
        rs = re_ = None
        for _key, _pred, _index, src, slot, ready, w in remote:
            if w == 0.0:
                f = ready
            else:
                if rs is None:
                    rtl = self._frontiers.recv_timelines[proc]
                    rs = rtl.starts[:]
                    re_ = rtl.ends[:]
                stl = send_tls[src]
                start = common_gap(stl.starts, stl.ends, rs, re_, ready, w)
                f = start + w
                insert_interval(rs, re_, start, f)
            if f < arrival[slot]:
                arrival[slot] = f

        return self._finish_trial(task, proc, loc, arrival, 0.0)
