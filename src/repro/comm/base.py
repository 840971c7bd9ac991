"""Network-model interface shared by all communication models.

A *network model* is the mutable resource state a scheduler builds a
schedule against: which communication ports/links are busy until when.
Schedulers repeatedly *try* placements ("simulate the mapping of ti on
every processor", paper §5) before committing the best one, so the
interface is built around cheap **checkpoint / rollback** via an undo log
rather than deep copies.

Concrete models:

* :class:`repro.comm.oneport.OnePortNetwork` — the paper's bi-directional
  one-port model (eqs. (1)–(6));
* :class:`repro.comm.oneport.UniPortNetwork` — the uni-directional variant
  mentioned in §2 (one shared port per processor);
* :class:`repro.comm.oneport.NoOverlapOnePortNetwork` — the "no
  communication/computation overlap" variant of §2;
* :class:`repro.comm.macrodataflow.MacroDataflowNetwork` — the classical
  contention-free model;
* :class:`repro.comm.routed.RoutedOnePortNetwork` — sparse topologies with
  static routes (§7 extension).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.platform.platform import Platform


@dataclass(frozen=True)
class KernelCaps:
    """A network model's declaration of its contended-resource algebra.

    The fast placement kernel (:mod:`repro.schedule.kernel`) dispatches
    purely on these flags — it never inspects concrete model types.  A
    model that returns ``None`` from :meth:`NetworkModel.kernel_caps`
    opts out and schedulers fall back to the exact reserve-and-rollback
    path.

    Flags describe *which* resources serialize a transfer:

    * ``contention`` — send/receive ports and links exist at all
      (``False`` = the contention-free macro-dataflow algebra: a
      transfer starts the instant its data is ready).
    * ``shared_port`` — one engine per processor: the send and receive
      frontiers alias each other (the uni-directional §2 variant).
    * ``compute_blocks`` — computation occupies the ports, so the
      communication frontier feeds the compute floor (§2 no-overlap
      variant).
    * ``gap_timelines`` — reservations may be inserted into idle gaps;
      trials must consult the per-resource busy-interval timelines, not
      just the scalar frontiers (``OnePortNetwork(policy="insertion")``).
    * ``routed`` — transfers hold *every* physical link along a static
      route (§7 sparse topologies); serialization takes the max over the
      per-hop frontiers instead of a single link scalar.
    """

    contention: bool = True
    shared_port: bool = False
    compute_blocks: bool = False
    gap_timelines: bool = False
    routed: bool = False


def earliest_gap(intervals, ready: float, duration: float) -> float:
    """First feasible start for ``duration`` in a sorted busy-interval list.

    The single implementation of the gap scan: gap-timeline models run
    it over their own reservations and the fast kernel runs it over
    trial-local overlay copies — bit-identity between the two paths
    depends on them sharing this function.
    """
    t = ready
    for s, f in intervals:
        if t + duration <= s:
            return t
        t = max(t, f)
    return t


def common_gap_start(interval_lists, ready: float, duration: float) -> float:
    """Earliest start at which *every* resource has a common free gap.

    Scans upward from ``ready`` until a fixed point: each resource's
    ``earliest_gap`` from the current candidate leaves the candidate
    unchanged.  Terminates because every step strictly increases the
    candidate and intervals are finite.
    """
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


class FrontierView:
    """Live references into a model's *committed* resource frontiers.

    The uniform read surface of the resource-frontier protocol: the fast
    kernel simulates eq. (6) serialization against these structures
    without touching the model's undo log.  All references are live —
    they alias the model's own state, so committed reservations are
    visible immediately and the view never needs rebuilding (models
    invalidate their cached view on :meth:`NetworkModel.reset`, which
    rebinds the underlying lists).

    Fields (unused ones are ``None`` / empty for a given model):

    * ``delay`` — the model platform's unit-delay matrix as nested
      lists (for routed models these are the end-to-end route delays);
      ``delay_np`` is the same matrix as the read-only ndarray.
    * ``send_free`` / ``recv_free`` — per-processor scalar port
      frontiers (aliased for shared-port models).
    * ``link_free`` — directed-link scalar frontiers: a flat
      ``m * m`` list indexed ``src * m + dst`` for clique models, or a
      per-directed-physical-link list indexed by hop id for routed
      models (``num_links`` entries, hop ids from ``route_hops``).
    * ``route_hops`` — routed models only: ``route_hops[src][dst]`` is
      the tuple of directed hop ids the transfer reserves.
    * ``send_timelines`` / ``recv_timelines`` / ``link_timelines`` —
      gap-timeline models only: per-resource sorted busy-interval lists
      (each entry exposes ``.intervals`` plus versioned
      ``.gap_vectors()`` split start/end mirrors), indexed like the
      scalars.

    Derived accessors for the kernel (both lazily built and cached):

    * :meth:`hop_csr` — routed models: ``route_hops`` flattened into one
      CSR pair ``(indptr, hop_ids)`` over ``src * m + dst`` rows, so a
      per-pair hop maximum is one ``np.maximum.reduceat`` instead of
      ``m²`` Python loops.
    * :meth:`gap_arrays` — gap-timeline models: the ``(starts, ends)``
      split-vector mirror of one resource's busy intervals.
    """

    __slots__ = (
        "delay",
        "delay_np",
        "send_free",
        "recv_free",
        "link_free",
        "route_hops",
        "num_links",
        "send_timelines",
        "recv_timelines",
        "link_timelines",
        "_hop_csr",
    )

    def __init__(
        self,
        delay_np,
        send_free=None,
        recv_free=None,
        link_free=None,
        route_hops=None,
        num_links=0,
        send_timelines=None,
        recv_timelines=None,
        link_timelines=None,
        hop_csr=None,
    ) -> None:
        self.delay_np = delay_np
        self.delay = delay_np.tolist()
        self.send_free = send_free
        self.recv_free = recv_free
        self.link_free = link_free
        self.route_hops = route_hops
        self.num_links = num_links
        self.send_timelines = send_timelines
        self.recv_timelines = recv_timelines
        self.link_timelines = link_timelines
        self._hop_csr = hop_csr

    def hop_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``route_hops`` as one flat CSR: ``(indptr, hop_ids)``.

        Row ``src * m + dst`` spans ``hop_ids[indptr[row]:indptr[row+1]]``
        — the directed hop ids of the static ``src -> dst`` route (empty
        on the diagonal).  Models may pass a precomputed pair (shared by
        every clone over the same topology); otherwise it is flattened
        from ``route_hops`` on first use.
        """
        if self._hop_csr is None:
            if self.route_hops is None:
                raise ValueError("hop_csr() needs a routed frontier view")
            indptr = [0]
            ids: list[int] = []
            for row in self.route_hops:
                for hops in row:
                    ids.extend(hops)
                    indptr.append(len(ids))
            self._hop_csr = (
                np.asarray(indptr, dtype=np.int64),
                np.asarray(ids, dtype=np.int64),
            )
        return self._hop_csr

    def gap_arrays(self, which: str, idx: int) -> tuple[list[float], list[float]]:
        """The split ``(starts, ends)`` mirror of one busy timeline.

        ``which`` is ``"send"``/``"recv"``/``"link"``; ``idx`` indexes
        like the scalar frontiers.  Plain lists, not ndarrays: at the
        tens-of-intervals sizes timelines reach, C-backed ``bisect``
        beats ndarray scalar indexing by ~5-10x in the overlay replay.
        Vectors are cached per timeline version, so repeated trials
        between commits share one build.
        """
        tl = getattr(self, f"{which}_timelines")[idx]
        return tl.gap_vectors()


class NetworkModel(ABC):
    """Mutable communication-resource state over a :class:`Platform`."""

    #: short machine name used by factories/reports (subclasses override)
    name: str = "abstract"

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    # ------------------------------------------------------------------
    # Static quantities
    # ------------------------------------------------------------------
    def transfer_time(self, src: int, dst: int, volume: float) -> float:
        """Duration ``W = volume * d(src, dst)`` of a transfer (0 if local)."""
        if src == dst:
            return 0.0
        return volume * self.platform.delay(src, dst)

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------
    def clone_args(self) -> tuple:
        """Constructor arguments that rebuild an identical *empty* model.

        Subclasses whose ``__init__`` takes more than the platform (a
        policy, a topology, ...) override this so ``clone_factory`` —
        and anything that replays schedules against a fresh network —
        reconstructs them with their configuration intact.
        """
        return (self.platform,)

    def clone_factory(self):
        """A callable producing identical empty copies of this model."""
        cls = type(self)
        args = self.clone_args()
        return lambda: cls(*args)

    # ------------------------------------------------------------------
    # Resource-frontier protocol (fast-kernel support)
    # ------------------------------------------------------------------
    def kernel_caps(self) -> Optional[KernelCaps]:
        """Declare the contended-resource algebra for the fast kernel.

        ``None`` (the default) means the model does not participate in
        the protocol: schedulers with ``fast=True`` fall back to the
        exact reserve-and-rollback path (with a one-time warning).
        Subclasses whose resource algebra the kernel can mirror return a
        :class:`KernelCaps` describing it.

        The built-in implementations guard on their **exact** type: a
        user subclass inherits ``None``, not the parent's capabilities,
        because overriding any placement method would silently
        desynchronize the kernel from the model.  A subclass that keeps
        the parent's transfer semantics opts back in by overriding this
        method itself.
        """
        return None

    def frontier_view(self) -> Optional[FrontierView]:
        """The live :class:`FrontierView` over this model's state.

        Must be implemented (returning a non-``None`` view) by every
        model whose :meth:`kernel_caps` is not ``None``.  Views alias
        the committed state, so implementations cache them and
        invalidate the cache whenever :meth:`reset` rebinds state.
        """
        return None

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def undo_depth(self) -> int:
        """Number of pending undo-log entries (0 for log-less models).

        Purely diagnostic: schedulers assert it returns to the
        checkpoint token after a rollback, and monitoring can watch it
        to catch reservation leaks.
        """
        return 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    @abstractmethod
    def place_transfer(
        self, src: int, dst: int, ready: float, volume: float
    ) -> tuple[float, float]:
        """Reserve resources for one transfer and return ``(start, finish)``.

        ``ready`` is the earliest moment the data exists on ``src`` (the
        finish time of the producing replica).  The returned ``start``
        satisfies every model constraint (ports, links) and ``finish =
        start + W``.  Local transfers (``src == dst``) cost nothing and
        reserve nothing.  The reservation is recorded in the undo log.
        """

    @abstractmethod
    def sender_bound(self, src: int, dst: int, ready: float, volume: float) -> float:
        """Earliest finish of a transfer ignoring receiver-side constraints.

        This is the sort key of the paper's eq. (6): messages are serialized
        at the reception site "by non-decreasing order of their
        communication finish time on the links", i.e. of their sender-side
        constrained finish.  Pure query — no state change.
        """

    # ------------------------------------------------------------------
    # Compute coupling (only the no-overlap variant uses these)
    # ------------------------------------------------------------------
    def compute_floor(self, proc: int) -> float:
        """Earliest time a computation may start on ``proc`` as far as the
        communication engine is concerned (0 unless comm blocks compute)."""
        return 0.0

    def note_compute(self, proc: int, start: float, finish: float) -> None:
        """Inform the model that ``proc`` computes during ``[start, finish]``."""

    # ------------------------------------------------------------------
    # Undo log
    # ------------------------------------------------------------------
    @abstractmethod
    def checkpoint(self) -> int:
        """Return a token capturing the current state (undo-log length)."""

    @abstractmethod
    def rollback(self, token: int) -> None:
        """Undo every reservation made after ``token`` was taken."""

    @abstractmethod
    def commit(self) -> None:
        """Drop the undo log (reservations become permanent)."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all reservations (fresh network)."""
