"""The bi-directional one-port model and its §2 variants.

Bi-directional one-port (the paper's model):

* a processor sends at most one message at a time (send port),
* a processor receives at most one message at a time (receive port),
* a message occupies the link between the two processors for its whole
  duration; links are dedicated per ordered pair (full duplex),
* communication and computation overlap fully.

Resources are granted **append-only**: a transfer starts at the max of the
data-ready time and the three resource free-times, exactly like eqs. (4)
and (6).  An optional insertion-based policy (reuse idle gaps) is provided
for ablation studies; the paper's equations correspond to ``"append"``.

On a clique the link constraint (1) is implied by the port constraints
(2)–(3): the directed link ``src -> dst`` carries only ``src``'s sends, so
every reservation leaves it at the finish that ``send_free[src]`` also
takes, and ``send_free`` never decreases.  Hence ``R(src -> dst) <=
SF(src)`` in every reachable state (rollback only restores earlier ones),
and ``max(ready, SF(src), R(link))`` equals ``max(ready, SF(src))`` bit
for bit.  The models therefore keep no link frontier at all; the
validator still checks every directed link independently.
"""

from __future__ import annotations

import bisect
from typing import Literal

from repro.comm.base import (
    FrontierView,
    KernelCaps,
    NetworkModel,
    common_gap,
    insert_interval,
)
from repro.platform.platform import Platform
from repro.utils.errors import InvalidPlatformError

PortPolicy = Literal["append", "insertion"]


class _GapTimeline:
    """Busy intervals on one port, for the ``insertion`` policy.

    Kept as split ``starts`` / ``ends`` lists sorted by start (the
    intervals are disjoint, so ends are sorted too): the exact input of
    :func:`repro.comm.base.common_gap`, which the network and the fast
    kernel's trials both scan with no conversion.  Plain lists on
    purpose: at the tens-of-intervals sizes real timelines reach,
    C-backed ``bisect``/``list.insert`` beat ndarray scalar indexing by
    a wide margin.
    """

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def reserve(self, start: float, finish: float) -> None:
        insert_interval(self.starts, self.ends, start, finish)

    def release(self, start: float, finish: float) -> None:
        starts, ends = self.starts, self.ends
        i = bisect.bisect_left(starts, start)
        while ends[i] != finish:
            i += 1
        del starts[i]
        del ends[i]


class OnePortNetwork(NetworkModel):
    """Bi-directional one-port state: send and receive ports.

    The dedicated ``src -> dst`` links need no state of their own: a
    link's frontier never exceeds its sender's ``send_free`` (append:
    ``finish >= send_free[src]`` and both take ``finish``; insertion,
    uni-port and no-overlap: running maxima), and under the insertion
    policy its busy intervals are a subset of the sender's (see the
    module docstring).
    """

    name = "oneport"

    def __init__(self, platform: Platform, policy: PortPolicy = "append") -> None:
        super().__init__(platform)
        if policy not in ("append", "insertion"):
            raise InvalidPlatformError(f"unknown port policy {policy!r}")
        self.policy: PortPolicy = policy
        m = platform.num_procs
        self._m = m
        # Plain nested lists beat numpy scalar indexing in the hot loop.
        self._delay = platform.delay_matrix.tolist()
        # Append policy state: scalar free-times per port (no link
        # frontier: it never exceeds the sender's send_free).
        self._send_free = [0.0] * m
        self._recv_free = [0.0] * m
        # Insertion policy state: busy timelines per port.  A directed
        # link carries only its sender's messages, so its intervals are a
        # subset of the sender's and it needs no timeline of its own.
        self._send_tl = [_GapTimeline() for _ in range(m)] if policy == "insertion" else []
        self._recv_tl = [_GapTimeline() for _ in range(m)] if policy == "insertion" else []
        # Undo log: ("scalar", which, idx, old) or ("interval", timeline, s, f)
        self._log: list[tuple] = []
        self._view: FrontierView | None = None

    def clone_args(self) -> tuple:
        return (self.platform, self.policy)

    # ------------------------------------------------------------------
    # Resource-frontier protocol
    # ------------------------------------------------------------------
    def kernel_caps(self) -> KernelCaps | None:
        if type(self) is not OnePortNetwork:
            return None  # subclasses must re-declare (see NetworkModel)
        return KernelCaps(gap_timelines=(self.policy == "insertion"))

    def frontier_view(self) -> FrontierView:
        if self._view is None:
            self._view = FrontierView(
                self.platform.delay_matrix,
                send_free=self._send_free,
                recv_free=self._recv_free,
                send_timelines=self._send_tl or None,
                recv_timelines=self._recv_tl or None,
            )
        return self._view

    def undo_depth(self) -> int:
        return len(self._log)

    # ------------------------------------------------------------------
    def send_free(self, proc: int) -> float:
        """The paper's ``SF(P)``: when ``proc`` may start its next send."""
        return self._send_free[proc]

    def recv_free(self, proc: int) -> float:
        """The paper's ``RF(P)``: when ``proc`` may start its next receive."""
        return self._recv_free[proc]

    # ------------------------------------------------------------------
    def sender_bound(self, src: int, dst: int, ready: float, volume: float) -> float:
        if src == dst:
            return ready
        w = volume * self._delay[src][dst]
        if w == 0.0:
            return ready
        sf = self._send_free[src]
        return (sf if sf > ready else ready) + w

    def transfer_slot(
        self, src: int, dst: int, ready: float, volume: float
    ) -> tuple[float, float]:
        if src == dst:
            return ready, ready
        w = volume * self._delay[src][dst]
        if w == 0.0:
            return ready, ready
        if self.policy == "insertion":
            stl = self._send_tl[src]
            rtl = self._recv_tl[dst]
            start = common_gap(stl.starts, stl.ends, rtl.starts, rtl.ends, ready, w)
        else:
            start = max(ready, self._send_free[src], self._recv_free[dst])
        return start, start + w

    def reserve_transfer(
        self,
        src: int,
        dst: int,
        volume: float,
        start: float,
        finish: float,
        logged: bool = False,
    ) -> None:
        if src == dst or volume * self._delay[src][dst] == 0.0:
            return
        log = self._log
        if self.policy == "insertion":
            for tl in (self._send_tl[src], self._recv_tl[dst]):
                tl.reserve(start, finish)
                if logged:
                    log.append(("interval", tl, start, finish))
            # Keep scalar frontiers coherent for sender_bound()/inspection.
            for which, idx, arr in (("send", src, self._send_free),
                                    ("recv", dst, self._recv_free)):
                if finish > arr[idx]:
                    if logged:
                        log.append(("scalar", which, idx, arr[idx]))
                    arr[idx] = finish
            return
        send_free = self._send_free
        recv_free = self._recv_free
        if logged:
            log.append(("scalar", "send", src, send_free[src]))
        send_free[src] = finish
        if logged:
            log.append(("scalar", "recv", dst, recv_free[dst]))
        recv_free[dst] = finish

    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        return len(self._log)

    def rollback(self, token: int) -> None:
        while len(self._log) > token:
            entry = self._log.pop()
            if entry[0] == "scalar":
                _kind, which, idx, old = entry
                self._scalar_array(which)[idx] = old
            else:
                _kind, tl, s, f = entry
                tl.release(s, f)

    def commit(self) -> None:
        self._log.clear()

    def reset(self) -> None:
        m = self._m
        self._send_free = [0.0] * m
        self._recv_free = [0.0] * m
        if self.policy == "insertion":
            self._send_tl = [_GapTimeline() for _ in range(m)]
            self._recv_tl = [_GapTimeline() for _ in range(m)]
        self._log.clear()
        self._view = None  # reset rebinds the state lists

    def _scalar_array(self, which: str) -> list[float]:
        return self._send_free if which == "send" else self._recv_free


class UniPortNetwork(OnePortNetwork):
    """Uni-directional one-port (§2 variant): one shared port per processor.

    A processor cannot send and receive simultaneously — both directions
    contend for a single engine.  Implemented by aliasing the send and
    receive free-times through a shared port array.
    """

    name = "uniport"

    def __init__(self, platform: Platform) -> None:
        super().__init__(platform, policy="append")
        # One engine per processor: make send/recv views of the same list.
        self._recv_free = self._send_free

    def clone_args(self) -> tuple:
        return (self.platform,)

    def kernel_caps(self) -> KernelCaps | None:
        if type(self) is not UniPortNetwork:
            return None  # subclasses must re-declare (see NetworkModel)
        return KernelCaps(shared_port=True)

    def reset(self) -> None:
        super().reset()
        self._recv_free = self._send_free

    def _scalar_array(self, which: str) -> list[float]:
        return self._send_free


class NoOverlapOnePortNetwork(OnePortNetwork):
    """One-port without communication/computation overlap (§2 variant).

    A processor engaged in a transfer cannot compute, and vice versa.  The
    schedule builder reports computations via :meth:`note_compute`; the
    model advances the ports past them, and exposes the communication
    frontier to the builder through :meth:`compute_floor`.
    """

    name = "oneport-nooverlap"

    def __init__(self, platform: Platform) -> None:
        super().__init__(platform, policy="append")

    def clone_args(self) -> tuple:
        return (self.platform,)

    def kernel_caps(self) -> KernelCaps | None:
        if type(self) is not NoOverlapOnePortNetwork:
            return None  # subclasses must re-declare (see NetworkModel)
        return KernelCaps(compute_blocks=True)

    def compute_floor(self, proc: int) -> float:
        return max(self._send_free[proc], self._recv_free[proc])

    def note_compute(self, proc: int, start: float, finish: float) -> None:
        for which, arr in (("send", self._send_free), ("recv", self._recv_free)):
            if finish > arr[proc]:
                self._log.append(("scalar", which, proc, arr[proc]))
                arr[proc] = finish
