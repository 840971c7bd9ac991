"""Reference clique models that keep the paper's link constraint (1) literally.

The production one-port models (:mod:`repro.comm.oneport`) keep no link
frontier: on a clique the ``src -> dst`` link carries only ``src``'s
sends, so its frontier never exceeds ``send_free[src]``.  These test-only
models keep a per-directed-link frontier ``R(src -> dst)`` the way the
paper states it, with ``sender_bound = max(ready, SF(src), R(l)) + w``
and ``start = max(ready, SF(src), RF(dst), R(l))``, undo-logged like the
ports.  ``tests/comm/test_link_dominance.py`` checks that they agree
with the production models bit for bit.

They declare no kernel capabilities, so a scheduler given one runs the
exact reserve-and-rollback path.
"""

from __future__ import annotations

from repro.comm.oneport import (
    NoOverlapOnePortNetwork,
    OnePortNetwork,
    UniPortNetwork,
)


class _LinkFrontiers:
    """Mixin over a one-port model: adds the ``m * m`` link frontiers."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._link_free = [0.0] * (self._m * self._m)

    def kernel_caps(self):
        return None  # exact path only

    def link_ready(self, src: int, dst: int) -> float:
        """The paper's ``R(l)`` for the directed link ``src -> dst``."""
        return self._link_free[src * self._m + dst]

    def sender_bound(self, src, dst, ready, volume):
        if src == dst:
            return ready
        w = volume * self._delay[src][dst]
        if w == 0.0:
            return ready
        return max(ready, self._send_free[src], self._link_free[src * self._m + dst]) + w

    def transfer_slot(self, src, dst, ready, volume):
        if self.policy == "insertion":
            # the gap scan reads only the port timelines
            return super().transfer_slot(src, dst, ready, volume)
        if src == dst:
            return ready, ready
        w = volume * self._delay[src][dst]
        if w == 0.0:
            return ready, ready
        li = src * self._m + dst
        start = max(ready, self._send_free[src], self._recv_free[dst], self._link_free[li])
        return start, start + w

    def reserve_transfer(self, src, dst, volume, start, finish, logged=False):
        super().reserve_transfer(src, dst, volume, start, finish, logged)
        if src == dst or volume * self._delay[src][dst] == 0.0:
            return
        li = src * self._m + dst
        if self.policy == "insertion" and finish <= self._link_free[li]:
            return
        if logged:
            self._log.append(("scalar", "link", li, self._link_free[li]))
        self._link_free[li] = finish

    def reset(self) -> None:
        super().reset()
        self._link_free = [0.0] * (self._m * self._m)

    def _scalar_array(self, which):
        if which == "link":
            return self._link_free
        return super()._scalar_array(which)


class LinkedOnePortNetwork(_LinkFrontiers, OnePortNetwork):
    """:class:`OnePortNetwork` (append or insertion) with link frontiers."""


class LinkedUniPortNetwork(_LinkFrontiers, UniPortNetwork):
    """:class:`UniPortNetwork` with link frontiers."""


class LinkedNoOverlapNetwork(_LinkFrontiers, NoOverlapOnePortNetwork):
    """:class:`NoOverlapOnePortNetwork` with link frontiers."""


def production_and_reference(variant: str, platform):
    """A fresh ``(production, reference)`` model pair for ``variant``:
    ``append``, ``insertion``, ``uniport`` or ``nooverlap``."""
    if variant == "append":
        return OnePortNetwork(platform), LinkedOnePortNetwork(platform)
    if variant == "insertion":
        return (
            OnePortNetwork(platform, policy="insertion"),
            LinkedOnePortNetwork(platform, policy="insertion"),
        )
    if variant == "uniport":
        return UniPortNetwork(platform), LinkedUniPortNetwork(platform)
    if variant == "nooverlap":
        return NoOverlapOnePortNetwork(platform), LinkedNoOverlapNetwork(platform)
    raise ValueError(variant)


VARIANTS = ("append", "insertion", "uniport", "nooverlap")
