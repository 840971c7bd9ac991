"""One-port communication over sparse interconnects (paper §7 extension).

"On such platforms, each processor is provided with a routing table ...
to achieve contention awareness, at most one message can circulate on a
given link at a given time-step."  A transfer from ``src`` to ``dst``
follows the precomputed shortest-delay route and holds **every** physical
link of the route (in its travel direction) for the whole transfer, plus
the endpoints' send/receive ports — a circuit-switched reading of the
paper's sentence that keeps the algebra identical to the clique case.

Directed physical links are numbered once at construction (*hop ids*);
all frontiers live in flat lists indexed by processor or hop id, and the
per-pair hop tuples are precomputed — both this model's hot loop and the
fast kernel's route-aware evaluator read the same structures through the
resource-frontier protocol (:meth:`frontier_view`).
"""

from __future__ import annotations

from repro.comm.base import FrontierView, KernelCaps, NetworkModel
from repro.platform.topology import Topology


class RoutedOnePortNetwork(NetworkModel):
    """Send/receive ports per processor plus per-directed-link occupancy."""

    name = "routed-oneport"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology.to_platform())
        self.topology = topology
        m = topology.num_procs
        self._send_free = [0.0] * m
        self._recv_free = [0.0] * m
        # Directed physical links (full duplex => one id per direction)
        # and per-pair hop routes — cached on the immutable topology, so
        # clones (one per crash-replay scenario) share the tables and
        # only the frontier lists are fresh.
        self._hop_id, self._route_hops = topology.directed_hop_tables()
        self._link_free = [0.0] * len(self._hop_id)
        self._log: list[tuple] = []
        self._view: FrontierView | None = None

    def clone_args(self) -> tuple:
        return (self.topology,)

    # ------------------------------------------------------------------
    # Resource-frontier protocol
    # ------------------------------------------------------------------
    def kernel_caps(self) -> KernelCaps | None:
        if type(self) is not RoutedOnePortNetwork:
            return None  # subclasses must re-declare (see NetworkModel)
        return KernelCaps(routed=True)

    def frontier_view(self) -> FrontierView:
        if self._view is None:
            self._view = FrontierView(
                self.platform.delay_matrix,
                send_free=self._send_free,
                recv_free=self._recv_free,
                link_free=self._link_free,
                route_hops=self._route_hops,
                num_links=len(self._link_free),
                # flat hop CSR is cached on the immutable topology, so
                # every clone's view shares one build (crash replay makes
                # a clone per scenario)
                hop_csr=self.topology.hop_csr(),
            )
        return self._view

    def undo_depth(self) -> int:
        return len(self._log)

    # ------------------------------------------------------------------
    def sender_bound(self, src: int, dst: int, ready: float, volume: float) -> float:
        if src == dst:
            return ready
        w = self.transfer_time(src, dst, volume)
        if w == 0.0:
            return ready
        link_free = self._link_free
        start = max(
            ready,
            self._send_free[src],
            max(link_free[h] for h in self._route_hops[src][dst]),
        )
        return start + w

    def transfer_slot(
        self, src: int, dst: int, ready: float, volume: float
    ) -> tuple[float, float]:
        if src == dst:
            return ready, ready
        w = self.transfer_time(src, dst, volume)
        if w == 0.0:
            return ready, ready
        link_free = self._link_free
        start = max(
            ready,
            self._send_free[src],
            self._recv_free[dst],
            max(link_free[h] for h in self._route_hops[src][dst]),
        )
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
        if src == dst or self.transfer_time(src, dst, volume) == 0.0:
            return
        hops = self._route_hops[src][dst]
        link_free = self._link_free
        if logged:
            log = self._log
            log.append(("send", src, self._send_free[src]))
            log.append(("recv", dst, self._recv_free[dst]))
            log.extend([("link", h, link_free[h]) for h in hops])
        self._send_free[src] = finish
        self._recv_free[dst] = finish
        for h in hops:
            link_free[h] = finish

    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        return len(self._log)

    def rollback(self, token: int) -> None:
        while len(self._log) > token:
            which, idx, old = self._log.pop()
            if which == "send":
                self._send_free[idx] = old
            elif which == "recv":
                self._recv_free[idx] = old
            else:
                self._link_free[idx] = old

    def commit(self) -> None:
        self._log.clear()

    def reset(self) -> None:
        m = self.topology.num_procs
        self._send_free = [0.0] * m
        self._recv_free = [0.0] * m
        self._link_free = [0.0] * len(self._hop_id)
        self._log.clear()
        self._view = None  # reset rebinds the state lists
