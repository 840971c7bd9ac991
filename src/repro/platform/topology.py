"""Sparse interconnection topologies with static routing (paper §7 extension).

The paper's core model assumes a clique.  Its conclusion sketches the
extension to sparse interconnects: each processor owns a routing table, and
contention awareness requires that at most one message crosses a given
physical link at a time.  :class:`Topology` captures the physical graph and
precomputes deterministic shortest-delay routes; the routed communication
model (:mod:`repro.comm.routed`) then reserves every link along a route.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from repro.platform.platform import Platform
from repro.utils.errors import InvalidPlatformError

Link = tuple[int, int]


class Topology:
    """A connected physical interconnect over ``m`` processors.

    Parameters
    ----------
    num_procs:
        Number of processors.
    links:
        Iterable of ``(a, b, delay)`` physical links; ``delay`` is the unit
        delay of the link.  Links are bidirectional (full-duplex), matching
        the paper's network-interface assumptions.
    """

    def __init__(self, num_procs: int, links: Iterable[tuple[int, int, float]]) -> None:
        if num_procs < 1:
            raise InvalidPlatformError("a topology needs at least one processor")
        self.num_procs = int(num_procs)
        self._adj: list[list[tuple[int, float]]] = [[] for _ in range(num_procs)]
        self._link_delay: dict[Link, float] = {}
        for a, b, delay in links:
            a, b = int(a), int(b)
            if not (0 <= a < num_procs and 0 <= b < num_procs) or a == b:
                raise InvalidPlatformError(f"bad link ({a}, {b})")
            delay = float(delay)
            if delay <= 0:
                raise InvalidPlatformError(f"link ({a}, {b}) needs positive delay")
            key = (min(a, b), max(a, b))
            if key in self._link_delay:
                raise InvalidPlatformError(f"duplicate link {key}")
            self._link_delay[key] = delay
            self._adj[a].append((b, delay))
            self._adj[b].append((a, delay))
        self._routes = self._compute_routes()
        self._platform: Optional[Platform] = None
        self._hop_tables: Optional[tuple] = None
        self._hop_csr: Optional[tuple] = None

    # ------------------------------------------------------------------
    def _compute_routes(self) -> list[list[tuple[int, ...]]]:
        """All-pairs shortest-delay routes (Dijkstra, smallest-id tie break)."""
        m = self.num_procs
        routes: list[list[tuple[int, ...]]] = [[() for _ in range(m)] for _ in range(m)]
        for src in range(m):
            dist = [float("inf")] * m
            parent: list[Optional[int]] = [None] * m
            dist[src] = 0.0
            heap: list[tuple[float, int]] = [(0.0, src)]
            visited = [False] * m
            while heap:
                d, node = heapq.heappop(heap)
                if visited[node]:
                    continue
                visited[node] = True
                for nxt, w in sorted(self._adj[node]):
                    nd = d + w
                    if nd < dist[nxt] - 1e-15:
                        dist[nxt] = nd
                        parent[nxt] = node
                        heapq.heappush(heap, (nd, nxt))
            for dst in range(m):
                if dst == src:
                    routes[src][dst] = (src,)
                    continue
                if not visited[dst]:
                    raise InvalidPlatformError(
                        f"topology is disconnected: no route {src} -> {dst}"
                    )
                path = [dst]
                while path[-1] != src:
                    prev = parent[path[-1]]
                    assert prev is not None
                    path.append(prev)
                routes[src][dst] = tuple(reversed(path))
        return routes

    # ------------------------------------------------------------------
    def link_delay(self, a: int, b: int) -> float:
        """Unit delay of the physical link between ``a`` and ``b``."""
        try:
            return self._link_delay[(min(a, b), max(a, b))]
        except KeyError:
            raise InvalidPlatformError(f"no physical link ({a}, {b})") from None

    def links(self) -> tuple[Link, ...]:
        """All physical links as ordered ``(min, max)`` pairs."""
        return tuple(self._link_delay)

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Processor path from ``src`` to ``dst`` (inclusive)."""
        return self._routes[src][dst]

    def route_links(self, src: int, dst: int) -> tuple[Link, ...]:
        """Physical links crossed by the ``src -> dst`` route."""
        path = self._routes[src][dst]
        return tuple((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))

    def effective_delay_matrix(self) -> np.ndarray:
        """End-to-end unit delays: sum of link delays along each route.

        Filled along each source's shortest-path tree in order of route
        length: a route is its parent's route plus one link, so
        ``d[src][dst] = d[src][parent] + link_delay(parent, dst)``
        repeats ``sum``'s left-to-right additions from int ``0`` — the
        same floats with one addition per pair instead of one per hop.
        """
        m = self.num_procs
        d = np.zeros((m, m))
        for src in range(m):
            routes = self._routes[src]
            row = [0] * m
            for dst in sorted(range(m), key=lambda x: len(routes[x])):
                path = routes[dst]
                if len(path) > 1:
                    row[dst] = row[path[-2]] + self.link_delay(path[-2], dst)
            d[src] = row
        return d

    def to_platform(self) -> Platform:
        """A :class:`Platform` whose delays are the end-to-end route delays.

        Cached: the topology is immutable and every clone of a routed
        network (one per crash-replay scenario) asks for it again.
        """
        if self._platform is None:
            self._platform = Platform(self.effective_delay_matrix())
        return self._platform

    def directed_hop_tables(self) -> tuple[dict[tuple[int, int], int], list]:
        """Directed-hop ids and per-pair hop routes (cached).

        Returns ``(hop_id, route_hops)`` where ``hop_id[(a, b)]`` numbers
        each directed physical link and ``route_hops[src][dst]`` is the
        tuple of hop ids the ``src -> dst`` route crosses.  Shared by
        every routed network over this topology — clones only need fresh
        frontier lists, not a rebuild of the routing tables.
        """
        if self._hop_tables is None:
            hop_id: dict[tuple[int, int], int] = {}
            for a, b in self.links():
                hop_id[(a, b)] = len(hop_id)
                hop_id[(b, a)] = len(hop_id)
            m = self.num_procs
            route_hops = [
                [
                    tuple(
                        hop_id[(a, b)]
                        for a, b in zip(self.route(s, d), self.route(s, d)[1:])
                    )
                    for d in range(m)
                ]
                for s in range(m)
            ]
            self._hop_tables = (hop_id, route_hops)
        return self._hop_tables

    def hop_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``route_hops`` flattened to CSR ``(indptr, hop_ids)`` (cached).

        Row ``src * m + dst`` spans the directed hop ids of the
        ``src -> dst`` route (empty on the diagonal).  The vectorized
        route-aware evaluator turns the per-pair hop maximum into one
        ``np.maximum.reduceat`` over this layout; caching it here (the
        topology is immutable) means routed-network clones share it.
        """
        if self._hop_csr is None:
            _hop_id, route_hops = self.directed_hop_tables()
            indptr = [0]
            ids: list[int] = []
            for row in route_hops:
                for hops in row:
                    ids.extend(hops)
                    indptr.append(len(ids))
            self._hop_csr = (
                np.asarray(indptr, dtype=np.int64),
                np.asarray(ids, dtype=np.int64),
            )
        return self._hop_csr

    # ------------------------------------------------------------------
    # Standard shapes
    # ------------------------------------------------------------------
    @classmethod
    def clique(cls, m: int, delay: float = 1.0) -> "Topology":
        return cls(m, [(a, b, delay) for a in range(m) for b in range(a + 1, m)])

    @classmethod
    def ring(cls, m: int, delay: float = 1.0) -> "Topology":
        if m < 3:
            raise InvalidPlatformError("a ring needs at least 3 processors")
        return cls(m, [(i, (i + 1) % m, delay) for i in range(m)])

    @classmethod
    def line(cls, m: int, delay: float = 1.0) -> "Topology":
        if m < 2:
            raise InvalidPlatformError("a line needs at least 2 processors")
        return cls(m, [(i, i + 1, delay) for i in range(m - 1)])

    @classmethod
    def star(cls, m: int, delay: float = 1.0) -> "Topology":
        if m < 2:
            raise InvalidPlatformError("a star needs at least 2 processors")
        return cls(m, [(0, i, delay) for i in range(1, m)])

    @classmethod
    def mesh2d(cls, rows: int, cols: int, delay: float = 1.0) -> "Topology":
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise InvalidPlatformError("mesh needs at least 2 processors")
        links = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    links.append((node, node + 1, delay))
                if r + 1 < rows:
                    links.append((node, node + cols, delay))
        return cls(rows * cols, links)

    @classmethod
    def torus(cls, rows: int, cols: int, delay: float = 1.0) -> "Topology":
        """2D mesh with wraparound links in both dimensions.

        A dimension of size 2 already connects its endpoints (the wrap
        link would duplicate the mesh link) and a dimension of size 1
        has no links at all, so wraps are added only for sizes ≥ 3 —
        a ``1 × m`` torus degenerates to a ring, a ``2 × 2`` torus to
        the square mesh.
        """
        if rows < 1 or cols < 1 or rows * cols < 3:
            raise InvalidPlatformError("a torus needs at least 3 processors")
        links = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    links.append((node, node + 1, delay))
                if r + 1 < rows:
                    links.append((node, node + cols, delay))
            if cols >= 3:
                links.append((r * cols + cols - 1, r * cols, delay))
        if rows >= 3:
            for c in range(cols):
                links.append(((rows - 1) * cols + c, c, delay))
        return cls(rows * cols, links)

    @classmethod
    def fat_tree(cls, pods: int, pod_size: int, delay: float = 1.0) -> "Topology":
        """Processor-level fat-tree: pods of processors over a core fabric.

        Pod ``p`` holds processors ``[p * pod_size, (p + 1) * pod_size)``
        as a clique of intra-pod links (one ToR/leaf hop); the first
        processor of each pod doubles as the pod's uplink, and the
        uplinks form a clique modelling the aggregation/core fabric —
        switches are not modelled as nodes, their traversal is folded
        into link delays, matching the torus/star convention.  Routes
        are therefore 1 hop intra-pod and at most 3 hops (member →
        uplink → uplink → member) across pods, the rearrangeable
        full-bisection property fat-tree/Clos fabrics are built for.

        Closed-form metrics (validated in the tests against the
        Benes/Clos characterization): ``pods * pod_size`` nodes,
        ``pods * C(pod_size, 2) + C(pods, 2)`` links, hop-diameter
        ``min(3, ...)`` and route delay at most ``3 * delay``.
        """
        if pods < 1 or pod_size < 1 or pods * pod_size < 2:
            raise InvalidPlatformError(
                "a fat-tree needs at least 2 processors"
            )
        links = []
        for p in range(pods):
            base = p * pod_size
            links.extend(
                (base + a, base + b, delay)
                for a in range(pod_size)
                for b in range(a + 1, pod_size)
            )
        links.extend(
            (a * pod_size, b * pod_size, delay)
            for a in range(pods)
            for b in range(a + 1, pods)
        )
        return cls(pods * pod_size, links)

    def __repr__(self) -> str:
        return f"Topology(m={self.num_procs}, links={len(self._link_delay)})"


# ----------------------------------------------------------------------
# Topology registry (campaign/CLI sweeps over standard shapes)
# ----------------------------------------------------------------------
def _grid_dims(m: int) -> tuple[int, int]:
    """Most-square ``rows x cols`` factorization of ``m`` (rows <= cols)."""
    rows = int(m**0.5)
    while rows > 1 and m % rows:
        rows -= 1
    return rows, m // rows


TOPOLOGY_BUILDERS: dict[str, Callable[[int, float], Topology]] = {
    "clique": lambda m, delay: Topology.clique(m, delay),
    "ring": lambda m, delay: Topology.ring(m, delay),
    "line": lambda m, delay: Topology.line(m, delay),
    "star": lambda m, delay: Topology.star(m, delay),
    "mesh": lambda m, delay: Topology.mesh2d(*_grid_dims(m), delay),
    "torus": lambda m, delay: Topology.torus(*_grid_dims(m), delay),
}


def topology_names() -> tuple[str, ...]:
    """Registered topology shape names (CLI/campaign ``--topology``)."""
    return tuple(sorted(TOPOLOGY_BUILDERS))


def register_topology(
    name: str,
    builder: Callable[[int, float], Topology],
    *,
    overwrite: bool = False,
) -> Callable[[int, float], Topology]:
    """Register a topology shape builder under ``name``.

    ``builder(num_procs, delay)`` must return a :class:`Topology`;
    registered shapes become valid ``--topology`` / spec values for
    routed campaigns.  Returns ``builder`` so it can be a decorator.
    """
    from repro.utils.registry import check_registration

    check_registration("topology", name, name in TOPOLOGY_BUILDERS, overwrite)
    TOPOLOGY_BUILDERS[name] = builder
    make_topology.cache_clear()
    return builder


@lru_cache(maxsize=64)
def make_topology(name: str, num_procs: int, delay: float = 1.0) -> Topology:
    """Instantiate a standard topology shape by name over ``num_procs``.

    Grid shapes (``mesh``, ``torus``) use the most-square factorization
    of ``num_procs``; a prime count degenerates to a line / ring.
    Results are memoized — a :class:`Topology` is immutable after
    construction and campaign reps re-request the same shape thousands
    of times just to enumerate its links, so the all-pairs route
    computation runs once per shape instead of once per rep.
    """
    try:
        build = TOPOLOGY_BUILDERS[name]
    except KeyError:
        raise InvalidPlatformError(
            f"unknown topology {name!r}; choose from {topology_names()}"
        ) from None
    return build(num_procs, delay)


if "fat-tree" not in TOPOLOGY_BUILDERS:
    # Registered through the public hook (not the builtin dict) as the
    # reference for out-of-tree shapes; pods x pod_size comes from the
    # most-square factorization like the grid shapes.
    register_topology(
        "fat-tree", lambda m, delay: Topology.fat_tree(*_grid_dims(m), delay)
    )


def topology_groups(name: str, num_procs: int) -> Optional[list[tuple[int, ...]]]:
    """Natural failure domains of a topology shape (``None`` = no grouping).

    The processor groups a single rack/switch event takes down together:
    fat-tree pods share their uplink and torus/mesh rows share a
    dimension, so each is one correlated-failure domain
    (``failure_model.kind = "topology"`` builds on this).  Shapes
    without shared infrastructure (clique, ring, line, star) have no
    natural grouping.
    """
    if name == "fat-tree":
        pods, pod_size = _grid_dims(num_procs)
        return [
            tuple(range(p * pod_size, (p + 1) * pod_size))
            for p in range(pods)
        ]
    if name in ("mesh", "torus"):
        rows, cols = _grid_dims(num_procs)
        return [
            tuple(range(r * cols, (r + 1) * cols)) for r in range(rows)
        ]
    return None


def randomize_link_delays(
    topology: Topology,
    delay_range: tuple[float, float],
    rng: np.random.Generator,
) -> Topology:
    """A copy of ``topology`` with per-link delays drawn uniformly.

    Campaign instances draw their unit delays from ``delay_range`` (the
    paper's ``[0.5, 1]``); for routed platforms the draw happens per
    physical link, in the deterministic ``links()`` order, so the result
    is a pure function of the topology and the seeded generator.
    """
    lo, hi = delay_range
    return Topology(
        topology.num_procs,
        [(a, b, float(rng.uniform(lo, hi))) for a, b in topology.links()],
    )
