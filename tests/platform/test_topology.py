"""Tests for sparse topologies and routing."""

import numpy as np
import pytest

from repro.platform.topology import Topology, randomize_link_delays
from repro.utils.errors import InvalidPlatformError


class TestConstruction:
    def test_link_delay_lookup(self):
        t = Topology(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert t.link_delay(0, 1) == 2.0
        assert t.link_delay(1, 0) == 2.0  # undirected lookup

    def test_missing_link_raises(self):
        t = Topology(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(InvalidPlatformError):
            t.link_delay(0, 2)

    def test_rejects_self_link(self):
        with pytest.raises(InvalidPlatformError):
            Topology(2, [(0, 0, 1.0)])

    def test_rejects_duplicate_link(self):
        with pytest.raises(InvalidPlatformError):
            Topology(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(InvalidPlatformError):
            Topology(2, [(0, 1, 0.0)])

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidPlatformError, match="disconnected"):
            Topology(4, [(0, 1, 1.0), (2, 3, 1.0)])


class TestRouting:
    def test_line_route(self):
        t = Topology.line(4)
        assert t.route(0, 3) == (0, 1, 2, 3)
        assert t.route_links(0, 3) == ((0, 1), (1, 2), (2, 3))

    def test_route_to_self(self):
        t = Topology.line(3)
        assert t.route(1, 1) == (1,)
        assert t.route_links(1, 1) == ()

    def test_shortest_by_delay_not_hops(self):
        # 0-1-2 cheap (1+1), direct 0-2 expensive (5): route via 1
        t = Topology(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        assert t.route(0, 2) == (0, 1, 2)

    def test_ring_goes_shorter_way(self):
        t = Topology.ring(6)
        assert t.route(0, 1) == (0, 1)
        assert len(t.route(0, 3)) == 4  # 3 hops either way

    def test_effective_delay_matrix(self):
        t = Topology.line(3, delay=2.0)
        d = t.effective_delay_matrix()
        assert d[0, 2] == 4.0
        assert d[0, 1] == 2.0
        assert d[1, 1] == 0.0
        assert np.allclose(d, d.T)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Topology.ring(40),
            lambda: Topology.torus(5, 8),
            lambda: Topology.mesh2d(5, 8),
            lambda: Topology.line(40),
            lambda: Topology.star(40),
            lambda: Topology.clique(40),
            lambda: Topology.fat_tree(4, 10),
        ],
        ids=["ring", "torus", "mesh", "line", "star", "clique", "fat-tree"],
    )
    def test_effective_delay_matrix_is_route_sum_bytes(self, build):
        """The route-tree fill gives the exact bytes of summing each
        route's link delays from scratch, on random per-link delays."""
        t = randomize_link_delays(build(), (0.1, 3.0), np.random.default_rng(7))
        m = t.num_procs
        want = np.zeros((m, m))
        for src in range(m):
            for dst in range(m):
                if src != dst:
                    want[src, dst] = sum(
                        t.link_delay(a, b) for a, b in t.route_links(src, dst)
                    )
        assert t.effective_delay_matrix().tobytes() == want.tobytes()

    def test_to_platform(self):
        p = Topology.star(4, delay=1.5).to_platform()
        assert p.num_procs == 4
        assert p.delay(1, 2) == 3.0  # via hub
        assert p.delay(0, 3) == 1.5


class TestShapes:
    def test_clique_links(self):
        t = Topology.clique(4)
        assert len(t.links()) == 6

    def test_ring_links(self):
        assert len(Topology.ring(5).links()) == 5

    def test_star_center(self):
        t = Topology.star(5)
        for i in range(1, 5):
            assert t.route(i, 0) == (i, 0)

    def test_mesh_dimensions(self):
        t = Topology.mesh2d(2, 3)
        assert t.num_procs == 6
        assert len(t.links()) == 2 * 2 + 3 * 1  # 4 horizontal + 3 vertical

    def test_mesh_route_is_shortest(self):
        t = Topology.mesh2d(3, 3)
        assert len(t.route(0, 8)) == 5  # 4 hops manhattan

    def test_small_shape_validation(self):
        with pytest.raises(InvalidPlatformError):
            Topology.ring(2)
        with pytest.raises(InvalidPlatformError):
            Topology.line(1)
        with pytest.raises(InvalidPlatformError):
            Topology.star(1)
        with pytest.raises(InvalidPlatformError):
            Topology.mesh2d(1, 1)


class TestFatTree:
    """Closed-form fat-tree metrics (PAPERS.md: the Benes-variant
    multistage-network work has no extractable numeric benchmarks, so
    the validation is against the Clos/fat-tree characterization:
    node/link counts and the 3-hop full-bisection diameter)."""

    def test_node_and_link_counts(self):
        # pods * C(pod_size, 2) intra-pod + C(pods, 2) core links
        t = Topology.fat_tree(4, 4)
        assert t.num_procs == 16
        assert len(t.links()) == 4 * 6 + 6

    def test_route_delay_diameter_is_three_hops(self):
        t = Topology.fat_tree(3, 4, delay=1.0)
        d = t.effective_delay_matrix()
        assert d.max() == 3.0  # member -> uplink -> uplink -> member
        # intra-pod is always a single hop
        assert d[1, 2] == 1.0 and d[4, 7] == 1.0

    def test_uplinks_are_two_hops_apart(self):
        t = Topology.fat_tree(3, 4)
        assert t.route(0, 4) == (0, 4)  # uplink to uplink: core link
        assert len(t.route(1, 5)) == 4  # member to member: 3 hops

    def test_registered_shape_uses_most_square_pods(self):
        from repro.platform.topology import make_topology

        t = make_topology("fat-tree", 12)  # 3 pods x 4 processors
        assert t.num_procs == 12
        assert len(t.links()) == 3 * 6 + 3

    def test_topology_groups_are_the_pods(self):
        from repro.platform.topology import topology_groups

        assert topology_groups("fat-tree", 12) == [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9, 10, 11),
        ]
        assert topology_groups("ring", 6) is None

    def test_small_fat_tree_validation(self):
        with pytest.raises(InvalidPlatformError):
            Topology.fat_tree(1, 1)
        with pytest.raises(InvalidPlatformError):
            Topology.fat_tree(0, 4)
