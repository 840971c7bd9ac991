"""Tests for macro-dataflow, routed models, and the factory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import make_network
from repro.comm.macrodataflow import MacroDataflowNetwork
from repro.comm.oneport import OnePortNetwork
from repro.comm.routed import RoutedOnePortNetwork
from repro.platform.platform import Platform
from repro.platform.topology import Topology


class TestMacroDataflow:
    @pytest.fixture
    def net(self):
        return MacroDataflowNetwork(Platform.homogeneous(4, unit_delay=1.0))

    def test_no_contention(self, net):
        for _ in range(10):
            start, finish = net.place_transfer(0, 1, 0.0, 10.0)
            assert (start, finish) == (0.0, 10.0)

    def test_sender_bound_matches(self, net):
        assert net.sender_bound(0, 1, 5.0, 10.0) == 15.0

    def test_undo_is_noop(self, net):
        token = net.checkpoint()
        net.place_transfer(0, 1, 0.0, 10.0)
        net.rollback(token)
        net.commit()
        net.reset()  # nothing raises

    def test_local_free(self, net):
        assert net.place_transfer(1, 1, 4.0, 50.0) == (4.0, 4.0)


class TestRouted:
    @pytest.fixture
    def net(self):
        # line 0-1-2-3 with unit delays
        return RoutedOnePortNetwork(Topology.line(4, delay=1.0))

    def test_effective_delay(self, net):
        # route 0->3 crosses 3 links, so W = 3 * volume
        start, finish = net.place_transfer(0, 3, 0.0, 10.0)
        assert (start, finish) == (0.0, 30.0)

    def test_route_contention(self, net):
        net.place_transfer(0, 3, 0.0, 10.0)  # holds links (0,1),(1,2),(2,3)
        start, _ = net.place_transfer(1, 2, 0.0, 10.0)  # needs (1,2)
        assert start == 30.0

    def test_direction_independence(self, net):
        """Full duplex: opposite directions of a link don't contend."""
        net.place_transfer(0, 2, 0.0, 10.0)
        start, _ = net.place_transfer(2, 0, 0.0, 10.0)
        assert start == 0.0

    def test_disjoint_routes_parallel(self):
        net = RoutedOnePortNetwork(Topology.mesh2d(2, 2))
        net.place_transfer(0, 1, 0.0, 10.0)
        start, _ = net.place_transfer(2, 3, 0.0, 10.0)
        assert start == 0.0

    def test_endpoint_ports(self, net):
        net.place_transfer(0, 1, 0.0, 10.0)
        start, _ = net.place_transfer(0, 3, 0.0, 10.0)  # P0's send port busy
        assert start == 10.0

    def test_rollback(self, net):
        token = net.checkpoint()
        net.place_transfer(0, 3, 0.0, 10.0)
        net.rollback(token)
        start, _ = net.place_transfer(1, 2, 0.0, 10.0)
        assert start == 0.0

    def test_reset(self, net):
        net.place_transfer(0, 3, 0.0, 10.0)
        net.reset()
        start, _ = net.place_transfer(1, 2, 0.0, 5.0)
        assert start == 0.0

    def test_sender_bound_ignores_receiver(self, net):
        net.place_transfer(2, 3, 0.0, 10.0)  # busies P3 recv + link (2,3)
        # 0 -> 1 shares nothing with that transfer
        assert net.sender_bound(0, 1, 0.0, 5.0) == 5.0

    def test_local_transfer(self, net):
        assert net.place_transfer(2, 2, 9.0, 10.0) == (9.0, 9.0)

    def test_platform_matches_topology(self, net):
        assert net.platform.delay(0, 3) == 3.0


class TestFactory:
    def test_all_names(self):
        platform = Platform.homogeneous(3)
        for name in ("oneport", "uniport", "oneport-nooverlap", "macro-dataflow"):
            net = make_network(name, platform)
            assert net.name == name
            assert net.platform is platform

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown network model"):
            make_network("carrier-pigeon", Platform.homogeneous(2))

    def test_policy_kwarg(self):
        net = make_network("oneport", Platform.homogeneous(2), policy="insertion")
        assert net.policy == "insertion"


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 3),  # src
            st.integers(0, 3),  # dst
            st.floats(0.0, 50.0),  # ready
            st.floats(0.0, 20.0),  # volume
        ),
        min_size=1,
        max_size=25,
    )
)
def test_oneport_rollback_roundtrip(ops):
    """Placing any transfer sequence then rolling back restores all state."""
    net = OnePortNetwork(Platform.homogeneous(4, unit_delay=1.0))
    net.place_transfer(0, 1, 0.0, 5.0)  # some pre-existing state
    snapshot = (list(net._send_free), list(net._recv_free))
    token = net.checkpoint()
    for src, dst, ready, vol in ops:
        start, finish = net.place_transfer(src, dst, ready, vol)
        assert start >= ready
        assert finish - start == pytest.approx(net.transfer_time(src, dst, vol))
    net.rollback(token)
    assert (list(net._send_free), list(net._recv_free)) == snapshot


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.floats(0, 30), st.floats(0, 10)),
        min_size=1,
        max_size=20,
    )
)
def test_oneport_no_resource_overlap(ops):
    """Committed transfers never overlap on any port or link."""
    net = OnePortNetwork(Platform.homogeneous(3, unit_delay=1.0))
    placed = []
    for src, dst, ready, vol in ops:
        start, finish = net.place_transfer(src, dst, ready, vol)
        if src != dst and vol > 0:
            placed.append((src, dst, start, finish))
    by_resource: dict = {}
    for src, dst, s, f in placed:
        for key in (("send", src), ("recv", dst), ("link", src, dst)):
            by_resource.setdefault(key, []).append((s, f))
    for intervals in by_resource.values():
        intervals.sort()
        for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
            assert s2 >= f1 - 1e-9
