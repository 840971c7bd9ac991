"""Tests for the bi-directional one-port network model (eqs. (1)-(6))."""

import pytest

from repro.comm.oneport import (
    NoOverlapOnePortNetwork,
    OnePortNetwork,
    UniPortNetwork,
)
from repro.platform.platform import Platform
from repro.utils.errors import InvalidPlatformError


@pytest.fixture
def net() -> OnePortNetwork:
    return OnePortNetwork(Platform.homogeneous(4, unit_delay=1.0))


class TestBasicPlacement:
    def test_transfer_time(self, net):
        assert net.transfer_time(0, 1, 10.0) == 10.0
        assert net.transfer_time(2, 2, 10.0) == 0.0

    def test_first_transfer_starts_at_ready(self, net):
        start, finish = net.place_transfer(0, 1, ready=5.0, volume=10.0)
        assert (start, finish) == (5.0, 15.0)

    def test_local_transfer_free(self, net):
        start, finish = net.place_transfer(2, 2, ready=3.0, volume=100.0)
        assert (start, finish) == (3.0, 3.0)
        assert net.send_free(2) == 0.0  # nothing reserved

    def test_zero_volume_free(self, net):
        start, finish = net.place_transfer(0, 1, ready=3.0, volume=0.0)
        assert (start, finish) == (3.0, 3.0)
        assert net.send_free(0) == 0.0


class TestSendingConstraint:
    """Constraint (2): outgoing messages of a processor are serialized."""

    def test_two_sends_serialize(self, net):
        net.place_transfer(0, 1, 0.0, 10.0)
        start, finish = net.place_transfer(0, 2, 0.0, 10.0)
        assert start == 10.0 and finish == 20.0

    def test_send_after_gap(self, net):
        net.place_transfer(0, 1, 0.0, 10.0)
        start, _ = net.place_transfer(0, 2, 50.0, 10.0)
        assert start == 50.0


class TestReceivingConstraint:
    """Constraint (3): incoming messages of a processor are serialized."""

    def test_two_receives_serialize(self, net):
        net.place_transfer(0, 2, 0.0, 10.0)
        start, finish = net.place_transfer(1, 2, 0.0, 10.0)
        assert start == 10.0 and finish == 20.0


class TestLinkConstraint:
    """Constraint (1): a link carries one message at a time."""

    def test_same_link_serializes(self, net):
        net.place_transfer(0, 1, 0.0, 10.0)
        start, _ = net.place_transfer(0, 1, 0.0, 10.0)
        assert start == 10.0

    def test_disjoint_pairs_parallel(self, net):
        net.place_transfer(0, 1, 0.0, 10.0)
        start, _ = net.place_transfer(2, 3, 0.0, 10.0)
        assert start == 0.0

    def test_full_duplex(self, net):
        """Bidirectional model: send and receive may overlap on a processor."""
        net.place_transfer(0, 1, 0.0, 10.0)
        start, _ = net.place_transfer(1, 0, 0.0, 10.0)
        assert start == 0.0


class TestSenderBound:
    def test_ignores_receiver(self, net):
        net.place_transfer(2, 1, 0.0, 10.0)  # busies P1's receive port
        # P0's sender-side bound ignores P1's receive port state
        assert net.sender_bound(0, 1, 0.0, 5.0) == 5.0

    def test_includes_send_port(self, net):
        net.place_transfer(0, 2, 0.0, 10.0)
        assert net.sender_bound(0, 1, 0.0, 5.0) == 15.0

    def test_local_is_ready(self, net):
        assert net.sender_bound(1, 1, 7.0, 100.0) == 7.0

    def test_pure_query(self, net):
        net.sender_bound(0, 1, 0.0, 5.0)
        assert net.send_free(0) == 0.0


class TestUndoLog:
    def test_rollback_restores_state(self, net):
        net.place_transfer(0, 1, 0.0, 10.0)
        token = net.checkpoint()
        net.place_transfer(0, 1, 0.0, 10.0)
        net.place_transfer(2, 1, 0.0, 10.0)
        net.rollback(token)
        assert net.send_free(0) == 10.0
        assert net.send_free(2) == 0.0
        assert net.recv_free(1) == 10.0

    def test_nested_checkpoints(self, net):
        t1 = net.checkpoint()
        net.place_transfer(0, 1, 0.0, 5.0)
        t2 = net.checkpoint()
        net.place_transfer(0, 1, 0.0, 5.0)
        net.rollback(t2)
        assert net.send_free(0) == 5.0
        net.rollback(t1)
        assert net.send_free(0) == 0.0

    def test_commit_clears_log(self, net):
        net.place_transfer(0, 1, 0.0, 5.0)
        net.commit()
        token = net.checkpoint()
        assert token == 0
        net.rollback(token)
        assert net.send_free(0) == 5.0  # commit is permanent

    def test_reset(self, net):
        net.place_transfer(0, 1, 0.0, 5.0)
        net.reset()
        assert net.send_free(0) == 0.0
        assert net.recv_free(1) == 0.0


class TestInsertionPolicy:
    def test_gap_filling(self):
        net = OnePortNetwork(Platform.homogeneous(3, unit_delay=1.0), policy="insertion")
        net.place_transfer(0, 1, 0.0, 10.0)  # [0, 10]
        net.place_transfer(0, 1, 30.0, 10.0)  # [30, 40]
        # a short message fits in the idle gap [10, 30]
        start, finish = net.place_transfer(0, 1, 12.0, 5.0)
        assert start == 12.0 and finish == 17.0

    def test_no_gap_appends(self):
        net = OnePortNetwork(Platform.homogeneous(3, unit_delay=1.0), policy="insertion")
        net.place_transfer(0, 1, 0.0, 10.0)
        start, _ = net.place_transfer(0, 1, 0.0, 20.0)
        assert start == 10.0

    def test_insertion_rollback(self):
        net = OnePortNetwork(Platform.homogeneous(3, unit_delay=1.0), policy="insertion")
        net.place_transfer(0, 1, 0.0, 10.0)
        token = net.checkpoint()
        net.place_transfer(0, 1, 0.0, 10.0)
        net.rollback(token)
        start, _ = net.place_transfer(0, 1, 0.0, 10.0)
        assert start == 10.0  # the rolled-back reservation is gone

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidPlatformError):
            OnePortNetwork(Platform.homogeneous(2), policy="bogus")


class TestUniPort:
    def test_send_blocks_receive(self):
        net = UniPortNetwork(Platform.homogeneous(3, unit_delay=1.0))
        net.place_transfer(0, 1, 0.0, 10.0)
        # P0 sent until 10; under uni-port it cannot receive meanwhile
        start, _ = net.place_transfer(2, 0, 0.0, 10.0)
        assert start == 10.0

    def test_reset_keeps_aliasing(self):
        net = UniPortNetwork(Platform.homogeneous(3, unit_delay=1.0))
        net.place_transfer(0, 1, 0.0, 10.0)
        net.reset()
        net.place_transfer(0, 1, 0.0, 10.0)
        start, _ = net.place_transfer(2, 0, 0.0, 10.0)
        assert start == 10.0

    def test_rollback_aliased(self):
        net = UniPortNetwork(Platform.homogeneous(3, unit_delay=1.0))
        token = net.checkpoint()
        net.place_transfer(0, 1, 0.0, 10.0)
        net.rollback(token)
        start, _ = net.place_transfer(2, 0, 0.0, 10.0)
        assert start == 0.0


class TestNoOverlap:
    def test_compute_floor_follows_comm(self):
        net = NoOverlapOnePortNetwork(Platform.homogeneous(3, unit_delay=1.0))
        assert net.compute_floor(0) == 0.0
        net.place_transfer(0, 1, 0.0, 10.0)
        assert net.compute_floor(0) == 10.0
        assert net.compute_floor(1) == 10.0
        assert net.compute_floor(2) == 0.0

    def test_note_compute_blocks_comm(self):
        net = NoOverlapOnePortNetwork(Platform.homogeneous(3, unit_delay=1.0))
        net.note_compute(0, 0.0, 20.0)
        start, _ = net.place_transfer(0, 1, 0.0, 5.0)
        assert start == 20.0

    def test_note_compute_rollback(self):
        net = NoOverlapOnePortNetwork(Platform.homogeneous(3, unit_delay=1.0))
        token = net.checkpoint()
        net.note_compute(0, 0.0, 20.0)
        net.rollback(token)
        start, _ = net.place_transfer(0, 1, 0.0, 5.0)
        assert start == 0.0


class TestOverlapDefault:
    def test_standard_model_overlaps_compute(self, net):
        """Default bi-directional one-port: comm/computation fully overlap."""
        net.note_compute(0, 0.0, 100.0)
        start, _ = net.place_transfer(0, 1, 0.0, 5.0)
        assert start == 0.0
        assert net.compute_floor(0) == 0.0
