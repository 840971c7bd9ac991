"""Routed reservation rollback: stress + checkpoint-depth diagnostics.

A routed transfer reserves 2 ports plus *every* directed hop of its
route, so its undo entries fan out much wider than the clique models' —
this suite hammers checkpoint/rollback nesting over shared-route
topologies (ring, star: heavy link sharing) and pins the
``undo_depth()`` accessor all logged models now expose.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.oneport import OnePortNetwork, UniPortNetwork
from repro.comm.routed import RoutedOnePortNetwork
from repro.platform.platform import Platform
from repro.platform.topology import Topology


def _routed_state(net: RoutedOnePortNetwork):
    return (
        list(net._send_free),
        list(net._recv_free),
        list(net._link_free),
    )


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 5),  # src
            st.integers(0, 5),  # dst
            st.floats(0.0, 50.0),  # ready
            st.floats(0.0, 20.0),  # volume
        ),
        min_size=1,
        max_size=25,
    ),
    shape=st.sampled_from(["ring", "star"]),
)
def test_routed_rollback_roundtrip(ops, shape):
    """Any transfer sequence rolls back to the exact pre-checkpoint state."""
    topo = Topology.ring(6) if shape == "ring" else Topology.star(6)
    net = RoutedOnePortNetwork(topo)
    net.place_transfer(0, 3, 0.0, 5.0)  # some pre-existing committed state
    net.commit()
    snapshot = _routed_state(net)
    token = net.checkpoint()
    for src, dst, ready, vol in ops:
        start, finish = net.place_transfer(src, dst, ready, vol)
        assert start >= ready
        assert finish - start == pytest.approx(net.transfer_time(src, dst, vol))
    net.rollback(token)
    assert _routed_state(net) == snapshot
    assert net.undo_depth() == token


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(0, 30), st.floats(0, 10)),
        min_size=2,
        max_size=20,
    )
)
def test_routed_nested_checkpoints(ops):
    """Reserve-and-rollback nesting (the trial/commit pattern) is exact."""
    net = RoutedOnePortNetwork(Topology.ring(6))
    states = [_routed_state(net)]
    tokens = [net.checkpoint()]
    for src, dst, ready, vol in ops:
        net.place_transfer(src, dst, ready, vol)
        states.append(_routed_state(net))
        tokens.append(net.checkpoint())
    # unwind the checkpoints innermost-first; each restores its snapshot
    for state, token in zip(reversed(states), reversed(tokens)):
        net.rollback(token)
        assert _routed_state(net) == state
        assert net.undo_depth() == token
    assert net.undo_depth() == 0


def test_undo_depth_accessors():
    """All logged models report their pending undo-log depth; commit and
    rollback drain it (routed entries fan out per route hop)."""
    topo = Topology.line(4)
    routed = RoutedOnePortNetwork(topo)
    assert routed.undo_depth() == 0
    routed.place_transfer(0, 3, 0.0, 10.0)  # send + recv + 3 hops
    assert routed.undo_depth() == 5
    token = routed.checkpoint()
    routed.place_transfer(1, 2, 0.0, 10.0)  # send + recv + 1 hop
    assert routed.undo_depth() == 8
    routed.rollback(token)
    assert routed.undo_depth() == 5
    routed.commit()
    assert routed.undo_depth() == 0

    plat = Platform.homogeneous(3, unit_delay=1.0)
    oneport = OnePortNetwork(plat)
    oneport.place_transfer(0, 1, 0.0, 5.0)
    assert oneport.undo_depth() == 2  # send + recv scalars (no link frontier)
    oneport.commit()
    assert oneport.undo_depth() == 0

    insertion = OnePortNetwork(plat, policy="insertion")
    insertion.place_transfer(0, 1, 0.0, 5.0)
    # send + recv interval reservations (a link needs no timeline: its
    # intervals are its sender's) + two scalar port frontier advances
    assert insertion.undo_depth() == 4
    insertion.rollback(0)
    assert insertion.undo_depth() == 0

    uniport = UniPortNetwork(plat)
    uniport.place_transfer(0, 1, 0.0, 5.0)
    assert uniport.undo_depth() == 2
    uniport.reset()
    assert uniport.undo_depth() == 0
