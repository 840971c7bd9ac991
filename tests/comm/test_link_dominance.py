"""The clique models keep no link frontier: constraint (1) never binds.

On a clique the directed link ``src -> dst`` carries only ``src``'s
messages, so every reservation leaves it at the finish ``send_free[src]``
also takes, and ``send_free`` never decreases.  The link frontier is
therefore at most ``send_free[src]`` in every reachable state, and
dropping it changes no ``max``.  These tests check that claim against
the reference models of :mod:`tests.comm.linked_models`, which keep the
link frontiers literally:

* the two agree on every ``sender_bound`` and ``place_transfer``, and on
  the port state, through interleaved ``checkpoint`` / ``rollback`` /
  ``commit`` (and ``note_compute`` for no-overlap), and the reference's
  link frontiers never exceed their sender's ``send_free``;
* whole CAFT / CAFT-paper / FTSA / FTBAR / HEFT schedules are identical,
  kernel or exact path on the production model against the exact path
  on the reference, and so are their worst-case latency bounds with and
  without a per-link chain.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.caft import caft
from repro.platform.heterogeneity import uniform_delay_platform
from repro.schedule.bounds import latency_upper_bound
from repro.schedule.schedule import CommEvent
from repro.schedulers.ftbar import ftbar
from repro.schedulers.ftsa import ftsa
from repro.schedulers.heft import heft
from tests.comm.linked_models import VARIANTS, production_and_reference
from tests.schedulers.test_fastpath_equiv import commit_signature, make_instance

M = 4

_transfer = st.tuples(
    st.integers(0, M - 1),  # src
    st.integers(0, M - 1),  # dst
    st.floats(0.0, 50.0),  # ready
    st.sampled_from((0.0, 1.0, 2.5)) | st.floats(0.0, 20.0),  # volume
)
_op = st.one_of(
    st.tuples(st.just("place"), _transfer),
    st.tuples(st.just("bound"), _transfer),
    st.tuples(st.just("checkpoint"), st.none()),
    st.tuples(st.just("rollback"), st.integers(0, 5)),
    st.tuples(st.just("commit"), st.none()),
    st.tuples(
        st.just("compute"),
        st.tuples(st.integers(0, M - 1), st.floats(0.0, 50.0), st.floats(0.0, 10.0)),
    ),
)


def _state(net) -> tuple:
    tls = tuple(
        (tuple(tl.starts), tuple(tl.ends)) for tl in net._send_tl + net._recv_tl
    )
    return list(net._send_free), list(net._recv_free), tls


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    seed=st.integers(0, 10**6),
    ops=st.lists(_op, min_size=1, max_size=40),
)
def test_link_frontier_never_binds(variant, seed, ops):
    prod, ref = production_and_reference(
        variant, uniform_delay_platform(M, rng=seed)
    )
    tokens: list[tuple[int, int]] = []
    for kind, arg in ops:
        if kind == "place":
            assert prod.place_transfer(*arg) == ref.place_transfer(*arg)
        elif kind == "bound":
            assert prod.sender_bound(*arg) == ref.sender_bound(*arg)
        elif kind == "checkpoint":
            tokens.append((prod.checkpoint(), ref.checkpoint()))
        elif kind == "rollback":
            if tokens:
                i = max(0, len(tokens) - 1 - arg)
                del tokens[i + 1 :]
                p_token, r_token = tokens[i]
                prod.rollback(p_token)
                ref.rollback(r_token)
        elif kind == "commit":
            prod.commit()
            ref.commit()
            tokens.clear()
        elif variant == "nooverlap":
            proc, start, duration = arg
            prod.note_compute(proc, start, start + duration)
            ref.note_compute(proc, start, start + duration)
        assert _state(prod) == _state(ref)
        send = ref._send_free
        assert all(
            ref.link_ready(src, dst) <= send[src]
            for src in range(M)
            for dst in range(M)
        ), (variant, kind)
    prod.reset()
    ref.reset()
    assert _state(prod) == _state(ref)
    assert not any(ref._link_free)


_ALGORITHMS = {
    "caft": lambda inst, eps, net, fast: caft(inst, eps, model=net, rng=eps, fast=fast),
    "caft-paper": lambda inst, eps, net, fast: caft(
        inst, eps, model=net, locking="paper", rng=eps, fast=fast
    ),
    "ftsa": lambda inst, eps, net, fast: ftsa(inst, eps, model=net, rng=eps, fast=fast),
    "ftbar": lambda inst, eps, net, fast: ftbar(inst, eps, model=net, rng=eps, fast=fast),
    "heft": lambda inst, eps, net, fast: heft(inst, model=net, rng=eps, fast=fast),
}


def _upper_bound_with_links(schedule) -> float:
    """``latency_upper_bound`` with the per-link chain kept literally."""
    m = schedule.instance.num_procs
    proc_ub, send_ub, recv_ub = [0.0] * m, [0.0] * m, [0.0] * m
    link_ub: dict[tuple[int, int], float] = {}
    replica_ub: dict[int, float] = {}
    event_ub: dict[int, float] = {}
    for e in schedule.commit_log:
        if isinstance(e, CommEvent):
            lk = (e.src_proc, e.dst_proc)
            start = max(e.start, replica_ub[e.src_replica.seq], send_ub[e.src_proc],
                        recv_ub[e.dst_proc], link_ub.get(lk, 0.0))
            finish = start + e.duration
            event_ub[e.seq] = send_ub[e.src_proc] = recv_ub[e.dst_proc] = finish
            link_ub[lk] = finish
        else:
            data = 0.0
            for events in e.inputs.values():
                data = max(data, max(event_ub[ev.seq] for ev in events))
            for local in e.local_inputs.values():
                data = max(data, replica_ub[local.seq])
            finish = max(e.start, proc_ub[e.proc], data) + e.duration
            replica_ub[e.seq] = proc_ub[e.proc] = finish
    return max(max(replica_ub[r.seq] for r in reps) for reps in schedule.replicas)


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    algo=st.sampled_from(sorted(_ALGORITHMS)),
    epsilon=st.sampled_from((0, 1, 2)),
    seed=st.integers(0, 10**6),
    num_tasks=st.integers(6, 14),
    num_procs=st.integers(4, 6),
)
def test_schedules_match_the_literal_link_model(
    variant, algo, epsilon, seed, num_tasks, num_procs
):
    inst = make_instance(seed, num_tasks, num_procs)
    run = _ALGORITHMS[algo]
    prod, ref = production_and_reference(variant, inst.platform)
    expected = commit_signature(run(inst, epsilon, ref, False))
    schedule = run(inst, epsilon, prod, True)
    assert commit_signature(schedule) == expected
    assert commit_signature(run(inst, epsilon, prod, False)) == expected
    assert latency_upper_bound(schedule) == _upper_bound_with_links(schedule)
