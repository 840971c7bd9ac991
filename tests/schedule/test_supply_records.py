"""Per-predecessor supply records: invalidation and non-aliasing.

The kernel keeps one supply record per predecessor, built from the live
``schedule.replicas[pred]`` list and valid while that list's length is
unchanged.  Committing another replica of the predecessor after a
successor's entries were assembled must rebuild the record, and a
filtered (non-canonical) pool must never be served a cached record, not
even one of the same length.
"""

from __future__ import annotations

import numpy as np

from repro.core.one_to_one import _pick_heads
from repro.dag.graph import TaskGraph
from repro.platform.heterogeneity import uniform_delay_platform
from repro.platform.instance import ProblemInstance
from repro.schedulers.base import make_builder

M = 6


def _instance() -> ProblemInstance:
    # t0 -> t1, t0 -> t2, t3 -> t1: t0's record is shared by t1 and t2
    rng = np.random.default_rng(11)
    graph = TaskGraph(4, [(0, 1, 10.0), (0, 2, 4.0), (3, 1, 6.0)])
    return ProblemInstance(
        graph, uniform_delay_platform(M, rng=rng), rng.uniform(1.0, 3.0, size=(4, M))
    )


def _exact(builder, task, procs, sources, heads=None):
    heads = heads if heads is not None else [{}] * len(procs)
    return [
        builder._place(
            task, p, {q: ([hp[q]] if q in hp else s) for q, s in sources.items()},
            record=False,
        )
        for p, hp in zip(procs, heads)
    ]


def _check_sweeps(builder, task, sources):
    """Every trial of ``task`` equals the exact path, with and without
    designated heads, with every row kept and with pruning."""
    procs = list(range(M))
    exact = _exact(builder, task, procs, sources)
    assert builder.candidate_sweep(task, procs, sources, keep=M) == exact
    for got, want in zip(builder.candidate_sweep(task, procs, sources), exact):
        assert got is None or got == want
    pools = {pred: list(reps) for pred, reps in sources.items() if pred == 0}
    heads = builder.candidate_heads(task, procs, pools)
    assert heads == [_pick_heads(builder, task, p, pools) for p in procs]
    exact = _exact(builder, task, procs, sources, heads)
    got = builder.candidate_sweep(task, procs, sources, heads=heads, keep=M)
    assert got == exact


def test_records_follow_new_replicas_and_filtered_pools_never_alias():
    inst = _instance()
    builder = make_builder(inst, 1, "oneport", "records", fast=True)
    kernel = builder._kernel
    replicas = builder.schedule.replicas
    builder.commit(0, 0, {})
    builder.commit(0, 3, {})
    builder.commit(3, 1, {})

    def canonical(task):
        return {p: replicas[p] for p in inst.graph.preds(task)}

    # assemble t1's and t2's entries: both read t0's two-replica record
    _check_sweeps(builder, 1, canonical(1))
    _check_sweeps(builder, 2, canonical(2))
    assert len(kernel._supplies[0].pool) == 2

    # a third replica of t0, committed after the entries were assembled
    builder.commit(0, 4, {})
    _check_sweeps(builder, 1, canonical(1))
    _check_sweeps(builder, 2, canonical(2))
    assert [e[1] for e in kernel._supplies[0].pool] == [0, 3, 4]

    # a filtered pool as long as the record cached before the commit
    filtered = {0: [replicas[0][0], replicas[0][2]], 3: replicas[3]}
    _check_sweeps(builder, 1, filtered)
    entries, cacheable = kernel._entries_for(1, filtered)
    assert not cacheable
    assert [e[1] for e in entries.pools[entries.preds.index(0)]] == [0, 4]
    records = [rec.pool for rec in kernel._supplies.values()]
    assert not any(pool is rec for pool in entries.pools for rec in records)
    # and the canonical record was left as it was
    assert [e[1] for e in kernel._supplies[0].pool] == [0, 3, 4]
    _check_sweeps(builder, 1, canonical(1))


def test_pressure_sweep_after_new_replicas_matches_exact_path():
    inst = _instance()
    ties = []
    for fast in (True, False):
        builder = make_builder(inst, 1, "oneport", "records", fast=fast)
        builder.commit(0, 0, {})
        builder.commit(0, 3, {})
        builder.commit(3, 1, {})
        first = builder.pressure_sweep([1, 2], np.array([3.0, 1.0]), 1.5)
        builder.commit(0, 4, {})
        ties.append((first, builder.pressure_sweep([1, 2], np.array([3.0, 1.0]), 1.5)))
    assert ties[0] == ties[1]
