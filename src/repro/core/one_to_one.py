"""The one-to-one mapping procedure (paper Algorithm 5.2) and its
robust, support-tracking refinement.

A *channel* replica of task ``t`` receives each predecessor's data from
exactly **one** designated replica, so an edge of the task graph costs one
message instead of ``(ε+1)²``.  Two locking disciplines are provided:

* ``"paper"`` — the literal Algorithm 5.2: predecessor replicas hosted on
  *singleton* processors are eligible, ``θ = min_j λ_j`` one-to-one rounds
  are executed, and the locked set ``P̄`` contains the processors that host
  or feed already-placed replicas of the **current** task.

* ``"support"`` (default) — each replica carries its *support*: the set of
  processors whose collective survival guarantees the replica completes
  (its own processor plus, recursively, the supports of its designated
  suppliers).  A replica is eligible as a supplier only if its support is
  disjoint from the supports already consumed by the current task's
  replicas, and a candidate placement is considered only while enough
  unlocked processors remain for the outstanding replicas.  This preserves
  Proposition 5.2 on *every* graph: the literal rule can be defeated by
  starvation cascades on chains of length ≥ 3 (see
  ``tests/fault/test_robustness.py`` for a concrete counterexample), which
  the support discipline provably rules out — each task ends up with
  ``ε+1`` replicas whose supports are pairwise disjoint, so ``ε`` failures
  can strike at most ``ε`` of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.schedule.schedule import Replica, ScheduleBuilder
from repro.schedulers.base import TIE_EPS, argmin_trial, eligible_procs, full_fanin_sources
from repro.utils.errors import SchedulingError


@dataclass
class PlacementState:
    """Book-keeping for the ε+1 replica placements of one task."""

    locked: set[int]
    pools: dict[int, list[Replica]]  # per-pred eligible suppliers
    theta: int  # planned (paper) or achieved (support) one-to-one rounds
    degraded: int = 0


def singleton_analysis(builder: ScheduleBuilder, task: int) -> PlacementState:
    """Paper §5 singleton-processor analysis: pools ``B̄(tj)``, ``θ = min λj``."""
    graph = builder.instance.graph
    preds = graph.preds(task)
    if not preds:
        return PlacementState(locked=set(), pools={}, theta=builder.epsilon + 1)
    count: dict[int, int] = {}
    for p in preds:
        for r in builder.schedule.replicas[p]:
            count[r.proc] = count.get(r.proc, 0) + 1
    singletons = {proc for proc, c in count.items() if c == 1}
    pools = {
        p: [r for r in builder.schedule.replicas[p] if r.proc in singletons]
        for p in preds
    }
    theta = min(len(pool) for pool in pools.values())
    return PlacementState(locked=set(), pools=pools, theta=theta)


def support_pools(
    builder: ScheduleBuilder, task: int, locked: set[int]
) -> dict[int, list[Replica]]:
    """Support-disjoint supplier pools per predecessor.

    A replica is eligible as a designated (one-to-one) supplier only if its
    support does not intersect the supports already consumed by this task's
    placed replicas.  Predecessors with no eligible supplier are omitted —
    :func:`support_round` falls back to full fan-in for them.
    """
    graph = builder.instance.graph
    pools: dict[int, list[Replica]] = {}
    for p in graph.preds(task):
        pool = [
            r
            for r in builder.schedule.replicas[p]
            if not (r.support & locked)
        ]
        if pool:
            pools[p] = pool
    return pools


def _pick_heads(
    builder: ScheduleBuilder,
    task: int,
    proc: int,
    pools: dict[int, list[Replica]],
) -> dict[int, Replica]:
    """Head ``H(B̄(tj))`` per predecessor for candidate processor ``proc``.

    Pools are ordered by the eq. (6) sort key — the sender-side earliest
    communication finish toward ``proc`` — and the head is the front
    element (Algorithm 5.2, lines 3–4).  Ties break on replica index.
    """
    graph = builder.instance.graph
    network = builder.network
    heads: dict[int, Replica] = {}
    for pred, pool in pools.items():
        vol = graph.volume(pred, task)
        heads[pred] = min(
            pool,
            key=lambda r: (network.sender_bound(r.proc, proc, r.finish, vol), r.index),
        )
    return heads


def _candidate_heads(
    builder: ScheduleBuilder,
    task: int,
    procs: list[int],
    pools: dict[int, list[Replica]],
) -> list[dict[int, Replica]]:
    """:func:`_pick_heads` for every candidate in ``procs`` — one kernel
    pass when the kernel is active."""
    heads = builder.candidate_heads(task, procs, pools)
    if heads is None:
        heads = [_pick_heads(builder, task, proc, pools) for proc in procs]
    return heads


def one_to_one_round(
    builder: ScheduleBuilder,
    task: int,
    state: PlacementState,
    gen: np.random.Generator,
) -> Optional[Replica]:
    """One literal Algorithm 5.2 round; return the replica or ``None``.

    For each unlocked candidate processor the per-predecessor heads are
    selected from the singleton pools, the mapping of ``task`` is simulated
    with exactly those suppliers, and the (task, processor) pair with the
    earliest finish is committed.  Locking follows eq. (7).
    """
    m = builder.instance.num_procs
    procs = [proc for proc in range(m) if proc not in state.locked]
    if not procs:
        return None
    heads_per = _candidate_heads(builder, task, procs, state.pools)
    # every predecessor has a designated head here, so the full pools
    # only serve as the shared (cached) kernel entry state
    trials = builder.candidate_sweep(
        task, procs, full_fanin_sources(builder, task), heads=heads_per
    )
    candidates = [(t, h) for t, h in zip(trials, heads_per) if t is not None]

    best_finish = min(t.finish for t, _h in candidates)
    ties = [c for c in candidates if c[0].finish <= best_finish + TIE_EPS]
    trial, heads = ties[int(gen.integers(len(ties)))] if len(ties) > 1 else ties[0]

    support = frozenset({trial.proc}).union(*(h.support for h in heads.values())) \
        if heads else frozenset({trial.proc})
    replica = builder.commit(
        task,
        trial.proc,
        {p: [h] for p, h in heads.items()},
        kind="channel",
        support=support,  # true recursive support, kept for diagnostics
    )

    # Paper eq. (7): lock the chosen processor and every processor
    # "involved in a communication with a replica of ti".
    state.locked.add(trial.proc)
    state.locked.update(h.proc for h in heads.values())
    for pred, head in heads.items():
        state.pools[pred].remove(head)
    return replica


def fit_support(proc: int, heads: dict[int, Replica], budget: int) -> frozenset[int]:
    """Demote ``heads`` to fan-in until the candidate's support fits.

    The support of a replica on ``proc`` is ``{proc}`` plus its heads'
    supports.  While it exceeds ``budget``, the head with the largest
    ``(len(support), pred)`` is deleted from ``heads``.  The kept heads
    are therefore the longest prefix of the ``(len(support), pred)``
    order whose support fits (the support only grows along that
    order), found in one pass over the sorted heads.  Returns the kept
    heads' support.

    The budget is compared with the plain size, because the support
    never meets the locked set: ``proc`` is unlocked, and
    :func:`support_pools` admits only replicas whose support misses it.
    """
    support = frozenset({proc}).union(*(h.support for h in heads.values()))
    if len(support) <= budget:
        return support
    order = sorted(heads, key=lambda p: (len(heads[p].support), p))
    grown = {proc}
    for kept, pred in enumerate(order):
        grown |= heads[pred].support
        if len(grown) > budget:
            break
    for pred in order[kept:]:
        del heads[pred]
    return frozenset({proc}).union(*(h.support for h in heads.values()))


def support_rows(
    builder: ScheduleBuilder,
    task: int,
    state: PlacementState,
    remaining_after: int,
) -> list[tuple[int, dict[int, Replica], frozenset[int]]]:
    """The candidate rows ``(proc, heads, support)`` of one
    :func:`support_round`.

    The unlocked processors are budgeted evenly over this and the
    outstanding replicas (:func:`fit_support` trims each candidate's
    heads to the budget), and a candidate whose support would leave
    fewer unlocked processors than replicas outstanding is dropped.
    """
    m = builder.instance.num_procs
    # Spread the unlocked processors evenly over this and the outstanding
    # replicas; anything the budget does not cover is served by fan-in.
    unlocked = m - len(state.locked)
    budget = max(1, unlocked // (remaining_after + 1))
    procs = [proc for proc in range(m) if proc not in state.locked]
    rows = []
    for proc, heads in zip(procs, _candidate_heads(builder, task, procs, state.pools)):
        support = fit_support(proc, heads, budget)
        # the support misses the locked set, so it removes len(support)
        # processors from the unlocked ones
        if unlocked - len(support) < remaining_after:
            continue  # cannot even place the bare replica here
        rows.append((proc, heads, support))
    return rows


def support_round(
    builder: ScheduleBuilder,
    task: int,
    state: PlacementState,
    gen: np.random.Generator,
    remaining_after: int,
) -> Replica:
    """One robust placement round with per-predecessor one-to-one decisions.

    For every predecessor whose support-disjoint pool is non-empty a single
    designated supplier is used; the remaining predecessors fall back to
    full fan-in ("greedily add extra communications", Algorithm 5.1 lines
    16–20, applied per predecessor rather than per replica).  The unlocked
    processors are budgeted evenly over the outstanding replicas, and a
    candidate's largest-support heads are demoted to fan-in until its
    support fits the budget — so the round always succeeds, later replicas
    keep real placement freedom, and the task's replicas end up with
    pairwise disjoint supports (the invariant behind Proposition 5.2; see
    module docstring).
    """
    m = builder.instance.num_procs
    preds = builder.instance.graph.preds(task)
    all_replicas = {p: builder.schedule.replicas[p] for p in preds}
    rows = support_rows(builder, task, state, remaining_after)
    if not rows:
        raise SchedulingError(
            f"no feasible processor for a replica of t{task} "
            f"(m={m}, eps={builder.epsilon}) — platform too small"
        )

    trials = builder.candidate_sweep(
        task, [r[0] for r in rows], all_replicas, heads=[r[1] for r in rows]
    )
    candidates = [(t, h, s) for t, (_p, h, s) in zip(trials, rows) if t is not None]
    best_finish = min(t.finish for t, _h, _s in candidates)
    ties = [c for c in candidates if c[0].finish <= best_finish + TIE_EPS]
    trial, heads, support = ties[int(gen.integers(len(ties)))] if len(ties) > 1 else ties[0]

    sources = {p: ([heads[p]] if p in heads else all_replicas[p]) for p in preds}
    if preds and len(heads) == len(preds):
        kind = "channel"
    elif heads:
        kind = "mixed"
    else:
        kind = "channel" if not preds else "greedy"
    replica = builder.commit(task, trial.proc, sources, kind=kind, support=support)
    state.locked |= support
    return replica


def greedy_round(
    builder: ScheduleBuilder,
    task: int,
    state: PlacementState,
    gen: np.random.Generator,
) -> Replica:
    """One full-fan-in placement (Algorithm 5.1, lines 16–20).

    The replica receives from **every** replica of each predecessor — the
    paper's "greedily add extra communications to guarantee failure
    tolerance".  Candidate processors exclude the locked set; if locking
    exhausted the platform (tiny ``m``), fall back to space exclusion only
    and count the replica as degraded.
    """
    sources = full_fanin_sources(builder, task)
    candidates = [p for p in eligible_procs(builder, task) if p not in state.locked]
    if not candidates:
        candidates = eligible_procs(builder, task)
        if not candidates:
            raise SchedulingError(
                f"no processor left for a replica of t{task} "
                f"(m={builder.instance.num_procs}, eps={builder.epsilon})"
            )
        state.degraded += 1
    trials = builder.candidate_sweep(task, candidates, sources)
    best = argmin_trial(trials, gen)
    replica = builder.commit(task, best.proc, sources, kind="greedy")
    state.locked.add(best.proc)
    return replica
