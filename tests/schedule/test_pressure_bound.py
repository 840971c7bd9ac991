"""Pruned sweeps: the bounds are sound and the cuts are exact.

``TrialKernel.pressure_sweep`` evaluates exactly only the (free task,
processor) rows whose lower bound could still put them in their task's
ε+1 minimum-``(σ, proc)`` set.  At every FTBAR step, under every kernel
family (clique one-port, uni-port, no-overlap, macro-dataflow, routed
ring/torus/star and the insertion policy) and ε ∈ {0, 1, 2}, this suite
checks that

* the bound of every row is at most its exact start (the reserve-and-
  rollback ``_place``), and equal to it where the kernel certifies it;
* the pruned sweep's urgencies and kept processors equal those of
  scoring every row exactly, with FTBAR's own sort.

``TrialKernel.candidate_sweep`` does the same for one placement of CAFT
(both lockings), FTSA (single evaluation and ``reselect``) and HEFT:
at every placement, every row's finish bound is at most its exact
finish, and the minimum, its ``TIE_EPS`` tie set, FTSA's first ε+1
rows and its near-tie verdict equal those of evaluating every row;
:func:`select_candidates` has direct cases for its cut.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.oneport import OnePortNetwork
from repro.comm.routed import RoutedOnePortNetwork
from repro.dag.generators import random_dag
from repro.platform.heterogeneity import range_exec_matrix, uniform_delay_platform
from repro.platform.instance import ProblemInstance
from repro.platform.topology import make_topology, randomize_link_delays
from repro.core.caft import caft
from repro.schedule.kernel import TrialKernel, select_candidates
from repro.schedule.schedule import TIE_EPS
from repro.schedulers.ftbar import ftbar
from repro.schedulers.ftsa import _near_tie, ftsa
from tests.schedulers.test_fastpath_equiv import commit_signature

#: one scenario per kernel evaluator family (routed over every shape)
SCENARIOS = (
    "oneport",
    "uniport",
    "oneport-nooverlap",
    "macro-dataflow",
    "routed-ring",
    "routed-torus",
    "routed-star",
    "insertion",
)


def build(scenario: str, seed: int, num_tasks: int, num_procs: int):
    """``(instance, network factory)`` for one scenario."""
    rng = np.random.default_rng(seed)
    graph = random_dag(num_tasks, degree_range=(1, 3), volume_range=(5.0, 20.0), rng=rng)
    topo = None
    if scenario.startswith("routed-"):
        topo = randomize_link_delays(
            make_topology(scenario.split("-", 1)[1], num_procs), (0.5, 1.0), rng
        )
        platform = topo.to_platform()
    else:
        platform = uniform_delay_platform(num_procs, rng=rng)
    base = rng.uniform(1.0, 3.0, size=num_tasks)
    exec_cost = range_exec_matrix(base, num_procs, heterogeneity=0.5, rng=rng)
    inst = ProblemInstance(graph, platform, exec_cost)
    if topo is not None:
        return inst, lambda: RoutedOnePortNetwork(topo)
    if scenario == "insertion":
        return inst, lambda: OnePortNetwork(inst.platform, policy="insertion")
    return inst, lambda: scenario


def full_selection(starts, bl, current_length, keep):
    """FTBAR's selection over exactly scored rows: sort ``(σ, proc)``,
    keep the first ``keep``, urgency = the last kept σ."""
    out = []
    for row, b in zip(starts, bl):
        scored = sorted((s + b - current_length, p) for p, s in enumerate(row))
        kept = scored[:keep]
        out.append((kept[-1][0], [p for _s, p in kept]))
    return out


@settings(max_examples=80, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    epsilon=st.sampled_from((0, 1, 2)),
    seed=st.integers(0, 10**6),
    num_tasks=st.integers(6, 16),
    num_procs=st.integers(4, 6),
)
def test_bound_is_sound_and_cut_is_exact(scenario, epsilon, seed, num_tasks, num_procs):
    inst, network = build(scenario, seed, num_tasks, num_procs)
    original = TrialKernel.pressure_sweep
    steps = []

    def checked(kernel, tasks, bl, current_length):
        kept = original(kernel, tasks, bl, current_length)
        # no commit since the sweep: the bound pass and _place see the
        # frontiers the sweep saw
        builder = kernel.builder
        bound, certified = kernel._pressure_bounds(np.asarray(tasks))
        graph = inst.graph
        exact = np.array(
            [
                [
                    builder._place(
                        t,
                        p,
                        {q: builder.schedule.replicas[q] for q in graph.preds(t)},
                        record=False,
                    ).start
                    for p in range(inst.num_procs)
                ]
                for t in tasks
            ]
        )
        assert (bound <= exact).all(), (scenario, tasks, bound - exact)
        assert (bound[certified] == exact[certified]).all()
        assert kept == full_selection(
            exact.tolist(), list(bl), current_length, builder.epsilon + 1
        )
        steps.append(len(tasks))
        return kept

    try:
        TrialKernel.pressure_sweep = checked
        fast = ftbar(inst, epsilon, model=network(), rng=seed, fast=True)
    finally:
        TrialKernel.pressure_sweep = original
    assert len(steps) == num_tasks, "every FTBAR step must go through the sweep"
    slow = ftbar(inst, epsilon, model=network(), rng=seed, fast=False)
    assert commit_signature(fast) == commit_signature(slow)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_sweep_counters_add_up(scenario, monkeypatch):
    """``bound_rows`` splits into evaluated and pruned rows, evaluated
    rows are the only cache misses, and the sweep prunes on every
    family (16 tasks, m = 6, ε = 1).  Macro-dataflow evaluates nothing:
    its bound is the exact start."""
    ftbar_mod = importlib.import_module("repro.schedulers.ftbar")
    inst, network = build(scenario, 3, 16, 6)
    builders = []
    make_builder = ftbar_mod.make_builder

    def recording(*args, **kwargs):
        builders.append(make_builder(*args, **kwargs))
        return builders[-1]

    monkeypatch.setattr(ftbar_mod, "make_builder", recording)
    ftbar(inst, 1, model=network(), rng=0, fast=True)
    stats = builders[0].kernel_stats()
    assert 0 < stats["pruned_rows"] <= stats["bound_rows"]
    evaluated = stats["bound_rows"] - stats["pruned_rows"]
    assert stats["cache_misses"] == evaluated
    if scenario == "macro-dataflow":
        assert evaluated == 0


def test_pools_wider_than_epsilon_plus_one():
    """A predecessor with more than ε+1 replicas widens the message grid;
    the sweep still selects exactly what scoring every row does."""
    from repro.dag.graph import TaskGraph
    from repro.schedulers.base import make_builder

    rng = np.random.default_rng(5)
    graph = TaskGraph(3, [(0, 1, 10.0), (0, 2, 4.0)])
    inst = ProblemInstance(
        graph, uniform_delay_platform(6, rng=rng), rng.uniform(1.0, 3.0, size=(3, 6))
    )
    results = []
    for fast in (True, False):
        builder = make_builder(inst, 1, "oneport", "wide", fast=fast)
        for proc in (0, 2, 4):  # three replicas under ε = 1
            builder.commit(0, proc, {})
        results.append(builder.pressure_sweep([1, 2], np.array([3.0, 1.0]), 1.5))
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# CAFT's and FTSA's per-placement candidate sweeps
# ----------------------------------------------------------------------
CANDIDATE_ALGORITHMS = {
    "caft": lambda inst, eps, net, seed, fast: caft(
        inst, eps, model=net, rng=seed, fast=fast
    ),
    "caft-paper": lambda inst, eps, net, seed, fast: caft(
        inst, eps, model=net, locking="paper", rng=seed, fast=fast
    ),
    "ftsa": lambda inst, eps, net, seed, fast: ftsa(
        inst, eps, model=net, rng=seed, fast=fast
    ),
    "ftsa-reselect": lambda inst, eps, net, seed, fast: ftsa(
        inst, eps, model=net, reselect=True, rng=seed, fast=fast
    ),
}


def first_rows(trials, keep):
    """The first ``keep`` evaluated rows in FTSA's ``(finish, proc)`` order."""
    done = sorted((t for t in trials if t is not None), key=lambda t: (t.finish, t.proc))
    return [(t.proc, t.start, t.finish) for t in done[:keep]]


@settings(max_examples=80, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    algo=st.sampled_from(sorted(CANDIDATE_ALGORITHMS)),
    epsilon=st.sampled_from((0, 1, 2)),
    seed=st.integers(0, 10**6),
    num_tasks=st.integers(6, 16),
    num_procs=st.integers(4, 6),
)
def test_candidate_bound_is_sound_and_cut_is_exact(
    scenario, algo, epsilon, seed, num_tasks, num_procs
):
    """At every placement: every row's bound is at most its exact
    ``_place`` finish, every evaluated row is exact, and the pruned
    sweep yields the same minimum, tie set, first ``keep`` rows and FTSA
    near-tie verdict as evaluating every row."""
    inst, network = build(scenario, seed, num_tasks, num_procs)
    original = TrialKernel.candidate_sweep
    sweeps = []

    def checked(kernel, task, procs, sources, heads=None, keep=1):
        trials = original(kernel, task, procs, sources, heads, keep)
        # no commit since the sweep: the bounds and _place see the
        # frontiers the sweep saw
        builder = kernel.builder
        entries, _ = kernel._entries_for(task, sources)
        bounds = kernel._finish_bounds(task, procs, entries, heads)
        full = [
            builder._place(
                task,
                p,
                {q: ([hd[q]] if q in hd else srcs) for q, srcs in sources.items()},
                record=False,
            )
            for p, hd in zip(procs, heads if heads is not None else [{}] * len(procs))
        ]
        for b, exact, got in zip(bounds, full, trials):
            assert b <= exact.finish, (scenario, algo, task, b, exact)
            assert got is None or got == exact
        best = min(t.finish for t in full)
        ties = [i for i, t in enumerate(full) if t.finish <= best + TIE_EPS]
        assert all(trials[i] is not None for i in ties), "a tie was pruned"
        assert first_rows(trials, keep) == first_rows(full, keep)
        assert _near_tie(trials) == _near_tie(full)
        sweeps.append(sum(t is None for t in trials))
        return trials

    try:
        TrialKernel.candidate_sweep = checked
        fast = CANDIDATE_ALGORITHMS[algo](inst, epsilon, network(), seed, True)
    finally:
        TrialKernel.candidate_sweep = original
    assert len(sweeps) >= num_tasks, "every placement must go through the sweep"
    slow = CANDIDATE_ALGORITHMS[algo](inst, epsilon, network(), seed, False)
    assert commit_signature(fast) == commit_signature(slow)
    assert fast.metadata == slow.metadata


def _select(bounds, exact, keep, cached=()):
    """Run :func:`select_candidates` over ``exact`` finishes with the
    rows in ``cached`` already known; returns (finishes, evaluated rows)."""
    evaluated = []

    def evaluate(i):
        evaluated.append(i)
        return exact[i]

    finishes = [exact[i] if i in cached else None for i in range(len(exact))]
    return select_candidates(bounds, finishes, keep, evaluate), evaluated


def test_select_candidates_rows_in_bound_order_until_the_cut():
    bounds = [3.0, 1.0, 2.5, 7.0, 2.0]
    exact = [3.5, 2.0, 2.5, 9.0, 6.0]
    out, evaluated = _select(bounds, exact, 1)
    # best is 2.0 after row 1; rows 4 (bound 2.0) and 2 (bound 2.5 > 2.0
    # + TIE_EPS) — the cut falls before row 2
    assert evaluated == [1, 4]
    assert out == [None, 2.0, None, None, 6.0]


def test_select_candidates_bound_at_tie_threshold_is_evaluated():
    best = 4.0
    bounds = [best, best + TIE_EPS, np.nextafter(best + TIE_EPS, np.inf)]
    exact = [best, best + TIE_EPS, 5.0]
    out, evaluated = _select(bounds, exact, 1)
    assert evaluated == [0, 1], "a bound equal to best + TIE_EPS may still tie"
    assert out == [best, best + TIE_EPS, None]


def test_select_candidates_keeps_keep_rows_before_cutting():
    bounds = [1.0, 1.5, 2.0, 3.0, 3.2, 8.0]
    exact = [1.0, 5.0, 2.0, 3.0, 3.5, 8.0]
    # no cut before three rows are exact; then the threshold is the
    # third smallest exact finish, tightening as rows come in
    out, evaluated = _select(bounds, exact, 3)
    assert evaluated == [0, 1, 2, 3], "row 4's bound 3.2 exceeds the third finish 3.0"
    assert out == [1.0, 5.0, 2.0, 3.0, None, None]
    assert first_rows_of(out, 3) == first_rows_of(exact, 3) == [0, 2, 3]
    # cached exact rows count towards `keep` from the start: only row
    # 1's bound (1.5) is under the second finish (2.0)
    out, evaluated = _select(bounds, exact, 2, cached={0, 2})
    assert evaluated == [1]
    assert out == [1.0, 5.0, 2.0, None, None, None]


def first_rows_of(finishes, keep):
    return sorted(
        (i for i, f in enumerate(finishes) if f is not None),
        key=lambda i: (finishes[i], i),
    )[:keep]
