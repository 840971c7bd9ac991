"""Pruned sweeps: the bounds are sound and the cuts are exact.

``TrialKernel.pressure_sweep`` bounds every (free task, processor) row
from below and above, resolves exactly only the free tasks whose
urgency bound can reach FTBAR's tie list, and within them only the rows
that can enter their task's ε+1 minimum-``(σ, proc)`` set.  At every
FTBAR step, under every kernel family (clique one-port, uni-port,
no-overlap, macro-dataflow, routed ring/torus/star and the insertion
policy) and ε ∈ {0, 1, 2}, this suite checks that

* every row's lower bound (and, on the insertion family, its committed-
  gap bound) is at most its exact start (the reserve-and-rollback
  ``_place``), equal to it where the kernel certifies it, and the exact
  start is at most the row's upper bound;
* the sweep's tie list — tasks and kept processors — equals the one of
  scoring every row exactly and running FTBAR's tie loop over every
  task;

and :func:`urgency_ties`' pruning certificate has direct cases.

``TrialKernel.candidate_sweep`` does the same for one placement of CAFT
(both lockings), FTSA (single evaluation and ``reselect``) and HEFT:
at every placement, every row's finish bound is at most its exact
finish, and the minimum, its ``TIE_EPS`` tie set, FTSA's first ε+1
rows and its near-tie verdict equal those of evaluating every row;
:func:`select_candidates` has direct cases for its cut.
"""

import importlib
import random

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
from repro.schedule.kernel import TrialKernel, select_candidates, urgency_ties
from repro.schedule.schedule import TIE_EPS, ScheduleBuilder
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


def tie_loop(selections):
    """FTBAR's tie loop over ``(task, urgency, procs)``, written out."""
    best, ties = -float("inf"), []
    for task, urgency, procs in selections:
        if urgency > best + TIE_EPS:
            best, ties = urgency, [(task, procs)]
        elif urgency >= best - TIE_EPS:
            ties.append((task, procs))
    return ties


def full_ties(tasks, starts, bl, current_length, keep):
    """FTBAR's step over exactly scored rows: per task, sort ``(σ,
    proc)``, keep the first ``keep``, urgency = the last kept σ; then the
    tie loop over every task."""
    selections = []
    for task, row, b in zip(tasks, starts, bl):
        kept = sorted((s + b - current_length, p) for p, s in enumerate(row))[:keep]
        selections.append((task, kept[-1][0], [p for _s, p in kept]))
    return tie_loop(selections)


def exact_starts(builder, tasks):
    """``_place`` start of every ``(task, proc)`` row, full fan-in."""
    graph = builder.instance.graph
    replicas = builder.schedule.replicas
    return np.array(
        [
            [
                builder._place(t, p, {q: replicas[q] for q in graph.preds(t)}, record=False).start
                for p in range(builder.instance.num_procs)
            ]
            for t in tasks
        ]
    )


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
    original = ScheduleBuilder.pressure_sweep
    steps = []

    def checked(builder, tasks, bl, current_length):
        ties = original(builder, tasks, bl, current_length)
        # no commit since the sweep: the bound pass and _place see the
        # frontiers the sweep saw
        kernel = builder._kernel
        lower, upper, certified = kernel._pressure_bounds(np.asarray(tasks))
        exact = exact_starts(builder, tasks)
        assert (lower <= exact).all(), (scenario, tasks, lower - exact)
        assert (exact <= upper).all(), (scenario, tasks, exact - upper)
        assert (lower[certified] == exact[certified]).all()
        assert (upper[certified] == exact[certified]).all()
        if kernel.kind == "insertion":
            for t, row in zip(tasks, exact):
                procs = list(range(inst.num_procs))
                gaps = np.array([kernel._gap_bounds(t, procs)[p] for p in procs])
                assert (gaps <= row).all(), (t, gaps, row)
        assert ties == full_ties(
            tasks, exact.tolist(), list(bl), current_length, builder.epsilon + 1
        )
        steps.append(len(tasks))
        return ties

    try:
        ScheduleBuilder.pressure_sweep = checked
        fast = ftbar(inst, epsilon, model=network(), rng=seed, fast=True)
    finally:
        ScheduleBuilder.pressure_sweep = original
    assert len(steps) == num_tasks, "every FTBAR step must go through the sweep"
    slow = ftbar(inst, epsilon, model=network(), rng=seed, fast=False)
    assert commit_signature(fast) == commit_signature(slow)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_sweep_counters_add_up(scenario, monkeypatch):
    """Every row of a pressure sweep is a hit, a miss or pruned;
    ``bound_rows`` splits into evaluated and pruned rows; evaluated rows
    are exactly the ``_eval`` calls; and both whole tasks and rows are
    pruned on every family (16 tasks, m = 6, ε = 1).  Macro-dataflow
    evaluates nothing: its bounds are the exact starts."""
    ftbar_mod = importlib.import_module("repro.schedulers.ftbar")
    inst, network = build(scenario, 3, 16, 6)
    builders, evals = [], [0]
    make_builder = ftbar_mod.make_builder
    evaluate = TrialKernel._eval

    def recording(*args, **kwargs):
        builders.append(make_builder(*args, **kwargs))
        return builders[-1]

    def counted_eval(kernel, *args, **kwargs):
        evals[0] += 1
        return evaluate(kernel, *args, **kwargs)

    monkeypatch.setattr(ftbar_mod, "make_builder", recording)
    monkeypatch.setattr(TrialKernel, "_eval", counted_eval)
    ftbar(inst, 1, model=network(), rng=0, fast=True)
    stats = builders[0].kernel_stats()
    rows = stats["urgency_tasks"] * inst.num_procs
    assert stats["cache_hits"] + stats["cache_misses"] + stats["pruned_rows"] == rows
    assert stats["cache_misses"] + stats["pruned_rows"] == stats["bound_rows"]
    assert stats["cache_misses"] == evals[0]
    assert 0 < stats["urgency_pruned"] < stats["urgency_tasks"]
    assert 0 <= stats["urgency_fallbacks"] <= inst.graph.num_tasks
    assert 0 < stats["pruned_rows"] <= rows
    if scenario == "macro-dataflow":
        assert evals[0] == 0


def test_failed_certificate_resolves_every_task(monkeypatch):
    """When the tie certificate fails the sweep resolves every pruned
    task and still returns the full selection's tie list."""
    kernel_mod = importlib.import_module("repro.schedule.kernel")
    ftbar_mod = importlib.import_module("repro.schedulers.ftbar")
    certify = kernel_mod.urgency_ties

    def failing(selections, ceiling=-float("inf")):
        return None if ceiling > -float("inf") else certify(selections, ceiling)

    builders = []
    make_builder = ftbar_mod.make_builder
    monkeypatch.setattr(
        ftbar_mod, "make_builder",
        lambda *a, **k: builders.append(make_builder(*a, **k)) or builders[-1],
    )
    monkeypatch.setattr(kernel_mod, "urgency_ties", failing)
    for scenario in ("oneport", "insertion"):
        inst, network = build(scenario, 7, 16, 6)
        fast = ftbar(inst, 1, model=network(), rng=0, fast=True)
        slow = ftbar(inst, 1, model=network(), rng=0, fast=False)
        assert commit_signature(fast) == commit_signature(slow)
        stats = builders[-2].kernel_stats()
        assert stats["urgency_fallbacks"] > 0
        assert stats["urgency_pruned"] == 0


def test_pools_wider_than_epsilon_plus_one():
    """A predecessor with more than ε+1 replicas widens the message grid;
    the sweep's bounds stay sound and its tie list equals that of
    scoring every row."""
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
        if fast:
            lower, upper, _ = builder._kernel._pressure_bounds(np.array([1, 2]))
            exact = exact_starts(builder, [1, 2])
            assert (lower <= exact).all() and (exact <= upper).all()
            assert results[0] == full_ties([1, 2], exact.tolist(), [3.0, 1.0], 1.5, 2)
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# urgency_ties: the tie loop and its pruning certificate
# ----------------------------------------------------------------------
def _selections(urgencies):
    return [(t, u, [t]) for t, u in enumerate(urgencies)]


def _certified(urgencies, omitted, ceiling=None):
    """``urgency_ties`` over the tasks not in ``omitted``, certified
    against ``ceiling`` (default: the largest omitted urgency)."""
    kept = [s for s in _selections(urgencies) if s[0] not in omitted]
    if ceiling is None:
        ceiling = max(urgencies[t] for t in omitted)
    return urgency_ties(kept, ceiling)


def test_urgency_ties_is_ftbars_loop():
    e = TIE_EPS
    chain = [10 * e, 10.6 * e, 11.2 * e, 9.5 * e, 11.9 * e, 3 * e, 11.2 * e]
    full = urgency_ties(_selections(chain))
    assert full == tie_loop(_selections(chain))
    # 10 → 10.6 ties, 11.2 resets (over 10 + ε), 11.9 ties with 11.2,
    # and the late 11.2 ties again
    assert [t for t, _procs in full] == [2, 4, 6]


def test_certificate_rejects_order_dependent_drop():
    """The 3-task counterexample: 8.9, 9.5, 10 (in units of TIE_EPS)
    give [10], but [9.5, 10] once 8.9 is dropped — the band check must
    refuse the drop."""
    e = TIE_EPS
    urgencies = [8.9 * e, 9.5 * e, 10 * e]
    assert [t for t, _ in urgency_ties(_selections(urgencies))] == [2]
    assert [t for t, _ in tie_loop(_selections(urgencies)[1:])] == [1, 2]
    assert _certified(urgencies, {0}) is None


def test_certificate_needs_a_clear_urgency():
    """With every resolved urgency at or below the ceiling an omitted task
    could still join or lead the tie list."""
    e = TIE_EPS
    assert _certified([5 * e, 5 * e], {1}) is None
    assert _certified([4 * e, 5 * e], {1}) is None


def test_certified_drop_of_near_tie_chains():
    """Chains of near-ties (steps of 0.4–0.9 × TIE_EPS) before and after
    the best: dropping the low chain is certified and changes nothing;
    a resolved urgency in the band forces the fallback."""
    e = TIE_EPS
    low = [0.0]
    for step in (0.4, 0.9, 0.6, 0.7, 0.5):
        low.append(low[-1] + step * e)
    high = [low[-1] + 3 * e]
    for step in (0.8, 0.4, 0.9, 0.45):
        high.append(high[-1] + step * e)
    for urgencies in (low + high, high + low, low[:3] + high + low[3:]):
        omitted = {t for t, u in enumerate(urgencies) if u in low}
        full = urgency_ties(_selections(urgencies))
        got = _certified(urgencies, omitted)
        assert got is not None, "the high chain clears the band"
        assert got == full
    # a resolved urgency within 2·TIE_EPS above the ceiling: fallback
    urgencies = low + [low[-1] + 1.5 * e] + high
    omitted = {t for t, u in enumerate(urgencies) if u in low}
    assert _certified(urgencies, omitted) is None


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(st.sampled_from((0.4, 0.5, 0.7, 0.9, 1.6, 2.5, 4.0)), min_size=1, max_size=12),
    seed=st.integers(0, 10**6),
    slack=st.sampled_from((0.0, 0.3, 1.0, 2.5)),
)
def test_certified_drop_equals_the_full_loop(steps, seed, slack):
    """Any set of tasks dropped under a ceiling at or above their
    urgencies: the certified tie list is ``None`` or the full loop's."""
    e = TIE_EPS
    urgencies = [1.0]
    for step in steps:
        urgencies.append(urgencies[-1] + step * e)
    r = random.Random(seed)
    r.shuffle(urgencies)
    omitted = set(r.sample(range(len(urgencies)), r.randint(1, len(urgencies))))
    ceiling = max(urgencies[t] for t in omitted) + slack * e
    got = _certified(urgencies, omitted, ceiling)
    if got is not None:
        assert got == tie_loop(_selections(urgencies))
    clear = [u for u in urgencies if u - e > ceiling + e]
    in_band = [
        u for t, u in enumerate(urgencies)
        if t not in omitted and ceiling < u and u - e <= ceiling + e
    ]
    assert (got is None) == (bool(in_band) or not clear)


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
    original = ScheduleBuilder.candidate_sweep
    sweeps = []

    def checked(builder, task, procs, sources, heads=None, keep=1):
        trials = original(builder, task, procs, sources, heads, keep)
        # no commit since the sweep: the bounds and _place see the
        # frontiers the sweep saw
        kernel = builder._kernel
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
        ScheduleBuilder.candidate_sweep = checked
        fast = CANDIDATE_ALGORITHMS[algo](inst, epsilon, network(), seed, True)
    finally:
        ScheduleBuilder.candidate_sweep = original
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


@pytest.mark.parametrize("shape", ["star", "ring", "torus", "fat-tree"])
def test_route_max_covers_every_hop_of_every_route(shape):
    # The route-hop maximum the routed evaluator and its bounds read must
    # cover the last hop of the last non-empty route too: on a star,
    # route (m-1, m-2) has two hops and sits just before the empty
    # diagonal (m-1, m-1) that ends the hop table.
    from repro.schedulers.base import make_builder

    inst, network = build(f"routed-{shape}", 3, 8, 8)
    builder = make_builder(inst, 1, network(), "probe", fast=True)
    view = builder.network.frontier_view()
    m = inst.num_procs
    # one busy link at a time: every route through it must see it
    for busy in range(view.num_links):
        per_link = np.zeros(view.num_links)
        per_link[busy] = 1.0
        got = builder._kernel._route_max(per_link)
        for src in range(m):
            for dst in range(m):
                hops = view.route_hops[src][dst]
                want = 1.0 if busy in hops else 0.0
                assert got[src, dst] == want, (shape, busy, src, dst, hops)
