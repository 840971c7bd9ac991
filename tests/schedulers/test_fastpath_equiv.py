"""Fast-path equivalence: the placement kernel must be bit-identical.

``fast=True`` routes every candidate evaluation through
:class:`repro.schedule.kernel.TrialKernel`; the contract is that the
committed schedule — every replica, every message, every float — is
indistinguishable from the slow reserve-and-rollback path.  This suite
compares full commit logs for all four algorithms (CAFT under both
lockings, plus the batched CAFT extension) across ε ∈ {0, 1, 2} and 10 seeded random instances for
every kernel-capable model — the paper's one-port, its §2 variants, the
contention-free macro model, the insertion-policy ablation and routed
sparse topologies (ring, torus, star).
"""

import numpy as np
import pytest

from repro.comm.oneport import OnePortNetwork
from repro.comm.routed import RoutedOnePortNetwork
from repro.core.caft import caft
from repro.core.caft_batch import caft_batch
from repro.dag.generators import random_dag
from repro.platform.heterogeneity import range_exec_matrix, uniform_delay_platform
from repro.platform.instance import ProblemInstance
from repro.platform.topology import make_topology, randomize_link_delays
from repro.schedule.kernel import TrialKernel
from repro.schedule.schedule import Replica, Schedule
from repro.schedulers.ftbar import ftbar
from repro.schedulers.ftsa import ftsa
from repro.schedulers.heft import heft

SEEDS = list(range(10))
MODELS = ("oneport", "macro-dataflow")
EPSILONS = (0, 1, 2)
#: §7 sparse interconnect shapes pinned by the routed equivalence matrix
TOPOLOGY_SHAPES = ("ring", "torus", "star")

ALGORITHMS = {
    "heft": lambda inst, eps, model, fast: heft(
        inst, model=model, rng=eps, fast=fast
    ),
    "ftsa": lambda inst, eps, model, fast: ftsa(
        inst, eps, model=model, rng=eps, fast=fast
    ),
    "ftbar": lambda inst, eps, model, fast: ftbar(
        inst, eps, model=model, rng=eps, fast=fast
    ),
    "caft": lambda inst, eps, model, fast: caft(
        inst, eps, model=model, rng=eps, fast=fast
    ),
    # the literal Algorithm 5.2: one-to-one rounds, greedy completion
    # rounds and strict local suppression
    "caft-paper": lambda inst, eps, model, fast: caft(
        inst, eps, model=model, locking="paper", rng=eps, fast=fast
    ),
    "caft-batch": lambda inst, eps, model, fast: caft_batch(
        inst, eps, window=3, model=model, rng=eps, fast=fast
    ),
}


def make_instance(seed: int, num_tasks: int = 14, num_procs: int = 5):
    rng = np.random.default_rng(seed)
    graph = random_dag(num_tasks, degree_range=(1, 3), volume_range=(5.0, 20.0), rng=rng)
    platform = uniform_delay_platform(num_procs, rng=rng)
    base = rng.uniform(1.0, 3.0, size=num_tasks)
    exec_cost = range_exec_matrix(base, num_procs, heterogeneity=0.5, rng=rng)
    return ProblemInstance(graph, platform, exec_cost)


def make_routed_instance(seed: int, shape: str, num_tasks: int = 14, num_procs: int = 6):
    """Instance over a sparse interconnect: the platform is the topology's
    effective route-delay matrix, per-link delays drawn per seed."""
    rng = np.random.default_rng(seed)
    graph = random_dag(num_tasks, degree_range=(1, 3), volume_range=(5.0, 20.0), rng=rng)
    topo = randomize_link_delays(
        make_topology(shape, num_procs), (0.5, 1.0), rng
    )
    base = rng.uniform(1.0, 3.0, size=num_tasks)
    exec_cost = range_exec_matrix(base, num_procs, heterogeneity=0.5, rng=rng)
    return ProblemInstance(graph, topo.to_platform(), exec_cost), topo


def commit_signature(schedule: Schedule) -> list[tuple]:
    """The full commit log as comparable tuples (exact floats)."""
    out = []
    for entry in schedule.commit_log:
        if isinstance(entry, Replica):
            out.append(
                (
                    "R",
                    entry.task,
                    entry.index,
                    entry.proc,
                    entry.start,
                    entry.finish,
                    entry.kind,
                    tuple(sorted(entry.support)),
                )
            )
        else:
            out.append(
                (
                    "C",
                    entry.src_task,
                    entry.dst_task,
                    entry.src_proc,
                    entry.dst_proc,
                    entry.volume,
                    entry.start,
                    entry.finish,
                )
            )
    return out


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_fast_slow_identical_commit_logs(algo, epsilon, model):
    if algo == "heft" and epsilon:
        pytest.skip("HEFT has no replication parameter")
    run = ALGORITHMS[algo]
    for seed in SEEDS:
        inst = make_instance(seed)
        slow = run(inst, epsilon, model, False)
        fast = run(inst, epsilon, model, True)
        assert commit_signature(slow) == commit_signature(fast), (
            f"{algo} eps={epsilon} model={model} seed={seed}"
        )
        assert slow.latency() == fast.latency()
        assert slow.task_order == fast.task_order


@pytest.mark.parametrize("model", ("uniport", "oneport-nooverlap"))
def test_oneport_variants_identical(model):
    """The §2 model variants go through the kernel too.

    FTBAR must be in this matrix: it is the only algorithm exercising
    the kernel's epoch cache, whose invalidation rules are exactly where
    the variants differ (uniport aliases the send/receive ports, so a
    commit dirties both sides of every touched processor).
    """
    for seed in SEEDS[:6]:
        for num_tasks, num_procs in ((14, 5), (18, 8)):
            inst = make_instance(seed, num_tasks=num_tasks, num_procs=num_procs)
            for algo in ("ftsa", "ftbar", "caft"):
                for epsilon in (0, 1):
                    slow = ALGORITHMS[algo](inst, epsilon, model, False)
                    fast = ALGORITHMS[algo](inst, epsilon, model, True)
                    assert commit_signature(slow) == commit_signature(fast), (
                        f"{algo} model={model} seed={seed} eps={epsilon} "
                        f"v={num_tasks} m={num_procs}"
                    )


@pytest.mark.parametrize("shape", TOPOLOGY_SHAPES)
@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_routed_fast_slow_identical_commit_logs(algo, epsilon, shape):
    """Routed sparse topologies go through the route-aware evaluator.

    FTBAR matters most here: its epoch cache must notice that two
    routes sharing a physical link dirty each other (ring and star force
    heavy route sharing), which is exactly what the per-directed-hop
    epochs exist for.
    """
    if algo == "heft" and epsilon:
        pytest.skip("HEFT has no replication parameter")
    run = ALGORITHMS[algo]
    for seed in SEEDS:
        inst, topo = make_routed_instance(seed, shape)
        slow = run(inst, epsilon, RoutedOnePortNetwork(topo), False)
        fast = run(inst, epsilon, RoutedOnePortNetwork(topo), True)
        assert commit_signature(slow) == commit_signature(fast), (
            f"{algo} eps={epsilon} topology={shape} seed={seed}"
        )
        assert slow.latency() == fast.latency()
        assert slow.task_order == fast.task_order


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_insertion_policy_fast_slow_identical_commit_logs(algo, epsilon):
    """The gap-reusing insertion policy goes through the kernel too —
    trials must replay the first-common-gap scan bit-identically."""
    if algo == "heft" and epsilon:
        pytest.skip("HEFT has no replication parameter")
    run = ALGORITHMS[algo]
    for seed in SEEDS:
        inst = make_instance(seed)
        slow = run(
            inst, epsilon, OnePortNetwork(inst.platform, policy="insertion"), False
        )
        fast = run(
            inst, epsilon, OnePortNetwork(inst.platform, policy="insertion"), True
        )
        assert commit_signature(slow) == commit_signature(fast), (
            f"{algo} eps={epsilon} model=oneport/insertion seed={seed}"
        )
        assert slow.latency() == fast.latency()
        assert slow.task_order == fast.task_order


def test_kernel_stats_counters_and_epoch_cache(monkeypatch):
    """``kernel_stats()`` exposes evaluator kind and cache traffic; a
    repeated candidate sweep with untouched resources must be served
    entirely from the epoch cache, and every
    row of CAFT's pruned sweeps — designated heads included — is a hit,
    a miss (each exact evaluation) or pruned."""
    import importlib

    from repro.schedulers.base import make_builder

    caft_mod = importlib.import_module("repro.core.caft")

    inst = make_instance(0)
    m = inst.num_procs
    builder = make_builder(inst, 1, "oneport", "t", fast=True)
    task = next(t for t in inst.graph.topological_order() if not inst.graph.preds(t))
    first = builder.candidate_sweep(task, range(m), {}, keep=m)
    stats = builder.kernel_stats()
    assert stats["evaluator"] == "oneport"
    assert stats["cache_misses"] == m and stats["cache_hits"] == 0
    second = builder.candidate_sweep(task, range(m), {}, keep=m)
    stats = builder.kernel_stats()
    assert stats["cache_hits"] == m, "repeat sweep must be all cache hits"
    assert stats["cache_hit_rate"] == 0.5
    assert [(t.start, t.finish) for t in first] == [
        (t.start, t.finish) for t in second
    ]
    assert make_builder(inst, 1, "oneport", "t", fast=False).kernel_stats() is None

    builders, rows, evals = [], [0], [0]
    monkeypatch.setattr(
        caft_mod, "make_builder",
        lambda *a, **k: builders.append(make_builder(*a, **k)) or builders[-1],
    )
    sweep, evaluate = TrialKernel.candidate_sweep, TrialKernel._eval

    def counted_sweep(kernel, task, procs, *args, **kwargs):
        rows[0] += len(procs)
        return sweep(kernel, task, procs, *args, **kwargs)

    def counted_eval(kernel, *args, **kwargs):
        evals[0] += 1
        return evaluate(kernel, *args, **kwargs)

    monkeypatch.setattr(TrialKernel, "candidate_sweep", counted_sweep)
    monkeypatch.setattr(TrialKernel, "_eval", counted_eval)
    caft(make_instance(0, num_tasks=20, num_procs=8), 2, rng=0)
    stats = builders[0].kernel_stats()
    assert stats["cache_misses"] == evals[0]
    assert 0 < stats["pruned_rows"] < stats["bound_rows"]
    assert stats["cache_hits"] + stats["cache_misses"] + stats["pruned_rows"] == rows[0]


def test_fallback_warning_names_capability(caplog):
    """The one-time fallback warning must say *which* declared capability
    combination forced the slow path."""
    import logging

    from repro.comm.base import KernelCaps
    from repro.schedule import kernel as kernel_mod
    from repro.schedulers.base import make_builder

    class RoutedGapNetwork(RoutedOnePortNetwork):
        name = "routed-gap-hybrid"

        def kernel_caps(self):
            return KernelCaps(routed=True, gap_timelines=True)

    kernel_mod._fallback_warned.clear()
    rinst, topo = make_routed_instance(0, "ring")
    with caplog.at_level(logging.WARNING, logger="repro.schedule.kernel"):
        builder = make_builder(rinst, 1, RoutedGapNetwork(topo), "t", fast=True)
    assert not builder.fast
    warnings = [r for r in caplog.records if "reserve-and-rollback" in r.message]
    assert len(warnings) == 1
    assert "'gap_timelines+routed'" in warnings[0].message


def test_filtered_pools_do_not_alias_entry_cache():
    """Same-length but different source pools must not hit a stale cache.

    Only canonical full-fan-in pools (the live ``schedule.replicas``
    lists) are cacheable; an arbitrary filtered pool of equal length is
    evaluated fresh.
    """
    from repro.schedulers.base import make_builder

    inst = make_instance(0)
    graph = inst.graph
    task = next(t for t in graph.topological_order() if len(graph.preds(t)) == 1)
    pred = graph.preds(task)[0]

    def run(fast):
        builder = make_builder(inst, 1, "oneport", "t", fast=fast)
        for t in graph.topological_order():
            if t == task:
                break
            for proc in (0, 1):
                builder.commit(
                    t, proc, {p: builder.schedule.replicas[p] for p in graph.preds(t)}
                )
        reps = builder.schedule.replicas[pred]
        first = builder.candidate_sweep(task, [2, 3], {pred: [reps[0]]}, keep=2)
        second = builder.candidate_sweep(task, [2, 3], {pred: [reps[1]]}, keep=2)
        return [(t.start, t.finish) for t in first + second]

    assert run(True) == run(False)


class _CapabilityLessNetwork(OnePortNetwork):
    """A user subclass that opts out of the resource-frontier protocol."""

    name = "oneport-custom"

    def __init__(self, platform):
        super().__init__(platform, policy="append")

    def clone_args(self):
        return (self.platform,)

    def kernel_caps(self):
        return None


def test_unsupported_model_falls_back_with_warning(caplog):
    """A model without kernel capabilities must still work under
    ``fast=True`` — exact path, identical schedules — and the silent
    degradation of old must now announce itself exactly once."""
    import logging

    from repro.schedule import kernel as kernel_mod

    kernel_mod._fallback_warned.clear()
    inst = make_instance(0)
    with caplog.at_level(logging.WARNING, logger="repro.schedule.kernel"):
        sched = ftsa(inst, 1, model=_CapabilityLessNetwork(inst.platform), rng=0, fast=True)
        again = ftsa(inst, 1, model=_CapabilityLessNetwork(inst.platform), rng=0, fast=True)
    ref = ftsa(inst, 1, model=_CapabilityLessNetwork(inst.platform), rng=0, fast=False)
    assert commit_signature(sched) == commit_signature(ref)
    assert commit_signature(again) == commit_signature(ref)
    warnings = [r for r in caplog.records if "reserve-and-rollback" in r.message]
    assert len(warnings) == 1, "fallback warning must fire exactly once per model"
    assert "oneport-custom" in warnings[0].message
    assert "kernel_caps" in warnings[0].message


def test_subclass_with_overridden_semantics_falls_back():
    """A subclass that changes transfer semantics must NOT inherit the
    parent's kernel capabilities — the kernel would mirror the parent's
    algebra and silently diverge.  The built-in ``kernel_caps()`` guard
    on the exact type forces such subclasses onto the exact path."""
    from repro.schedulers.base import make_builder

    class DoubledOnePort(OnePortNetwork):
        """Overrides the algebra but *not* kernel_caps()."""

        def transfer_time(self, src, dst, volume):
            return 2.0 * super().transfer_time(src, dst, volume)

        def sender_bound(self, src, dst, ready, volume):
            if src == dst:
                return ready
            w = 2.0 * volume * self._delay[src][dst]
            if w == 0.0:
                return ready
            return max(ready, self._send_free[src], self._link_free[src * self._m + dst]) + w

        def place_transfer(self, src, dst, ready, volume):
            return super().place_transfer(src, dst, ready, 2.0 * volume)

    inst = make_instance(0)
    assert DoubledOnePort(inst.platform).kernel_caps() is None
    builder = make_builder(inst, 1, DoubledOnePort(inst.platform), "t", fast=True)
    assert not builder.fast, "subclass must not inherit the parent's kernel"
    fast = ftsa(inst, 1, model=DoubledOnePort(inst.platform), rng=0, fast=True)
    slow = ftsa(inst, 1, model=DoubledOnePort(inst.platform), rng=0, fast=False)
    assert commit_signature(fast) == commit_signature(slow)


def test_kernel_active_for_all_protocol_models():
    """Every capability-declaring model gets a kernel — no type checks."""
    from repro.schedulers.base import make_builder

    inst = make_instance(0, num_procs=5)
    for spec in (
        "oneport",
        "uniport",
        "oneport-nooverlap",
        "macro-dataflow",
        OnePortNetwork(inst.platform, policy="insertion"),
    ):
        builder = make_builder(inst, 1, spec, "t", fast=True)
        assert builder.fast, f"kernel inactive for {spec!r}"
    rinst, topo = make_routed_instance(0, "ring")
    builder = make_builder(rinst, 1, RoutedOnePortNetwork(topo), "t", fast=True)
    assert builder.fast, "kernel inactive for routed-oneport"
    builder = make_builder(
        rinst, 1, "routed-oneport", "t", topology=topo
    )
    assert builder.network.name == "routed-oneport", "registry spec must resolve"
