"""Hypothesis sweep: every scheduler's output is a valid schedule.

One generator drives all schedulers across instance shapes, granularities,
platform sizes, models and ε — each produced schedule must pass the full
validator (replication, space exclusion, processor exclusivity,
precedence supplies, one-port constraints), have consistent bounds, and
respect the FTSA message ceiling.  FTBAR, FTSA and CAFT also run under
the §2 port variants, whose own rules (one shared engine; no compute
while communicating) the validator checks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.caft import caft
from repro.core.caft_batch import caft_batch
from repro.schedule.bounds import latency_upper_bound
from repro.schedule.metrics import message_bound_ftsa
from repro.schedule.validation import validate_schedule
from repro.schedulers.ftbar import ftbar
from repro.schedulers.ftsa import ftsa
from repro.schedulers.heft import heft
from tests.conftest import make_instance

CASES = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 50_000),
        "v": st.integers(4, 35),
        "m": st.integers(3, 8),
        "eps": st.integers(0, 2),
        "gran": st.sampled_from([0.2, 0.7, 1.0, 3.0, 8.0]),
        "degree_hi": st.integers(1, 4),
    }
)


def build(case):
    return make_instance(
        num_tasks=case["v"],
        num_procs=case["m"],
        granularity=case["gran"],
        seed=case["seed"],
        degree_range=(1, case["degree_hi"]),
    )


def common_checks(sched, expected):
    validate_schedule(sched, expected_replicas=expected)
    assert sched.latency() > 0
    assert latency_upper_bound(sched) >= sched.latency() - 1e-9
    assert sched.message_count() <= message_bound_ftsa(sched)
    assert sched.makespan() >= sched.latency() - 1e-9


@settings(max_examples=25, deadline=None)
@given(case=CASES)
def test_caft_schedule_invariants(case):
    eps = min(case["eps"], case["m"] - 1)
    inst = build(case)
    sched = caft(inst, eps, rng=case["seed"])
    common_checks(sched, eps + 1)
    # support invariant: pairwise disjoint within every task
    for reps in sched.replicas:
        seen: set[int] = set()
        for r in reps:
            assert not (r.support & seen)
            seen |= r.support


@settings(max_examples=20, deadline=None)
@given(case=CASES)
def test_caft_paper_schedule_invariants(case):
    eps = min(case["eps"], case["m"] - 1)
    inst = build(case)
    sched = caft(inst, eps, locking="paper", rng=case["seed"])
    common_checks(sched, eps + 1)


@settings(max_examples=20, deadline=None)
@given(case=CASES)
def test_ftsa_schedule_invariants(case):
    eps = min(case["eps"], case["m"] - 1)
    inst = build(case)
    common_checks(ftsa(inst, eps, rng=case["seed"]), eps + 1)


@settings(max_examples=12, deadline=None)
@given(case=CASES)
def test_ftbar_schedule_invariants(case):
    eps = min(case["eps"], case["m"] - 1)
    inst = build(case)
    common_checks(ftbar(inst, eps, rng=case["seed"]), eps + 1)


@settings(max_examples=15, deadline=None)
@given(case=CASES)
def test_heft_schedule_invariants(case):
    inst = build(case)
    common_checks(heft(inst, rng=case["seed"]), 1)


@settings(max_examples=12, deadline=None)
@given(case=CASES, window=st.integers(2, 8))
def test_caft_batch_schedule_invariants(case, window):
    eps = min(case["eps"], case["m"] - 1)
    inst = build(case)
    sched = caft_batch(inst, eps, window=window, rng=case["seed"])
    common_checks(sched, eps + 1)


@settings(max_examples=15, deadline=None)
@given(
    case=CASES,
    model=st.sampled_from(["uniport", "oneport-nooverlap"]),
    algo=st.sampled_from(["ftbar", "ftsa", "caft"]),
)
def test_port_variant_schedule_invariants(case, model, algo):
    eps = min(case["eps"], case["m"] - 1)
    inst = build(case)
    run = {"ftbar": ftbar, "ftsa": ftsa, "caft": caft}[algo]
    sched = run(inst, eps, model=model, rng=case["seed"])
    assert sched.model == model
    common_checks(sched, eps + 1)


@settings(max_examples=15, deadline=None)
@given(
    case=CASES,
    shape=st.sampled_from(["ring", "torus"]),
    algo=st.sampled_from(["ftbar", "ftsa", "caft"]),
)
def test_routed_schedule_invariants(case, shape, algo):
    """Routed sparse interconnects: the validator also checks that no two
    transfers crossing one directed physical hop overlap."""
    from repro.comm.routed import RoutedOnePortNetwork
    from repro.platform.instance import ProblemInstance
    from repro.platform.topology import make_topology
    from repro.platform.heterogeneity import scale_to_granularity

    eps = min(case["eps"], case["m"] - 1)
    base = build(case)
    topology = make_topology(shape, case["m"])
    platform = topology.to_platform()
    inst = ProblemInstance(
        base.graph,
        platform,
        scale_to_granularity(base.graph, platform, base.exec_cost, case["gran"]),
    )
    run = {"ftbar": ftbar, "ftsa": ftsa, "caft": caft}[algo]
    sched = run(inst, eps, model=RoutedOnePortNetwork(topology), rng=case["seed"])
    assert sched.model == "routed-oneport"
    common_checks(sched, eps + 1)
