"""Fault-free equivalence classes: one reference run per class.

``caft``, ``caft-paper`` and ``ftsa`` share one fault-free class whose
representative is ``ftsa``.  The harnesses run its ε = 0 schedule once
and reuse it for every member when it reports no near-tie.  This module
pins both halves of that contract:

* the aliasing itself — whenever ``ftsa`` certifies its ε = 0 schedule,
  both CAFT variants build the same schedule, task for task, under every
  registered network, topology and port policy, on both kernel paths;
* the harness rows — ``run_rep`` (and ``run_online_rep`` behind it for
  online configs) equal a
  reference that runs every fault-free entry directly, including on an
  instance with exact ties where the certificate fails and each member
  falls back to its own runner.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.experiments import harness, online
from repro.experiments.api import SPEC_DIR, CampaignSpec
from repro.experiments.config import FIGURES
from repro.experiments.harness import (
    FAULTFREE_RUNNERS,
    campaign_network,
    faultfree_latencies,
    generate_instance,
    generate_topology,
    run_rep,
)
from repro.experiments.registry import (
    FAULTFREE_CLASSES,
    SCHEDULERS,
    faultfree_representative,
    network_names,
    register_scheduler,
    topology_names,
)
from tests.experiments.conftest import equivalence_config

CLASS = ("caft", "caft-paper", "ftsa")

#: (model, topology, port policy): every registered network on the
#: clique, the insertion policy, and the routed model over every shape
SCENARIOS = (
    [(model, None, "append") for model in network_names() if model != "routed-oneport"]
    + [("oneport", None, "insertion")]
    + [("routed-oneport", shape, "append") for shape in topology_names()]
)

SMALL = replace(
    FIGURES[1].with_graphs(2), granularities=(0.4, 2.0), task_range=(10, 16)
)

#: integer costs on identical processors behind identical links: every
#: entry task finishes at the same time on every processor
TIES = replace(
    SMALL,
    name="exact-ties",
    base_cost_range=(1.0, 1.0),
    heterogeneity=0.0,
    delay_range=(1.0, 1.0),
    volume_range=(100.0, 100.0),
)

ONLINE = CampaignSpec.load(SPEC_DIR / "figure_online.json").base_config()


def _per_task(sched):
    return [
        tuple((r.proc, r.start, r.finish) for r in replicas)
        for replicas in sched.replicas
    ]


def test_registry_declares_the_class():
    assert {name: faultfree_representative(name) for name in SCHEDULERS.names()} == {
        "caft": "ftsa",
        "caft-paper": "ftsa",
        "ftsa": "ftsa",
        "ftbar": None,
    }


def test_class_needs_a_registered_self_declared_representative():
    runner = SCHEDULERS.get("caft").runner
    register_scheduler("ff-member", runner, faultfree_class="ff-rep")
    try:
        assert faultfree_representative("ff-member") is None  # not registered
        register_scheduler("ff-rep", runner)
        assert faultfree_representative("ff-member") is None  # not self-declared
        register_scheduler("ff-rep", runner, faultfree_class="ff-rep", overwrite=True)
        assert faultfree_representative("ff-member") == "ff-rep"
        register_scheduler("ff-member", runner, overwrite=True)
        assert faultfree_representative("ff-member") is None  # declaration cleared
    finally:
        for name in ("ff-member", "ff-rep"):
            SCHEDULERS.remove(name)
            FAULTFREE_CLASSES.pop(name, None)


@pytest.mark.parametrize("fast", [True, False])
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    scenario=st.sampled_from(SCENARIOS),
    m=st.integers(3, 7),
    granularity=st.sampled_from([0.2, 1.0, 5.0]),
)
def test_certified_ftsa_reference_is_every_members_reference(
    fast, seed, scenario, m, granularity
):
    model, shape, policy = scenario
    config = replace(
        SMALL, base_seed=seed, num_procs=m, task_range=(3, 14)
    ).with_network(model=model, topology=shape, policy=policy)
    topology = generate_topology(config, granularity, 0)
    inst = generate_instance(config, granularity, 0, topology=topology)
    network = campaign_network(config, inst, topology)
    reference = FAULTFREE_RUNNERS["ftsa"](inst, seed, network, fast)
    assume(reference.metadata["near_ties"] == 0)
    for name in ("caft", "caft-paper"):
        sched = FAULTFREE_RUNNERS[name](inst, seed, network, fast)
        assert _per_task(sched) == _per_task(reference), name


def _direct_latencies(names, inst, rng, model, fast):
    """The reference: every fault-free entry run on its own."""
    return {
        name: FAULTFREE_RUNNERS[name](inst, rng, model, fast).latency()
        for name in names
    }


@pytest.fixture
def faultfree_calls(monkeypatch):
    """Names of the fault-free entries run, in call order."""
    calls = []
    for name in SCHEDULERS.names():
        entry = SCHEDULERS.get(name)

        def counted(*args, _name=name, _faultfree=entry.faultfree):
            calls.append(_name)
            return _faultfree(*args)

        monkeypatch.setitem(
            SCHEDULERS._entries, name, entry._replace(faultfree=counted)
        )
    return calls


def test_exact_ties_fall_back_to_each_member(faultfree_calls):
    inst = generate_instance(TIES, TIES.granularities[0], 0)
    latencies = faultfree_latencies(CLASS, inst, 7, TIES.model, True)
    # the certificate failed, so each CAFT variant ran its own reference
    assert faultfree_calls == ["ftsa", "caft", "caft-paper"]
    assert latencies == _direct_latencies(CLASS, inst, 7, TIES.model, True)


def test_certified_class_runs_once(faultfree_calls):
    inst = generate_instance(SMALL, SMALL.granularities[0], 0)
    latencies = faultfree_latencies(
        ("caft", "ftbar", "caft-paper", "ftsa"), inst, 7, SMALL.model, True
    )
    assert faultfree_calls == ["ftsa", "ftbar"]
    assert latencies == _direct_latencies(latencies, inst, 7, SMALL.model, True)


@pytest.mark.parametrize(
    "config",
    [
        TIES,
        SMALL,
        equivalence_config(),
        replace(SMALL, port_policy="insertion"),
        replace(ONLINE, granularities=ONLINE.granularities[:2]),
        replace(
            ONLINE,
            name="online-ties",
            granularities=ONLINE.granularities[-1:],
            base_cost_range=(1.0, 1.0),
            heterogeneity=0.0,
            delay_range=(1.0, 1.0),
            volume_range=(100.0, 100.0),
        ),
    ],
    ids=["exact-ties", "figure-small", "routed-ring", "insertion", "online", "online-ties"],
)
def test_rows_equal_the_direct_reference(config, monkeypatch):
    units = [(g, rep) for g in config.granularities for rep in range(2)]
    shared = [run_rep(config, g, rep) for g, rep in units]
    monkeypatch.setattr(harness, "faultfree_latencies", _direct_latencies)
    monkeypatch.setattr(online, "faultfree_latencies", _direct_latencies)
    direct = [run_rep(config, g, rep) for g, rep in units]
    assert shared == direct
