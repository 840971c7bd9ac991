"""Schedules, builders and kernels are acyclic: reference counting frees them.

Ownership rule (DESIGN.md, "Who owns what"): a receiving replica owns
its messages through ``Replica.inputs`` and a message never points back
at it (``CommEvent.dst_index`` is resolved by ``Schedule.receiver``);
the builder owns its kernel, and the kernel keeps what it reads from
the builder but not the builder itself.  A cycle among these objects
would leave every finished schedule to the cyclic collector.

Each check runs once to warm one-time caches, then again with the
collector off; after the references are dropped, a collection must find
nothing.
"""

import gc
from dataclasses import replace

import pytest

from repro.comm import OnePortNetwork, RoutedOnePortNetwork
from repro.experiments.arrival import ArrivalSpec
from repro.experiments.config import FIGURES, ExperimentConfig
from repro.experiments.harness import run_rep
from repro.experiments.online import run_online_rep
from repro.experiments.registry import SCHEDULERS
from repro.fault.model import FailureScenario
from repro.fault.simulator import replay
from repro.schedule.bounds import latency_upper_bound
from tests.conftest import make_instance
from tests.schedulers.test_fastpath_equiv import make_routed_instance


def _models():
    inst = make_instance(14, 5, seed=3)
    for name in ("oneport", "uniport", "oneport-nooverlap", "macro-dataflow"):
        yield name, inst, lambda name=name: name
    yield "insertion", inst, lambda: OnePortNetwork(inst.platform, policy="insertion")
    for shape in ("ring", "torus"):
        rinst, topo = make_routed_instance(0, shape)
        yield f"routed-{shape}", rinst, lambda topo=topo: RoutedOnePortNetwork(topo)


MODELS = list(_models())


def cyclic_garbage(work) -> int:
    """Objects only the cyclic collector can free after ``work()``."""
    work()  # warm-up: one-time caches are not garbage
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "exact"])
@pytest.mark.parametrize("model", MODELS, ids=[label for label, _i, _m in MODELS])
@pytest.mark.parametrize("algo", SCHEDULERS.names())
def test_schedule_bounds_and_replay_leave_no_cycles(algo, model, fast):
    _label, inst, network = model

    def work():
        epsilon = 0 if algo == "heft" else 1
        sched = SCHEDULERS.get(algo).runner(inst, epsilon, 0, network(), fast)
        latency_upper_bound(sched)
        replay(sched, FailureScenario.crash_at_start([1])).counts()

    assert cyclic_garbage(work) == 0


def test_offline_run_rep_leaves_no_cycles():
    config = ExperimentConfig(
        name="acyclic",
        granularities=(1.0,),
        num_procs=5,
        epsilon=1,
        crashes=1,
        num_graphs=1,
        task_range=(10, 12),
    )
    assert cyclic_garbage(lambda: run_rep(config, 1.0, 0)) == 0


def test_online_run_rep_leaves_no_cycles():
    config = replace(
        FIGURES[1].with_graphs(1),
        granularities=(0.02,),
        num_procs=6,
        epsilon=1,
        crashes=1,
        task_range=(10, 12),
        algorithms=("caft", "ftsa"),
        arrival=ArrivalSpec(kind="poisson", jobs=3, granularity=0.2),
    )
    assert cyclic_garbage(lambda: run_online_rep(config, 0.02, 0)) == 0
