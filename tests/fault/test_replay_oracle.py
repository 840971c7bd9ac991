"""Slot-first replay agrees with the reserve-then-rollback oracle.

``replay`` asks the network for each attempted message's slot, decides
delivery from it and reserves only delivered transfers; the oracle
(:mod:`tests.fault.replay_oracle`) places every attempted message
undo-logged and rolls the undelivered ones back.  Every replica and
message must get the same status, start, finish and delivery under
every network model — the production ones and the literal-link
reference models of :mod:`tests.comm.linked_models` — for every crash
set of at most ε processors dead from the start and for random failure
times, and the replay must leave no undo-log entry behind.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.comm import OnePortNetwork, RoutedOnePortNetwork
from repro.experiments.registry import SCHEDULERS
from repro.fault.model import FailureScenario
from repro.fault.simulator import replay
from tests.comm.linked_models import VARIANTS, production_and_reference
from tests.conftest import make_instance
from tests.fault.replay_oracle import reference_replay
from tests.schedulers.test_fastpath_equiv import make_routed_instance

NUM_PROCS = 5


def _models():
    inst = make_instance(12, NUM_PROCS, granularity=0.5, seed=11)
    for name in ("oneport", "uniport", "oneport-nooverlap", "macro-dataflow"):
        yield name, inst, lambda name=name: name
    yield "insertion", inst, lambda: OnePortNetwork(inst.platform, policy="insertion")
    for variant in VARIANTS:
        yield (
            f"linked-{variant}",
            inst,
            lambda variant=variant: production_and_reference(variant, inst.platform)[1],
        )
    for shape in ("ring", "torus"):
        rinst, topo = make_routed_instance(2, shape, num_tasks=12, num_procs=NUM_PROCS)
        yield f"routed-{shape}", rinst, lambda topo=topo: RoutedOnePortNetwork(topo)


MODELS = list(_models())


def outcomes(result):
    replicas = {
        seq: (out.status, out.start, out.finish)
        for seq, out in result.replica_outcomes.items()
    }
    events = {
        seq: (out.delivered, out.start, out.finish)
        for seq, out in result.event_outcomes.items()
    }
    return replicas, events, result.dead_tasks


def scenarios(sched, epsilon, rng):
    """Every crash set of at most ``epsilon`` processors dead from time
    0, then random failure times for random processor sets."""
    for k in range(epsilon + 1):
        for procs in combinations(range(NUM_PROCS), k):
            yield FailureScenario.crash_at_start(procs)
    horizon = sched.makespan()
    for _ in range(12):
        k = int(rng.integers(1, NUM_PROCS))
        procs = rng.choice(NUM_PROCS, size=k, replace=False)
        yield FailureScenario({int(p): float(rng.uniform(0.0, horizon)) for p in procs})


@pytest.mark.parametrize("epsilon", [1, 2])
@pytest.mark.parametrize("model", MODELS, ids=[label for label, _i, _m in MODELS])
@pytest.mark.parametrize("algo", ["caft", "caft-paper", "ftsa", "ftbar"])
def test_replay_matches_reserve_then_rollback(algo, model, epsilon):
    _label, inst, network = model
    sched = SCHEDULERS.get(algo).runner(inst, epsilon, 0, network(), True)
    nets = []
    make_network = sched.make_network

    def recording():
        nets.append(make_network())
        return nets[-1]

    sched.make_network = recording
    rng = np.random.default_rng(epsilon)
    for scenario in scenarios(sched, epsilon, rng):
        got = replay(sched, scenario)
        assert nets[-1].undo_depth() == 0
        assert outcomes(got) == outcomes(reference_replay(sched, scenario)), scenario
