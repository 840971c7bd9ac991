"""The network/topology registry behind campaign scenario sweeps.

``ExperimentConfig.with_network`` opens the §7 axis to the figure
pipeline: routed sparse topologies (per-link delays drawn like the
clique path's platform) and the insertion-policy ablation, all through
the same deterministic ``(config, granularity, rep)`` work units — so
parallel campaigns stay bit-identical to serial ones.
"""

import pytest

from repro.comm.oneport import OnePortNetwork
from repro.comm.routed import RoutedOnePortNetwork
from repro.experiments.api import Campaign, CampaignSpec, ExecutorSpec
from repro.experiments.config import FIGURES, ExperimentConfig
from repro.experiments.harness import (
    campaign_network,
    generate_instance,
    generate_topology,
    run_rep,
)


def _tiny(config: ExperimentConfig) -> ExperimentConfig:
    from dataclasses import replace

    return replace(config, task_range=(8, 10), num_procs=6, epsilon=1, crashes=1,
                   num_graphs=2, granularities=(1.0,))


class TestWithNetwork:
    def test_topology_implies_routed_model(self):
        cfg = FIGURES[1].with_network(topology="torus")
        assert cfg.model == "routed-oneport"
        assert cfg.topology == "torus"

    def test_routed_model_defaults_to_ring(self):
        cfg = FIGURES[1].with_network(model="routed-oneport")
        assert cfg.topology == "ring"

    def test_routed_model_keeps_configured_topology(self):
        cfg = FIGURES[1].with_network(topology="torus")
        again = cfg.with_network(model="routed-oneport", policy="append")
        assert again.topology == "torus"

    def test_policy_only_keeps_model(self):
        cfg = FIGURES[1].with_network(policy="insertion")
        assert cfg.model == "oneport"
        assert cfg.port_policy == "insertion"

    def test_noop_returns_self(self):
        assert FIGURES[1].with_network() is FIGURES[1]

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ValueError, match="routed-oneport"):
            FIGURES[1].with_network(model="macro-dataflow", topology="ring")
        with pytest.raises(ValueError, match="port_policy"):
            FIGURES[1].with_network(model="macro-dataflow", policy="insertion")


class TestRoutedCampaign:
    def test_topology_is_deterministic_and_randomized(self):
        cfg = _tiny(FIGURES[1].with_network(topology="ring"))
        a = generate_topology(cfg, 1.0, 0)
        b = generate_topology(cfg, 1.0, 0)
        other = generate_topology(cfg, 1.0, 1)
        assert a.links() == b.links()
        delays_a = [a.link_delay(x, y) for x, y in a.links()]
        assert delays_a == [b.link_delay(x, y) for x, y in b.links()]
        # per-link delays drawn from delay_range, different across reps
        assert all(0.5 <= d <= 1.0 for d in delays_a)
        assert delays_a != [other.link_delay(x, y) for x, y in other.links()]

    def test_instance_platform_matches_topology(self):
        cfg = _tiny(FIGURES[1].with_network(topology="star"))
        topo = generate_topology(cfg, 1.0, 0)
        inst = generate_instance(cfg, 1.0, 0, topology=topo)
        assert inst.platform.delay(1, 2) == pytest.approx(
            topo.effective_delay_matrix()[1, 2]
        )
        net = campaign_network(cfg, inst, topo)
        assert isinstance(net, RoutedOnePortNetwork)
        assert net.topology is topo

    def test_insertion_campaign_network(self):
        cfg = _tiny(FIGURES[1].with_network(policy="insertion"))
        inst = generate_instance(cfg, 1.0, 0)
        net = campaign_network(cfg, inst, None)
        assert isinstance(net, OnePortNetwork)
        assert net.policy == "insertion"

    def test_clique_campaign_network_stays_a_name(self):
        cfg = _tiny(FIGURES[1])
        inst = generate_instance(cfg, 1.0, 0)
        assert campaign_network(cfg, inst, None) == "oneport"

    def test_parallel_equals_serial_on_routed_campaign(self):
        cfg = _tiny(FIGURES[1].with_network(topology="ring"))
        spec = CampaignSpec(config=cfg)
        serial = Campaign(spec).run().result()
        pooled = CampaignSpec(
            config=cfg, executor=ExecutorSpec(kind="process", workers=2)
        )
        assert Campaign(pooled).run().result().rows() == serial.rows()

    def test_rep_is_pure_function_of_labels(self):
        cfg = _tiny(FIGURES[1].with_network(topology="torus"))
        assert run_rep(cfg, 1.0, 0) == run_rep(cfg, 1.0, 0)
