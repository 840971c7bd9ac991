"""Tests for the declarative scenario grid and its work units."""

import json
from dataclasses import replace

import pytest

from repro.experiments.api import apply_overrides, figure_spec
from repro.experiments.config import FIGURES, ExperimentConfig
from repro.experiments.grid import ScenarioGrid, WorkUnit
from repro.experiments.harness import run_rep


@pytest.fixture(scope="module")
def tiny_cfg() -> ExperimentConfig:
    return ExperimentConfig(
        name="grid-tiny",
        granularities=(0.5, 1.5),
        num_procs=5,
        epsilon=1,
        crashes=1,
        num_graphs=3,
        task_range=(10, 12),
    )


class TestWorkUnit:
    def test_unit_id_is_scenario_qualified(self, tiny_cfg):
        unit = WorkUnit(tiny_cfg, 0.5, 2)
        assert unit.unit_id == "grid-tiny|oneport|clique|append|g=0.5|rep=2"
        routed = WorkUnit(tiny_cfg.with_network(topology="ring"), 0.5, 2)
        assert "routed-oneport|ring" in routed.unit_id
        assert routed.unit_id != unit.unit_id

    def test_unit_ids_distinguish_float_granularities(self, tiny_cfg):
        ids = {WorkUnit(tiny_cfg, g, 0).unit_id for g in (0.5, 1.5, 1.0, 0.2)}
        assert len(ids) == 4

    def test_scenario_tags(self, tiny_cfg):
        unit = WorkUnit(tiny_cfg, 1.5, 0)
        assert unit.scenario == {
            "config": "grid-tiny",
            "network": "oneport",
            "topology": "clique",
            "policy": "append",
        }

    def test_run_equals_run_rep(self, tiny_cfg):
        unit = WorkUnit(tiny_cfg, 0.5, 1)
        assert unit.run() == run_rep(tiny_cfg, 0.5, 1)

    def test_wire_round_trip(self, tiny_cfg):
        unit = WorkUnit(tiny_cfg.with_network(topology="star"), 1.5, 2)
        wired = json.loads(json.dumps(unit.to_dict()))
        rebuilt = WorkUnit.from_dict(wired)
        assert rebuilt == unit
        assert rebuilt.unit_id == unit.unit_id

    def test_wire_round_trip_preserves_results(self, tiny_cfg):
        unit = WorkUnit(tiny_cfg, 0.5, 0)
        rebuilt = WorkUnit.from_dict(json.loads(json.dumps(unit.to_dict())))
        assert rebuilt.run() == unit.run()


class TestScenarioGrid:
    def test_units_in_canonical_order(self, tiny_cfg):
        grid = ScenarioGrid.from_config(tiny_cfg)
        units = grid.units()
        assert len(units) == grid.total_units == 6
        assert [(u.granularity, u.rep) for u in units] == [
            (0.5, 0), (0.5, 1), (0.5, 2), (1.5, 0), (1.5, 1), (1.5, 2),
        ]

    def test_figure_spec_grid_applies_overrides(self):
        spec = apply_overrides(figure_spec(2), {"graphs": 4, "topology": "ring"})
        (cfg,) = spec.grid().configs
        assert cfg.name == "figure2" and cfg.num_graphs == 4
        assert cfg.model == "routed-oneport" and cfg.topology == "ring"

    def test_from_scenarios_keeps_seed_pairing(self, tiny_cfg):
        grid = ScenarioGrid.from_scenarios(
            tiny_cfg, topologies=("ring", "star"), policies=("insertion",)
        )
        assert len(grid.configs) == 4
        # Same name everywhere: all scenarios schedule the same instances.
        assert {c.name for c in grid.configs} == {"grid-tiny"}
        keys = {c.scenario_key() for c in grid.configs}
        assert len(keys) == 4

    def test_duplicate_scenarios_rejected(self, tiny_cfg):
        with pytest.raises(ValueError, match="duplicate scenario"):
            ScenarioGrid(configs=(tiny_cfg, tiny_cfg))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ScenarioGrid(configs=())

    def test_manifest_round_trip(self, tiny_cfg):
        grid = ScenarioGrid.from_scenarios(tiny_cfg, topologies=("ring",))
        rebuilt = ScenarioGrid.from_dict(json.loads(json.dumps(grid.to_dict())))
        assert rebuilt == grid
        assert [u.unit_id for u in rebuilt.units()] == [
            u.unit_id for u in grid.units()
        ]


class TestConfigSerialization:
    def test_round_trip_all_figures(self):
        for cfg in FIGURES.values():
            data = json.loads(json.dumps(cfg.to_dict()))
            assert ExperimentConfig.from_dict(data) == cfg

    def test_round_trip_scenario_variants(self, tiny_cfg):
        for cfg in (
            tiny_cfg,
            tiny_cfg.with_network(topology="torus"),
            tiny_cfg.with_network(policy="insertion"),
            replace(tiny_cfg, fast=False),
        ):
            assert ExperimentConfig.from_dict(
                json.loads(json.dumps(cfg.to_dict()))
            ) == cfg

    def test_unknown_keys_ignored(self, tiny_cfg):
        data = tiny_cfg.to_dict()
        data["added_in_a_future_version"] = 42
        assert ExperimentConfig.from_dict(data) == tiny_cfg
