"""Property-based round-trip tests for the campaign wire format.

The ``WorkUnit``/``ScenarioGrid`` JSON wire format is what travels over
the socket protocol (unit dispatch) and into the store manifest
(``--resume``), so it must round-trip *exactly* — any config a user can
build, any float granularity, unicode scenario labels, and extreme
seeds.  Hypothesis generates the configs; equality is dataclass-deep, so
a single drifted field fails loudly.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import ScenarioGrid, WorkUnit
from repro.experiments.store import RunStore

#: every valid (model, topology, policy) combination the config accepts
_SCENARIOS = st.one_of(
    st.tuples(
        st.just("oneport"),
        st.none(),
        st.sampled_from(["append", "insertion"]),
    ),
    st.tuples(
        st.just("routed-oneport"),
        st.sampled_from(["clique", "line", "mesh", "ring", "star", "torus"]),
        st.just("append"),
    ),
    st.tuples(
        st.sampled_from(["uniport", "oneport-nooverlap", "macro-dataflow"]),
        st.none(),
        st.just("append"),
    ),
)

#: scenario labels: any JSON-encodable unicode, including separators
_NAMES = st.text(min_size=1, max_size=24)

#: seed extremes: zero, 64-bit, and beyond (Python ints are unbounded
#: and JSON round-trips them exactly)
_SEEDS = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.just(2**63 - 1),
    st.just(2**96 + 7),
)

_FLOATS = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)


def _range(lo_st, hi_st):
    return st.tuples(lo_st, hi_st).map(lambda t: (min(t), max(t)))


@st.composite
def configs(draw) -> ExperimentConfig:
    model, topology, policy = draw(_SCENARIOS)
    granularities = tuple(
        draw(
            st.lists(_FLOATS, min_size=1, max_size=6, unique=True)
        )
    )
    task_lo = draw(st.integers(2, 100))
    num_procs = draw(st.integers(2, 40))
    return ExperimentConfig(
        name=draw(_NAMES),
        granularities=granularities,
        num_procs=num_procs,
        # ε + 1 replicas need as many distinct processors
        epsilon=draw(st.integers(0, min(5, num_procs - 1))),
        crashes=draw(st.integers(0, 4)),
        num_graphs=draw(st.integers(1, 5)),
        task_range=(task_lo, task_lo + draw(st.integers(0, 60))),
        degree_range=(1, draw(st.integers(1, 5))),
        volume_range=draw(_range(_FLOATS, _FLOATS)),
        delay_range=draw(_range(_FLOATS, _FLOATS)),
        base_cost_range=draw(_range(_FLOATS, _FLOATS)),
        heterogeneity=draw(st.floats(0.0, 1.0)),
        base_seed=draw(_SEEDS),
        algorithms=tuple(
            draw(
                st.lists(
                    st.sampled_from(
                        ["caft", "caft-paper", "ftsa", "ftbar", "heft"]
                    ),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
        ),
        model=model,
        topology=topology,
        port_policy=policy,
        fast=draw(st.booleans()),
        description=draw(st.text(max_size=20)),
    )


def _json_round_trip(data: dict) -> dict:
    """Through the actual wire: compact separators, then parse."""
    return json.loads(json.dumps(data, separators=(",", ":")))


class TestConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(configs())
    def test_config_survives_json(self, cfg):
        assert ExperimentConfig.from_dict(_json_round_trip(cfg.to_dict())) == cfg

    @settings(max_examples=60, deadline=None)
    @given(configs())
    def test_unknown_keys_ignored(self, cfg):
        data = _json_round_trip(cfg.to_dict())
        data["added_in_a_future_version"] = {"nested": [1, 2]}
        assert ExperimentConfig.from_dict(data) == cfg


class TestWorkUnitRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(configs(), st.data())
    def test_unit_survives_json(self, cfg, data):
        g = data.draw(st.sampled_from(cfg.granularities))
        rep = data.draw(st.integers(0, cfg.num_graphs - 1))
        unit = WorkUnit(cfg, g, rep)
        rebuilt = WorkUnit.from_dict(_json_round_trip(unit.to_dict()))
        assert rebuilt == unit
        # Identity is what store rows and resume key on: it must be
        # byte-stable across the wire, not merely equal.
        assert rebuilt.unit_id == unit.unit_id
        assert rebuilt.locality_key == unit.locality_key
        assert rebuilt.scenario == unit.scenario

    def test_extreme_granularities_exact(self):
        cfg = ExperimentConfig(
            name="extremes",
            granularities=(5e-324, 1e308, 1 / 3, 0.1 + 0.2),
            num_procs=4,
            epsilon=1,
            crashes=1,
            num_graphs=1,
        )
        for g in cfg.granularities:
            unit = WorkUnit(cfg, g, 0)
            rebuilt = WorkUnit.from_dict(_json_round_trip(unit.to_dict()))
            # repr-exact: not approx — the unit id embeds repr(g).
            assert rebuilt.granularity == g
            assert math.copysign(1.0, rebuilt.granularity) == 1.0
            assert rebuilt.unit_id == unit.unit_id


class TestGridRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            configs(),
            min_size=1,
            max_size=3,
            unique_by=lambda c: c.scenario_key(),
        )
    )
    def test_grid_survives_json(self, cfgs):
        grid = ScenarioGrid(configs=tuple(cfgs))
        rebuilt = ScenarioGrid.from_dict(_json_round_trip(grid.to_dict()))
        assert rebuilt == grid
        units = grid.units()
        assert len(units) == grid.total_units
        # Unit ids are the store's primary key: they must never collide.
        assert len({u.unit_id for u in units}) == len(units)

    @settings(max_examples=20, deadline=None)
    @given(
        cfgs=st.lists(
            configs(),
            min_size=1,
            max_size=2,
            unique_by=lambda c: c.scenario_key(),
        )
    )
    def test_manifest_disk_round_trip(self, cfgs, tmp_path_factory):
        # Through the real manifest file (indent + text encoding), not
        # just json.dumps: unicode names land on disk and come back.
        grid = ScenarioGrid(configs=tuple(cfgs))
        directory = tmp_path_factory.mktemp("manifest-prop")
        store = RunStore(directory)
        store.write_manifest(grid)
        store.close()
        assert RunStore(directory).read_manifest_grid() == grid
