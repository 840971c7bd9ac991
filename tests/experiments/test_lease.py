"""Unit tests for lease sizing, locality keys, and chunked submission.

Pure-python and fast: the wire-level lease behaviour is covered by
``test_socket_executor.py`` (marked ``distributed``) and the full
fault matrix by ``test_conformance.py`` (marked ``conformance``).
"""

from dataclasses import replace

import pytest

from repro.experiments import ExecutorSpec
from repro.experiments.config import FIGURES
from repro.experiments.executors import LeasePolicy, ProcessExecutor
from repro.experiments.grid import ScenarioGrid, WorkUnit


@pytest.fixture()
def small_config():
    return replace(
        FIGURES[1].with_graphs(2),
        granularities=(0.4, 1.2),
        num_procs=6,
        task_range=(12, 18),
    )


class TestFromSpec:
    def test_default_and_auto_are_adaptive(self):
        assert LeasePolicy.from_spec(None).adaptive
        assert LeasePolicy.from_spec("auto").adaptive

    def test_int_and_digit_string_pin_size(self):
        assert LeasePolicy.from_spec(4).size == 4
        assert LeasePolicy.from_spec("4").size == 4

    def test_instance_passes_through(self):
        policy = LeasePolicy(size=7)
        assert LeasePolicy.from_spec(policy) is policy

    def test_target_seconds_seeds_adaptive(self):
        assert LeasePolicy.from_spec("auto", target_seconds=3.0).target_seconds == 3.0

    @pytest.mark.parametrize("bad", ["fast", "", 0, -2, 1.5])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            LeasePolicy.from_spec(bad)


class TestAdaptiveSizing:
    def test_starts_at_min_size_before_any_sample(self):
        policy = LeasePolicy(target_seconds=1.0)
        assert policy.lease_size(100) == policy.min_size

    def test_sizes_to_target_over_observed_latency(self):
        policy = LeasePolicy(target_seconds=1.0)
        policy.observe(0.1)
        assert policy.lease_size(100) == 10

    def test_ewma_tracks_latency_changes(self):
        policy = LeasePolicy(target_seconds=1.0, ewma_alpha=0.5)
        policy.observe(0.1)
        policy.observe(0.3)  # average moves to 0.2
        assert policy.observed_unit_seconds == pytest.approx(0.2)
        assert policy.lease_size(100) == 5

    def test_clamped_to_max_size(self):
        policy = LeasePolicy(target_seconds=10.0, max_size=16)
        policy.observe(0.001)
        assert policy.lease_size(1000) == 16

    def test_fairness_caps_at_queue_share(self):
        policy = LeasePolicy(target_seconds=1.0)
        policy.observe(0.01)  # wants 100 units
        assert policy.lease_size(10, workers=5) == 2
        assert policy.lease_size(10, workers=10) == 1

    def test_bad_observations_ignored(self):
        policy = LeasePolicy(target_seconds=1.0)
        policy.observe(float("nan"))
        policy.observe(-1.0)
        assert policy.observed_unit_seconds is None


class TestFixedSizing:
    def test_fixed_size_capped_by_queue_depth(self):
        policy = LeasePolicy(size=8)
        assert policy.lease_size(3) == 3
        assert policy.lease_size(100) == 8

    def test_empty_queue_leases_nothing(self):
        assert LeasePolicy(size=8).lease_size(0) == 0
        assert LeasePolicy().lease_size(0) == 0


class TestLocality:
    def test_locality_key_is_the_scenario(self, small_config):
        unit = WorkUnit(small_config, 0.4, 0)
        assert unit.locality_key == small_config.scenario_key()
        # Same scenario, different grid coordinates: one warm-cache bucket.
        assert WorkUnit(small_config, 1.2, 1).locality_key == unit.locality_key

    def test_chunks_never_mix_scenarios(self, small_config):
        base = replace(small_config, num_graphs=3)
        grid = ScenarioGrid.from_scenarios(base, topologies=("ring",))
        units = grid.units()
        chunks = LeasePolicy(size=4).chunks(units, workers=2)
        for chunk in chunks:
            assert len({u.locality_key for u in chunk}) == 1
        flattened = [u for chunk in chunks for u in chunk]
        assert flattened == units  # order preserved, nothing lost

    def test_fixed_chunk_sizes(self, small_config):
        units = ScenarioGrid.from_config(small_config).units()  # 4 units
        sizes = [len(c) for c in LeasePolicy(size=3).chunks(units)]
        assert sizes == [3, 1]

    def test_auto_chunks_target_four_per_worker(self, small_config):
        units = ScenarioGrid.from_config(
            replace(small_config, num_graphs=16)
        ).units()  # 32 units
        chunks = LeasePolicy().chunks(units, workers=2)
        assert max(len(c) for c in chunks) == 4  # ceil(32 / (2 * 4))

    def test_empty_units(self):
        assert LeasePolicy().chunks([]) == []


class _StubUnit:
    """Just enough WorkUnit surface for chunk/store plumbing tests."""

    def __init__(self, uid: str, fail: bool = False):
        self.uid = uid
        self.fail = fail
        self.granularity = 1.0
        self.rep = 0

    @property
    def unit_id(self):
        return self.uid

    @property
    def locality_key(self):
        return ("stub",)

    @property
    def scenario(self):
        return {"config": "stub", "network": "oneport",
                "topology": "clique", "policy": "append"}

    def run(self):
        from repro.experiments.harness import RepResult

        if self.fail:
            raise RuntimeError(f"boom in {self.uid}")
        return RepResult(granularity=1.0, rep=0,
                         faultfree_norm={"caft": 1.0},
                         metrics={"caft": {"norm_latency": 1.0}})


class TestChunkFailure:
    def test_run_chunk_keeps_completed_prefix(self):
        from repro.experiments.executors.process import _UnitFailure, _run_chunk

        out = _run_chunk([_StubUnit("a"), _StubUnit("b", fail=True),
                          _StubUnit("c")])
        assert len(out) == 2  # stops at the failure, 'c' never ran
        assert isinstance(out[1], _UnitFailure)
        assert isinstance(out[1].exc, RuntimeError)

    def test_pool_stores_completed_siblings_before_raising(self):
        # A chunk of [ok, ok, fail, ok]: the two completed results must
        # land in the store even though the chunk's third unit raises —
        # a --resume then only recomputes from the failure on.
        from repro.experiments.store import RunStore

        units = [_StubUnit("a"), _StubUnit("b"), _StubUnit("c", fail=True),
                 _StubUnit("d")]
        store = RunStore()
        executor = ProcessExecutor(2, clamp=False, lease=8)  # one chunk
        with pytest.raises(RuntimeError, match="boom in c"):
            executor.run(units, store)
        assert store.completed_ids() == {"a", "b"}


class TestLeaseThreading:
    def test_spec_build_threads_lease_to_process(self):
        ex = ExecutorSpec(kind="process", workers=2).build(lease=5)
        assert isinstance(ex, ProcessExecutor)
        assert ex.lease_policy.size == 5

    def test_spec_build_threads_lease_to_socket(self):
        ex = ExecutorSpec(kind="socket", workers=2).build(lease="auto")
        assert ex.lease_policy.adaptive

    def test_socket_default_targets_twice_heartbeat(self):
        from repro.experiments.executors import SocketExecutor

        ex = SocketExecutor(heartbeat=0.5)
        assert ex.lease_policy.adaptive
        assert ex.lease_policy.target_seconds == pytest.approx(1.0)

    def test_process_lease_equivalence(self, small_config, tmp_path):
        from repro.experiments.campaign import run_grid
        from repro.experiments.grid import ScenarioGrid

        grid = ScenarioGrid.from_config(small_config)
        [serial] = run_grid(grid)
        [chunked] = run_grid(
            grid,
            executor=ProcessExecutor(2, clamp=False, lease=3),
        )
        assert chunked.rows() == serial.rows()
