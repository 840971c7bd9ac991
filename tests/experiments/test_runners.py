"""Tests for the scheduler registry's runners and fault-free references."""

import pytest

from repro.experiments.config import DEFAULT_ALGORITHMS, FIGURES
from repro.experiments.harness import generate_instance
from repro.experiments.registry import SCHEDULERS
from repro.schedule.validation import validate_schedule


def entries():
    """``(name, entry)`` of every registered scheduler."""
    return [(name, SCHEDULERS.get(name)) for name in SCHEDULERS.names()]


@pytest.fixture(scope="module")
def inst():
    cfg = FIGURES[1]
    return generate_instance(cfg, 1.0, 0)


class TestRegistries:
    def test_default_algorithms_have_runners(self):
        for name in DEFAULT_ALGORITHMS:
            assert name in SCHEDULERS
            assert callable(SCHEDULERS.get(name).faultfree)

    def test_runners_produce_valid_schedules(self, inst):
        for name, entry in entries():
            sched = entry.runner(inst, 1, 0, "oneport")
            # heft replicates nothing whatever ε is asked for
            eps = 0 if name == "heft" else 1
            validate_schedule(sched, expected_replicas=eps + 1)
            assert sched.epsilon == eps

    def test_faultfree_runners_single_replica(self, inst):
        for name, entry in entries():
            sched = entry.faultfree(inst, 0, "oneport")
            validate_schedule(sched, expected_replicas=1)

    def test_runners_deterministic_in_seed(self, inst):
        for name, entry in entries():
            a = entry.runner(inst, 1, 123, "oneport").latency()
            b = entry.runner(inst, 1, 123, "oneport").latency()
            assert a == b, name

    def test_runner_names_match_schedules(self, inst):
        for name, entry in entries():
            sched = entry.runner(inst, 1, 0, "oneport")
            assert sched.scheduler.startswith(name.split("-")[0])

    def test_macro_model_supported(self, inst):
        sched = SCHEDULERS.get("ftsa").runner(inst, 1, 0, "macro-dataflow")
        assert sched.model == "macro-dataflow"
