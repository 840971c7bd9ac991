"""Tests for the algorithm comparison tool."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.caft import caft
from repro.core.caft_batch import caft_batch
from repro.experiments.compare import (
    ComparisonRow,
    compare_algorithms,
    comparison_table,
)
from repro.experiments.registry import SCHEDULERS
from repro.fault.montecarlo import monte_carlo_crashes
from repro.schedule.bounds import latency_upper_bound
from repro.schedule.metrics import normalized_latency
from repro.schedule.utilization import replication_traffic_share
from repro.schedulers.ftbar import ftbar
from repro.schedulers.ftsa import ftsa
from repro.schedulers.heft import heft
from tests.conftest import make_instance

#: the comparison table compare_algorithms kept before it read the
#: scheduler registry: name -> callable(instance, epsilon, model, rng)
OLD_TABLE = {
    "heft": lambda inst, eps, model, rng: heft(inst, model=model, rng=rng),
    "ftsa": lambda inst, eps, model, rng: ftsa(inst, eps, model=model, rng=rng),
    "ftbar": lambda inst, eps, model, rng: ftbar(inst, eps, model=model, rng=rng),
    "caft": lambda inst, eps, model, rng: caft(inst, eps, model=model, rng=rng),
    "caft-paper": lambda inst, eps, model, rng: caft(
        inst, eps, model=model, locking="paper", rng=rng
    ),
    "caft-batch": lambda inst, eps, model, rng: caft_batch(
        inst, eps, model=model, rng=rng
    ),
}


def old_rows(instance, epsilon, model="oneport", crashes=1, samples=25, rng=0):
    """compare_algorithms as it ran over OLD_TABLE, keyed by algorithm."""
    rows = {}
    for name in OLD_TABLE:
        if name == "heft" and epsilon > 0:
            continue
        eps = 0 if name == "heft" else epsilon
        sched = OLD_TABLE[name](instance, eps, model, rng)
        if eps > 0 and crashes > 0:
            mc = monte_carlo_crashes(sched, min(crashes, eps), samples=samples, rng=rng)
            survival, crash_lat = mc.survival_rate, mc.mean_latency
        else:
            survival = 1.0 if eps == 0 else float("nan")
            crash_lat = float("nan")
        rows[name] = ComparisonRow(
            algorithm=name,
            latency=sched.latency(),
            normalized=normalized_latency(sched),
            upper_bound=latency_upper_bound(sched),
            messages=sched.message_count(),
            replication_share=replication_traffic_share(sched),
            survival_rate=survival,
            mean_crash_latency=crash_lat,
        )
    return rows


def assert_same_row(row, ref):
    """Field-by-field equality, NaN equal to NaN."""
    for field in dataclasses.fields(ComparisonRow):
        got, want = getattr(row, field.name), getattr(ref, field.name)
        both_nan = (
            isinstance(got, float) and isinstance(want, float)
            and math.isnan(got) and math.isnan(want)
        )
        assert both_nan or got == want, (row.algorithm, field.name, got, want)


@pytest.fixture(scope="module")
def rows():
    inst = make_instance(num_tasks=15, num_procs=5, seed=4)
    return compare_algorithms(inst, epsilon=1, samples=10, rng=0)


class TestCompare:
    def test_default_skips_heft_with_eps(self, rows):
        names = [r.algorithm for r in rows]
        assert "heft" not in names
        assert "caft" in names and "ftsa" in names

    def test_heft_included_at_eps0(self):
        inst = make_instance(num_tasks=12, num_procs=5)
        rows = compare_algorithms(inst, epsilon=0, crashes=0, rng=0)
        assert "heft" in [r.algorithm for r in rows]

    def test_metrics_sane(self, rows):
        for r in rows:
            assert r.latency > 0
            assert r.normalized >= 1.0
            assert r.upper_bound >= r.latency - 1e-9
            assert 0 <= r.replication_share <= 1
            assert 0.0 <= r.survival_rate <= 1.0

    def test_robust_algorithms_survive(self, rows):
        by_name = {r.algorithm: r for r in rows}
        for name in ("caft", "ftsa", "ftbar", "caft-batch"):
            assert by_name[name].survival_rate == 1.0

    def test_explicit_algorithm_list(self):
        inst = make_instance(num_tasks=12, num_procs=5)
        rows = compare_algorithms(
            inst, epsilon=1, algorithms=["caft", "ftsa"], samples=5, rng=0
        )
        assert [r.algorithm for r in rows] == ["caft", "ftsa"]

    def test_registry_complete(self):
        assert SCHEDULERS.names() == (
            "caft", "caft-batch", "caft-paper", "ftbar", "ftsa", "heft",
        )

    @pytest.mark.parametrize("epsilon", [0, 1])
    def test_rows_equal_the_old_table(self, epsilon):
        inst = make_instance(num_tasks=15, num_procs=5, seed=4)
        rows = compare_algorithms(inst, epsilon=epsilon, samples=10, rng=3)
        reference = old_rows(inst, epsilon, samples=10, rng=3)
        # same rows, now in the registry's name order
        assert [r.algorithm for r in rows] == sorted(reference)
        for row in rows:
            assert_same_row(row, reference[row.algorithm])

    def test_generator_rows_do_not_depend_on_run_order(self):
        # A Generator is drawn from once, so caft's row is the same
        # whether it runs alone or after ftsa consumed random draws.
        inst = make_instance(num_tasks=15, num_procs=5, seed=4)
        [alone] = compare_algorithms(
            inst, epsilon=1, algorithms=["caft"], samples=10,
            rng=np.random.default_rng(0),
        )
        _ftsa, after = compare_algorithms(
            inst, epsilon=1, algorithms=["ftsa", "caft"], samples=10,
            rng=np.random.default_rng(0),
        )
        assert_same_row(after, alone)

    def test_explicit_heft_is_fault_free_at_positive_epsilon(self):
        inst = make_instance(num_tasks=12, num_procs=5)
        [row] = compare_algorithms(inst, epsilon=2, algorithms=["heft"], rng=0)
        assert_same_row(row, old_rows(inst, 0, rng=0)["heft"])
        assert row.survival_rate == 1.0 and math.isnan(row.mean_crash_latency)


class TestTable:
    def test_table_renders_all_rows(self, rows):
        table = comparison_table(rows)
        for r in rows:
            assert r.algorithm in table
        assert "latency" in table and "surv" in table

    def test_table_alignment(self, rows):
        lines = comparison_table(rows).splitlines()
        assert len({len(lines[0]), len(lines[1])}) <= 2  # header + rule match
