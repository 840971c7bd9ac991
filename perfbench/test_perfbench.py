"""Tests of the benchmark itself: metric math, spans, and smoke runs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spans import Tracer, layer_rollup, self_times, unit_coverage  # noqa: E402
from stats import (  # noqa: E402
    MIN_BEYOND,
    Tally,
    beyond,
    percentile,
    spread,
    supported_percentile,
    tail_percentile,
)


# ------------------------------------------------------------ metric math
def test_median_needs_ten_samples_beyond_it():
    assert supported_percentile(list(range(19)), 50) is None
    assert supported_percentile(list(range(20)), 50) == 9
    assert beyond(20, 50) == MIN_BEYOND


def test_p90_needs_a_hundred_samples():
    assert supported_percentile(list(range(99)), 90) is None
    assert supported_percentile(list(range(100)), 90) == 89


def test_tail_percentile_is_the_highest_supported():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(40))) == (75, 29)
    assert tail_percentile(list(range(1000))) == (99, 989)


def test_percentile_is_a_measured_sample():
    samples = [0.3, 0.1, 0.2, 0.4]
    assert percentile(samples, 50) in samples
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (med, q1, q3, (q3 - q1) / med)


def test_speed_probe_leaves_garbage_collection_as_it_was():
    import gc

    from workloads import speed

    assert gc.isenabled()
    assert speed() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_tally_counts_every_kind_of_failure():
    tally = Tally()
    tally.record([], "ok")
    tally.record(["digest a != reference b"], "mismatch")
    tally.record(["raised ValueError()"], "exception")
    tally.record(["missed the 30s deadline at 3/50 units"], "late")
    tally.record(["two", "problems"], "double")
    assert (tally.attempted, tally.failed) == (5, 4)
    assert tally.failed_frac == 0.8
    assert len(tally.reasons) == 5
    assert Tally().failed_frac == 0.0


# ------------------------------------------------------------------ spans
def _span(name, start, end, parent=-1, unit="u"):
    return [name, start, end, parent, unit]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("unit", 0, 100),
        _span("a", 10, 30, 0),
        _span("b", 20, 40, 0),  # overlaps a: 10..40 is covered once
        _span("c", 50, 60, 0),
        _span("d", 52, 55, 3),
    ]
    assert self_times(spans) == [60, 20, 20, 7, 3]
    assert unit_coverage(spans, "unit") == pytest.approx(0.4)


def test_rollup_does_not_count_a_layer_inside_itself_twice():
    spans = [
        _span("unit", 0, 100),
        _span("instance", 0, 50, 0),
        _span("instance", 10, 20, 1),
        _span("instance", 60, 70, 0),
    ]
    roll = layer_rollup(spans)
    assert roll["instance"]["calls"] == 3
    assert roll["instance"]["busy_s"] == pytest.approx(60e-9)
    assert roll["instance"]["self_s"] == pytest.approx(60e-9)


def test_tracer_restores_every_entry_point_and_keeps_rows():
    from repro.experiments import harness, online
    from repro.experiments.api import figure_spec
    from repro.experiments.registry import SCHEDULERS
    from repro.experiments.store import RunStore
    from repro.schedulers import base

    before = (
        {name: SCHEDULERS.get(name) for name in SCHEDULERS.names()},
        harness.generate_instance,
        online.OnlineHarness.__dict__["_dedicated"],
        RunStore.__dict__["append"],
        base.ScheduleBuilder,
    )
    config = figure_spec(1).base_config()
    plain = harness.run_rep(config, 1.0, 3)
    tracer = Tracer()
    with tracer:
        with tracer.span("unit", "one"):
            traced = harness.run_rep(config, 1.0, 3)
    after = (
        {name: SCHEDULERS.get(name) for name in SCHEDULERS.names()},
        harness.generate_instance,
        online.OnlineHarness.__dict__["_dedicated"],
        RunStore.__dict__["append"],
        base.ScheduleBuilder,
    )
    assert after == before
    assert traced == plain
    roll = layer_rollup(tracer.spans)
    assert roll["eps_run.ftbar"]["calls"] == 1
    assert roll["faultfree.caft"]["calls"] == 1
    assert tracer.kernel["oneport"]["cache_misses"] > 0
    assert unit_coverage(tracer.spans, "unit") > 0.9
    assert {s[4] for s in tracer.spans} == {"one"}


# ------------------------------------------------------------- smoke runs
def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "workload", ["paper-slice", "online-stream", "contention-m40", "service-churn"]
)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "paper-slice", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
