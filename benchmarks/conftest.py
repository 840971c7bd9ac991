"""Shared helpers for the benchmark suite.

Every figure bench runs the corresponding campaign once (via
``benchmark.pedantic``), prints the paper-style panels so the series can
be compared against the paper, and asserts the §6 qualitative shape.

Repetitions default to ``REPRO_GRAPHS`` (or 3) per data point for
wall-clock sanity; export ``REPRO_GRAPHS=60`` to reproduce the paper's
averaging (EXPERIMENTS.md records such runs).  ``REPRO_WORKERS=N`` fans
each campaign out over ``N`` worker processes: the spec's executor is
``{kind = "process", workers = N}`` (identical results — see
``repro.experiments.executors.ProcessExecutor``).
"""

from __future__ import annotations

import os
from typing import Mapping, Optional

from repro.experiments.api import (
    Campaign,
    CampaignSpec,
    apply_overrides,
    figure_spec,
)
from repro.experiments.figures import check_shape
from repro.experiments.report import render_figure, write_csv


def bench_graphs(default: int = 3) -> int:
    """Graphs per data point for benchmark runs."""
    return max(1, int(os.environ.get("REPRO_GRAPHS", default)))


def bench_workers(default: int = 1) -> int:
    """Worker processes for benchmark campaigns (``REPRO_WORKERS``)."""
    return max(1, int(os.environ.get("REPRO_WORKERS", default)))


def bench_spec(
    number: int,
    graphs: int,
    workers: int = 1,
    overrides: Optional[Mapping[str, object]] = None,
) -> CampaignSpec:
    """Figure ``number`` at ``graphs`` per point on a ``workers``-process
    pool (one worker runs inline); ``overrides`` are dotted spec keys."""
    return apply_overrides(
        figure_spec(number),
        {
            "graphs": graphs,
            "executor.kind": "process",
            "executor.workers": workers,
            **(overrides or {}),
        },
    )


def figure_bench(benchmark, number: int) -> None:
    """Run figure ``number`` once under the benchmark timer, print panels,
    persist the CSV under results/, and assert the paper's shape."""
    campaign = Campaign(bench_spec(number, bench_graphs(), bench_workers()))

    result = benchmark.pedantic(
        lambda: campaign.run().result(),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_figure(result))
    out = os.path.join(os.path.dirname(__file__), "..", "results", f"figure{number}.csv")
    write_csv(result, os.path.abspath(out))
    shape = check_shape(result)
    assert shape.ok, f"shape checks failed: {shape.failed()}"
