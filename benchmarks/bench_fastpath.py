"""Fast-path speedup benchmark: kernel + parallel engine vs the seed path.

Times the figure-1 campaign twice — once with the vectorized placement
kernel disabled and the campaign on one worker (``fast=False``: the
seed code path), once with the kernel on and ``REPRO_WORKERS`` (default
4) worker processes — verifies the two runs produce **identical** rows,
and appends the timing pair to ``BENCH_fastpath.json`` at the repo root
so the perf trajectory is tracked across PRs.  A second pair does the
same for a routed-topology FTBAR campaign (ring, m = 20): the §7
scenario the route-aware kernel evaluator exists for.

Run it directly::

    PYTHONPATH=src REPRO_GRAPHS=2 python -m pytest benchmarks/bench_fastpath.py -s

The acceptance target for the fast-path PR is a ≥5× end-to-end speedup
at default figure sizes, and ≥2× for the routed FTBAR campaign (see
PERFORMANCE.md for recorded numbers; on single-core CI boxes the
workers contribute nothing and the kernel must carry the target alone).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone

from benchmarks.conftest import bench_graphs, bench_spec, bench_workers
from repro.experiments.api import Campaign, CampaignSpec
from repro.experiments.config import ExperimentConfig

BENCH_LOG = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "BENCH_fastpath.json")
)


def append_bench_record(record: dict, path: str = BENCH_LOG) -> list[dict]:
    """Append ``record`` to the JSON timing series at ``path``."""
    series: list[dict] = []
    if os.path.exists(path):
        with open(path) as fh:
            try:
                series = json.load(fh)
            except json.JSONDecodeError:
                series = []
    series.append(record)
    with open(path, "w") as fh:
        json.dump(series, fh, indent=2)
        fh.write("\n")
    return series


def _timed_figure(number: int, graphs: int, fast: bool, workers: int):
    campaign = Campaign(bench_spec(number, graphs, workers, {"fast": fast}))
    t0 = time.perf_counter()
    result = campaign.run().result()
    return time.perf_counter() - t0, result


def test_fastpath_speedup():
    from repro.experiments.executors.process import effective_workers as _clamp

    graphs = bench_graphs(default=1)
    workers = bench_workers(default=4)
    effective_workers = max(1, _clamp(workers))

    baseline_s, baseline = _timed_figure(1, graphs, fast=False, workers=1)
    fast_s, fast = _timed_figure(1, graphs, fast=True, workers=workers)

    # The whole point of the fast path: identical science, less time.
    assert baseline.rows() == fast.rows(), "fast path changed campaign results"

    speedup = baseline_s / fast_s
    record = {
        "bench": "figure1",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "graphs_per_point": graphs,
        "workers_requested": workers,
        "workers_effective": effective_workers,
        "cpus": os.cpu_count(),
        "baseline_s": round(baseline_s, 3),
        "fast_s": round(fast_s, 3),
        "speedup": round(speedup, 2),
    }
    append_bench_record(record)
    print(
        f"\nfastpath: baseline {baseline_s:.2f}s -> fast {fast_s:.2f}s "
        f"({speedup:.1f}x, workers={workers}, graphs={graphs})"
    )
    # Hard floor: the fast path must never be slower.  The ≥5x target is
    # tracked in BENCH_fastpath.json / PERFORMANCE.md rather than asserted
    # here so shared CI boxes can't flake the suite.
    assert speedup > 1.5, f"fast path too slow: {speedup:.2f}x"


def test_routed_ftbar_speedup():
    """Routed-topology FTBAR campaign (ring, m = 20): kernel vs slow path.

    FTBAR's all-free-tasks re-scoring sweep is the heaviest consumer of
    trials, and sparse topologies were the slowest model before the
    route-aware evaluator (every trial rolled back per-hop link
    reservations).  The acceptance floor for the kernel extension is a
    2x end-to-end campaign speedup at m >= 20.
    """
    graphs = bench_graphs(default=1)
    config = ExperimentConfig(
        name="routed-ftbar-ring-m20",
        granularities=(1.0, 2.0),
        num_procs=20,
        epsilon=2,
        crashes=1,
        num_graphs=graphs,
        algorithms=("ftbar",),
        model="routed-oneport",
        topology="ring",
        description="FTBAR over a 20-processor ring (bench_fastpath)",
    )

    slow_path = Campaign(CampaignSpec(config=config.with_fast(False)))
    fast_path = Campaign(CampaignSpec(config=config))
    t0 = time.perf_counter()
    baseline = slow_path.run().result()
    baseline_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = fast_path.run().result()
    fast_s = time.perf_counter() - t0

    assert baseline.rows() == fast.rows(), "fast path changed routed results"

    speedup = baseline_s / fast_s
    record = {
        "bench": "ftbar-routed",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "topology": "ring",
        "num_procs": config.num_procs,
        "graphs_per_point": graphs,
        "cpus": os.cpu_count(),
        "baseline_s": round(baseline_s, 3),
        "fast_s": round(fast_s, 3),
        "speedup": round(speedup, 2),
    }
    append_bench_record(record)
    print(
        f"\nrouted ftbar: baseline {baseline_s:.2f}s -> fast {fast_s:.2f}s "
        f"({speedup:.1f}x, ring m={config.num_procs}, graphs={graphs})"
    )
    # Hard floor only (same anti-flake policy as test_fastpath_speedup):
    # the ≥2x acceptance target is tracked in the recorded series and
    # PERFORMANCE.md (measured 3.0x on the 1-CPU container).
    assert speedup > 1.5, f"routed fast path too slow: {speedup:.2f}x"
