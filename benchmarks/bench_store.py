"""Store-scaling guard: million-row load + streaming aggregation.

Builds the same synthetic campaign — ``REPRO_STORE_BENCH_ROWS`` flattened
rows (default 10^6), two algorithms per unit — into a JSONL store and a
columnar store, then measures, each in a fresh subprocess (so peak RSS
is the measurement, not this process's leftovers):

* **load**: open the store and count units — the resume/report entry
  cost.  JSONL parses every row; columnar reads the footer index plus
  the unsealed tail.
* **load + aggregate**: open the store and summarize ``norm_latency``
  per algorithm through ``stats.rep_series`` — the JSONL path streams
  rows, the columnar path runs the vectorized ``series_values`` fast
  path over sealed chunks.

Two guard series land in ``BENCH_fastpath.json`` (same append-only,
ratchet-proof median scheme as ``bench_guard``): ``guard-store-load-1e6``
and ``guard-store-agg-1e6``, comparable on (rows, cpus).  On top of the
self-thresholds the aggregate cell asserts the acceptance floor: the
columnar load+aggregate must run at least ``STORE_SPEEDUP_FLOOR`` x
faster than JSONL and in a fraction of its memory, and both backends
must report bit-identical aggregates.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_store.py -m guard -s
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

import pytest

from benchmarks.bench_fastpath import BENCH_LOG, append_bench_record
from benchmarks.bench_guard import GUARD_SLACK, GUARD_WINDOW
from repro.experiments.grid import unit_id_for
from repro.experiments.harness import RepResult

#: flattened rows per store (units x 2 algorithms); env-tunable for
#: quick local runs — records are only comparable at the same size
STORE_BENCH_ROWS = max(2, int(os.environ.get("REPRO_STORE_BENCH_ROWS", "1000000")))
#: acceptance floor: columnar load+aggregate vs JSONL at 10^6 rows
STORE_SPEEDUP_FLOOR = 5.0
#: columnar peak RSS must stay under this fraction of the JSONL peak
#: (chunk-bounded streaming vs whole-campaign materialization)
STORE_RSS_FRACTION = 1 / 3

_ALGOS = ("caft", "ftbar")
_GRANULARITIES = tuple(round(0.2 * i, 1) for i in range(1, 11))
_TAGS = {
    "config": "bench-store",
    "network": "oneport",
    "topology": "clique",
    "policy": "append",
}


class _SyntheticUnit:
    """The minimal unit surface ``RunStore.append`` consumes."""

    __slots__ = ("granularity", "rep")
    scenario = _TAGS

    def __init__(self, granularity: float, rep: int) -> None:
        self.granularity = granularity
        self.rep = rep

    @property
    def unit_id(self) -> str:
        return unit_id_for(
            _TAGS["config"], _TAGS["network"], _TAGS["topology"],
            _TAGS["policy"], self.granularity, self.rep,
        )


def _synthetic_result(granularity: float, rep: int) -> RepResult:
    base = 1.0 + (rep % 97) * 0.013 + granularity * 0.11
    failed = rep % 7 == 0

    def metrics(offset: float) -> dict:
        return {
            "norm_latency": base + offset,
            "norm_upper": base + offset + 0.5,
            "overhead_0crash": 0.1 * offset + 0.01,
            "messages": float(100 + rep % 13),
            "norm_crash": None if failed else base + offset + 0.2,
            "overhead_crash": None if failed else 0.3,
        }

    return RepResult(
        granularity=granularity,
        rep=rep,
        faultfree_norm={a: base * (1.0 + 0.1 * i) for i, a in enumerate(_ALGOS)},
        metrics={a: metrics(0.4 * i) for i, a in enumerate(_ALGOS)},
    )


def _fill(store, n_units: int) -> None:
    for i in range(n_units):
        g, rep = _GRANULARITIES[i % 10], i // 10
        store.append(_SyntheticUnit(g, rep), _synthetic_result(g, rep))
    store.close()


#: setup also runs in subprocesses: a fat parent heap would be inherited
#: as the forked children's ru_maxrss high-water mark and drown the signal
_FILL_SCRIPT = """\
import sys
from benchmarks.bench_store import _fill
from repro.experiments.columnar import ColumnarStore
from repro.experiments.store import RunStore

cls = ColumnarStore if sys.argv[2] == "columnar" else RunStore
_fill(cls(sys.argv[1]), int(sys.argv[3]))
"""

#: measured in a subprocess so ru_maxrss is this store's peak, nothing else's
_MEASURE_SCRIPT = """\
import json, resource, sys, time
from repro.experiments.stats import rep_series, summarize_series
from repro.experiments.store import open_store

t0 = time.perf_counter()
store = open_store(sys.argv[1])
n = len(store)
load_s = time.perf_counter() - t0
means = {}
if sys.argv[2] == "aggregate":
    for algo in ("caft", "ftbar"):
        series = [v for v in rep_series(store, algo, "norm_latency") if v == v]
        means[algo] = summarize_series(series).mean
elapsed = time.perf_counter() - t0
store.close()
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(
    {"n": n, "load_s": load_s, "elapsed": elapsed, "rss_mb": rss_mb,
     "means": means}
))
"""


def _run_child(script: str, *argv: str) -> str:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return out.stdout


def _measure(directory, mode: str) -> dict:
    return json.loads(_run_child(_MEASURE_SCRIPT, str(directory), mode))


def store_guard_threshold(bench: str, rows: int) -> float | None:
    """Regression ceiling for one store-guard series (same ratchet-proof
    median scheme as ``bench_guard.guard_threshold``, but comparable on
    the row count instead of graphs-per-point)."""
    if not os.path.exists(BENCH_LOG):
        return None
    try:
        with open(BENCH_LOG) as fh:
            series = json.load(fh)
    except json.JSONDecodeError:
        return None
    comparable = [
        rec["fast_s"]
        for rec in series
        if rec.get("bench") == bench
        and rec.get("rows") == rows
        and rec.get("cpus") == os.cpu_count()
        and isinstance(rec.get("fast_s"), (int, float))
        and not rec.get("regression")
    ]
    if not comparable:
        return None
    return statistics.median(comparable[-GUARD_WINDOW:]) * GUARD_SLACK


def _record(bench: str, fast_s: float, jsonl_s: float, extra: dict) -> bool:
    """Append one guard record; returns whether the self-gate tripped."""
    threshold = store_guard_threshold(bench, STORE_BENCH_ROWS)
    regressed = threshold is not None and fast_s > threshold
    record = {
        "bench": bench,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "rows": STORE_BENCH_ROWS,
        "cpus": os.cpu_count(),
        "fast_s": round(fast_s, 3),
        "jsonl_s": round(jsonl_s, 3),
        **extra,
    }
    if regressed:
        record["regression"] = True
    append_bench_record(record)
    if regressed:
        raise AssertionError(
            f"store regression: {bench} took {fast_s:.2f}s, threshold "
            f"{threshold:.2f}s ({GUARD_SLACK}x median of the last "
            f"{GUARD_WINDOW} comparable runs in {os.path.basename(BENCH_LOG)})"
        )
    return regressed


@pytest.mark.guard
def test_store_scaling_guard(tmp_path_factory):
    base = tmp_path_factory.mktemp("store-bench")
    n_units = STORE_BENCH_ROWS // len(_ALGOS)

    t0 = time.perf_counter()
    _run_child(_FILL_SCRIPT, str(base / "jsonl"), "jsonl", str(n_units))
    _run_child(_FILL_SCRIPT, str(base / "columnar"), "columnar", str(n_units))
    setup_s = time.perf_counter() - t0

    load_jsonl = _measure(base / "jsonl", "load")
    load_col = _measure(base / "columnar", "load")
    agg_jsonl = _measure(base / "jsonl", "aggregate")
    agg_col = _measure(base / "columnar", "aggregate")

    assert load_jsonl["n"] == load_col["n"] == n_units
    # The streaming fast path must agree with the JSONL rows exactly.
    assert agg_col["means"] == agg_jsonl["means"]

    rows = n_units * len(_ALGOS)
    speedup = agg_jsonl["elapsed"] / agg_col["elapsed"]
    print(
        f"\nstore bench ({rows} rows, setup {setup_s:.1f}s):\n"
        f"  load      jsonl {load_jsonl['elapsed']:7.2f}s "
        f"{load_jsonl['rss_mb']:7.0f}MB | columnar "
        f"{load_col['elapsed']:7.2f}s {load_col['rss_mb']:7.0f}MB\n"
        f"  load+agg  jsonl {agg_jsonl['elapsed']:7.2f}s "
        f"{agg_jsonl['rss_mb']:7.0f}MB | columnar "
        f"{agg_col['elapsed']:7.2f}s {agg_col['rss_mb']:7.0f}MB "
        f"({speedup:.1f}x)"
    )

    _record(
        "guard-store-load-1e6",
        load_col["elapsed"],
        load_jsonl["elapsed"],
        {
            "rss_mb": round(load_col["rss_mb"], 1),
            "jsonl_rss_mb": round(load_jsonl["rss_mb"], 1),
        },
    )
    _record(
        "guard-store-agg-1e6",
        agg_col["elapsed"],
        agg_jsonl["elapsed"],
        {
            "rss_mb": round(agg_col["rss_mb"], 1),
            "jsonl_rss_mb": round(agg_jsonl["rss_mb"], 1),
            "speedup_vs_jsonl": round(speedup, 1),
        },
    )

    assert speedup >= STORE_SPEEDUP_FLOOR, (
        f"columnar load+aggregate only {speedup:.1f}x faster than JSONL at "
        f"{rows} rows (floor {STORE_SPEEDUP_FLOOR}x)"
    )
    assert agg_col["rss_mb"] <= agg_jsonl["rss_mb"] * STORE_RSS_FRACTION, (
        f"columnar aggregation peaked at {agg_col['rss_mb']:.0f}MB vs JSONL "
        f"{agg_jsonl['rss_mb']:.0f}MB — chunk-bounded streaming lost its "
        f"memory edge"
    )
