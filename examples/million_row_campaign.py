"""Million-row campaigns on the columnar backend, queried without loading.

The JSONL store parses every row just to open; at campaign scale that is
the bottleneck, not the experiments.  The columnar backend seals results
into NumPy chunk files with a footer index, so opening is O(tail) and
queries prune whole chunks before touching a byte of data.  This script:

1. runs a real (small) campaign with ``store.backend = "columnar"`` in
   its spec — one override away from JSONL, same rows bit-for-bit;
2. re-opens the directory with :func:`open_store` (the backend is
   sniffed from the files on disk) and streams filtered rows through
   ``iter_rows(where=..., columns=...)`` without materializing the
   campaign;
3. renders the per-scenario comparison table from a
   :class:`StoreCampaignView` — report-layer output straight off the
   store, nothing held in memory;
4. bulk-appends a synthetic sweep with a small ``chunk_rows`` to show
   chunks sealing and chunk-pruned queries at scale.

Row count for step 4 defaults to demo scale; rerun with
``REPRO_EXAMPLE_ROWS=1000000 python examples/million_row_campaign.py``
for the real thing (the guard bench ``benchmarks/bench_store.py`` does
this nightly-style, with regression gates).

Run:  python examples/million_row_campaign.py
"""

import os
import tempfile
import time
from pathlib import Path

from repro.experiments import Campaign, apply_overrides, figure_spec
from repro.experiments.columnar import ColumnarStore
from repro.experiments.compare import campaign_comparison_table
from repro.experiments.query import StoreCampaignView
from repro.experiments.store import open_store
from repro.experiments.grid import unit_id_for
from repro.experiments.harness import RepResult


def run_columnar_campaign(store_dir: str):
    """A shipped figure spec at demo scale, persisted columnar."""
    spec = apply_overrides(
        figure_spec(1),
        {
            "graphs": 2,
            "config.granularities": [0.4, 1.0, 1.6],
            "config.task_range": [16, 24],
            "store.directory": store_dir,
            "store.backend": "columnar",
        },
    )
    handle = Campaign(spec).run()
    print(f"campaign: {spec.grid().total_units} units -> "
          f"{spec.store.resolved_backend!r} store in {handle.elapsed:.1f}s")
    return spec


def query_without_loading(store_dir: str, spec) -> None:
    # open_store sniffs the backend from the directory contents —
    # resume, reports and this script all go through the same door.
    with open_store(store_dir) as store:
        print(f"reopened as {type(store).__name__}, {len(store)} units")

        # Streaming query: predicate pushed down to the chunk index,
        # projection decodes only the requested columns.
        slow = [
            row
            for row in store.iter_rows(
                where={"algorithm": "caft", "granularity": 1.6},
                columns=["rep", "norm_latency"],
            )
        ]
        worst = max(r["norm_latency"] for r in slow)
        print(f"caft @ g=1.6: {len(slow)} reps, worst norm latency "
              f"{worst:.3f}")

        # The report layer runs off the store through a streaming view;
        # aggregates are bit-identical to the in-memory campaign path.
        view = StoreCampaignView(store, spec.config)
        print()
        print(campaign_comparison_table(view, baseline="caft"))


class _SweepUnit:
    """Minimal work-unit surface for direct ``store.append`` calls."""

    scenario = {"config": "sweep", "network": "oneport",
                "topology": "clique", "policy": "append"}

    def __init__(self, granularity: float, rep: int) -> None:
        self.granularity = granularity
        self.rep = rep

    @property
    def unit_id(self) -> str:
        s = self.scenario
        return unit_id_for(s["config"], s["network"], s["topology"],
                           s["policy"], self.granularity, self.rep)


def bulk_sweep(directory: Path) -> None:
    """Fill a columnar store directly and query it at scale."""
    n_units = max(10, int(os.environ.get("REPRO_EXAMPLE_ROWS", "20000")) // 2)
    gs = [round(0.2 * i, 1) for i in range(1, 11)]

    t0 = time.perf_counter()
    with ColumnarStore(directory, chunk_rows=4096) as store:
        for i in range(n_units):
            g, rep = gs[i % 10], i // 10
            base = 1.0 + g * 0.1 + (rep % 89) * 0.01
            store.append(
                _SweepUnit(g, rep),
                RepResult(
                    granularity=g,
                    rep=rep,
                    faultfree_norm={"caft": base, "ftbar": base * 1.1},
                    metrics={
                        "caft": {"norm_latency": base},
                        "ftbar": {"norm_latency": base + 0.4},
                    },
                ),
            )
    write_s = time.perf_counter() - t0
    chunks = sorted(directory.glob("chunk-*.npz"))
    print(f"\nbulk sweep: {n_units * 2} rows written in {write_s:.1f}s, "
          f"{len(chunks)} sealed chunks")

    t0 = time.perf_counter()
    with open_store(directory) as store:
        n = len(store)
        open_s = time.perf_counter() - t0
        # One granularity out of ten: nine tenths of the chunks are
        # skipped by their min/max footer entries before being read.
        t0 = time.perf_counter()
        hits = sum(
            1 for _ in store.iter_rows(
                where={"granularity": gs[3], "algorithm": "ftbar"},
                columns=["norm_latency"],
            )
        )
        query_s = time.perf_counter() - t0
    print(f"reopened {n} units in {open_s:.2f}s; pruned query matched "
          f"{hits} rows in {query_s:.2f}s")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = str(Path(tmp) / "store")
        spec = run_columnar_campaign(store_dir)
        query_without_loading(store_dir, spec)
        bulk_sweep(Path(tmp) / "sweep")


if __name__ == "__main__":
    main()
