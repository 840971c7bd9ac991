"""A distributed, resumable campaign: TCP master + two local workers.

The campaign stack is three independent layers — a declarative
:class:`ScenarioGrid` (what to compute), an executor (where), and an
append-only :class:`RunStore` (results).  This script drives a small
figure-1 slice through the distributed path end to end:

1. expand the grid and run it on a ``SocketExecutor`` master that spawns
   two worker processes against an ephemeral localhost port (point real
   machines at the same master with
   ``repro-ftsched campaign worker HOST:PORT``);
2. persist every row into a store directory as it completes;
3. prove resumability by re-running from the store — zero units execute;
4. verify the rows are bit-identical to an inline serial run.

This drives the layers directly; the declarative front door over the
same stack is a :class:`~repro.experiments.CampaignSpec` with
``executor = {kind = "socket", ...}`` (see ``examples/campaign_spec.py``
and ``API.md``) — a spec file plus ``repro-ftsched campaign run`` gets
the identical distributed campaign without any of this wiring.

Run:  python examples/distributed_campaign.py
"""

import tempfile
from dataclasses import replace

from repro.experiments.campaign import run_grid
from repro.experiments.config import FIGURES
from repro.experiments.executors import SocketExecutor
from repro.experiments.grid import ScenarioGrid
from repro.experiments.report import panel_c
from repro.experiments.store import RunStore


def small_figure1_grid() -> ScenarioGrid:
    """Figure 1 shrunk to demo scale (full sweep -> 3 points, 2 graphs)."""
    config = replace(
        FIGURES[1].with_graphs(2),
        granularities=(0.4, 1.0, 1.6),
        task_range=(20, 30),
    )
    return ScenarioGrid.from_config(config)


def main() -> None:
    grid = small_figure1_grid()
    print(f"grid: {grid.total_units} work units "
          f"({len(grid.configs[0].granularities)} granularities x "
          f"{grid.configs[0].num_graphs} graphs)")

    with tempfile.TemporaryDirectory() as store_dir:
        master = SocketExecutor(spawn_workers=2, timeout=300.0)
        print("running on a TCP master with 2 spawned local workers ...")
        (result,) = run_grid(grid, store=store_dir, executor=master)
        print(f"master bound {master.address[0]}:{master.address[1]}; "
              f"store holds {len(RunStore(store_dir))} rows")
        print()
        print(panel_c(result))

        # Resume from the finished store: every unit is already recorded,
        # so this executes nothing — the same call picks up a *killed*
        # campaign exactly where it stopped.
        (resumed,) = run_grid(
            grid, store=store_dir, executor="serial", resume=True
        )
        print(f"resume from store: 0 units re-run, "
              f"rows identical: {resumed.rows() == result.rows()}")

    (serial,) = run_grid(grid, executor="serial")
    print(f"distributed rows == serial rows: "
          f"{serial.rows() == result.rows()}")


if __name__ == "__main__":
    main()
