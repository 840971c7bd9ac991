"""A campaign as a file: write a spec, run it, resume it, override it.

The whole campaign stack — scenario axes, executor, store backend,
lease policy, reps, seeds — is described by one serializable
:class:`CampaignSpec`.  This script:

1. builds a small figure-1 campaign as a spec and saves it to JSON
   (TOML works identically — change the suffix);
2. runs it through the :class:`Campaign` facade, watching progress
   events, with every row persisted to the spec's store directory;
3. resumes from the spec file alone — zero units re-run, proving the
   file + store pair is the entire campaign state (the CLI equivalents:
   ``repro-ftsched campaign run spec.json`` / ``campaign resume
   spec.json``);
4. applies a dotted-key override (what ``--override KEY=VALUE`` does)
   and shows that a typo in a spec is a loud, key-named error.

Run:  python examples/campaign_spec.py
"""

import tempfile
from pathlib import Path

from repro.experiments import Campaign, CampaignSpec, apply_overrides, figure_spec
from repro.experiments.report import panel_c
from repro.utils.errors import CampaignConfigError


def small_figure1_spec(store_dir: str) -> CampaignSpec:
    """The shipped figure-1 spec, shrunk to demo scale by overrides."""
    return apply_overrides(
        figure_spec(1),
        {
            "graphs": 2,
            "config.granularities": [0.4, 1.0, 1.6],
            "config.task_range": [20, 30],
            "store.directory": store_dir,
        },
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = str(Path(tmp) / "store")
        spec = small_figure1_spec(store_dir)

        path = spec.save(Path(tmp) / "campaign.json")
        print(f"campaign described by {path.name}:")
        print(f"  {spec.grid().total_units} work units, "
              f"executor={spec.executor.kind!r}, "
              f"store={spec.store.resolved_backend!r}")

        events = []
        handle = Campaign.from_file(path).run(progress=events.append)
        print(f"ran in {handle.elapsed:.1f}s "
              f"({sum(e.kind == 'unit' for e in events)} unit events)")
        print()
        print(panel_c(handle.result()))

        # Resume from the file alone: every unit is already in the
        # store, so nothing executes — a killed campaign would pick up
        # exactly where it stopped.
        resumed = Campaign.from_file(path).resume()
        reran = sum(e.kind == "unit" for e in resumed.events)
        print(f"resume from spec file: {reran} units re-run, rows identical: "
              f"{resumed.result().rows() == handle.result().rows()}")

    # Overrides route through the same serialized form as the file, so
    # `--override executor.kind=process` and editing the spec agree.
    pooled = apply_overrides(spec, {"executor.kind": "process",
                                    "executor.workers": 2,
                                    "store.directory": None})
    print(f"override -> executor={pooled.executor.kind!r}, "
          f"workers={pooled.executor.workers}")

    try:
        apply_overrides(spec, {"graps": 3})
    except CampaignConfigError as exc:
        print(f"typos fail loudly: {exc}")


if __name__ == "__main__":
    main()
