"""Campaign driver: grid → executor → store → results.

The composition root of the experiments layer.  A campaign is described
by a :class:`~repro.experiments.grid.ScenarioGrid`, executed by any
:class:`~repro.experiments.executors.Executor`, and recorded in a
:class:`~repro.experiments.store.RunStore`; this module wires the three
together and rebuilds :class:`~repro.experiments.harness.CampaignResult`
views from the store afterwards.  Because units are pure and the store
is keyed by unit id, the same engine transparently provides *resume*:
point ``store`` at a directory of a killed campaign with
``resume=True`` and only the missing units run.

:func:`run_grid` is the engine behind the one front door: a
:class:`repro.experiments.api.CampaignSpec` (a serializable description
of grid + executor + store + lease) run through
:class:`repro.experiments.api.Campaign` ends up here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

from repro.experiments.executors import Executor, make_executor
from repro.experiments.grid import ScenarioGrid
from repro.experiments.harness import CampaignResult
from repro.experiments.store import RunStore, StoreError, open_store

#: accepted by every ``store=`` parameter: a live store, a directory, or
#: ``None`` for an ephemeral in-memory store
StoreLike = Union[RunStore, str, Path, None]


def resolve_store(store: StoreLike) -> RunStore:
    if isinstance(store, RunStore):
        return store
    if store is None:
        return RunStore(None)
    # Bare directories open with whichever backend wrote them (manifest
    # record, or file sniffing for fresh/pre-backend directories), so a
    # columnar campaign resumes onto columnar chunks.
    return open_store(store)


def run_grid(
    grid: ScenarioGrid,
    store: StoreLike = None,
    executor: Union[Executor, str, None] = None,
    progress: Optional[Callable[[str], None]] = None,
    resume: bool = False,
) -> list[CampaignResult]:
    """Execute every unit of ``grid`` and return one result per scenario.

    ``store`` may be a directory (results persist as they complete) or
    ``None`` (in-memory).  With ``resume=True`` units already present in
    the store are skipped — the crash-recovery path — otherwise a
    non-empty store is an error, so two campaigns can never silently mix.
    ``executor`` is an :class:`Executor` instance or a registered name
    (``"serial"``, ``"process:4"``; ``None`` runs serially).  Results
    are identical across executors, worker counts, lease sizes, and
    interrupt/resume splits: aggregation reads the store in canonical
    grid order, not completion order.
    """
    owns_store = not isinstance(store, RunStore)
    run_store = resolve_store(store)
    try:
        run_store.ensure_manifest(grid)
        units = grid.units()
        completed = run_store.completed_ids()
        if completed and not resume:
            raise StoreError(
                f"store already holds {len(completed)} completed unit(s); "
                "pass resume=True (CLI: --resume) to continue the campaign"
            )
        known = {unit.unit_id for unit in units}
        stray = completed - known
        if stray:
            raise StoreError(
                f"store holds {len(stray)} unit(s) outside this grid "
                f"(first: {sorted(stray)[0]}); wrong --store directory?"
            )
        todo = [unit for unit in units if unit.unit_id not in completed]
        if todo:
            make_executor(executor).run(todo, run_store, progress=progress)
        results = run_store.results()
    finally:
        if owns_store:
            run_store.close()
    missing = [unit.unit_id for unit in units if unit.unit_id not in results]
    if missing:
        raise StoreError(
            f"executor finished but {len(missing)} unit(s) missing from the "
            f"store (first: {missing[0]})"
        )
    return [
        CampaignResult(
            config=config,
            reps=[results[unit.unit_id] for unit in grid.units_for(config)],
        )
        for config in grid.configs
    ]
