"""Experiment campaigns reproducing the paper's §6 evaluation.

Structured as three independent layers — description
(:mod:`~repro.experiments.grid`, expanding figure × scenario ×
granularity × rep axes into work units), execution
(:mod:`~repro.experiments.executors`: inline, process pool, TCP
master/worker, campaign service) and results
(:mod:`~repro.experiments.store`, the append-only stores every executor
writes scenario-tagged rows into).  Campaigns are therefore
distributable across machines and resumable after a crash, with
bit-identical rows whichever path ran them.

This package re-exports the front door only: the declarative API of
:mod:`repro.experiments.api`, a serializable :class:`CampaignSpec` run
through the :class:`Campaign` facade, with every name resolving via the
pluggable registries in :mod:`repro.experiments.registry`.  Everything
else is imported from the module that owns it.  The paper's figures
ship as spec files under ``repro/experiments/specs/``.  See ``API.md``
for the schema and the table of removed entry points.
"""

from repro.experiments.api import (
    Campaign,
    CampaignSpec,
    ExecutorSpec,
    StoreSpec,
    apply_overrides,
    figure_spec,
)

__all__ = [
    "Campaign",
    "CampaignSpec",
    "ExecutorSpec",
    "StoreSpec",
    "apply_overrides",
    "figure_spec",
]
