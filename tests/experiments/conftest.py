"""Shared fixtures for the experiments-layer tests.

The *pinned equivalence config* is the contract the executor stack is
held to: figure 1 shrunk to test scale, over the routed ring scenario
(so the socket wire format carries a topology config, not just the
defaults).  Serial, process, and socket executors — and any
interrupt/resume split — must produce bit-identical rows for it.
"""

from dataclasses import replace

import pytest

from repro.experiments.config import FIGURES, ExperimentConfig


def equivalence_config() -> ExperimentConfig:
    """Figure 1 small + routed ring: the pinned executor-equivalence case."""
    return replace(
        FIGURES[1].with_graphs(2).with_network(topology="ring"),
        granularities=(0.4, 1.2),
        num_procs=6,
        task_range=(12, 18),
    )


@pytest.fixture(scope="session")
def pinned_config() -> ExperimentConfig:
    return equivalence_config()


@pytest.fixture(scope="session")
def pinned_serial_rows(pinned_config):
    """The serial-executor baseline every other executor must match."""
    from repro.experiments.campaign import run_grid
    from repro.experiments.grid import ScenarioGrid

    [result] = run_grid(ScenarioGrid.from_config(pinned_config))
    return result.rows()
