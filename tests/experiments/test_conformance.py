"""The executor × fault × backend conformance matrix (marker:
``conformance``).

Drives ``executor_conformance.run_cell`` over every
Serial/Process/Socket × {none, worker crash mid-lease, master SIGKILL +
resume, duplicate delivery, speculation/steal races} ×
{jsonl, columnar} cell and asserts the stored rows are bit-identical to
a fault-free serial run — the contract that lets any scheduling *or
storage* change (batch leases, locality, adaptive sizing, chunked
columnar results) land without re-validating the science.  Columnar
cells run with a tiny ``chunk_rows`` so every fault interleaves with
chunk sealing.

Part of tier-1; the real-process socket cells auto-skip when localhost
sockets are unavailable (mirroring the ``distributed`` marker).  Run just this
matrix with ``pytest -m conformance``.
"""

import pytest

import executor_conformance as ec
from repro.experiments.campaign import run_grid
from repro.experiments.grid import ScenarioGrid
from repro.experiments.store import RunStore

pytestmark = pytest.mark.conformance


@pytest.fixture(scope="session")
def baseline_rows(pinned_config, tmp_path_factory):
    """Per-rep rows of a fault-free serial run through a disk store —
    the bit-for-bit reference every cell must reproduce."""
    directory = tmp_path_factory.mktemp("conformance") / "baseline"
    run_grid(ScenarioGrid.from_config(pinned_config), store=directory)
    with RunStore(directory) as store:
        assert store.dedup_stats() == {
            "duplicate_appends": 0,
            "replayed_rows": 0,
        }
        return store.rep_rows()


@pytest.mark.parametrize("backend", ec.BACKENDS)
@pytest.mark.parametrize("fault", ec.FAULTS)
@pytest.mark.parametrize("executor_name", ec.EXECUTORS)
def test_conformance_cell(
    executor_name, fault, backend, pinned_config, baseline_rows, tmp_path
):
    if (
        executor_name == "socket"
        and fault in ec.REAL_SOCKET_FAULTS
        and not ec.sockets_available()
    ):
        pytest.skip("localhost sockets unavailable")
    rows = ec.run_cell(
        pinned_config, executor_name, fault, tmp_path / "cell", backend=backend
    )
    assert rows == baseline_rows
