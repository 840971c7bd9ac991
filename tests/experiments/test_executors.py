"""Executor-equivalence and resume tests (the pinned determinism contract).

One pinned config (figure 1 small + routed ring, see ``conftest.py``)
must produce bit-identical campaign rows from every executor and across
any interrupt/resume split — including a real ``SIGKILL`` mid-campaign.
The socket executor's side of the same contract lives in
``test_socket_executor.py`` (marked ``distributed``).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.campaign import run_grid
from repro.experiments.executors import (
    ProcessExecutor,
    SerialExecutor,
    SocketExecutor,
    effective_workers,
    make_executor,
)
from repro.experiments.grid import ScenarioGrid
from repro.experiments.harness import CampaignResult
from repro.experiments.store import RunStore, StoreError


class TestMakeExecutor:
    def test_default_is_serial(self):
        assert isinstance(make_executor(None), SerialExecutor)

    def test_spec_strings(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert make_executor("process:1").workers == 1
        assert make_executor("process:3").workers == effective_workers(3)
        sock = make_executor("socket:2")
        assert isinstance(sock, SocketExecutor)
        assert sock.spawn_workers == 2

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert make_executor(ex) is ex

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("mapreduce")


class TestExecutorEquivalence:
    def test_process_matches_serial(self, pinned_config, pinned_serial_rows):
        [parallel] = run_grid(
            ScenarioGrid.from_config(pinned_config),
            executor=ProcessExecutor(2, clamp=False),
        )
        assert parallel.rows() == pinned_serial_rows

    def test_store_round_trip_matches(self, pinned_config, pinned_serial_rows,
                                      tmp_path):
        # Rows that went through JSONL on disk and back must stay identical.
        run_grid(ScenarioGrid.from_config(pinned_config), store=tmp_path / "s")
        reloaded = CampaignResult.from_store(RunStore(tmp_path / "s"))
        assert reloaded.config == pinned_config
        assert reloaded.rows() == pinned_serial_rows

    def test_progress_covers_all_units(self, pinned_config):
        messages = []
        run_grid(ScenarioGrid.from_config(pinned_config), progress=messages.append)
        assert len(messages) == 4  # 2 granularities x 2 reps


class TestResume:
    def test_partial_store_resumes_to_identical_rows(
        self, pinned_config, pinned_serial_rows, tmp_path
    ):
        grid = ScenarioGrid.from_config(pinned_config)
        units = grid.units()
        store = RunStore(tmp_path / "s")
        store.ensure_manifest(grid)
        # Simulate an interrupted campaign: only the first unit completed.
        SerialExecutor().run(units[:1], store)
        store.close()

        [resumed] = run_grid(grid, store=tmp_path / "s", resume=True)
        assert resumed.rows() == pinned_serial_rows

    def test_resume_does_not_rerun_completed_units(
        self, pinned_config, tmp_path
    ):
        grid = ScenarioGrid.from_config(pinned_config)
        store = RunStore(tmp_path / "s")
        store.ensure_manifest(grid)
        SerialExecutor().run(grid.units()[:2], store)
        store.close()
        before = (tmp_path / "s" / "rows.jsonl").read_bytes()

        run_grid(grid, store=tmp_path / "s", resume=True)
        after = (tmp_path / "s" / "rows.jsonl").read_bytes()
        assert after.startswith(before)  # append-only: old rows untouched
        assert after.count(b"\n") == 4

    def test_nonempty_store_without_resume_is_an_error(
        self, pinned_config, tmp_path
    ):
        run_grid(ScenarioGrid.from_config(pinned_config), store=tmp_path / "s")
        with pytest.raises(StoreError, match="resume"):
            run_grid(ScenarioGrid.from_config(pinned_config), store=tmp_path / "s")

    def test_resume_rejects_foreign_store(self, pinned_config, tmp_path):
        run_grid(ScenarioGrid.from_config(pinned_config), store=tmp_path / "s")
        other = pinned_config.with_graphs(5)
        with pytest.raises(StoreError, match="different campaign"):
            run_grid(ScenarioGrid.from_config(other), store=tmp_path / "s", resume=True)


class TestKillAndResume:
    @pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
    def test_sigkill_mid_campaign_then_resume(self, pinned_config, tmp_path):
        """A campaign killed with SIGKILL resumes to bit-identical rows."""
        from dataclasses import replace

        cfg = replace(pinned_config, num_graphs=3)  # 6 units: room to die in
        store_dir = tmp_path / "killed"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        # The victim sleeps briefly after each unit so the parent can land
        # the kill mid-campaign instead of racing a fast finish.
        script = (
            "import json, time\n"
            "from repro.experiments.campaign import run_grid\n"
            "from repro.experiments.config import ExperimentConfig\n"
            "from repro.experiments.grid import ScenarioGrid\n"
            f"cfg = ExperimentConfig.from_dict(json.load(open({str(cfg_path)!r})))\n"
            f"run_grid(ScenarioGrid.from_config(cfg), store={str(store_dir)!r},\n"
            "         progress=lambda m: time.sleep(0.3))\n"
        )
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        rows_path = store_dir / "rows.jsonl"
        deadline = time.monotonic() + 60.0
        try:
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                if rows_path.exists() and rows_path.read_bytes().count(b"\n") >= 1:
                    break
                time.sleep(0.02)
            assert rows_path.exists(), "victim campaign never wrote a row"
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        completed_before = len(RunStore(store_dir))
        assert completed_before < 6, "kill landed too late to test resume"

        grid = ScenarioGrid.from_config(cfg)
        [resumed] = run_grid(grid, store=store_dir, resume=True)
        [fresh] = run_grid(grid)
        assert resumed.rows() == fresh.rows()
        assert len(RunStore(store_dir)) == 6


class TestMultiScenarioGrid:
    def test_run_grid_returns_one_result_per_scenario(self, pinned_config):
        from dataclasses import replace

        base = replace(
            pinned_config, model="oneport", topology=None, num_graphs=1
        )
        grid = ScenarioGrid.from_scenarios(base, topologies=("ring",))
        results = run_grid(grid)
        assert len(results) == 2
        clique, ring = results
        assert clique.config.topology is None
        assert ring.config.topology == "ring"
        assert clique.scenario_columns()["topology"] == "clique"
        assert ring.scenario_columns()["topology"] == "ring"
        # Scenario tags land in every aggregated row.
        assert {row["topology"] for row in ring.rows()} == {"ring"}
        # Paired instances: same DAG seeds, different interconnect.
        assert clique.rows() != ring.rows()
