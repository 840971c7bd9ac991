"""Smoke tests running every example script and shipped spec end to end.

Everything here carries the ``examples`` marker (tier-1; run alone with
``-m examples``): every ``examples/*.py`` script executes at tiny
settings, every shipped figure spec loads and runs, and a completeness
check fails when a new example lands without a smoke test — so API
drift breaks the user-facing surface loudly, not silently.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv: list[str] | None = None, capsys=None) -> str:
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out if capsys else ""


@pytest.mark.examples
class TestExamples:
    def test_every_example_has_a_smoke_test(self):
        """A new examples/*.py without a test here must fail loudly."""
        scripts = {p.name for p in EXAMPLES.glob("*.py")}
        covered = {
            name.removeprefix("test_") + ".py"
            for name in dir(type(self))
            if name.startswith("test_") and name != "test_every_example_has_a_smoke_test"
        }
        assert scripts == covered, (
            f"examples without a smoke test: {sorted(scripts - covered)}; "
            f"tests without a script: {sorted(covered - scripts)}"
        )

    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys=capsys)
        assert "latency (0 crash)" in out
        assert out.count("completes=True") == 6  # every crash survived

    def test_linear_algebra_pipeline(self, capsys):
        out = run_example("linear_algebra_pipeline.py", capsys=capsys)
        assert "gaussian_elimination" in out
        assert "tiled_cholesky" in out
        assert "price of fault tolerance" in out

    def test_cluster_failures(self, capsys):
        out = run_example("cluster_failures.py", capsys=capsys)
        assert "crash patterns survive" in out
        assert "literal Algorithm 5.2" in out

    def test_sparse_cluster(self, capsys):
        out = run_example("sparse_cluster.py", capsys=capsys)
        assert "clique" in out and "ring" in out
        # the clique row is the 1.00x baseline
        assert "1.00x" in out
        # the spec-driven topology campaign, one row per scenario x algo
        assert "campaign grid: 3 scenarios" in out
        assert "routed-oneport/torus" in out

    def test_campaign_spec(self, capsys):
        out = run_example("campaign_spec.py", capsys=capsys)
        assert "0 units re-run, rows identical: True" in out
        assert "executor='process'" in out
        assert "typos fail loudly" in out and "'graps'" in out

    @pytest.mark.distributed
    def test_distributed_campaign(self, capsys):
        out = run_example("distributed_campaign.py", capsys=capsys)
        assert "2 spawned local workers" in out
        assert "rows identical: True" in out
        assert "distributed rows == serial rows: True" in out

    def test_reproduce_figure(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = run_example("reproduce_figure.py", argv=["1", "1"], capsys=capsys)
        assert "average overhead" in out
        assert (tmp_path / "results" / "figure1_example.csv").exists()

    def test_million_row_campaign(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXAMPLE_ROWS", "2000")
        out = run_example("million_row_campaign.py", capsys=capsys)
        assert "-> 'columnar' store" in out
        assert "reopened as ColumnarStore" in out
        assert "caft @ g=1.6" in out
        # the streaming view renders the full comparison table
        assert "win%/ratio vs caft" in out
        assert "sealed chunks" in out
        assert "pruned query matched" in out

    def test_compare_algorithms(self, capsys):
        out = run_example("compare_algorithms.py", capsys=capsys)
        assert "parallelism profile" in out
        assert "surv" in out
        assert "caft-paper" in out


@pytest.mark.examples
class TestShippedSpecs:
    """Every spec file shipped with the package runs at tiny settings."""

    def _tiny(self, spec):
        from repro.experiments import apply_overrides

        return apply_overrides(
            spec,
            {
                "graphs": 1,
                "config.granularities": [0.6, 1.4],
                "config.task_range": [12, 16],
            },
        )

    def test_all_shipped_specs_are_covered(self):
        from repro.experiments.api import shipped_spec_paths
        from repro.experiments.config import FIGURES

        names = {p.stem for p in shipped_spec_paths()}
        assert names == {f"figure{n}" for n in FIGURES} | {"figure_online"}

    @pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 6])
    def test_shipped_figure_spec_runs(self, number):
        from repro.experiments import Campaign, figure_spec

        spec = self._tiny(figure_spec(number))
        handle = Campaign(spec).run()
        result = handle.result()
        assert result.config.name == f"figure{number}"
        assert len(result.reps) == spec.grid().total_units
        # the aggregated view has every per-algorithm column
        row = result.rows()[0]
        for algo in result.config.algorithms:
            assert f"{algo}_latency0" in row

    def test_shipped_online_spec_runs(self):
        from repro.experiments import Campaign, CampaignSpec, apply_overrides
        from repro.experiments.api import shipped_spec_paths
        from repro.experiments.online import check_online_shape
        from repro.experiments.report import render_online

        path = next(
            p for p in shipped_spec_paths() if p.stem == "figure_online"
        )
        spec = apply_overrides(
            CampaignSpec.load(path),
            {
                "graphs": 1,
                "config.granularities": [0.01, 0.02],
                "config.task_range": [12, 16],
            },
        )
        result = Campaign(spec).run().result()
        assert result.config.name == "figure_online"
        assert result.config.arrival is not None
        assert len(result.reps) == spec.grid().total_units
        row = result.rows()[0]
        for algo in result.config.algorithms:
            assert f"{algo}_response_mean" in row
        assert check_online_shape(result).ok
        assert "throughput" in render_online(result)
