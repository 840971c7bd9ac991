"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

#: one granularity of small graphs: enough for the plumbing tests, which
#: check arguments and outputs rather than the figure itself
TINY = ["--override", "config.granularities=[0.4]",
        "--override", "config.task_range=[14,18]"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "3", "--graphs", "5"])
        assert args.number == 3 and args.graphs == 5

    def test_figure_rejects_bad_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7"])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.workload == "gaussian_elimination"
        assert args.scheduler == "caft"


class TestCampaignParser:
    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_args(self):
        args = build_parser().parse_args(
            ["campaign", "run", "2", "--graphs", "3", "--store", "/tmp/x",
             "--resume", "--executor", "socket", "--spawn-workers", "2"]
        )
        assert args.target == "2" and args.graphs == 3
        assert args.store == "/tmp/x" and args.resume
        assert args.executor == "socket" and args.spawn_workers == 2

    def test_campaign_run_accepts_spec_target(self):
        args = build_parser().parse_args(
            ["campaign", "run", "spec.json", "--override", "graphs=2"]
        )
        assert args.target == "spec.json"
        assert args.override == ["graphs=2"]

    def test_campaign_worker_address(self):
        args = build_parser().parse_args(
            ["campaign", "worker", "10.0.0.5:7077", "--max-units", "1"]
        )
        assert args.master == ("10.0.0.5", 7077)
        assert args.max_units == 1

    def test_campaign_worker_rejects_bad_address(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "worker", "nocolon"])

    def test_campaign_resume_args(self):
        args = build_parser().parse_args(["campaign", "resume", "/tmp/store"])
        assert args.target == "/tmp/store"

    def test_campaign_resume_without_store_rejected(self, capsys):
        rc = main(["campaign", "run", "1", "--graphs", "1", "--resume"])
        assert rc == 2
        assert "resume needs a persistent store" in capsys.readouterr().err

    def test_campaign_run_rejects_bad_target(self, capsys):
        rc = main(["campaign", "run", "9"])
        assert rc == 2
        assert "no figure 9" in capsys.readouterr().err

    def test_more_replicas_than_processors_rejected(self, capsys):
        # caught before any unit runs, offline and in the sweeps alike
        rc = main(["campaign", "run", "1", "--override", "config.epsilon=10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "num_procs=10" in err
        rc = main(["sweep", "platform", "--graphs", "1", "--epsilon", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epsilon=5" in err

    def test_socket_flags_require_socket_executor(self, capsys):
        rc = main(["campaign", "run", "1", "--graphs", "1",
                   "--bind", "127.0.0.1:7077"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--bind" in err and "socket" in err

    def test_resume_from_directory_rejects_override(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["campaign", "run", "1", "--graphs", "1",
                     "--store", str(store), *TINY]) == 0
        capsys.readouterr()
        rc = main(["campaign", "resume", str(store),
                   "--override", "lease=8"])
        assert rc == 2
        assert "spec-file target" in capsys.readouterr().err


class TestCampaignCommands:
    def test_campaign_run_store_and_resume(self, capsys, tmp_path):
        store = tmp_path / "store"
        rc = main(["campaign", "run", "1", "--graphs", "1",
                   "--store", str(store), *TINY])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shape checks: OK" in out
        assert (store / "manifest.json").exists()
        assert (store / "rows.jsonl").exists()
        # Resuming a complete store reruns nothing and reports again.
        rc = main(["campaign", "resume", str(store)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "figure1" in out

    def test_campaign_run_from_spec_with_override_precedence(
        self, capsys, tmp_path
    ):
        """Spec file < explicit flags < --override, and the stored rows
        reflect the final values."""
        from repro.experiments import CampaignSpec, RunStore, apply_overrides, figure_spec

        store = tmp_path / "store"
        spec = apply_overrides(
            figure_spec(1),
            {"graphs": 3, "config.granularities": [0.4, 1.2],
             "config.task_range": [14, 18]},
        )
        path = tmp_path / "campaign.json"
        path.write_text(spec.to_json())

        # --override graphs=1 beats the file's graphs=3
        rc = main(["campaign", "run", str(path), "--store", str(store),
                   "--override", "graphs=1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shape checks:" in out
        with RunStore(store) as st:
            # 2 granularities x 1 graph: the override won
            assert len(st) == 2

    def test_campaign_resume_from_spec_file(self, capsys, tmp_path):
        from repro.experiments import apply_overrides, figure_spec

        store = tmp_path / "store"
        spec = apply_overrides(
            figure_spec(1),
            {"graphs": 1, "config.granularities": [0.4],
             "config.task_range": [14, 18],
             "store.directory": str(store)},
        )
        path = tmp_path / "campaign.json"
        path.write_text(spec.to_json())
        assert main(["campaign", "run", str(path)]) == 0
        capsys.readouterr()
        # resuming via the spec file re-reports without re-running
        rc = main(["campaign", "resume", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "figure1" in out

    def test_campaign_run_refuses_dirty_store_without_resume(
        self, capsys, tmp_path
    ):
        store = tmp_path / "store"
        assert main(["campaign", "run", "1", "--graphs", "1",
                     "--store", str(store), *TINY]) == 0
        capsys.readouterr()
        from repro.experiments import StoreError

        with pytest.raises(StoreError, match="resume"):
            main(["campaign", "run", "1", "--graphs", "1",
                  "--store", str(store), *TINY])


class TestCommands:
    def test_demo_runs(self, capsys):
        rc = main(
            ["demo", "--size", "4", "--procs", "4", "--epsilon", "1", "--crash", "1",
             "--width", "60"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "latency=" in out
        assert "replay under" in out

    def test_demo_heft(self, capsys):
        rc = main(["demo", "--scheduler", "heft", "--size", "4", "--procs", "4"])
        assert rc == 0
        assert "heft" in capsys.readouterr().out

    def test_demo_all_workloads(self, capsys):
        for wl in ("fft_butterfly", "stencil_1d", "tiled_cholesky"):
            rc = main(["demo", "--workload", wl, "--size", "4", "--procs", "4"])
            assert rc == 0

    def test_prop51_runs(self, capsys):
        rc = main(["prop51", "--trials", "2", "--tasks", "20", "--procs", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Proposition 5.1 holds" in out

    def test_figure_tiny(self, capsys, tmp_path):
        out_csv = tmp_path / "fig.csv"
        rc = main(["figure", "1", "--graphs", "1", "--out", str(out_csv), *TINY])
        out = capsys.readouterr().out
        assert "figure1 (a)" in out
        assert "shape checks:" in out
        assert out_csv.exists()


class TestNewSubcommands:
    def test_robustness_exhaustive(self, capsys):
        rc = main(
            ["robustness", "--size", "4", "--procs", "5", "--epsilon", "1",
             "--exhaustive", "--samples", "10", "--max-failures", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "ROBUST" in out
        assert "survival curve" in out

    def test_robustness_epsilon_beyond_max_failures(self, capsys):
        # epsilon > max-failures must not KeyError: the guarantee check
        # clamps to the sampled range
        rc = main(
            ["robustness", "--size", "4", "--procs", "6", "--epsilon", "3",
             "--samples", "5", "--max-failures", "2", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "survival curve" in out

    def test_robustness_literal_can_fail(self, capsys):
        # the literal variant has no guarantee; exit code reflects the curve
        rc = main(
            ["robustness", "--workload", "stencil_1d", "--size", "6",
             "--procs", "6", "--epsilon", "2", "--locking", "paper",
             "--samples", "10", "--max-failures", "2", "--seed", "0"]
        )
        assert rc in (0, 1)

    def test_trace_export(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        rc = main(
            ["trace", "--size", "4", "--procs", "4", "--out", str(out),
             "--crash", "1"]
        )
        assert rc == 0
        assert out.exists()
        assert (tmp_path / "t.crash.json").exists()

    def test_sweep_heterogeneity(self, capsys):
        rc = main(["sweep", "heterogeneity", "--graphs", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "norm_latency vs h" in out

    def test_figure_html(self, capsys, tmp_path):
        html_out = tmp_path / "fig.html"
        rc = main(["figure", "1", "--graphs", "1", "--html", str(html_out), *TINY])
        assert html_out.exists()
        assert "<svg" in html_out.read_text()

    def test_figure_html_multi_scenario_writes_tagged_reports(
        self, capsys, tmp_path
    ):
        html_out = tmp_path / "fig.html"
        main(["figure", "1", "--graphs", "1", "--html", str(html_out),
              "--override", 'topologies=["ring"]',
              "--override", "config.granularities=[0.4]",
              "--override", "config.task_range=[14,18]"])
        # one report per scenario, none silently dropped
        assert (tmp_path / "fig.oneport-clique-append.html").exists()
        assert (tmp_path / "fig.routed-oneport-ring-append.html").exists()
        assert not html_out.exists()

    def test_compare_subcommand(self, capsys):
        rc = main(
            ["compare", "--size", "4", "--procs", "5", "--epsilon", "1",
             "--samples", "5"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "caft" in out and "ftsa" in out and "surv" in out
