"""The declarative campaign API: spec validation, registries, facade.

The headline pins live here too: every shipped figure spec expands to
exactly the grid of its ``FIGURES`` config, and tiny campaigns run from
specs store rows byte-identical to the checked-in golden files under
``golden/`` (the rows the removed keyword entry points stored).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.api import (
    Campaign,
    CampaignHandle,
    CampaignSpec,
    ExecutorSpec,
    SPEC_DIR,
    ProgressEvent,
    StoreSpec,
    apply_overrides,
    figure_spec,
    figure_spec_path,
    parse_override,
    shipped_spec_paths,
)
from repro.experiments.config import FIGURES, ExperimentConfig
from repro.experiments.executors import (
    ProcessExecutor,
    SerialExecutor,
    SocketExecutor,
)
from repro.dag.analysis import min_critical_path
from repro.experiments.grid import ScenarioGrid
from repro.experiments.harness import (
    campaign_network,
    generate_instance,
    generate_topology,
)
from repro.experiments.registry import (
    EXECUTORS,
    SCHEDULERS,
    STORES,
    register_executor,
    register_scheduler,
    register_store,
    scheduler_names,
)
from repro.experiments.store import RunStore
from repro.schedulers.heft import heft
from repro.utils.errors import CampaignConfigError
from repro.utils.rng import RngStream

TINY = {
    "graphs": 1,
    "config.granularities": [0.4, 1.2],
    "config.task_range": [14, 18],
}


def tiny_spec(**overrides) -> CampaignSpec:
    spec = apply_overrides(figure_spec(1), TINY)
    return replace(spec, **overrides) if overrides else spec


# --------------------------------------------------------------- registries


class TestRegistries:
    def test_builtin_names(self):
        assert scheduler_names() == (
            "caft", "caft-batch", "caft-paper", "ftbar", "ftsa", "heft",
        )
        assert EXECUTORS.names() == ("process", "serial", "service", "socket")
        assert {"jsonl", "memory"} <= set(STORES.names())

    def test_registries_complete_in_a_fresh_interpreter(self):
        # importing the registry module alone loads every builtin
        script = (
            "import json\n"
            "import repro.experiments.registry as r\n"
            "print(json.dumps({\n"
            "    'schedulers': r.SCHEDULERS.names(),\n"
            "    'executors': r.EXECUTORS.names(),\n"
            "    'stores': r.STORES.names(),\n"
            "    'networks': r.network_names(),\n"
            "    'topologies': r.topology_names(),\n"
            "    'arrivals': r.arrival_process_names(),\n"
            "    'failures': r.failure_model_names(),\n"
            "}))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        ).stdout
        names = {key: set(value) for key, value in json.loads(out).items()}
        assert names["schedulers"] == {
            "caft", "caft-paper", "ftsa", "ftbar", "heft", "caft-batch",
        }
        assert {"serial", "process", "socket", "service"} <= names["executors"]
        assert {"memory", "jsonl", "columnar"} <= names["stores"]
        assert {
            "oneport", "uniport", "oneport-nooverlap", "macro-dataflow",
            "routed-oneport",
        } <= names["networks"]
        assert {
            "clique", "ring", "line", "star", "mesh", "torus", "fat-tree",
        } <= names["topologies"]
        assert {"poisson", "uniform", "trace"} <= names["arrivals"]
        assert {"iid", "domains", "topology"} <= names["failures"]

    def test_unknown_lookup_is_config_error_listing_registered(self):
        with pytest.raises(CampaignConfigError, match="registered: .*serial"):
            EXECUTORS.get("mapreduce")
        err = pytest.raises(CampaignConfigError, SCHEDULERS.get, "heft2")
        assert err.value.key == "scheduler"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_executor("serial", lambda **kw: None)

    def test_colon_in_name_rejected(self):
        with pytest.raises(ValueError, match="':'"):
            register_executor("sock:et", lambda **kw: None)

    def test_registered_scheduler_flows_into_runner_views(self):
        runner = SCHEDULERS.get("caft").runner
        register_scheduler("caft-copy", runner)
        try:
            assert "caft-copy" in SCHEDULERS.names()
            assert SCHEDULERS.get("caft-copy").runner is runner
            # default fault-free form is the runner at eps 0
            assert callable(SCHEDULERS.get("caft-copy").faultfree)
        finally:
            SCHEDULERS.remove("caft-copy")
        assert "caft-copy" not in SCHEDULERS

    def test_registered_scheduler_runs_in_a_campaign(self):
        register_scheduler("caft-bis", SCHEDULERS.get("caft").runner)
        try:
            spec = apply_overrides(
                tiny_spec(),
                {"config.algorithms": ["caft", "caft-bis"],
                 "config.granularities": [1.0]},
            )
            result = Campaign(spec).run().result()
            rows = result.rows()
            # the registered algorithm gets its own columns, identical to
            # the caft it wraps
            assert rows[0]["caft-bis_latency0"] == rows[0]["caft_latency0"]
        finally:
            SCHEDULERS.remove("caft-bis")

    def test_heft_and_caft_batch_run_in_a_campaign(self):
        base = apply_overrides(
            tiny_spec(), {"config.algorithms": ["caft", "ftsa"]}
        )
        extended = apply_overrides(
            base, {"config.algorithms": ["caft", "ftsa", "heft", "caft-batch"]}
        )
        assert base.executor.kind == extended.executor.kind == "serial"
        result = Campaign(extended).run().result()
        for row in result.rows():
            for name in ("heft", "caft-batch"):
                assert row[f"{name}_latency0"] > 0
                assert f"{name}_overhead0" in row
        rep_rows = result.rep_rows()
        algos = [row["algorithm"] for row in rep_rows]
        assert algos.count("heft") == algos.count("caft-batch") == algos.count("caft")

        # each runner draws from its own integer seed: adding names
        # leaves every caft and ftsa value as it was
        def keyed(rows):
            return {
                (row["granularity"], row["rep"], row["algorithm"]): row
                for row in rows
                if row["algorithm"] in ("caft", "ftsa")
            }

        assert keyed(rep_rows) == keyed(Campaign(base).run().result().rep_rows())

        # heft's column is a direct heft() call on the unit's instance
        config = result.config
        for row in rep_rows:
            if row["algorithm"] != "heft":
                continue
            g, rep = row["granularity"], row["rep"]
            topology = generate_topology(config, g, rep)
            inst = generate_instance(config, g, rep, topology=topology)
            sched = heft(
                inst,
                model=campaign_network(config, inst, topology),
                rng=RngStream(config.base_seed).seed("algo", config.name, g, rep),
                fast=config.fast,
            )
            assert sched.epsilon == 0
            assert row["norm_latency"] == sched.latency() / min_critical_path(inst)

    def test_unknown_algorithm_in_config_rejected(self):
        with pytest.raises(CampaignConfigError, match="unknown scheduler"):
            apply_overrides(tiny_spec(), {"config.algorithms": ["caft", "xyz"]})

    def test_registered_store_backend_resolves(self):
        captured = {}

        def factory(directory=None):
            captured["directory"] = directory
            return RunStore(None)

        register_store("null", factory)
        try:
            spec = tiny_spec(store=StoreSpec(backend="null"))
            assert spec.store.build() is not None
            assert captured == {"directory": None}
        finally:
            STORES.remove("null")


# ------------------------------------------------------------ spec validity


class TestSpecValidation:
    def test_needs_figure_or_config(self):
        err = pytest.raises(CampaignConfigError, CampaignSpec)
        assert err.value.key == "figure"

    def test_unknown_figure(self):
        with pytest.raises(CampaignConfigError, match="no figure 9"):
            CampaignSpec(figure=9)

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"graphs": 0}, "graphs"),
            ({"graphs": "many"}, "graphs"),
            ({"seed": "abc"}, "seed"),
            ({"network": "tcp"}, "network"),
            ({"topology": "hypercube"}, "topology"),
            ({"topologies": ("ring", "moebius")}, "topologies"),
            ({"policy": "lifo"}, "policy"),
            ({"policies": ("insertion", "fifo")}, "policies"),
            ({"lease": "sometimes"}, "lease"),
            ({"version": 2}, "version"),
            ({"include_base": False}, "include_base"),
        ],
    )
    def test_bad_values_name_their_key(self, kwargs, key):
        err = pytest.raises(
            CampaignConfigError, CampaignSpec, figure=1, **kwargs
        )
        assert err.value.key == key
        assert key.split(".")[-1] in str(err.value)

    def test_more_replicas_than_processors_rejected_up_front(self):
        with pytest.raises(CampaignConfigError, match="num_procs=10") as err:
            CampaignSpec.from_dict({"figure": 1, "config": {"epsilon": 10}})
        assert err.value.key == "config.epsilon"
        assert "epsilon=10" in str(err.value)
        with pytest.raises(CampaignConfigError, match="epsilon=10"):
            apply_overrides(tiny_spec(), {"config.epsilon": 10})

    def test_online_config_may_ask_for_more_replicas_than_processors(self):
        # each job's ε is clamped to its grant, so online specs are exempt
        spec = apply_overrides(
            CampaignSpec.load(SPEC_DIR / "figure_online.json"),
            {"config.epsilon": 12},
        )
        assert spec.base_config().epsilon == 12
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_cross_field_scenario_errors_are_config_errors(self):
        with pytest.raises(CampaignConfigError, match="routed-oneport"):
            CampaignSpec(figure=1, network="oneport", topology="ring")
        with pytest.raises(CampaignConfigError, match="insertion"):
            CampaignSpec(figure=1, topology="ring", policy="insertion")

    def test_executor_socket_only_fields(self):
        for field, value in (
            ("bind", "127.0.0.1:7077"),
            ("spawn_workers", 2),
            ("timeout", 60.0),
            ("speculate", "auto"),
            ("steal", "off"),
        ):
            err = pytest.raises(
                CampaignConfigError, ExecutorSpec, **{field: value}
            )
            assert err.value.key == f"executor.{field}"
            assert "socket" in str(err.value)

    def test_bad_speculate_and_steal_values_rejected(self):
        for field in ("speculate", "steal"):
            for bad in ("yes", "on", True, 1):
                err = pytest.raises(
                    CampaignConfigError,
                    ExecutorSpec,
                    kind="socket",
                    **{field: bad},
                )
                assert err.value.key == f"executor.{field}"
                assert "'auto'" in str(err.value)

    def test_executor_bad_bind(self):
        with pytest.raises(CampaignConfigError, match="HOST:PORT"):
            ExecutorSpec(kind="socket", bind="nocolon")

    def test_non_numeric_executor_fields_are_config_errors(self):
        # never a raw ValueError/traceback: the CLI only catches
        # CampaignConfigError
        for kwargs, key in (
            ({"workers": "abc"}, "executor.workers"),
            ({"workers": True}, "executor.workers"),
            ({"kind": "socket", "timeout": "soon"}, "executor.timeout"),
            ({"kind": "socket", "spawn_workers": "2"}, "executor.spawn_workers"),
        ):
            err = pytest.raises(CampaignConfigError, ExecutorSpec, **kwargs)
            assert err.value.key == key

    def test_out_of_range_socket_fields_rejected(self):
        for kwargs, key in (
            ({"kind": "socket", "spawn_workers": -2}, "executor.spawn_workers"),
            ({"kind": "socket", "spawn_workers": 0}, "executor.spawn_workers"),
            ({"kind": "socket", "timeout": 0.0}, "executor.timeout"),
            ({"kind": "socket", "timeout": -5}, "executor.timeout"),
        ):
            err = pytest.raises(CampaignConfigError, ExecutorSpec, **kwargs)
            assert err.value.key == key

    def test_non_boolean_fast_rejected(self):
        for key, value in (("fast", "no"), ("include_base", 1)):
            err = pytest.raises(
                CampaignConfigError, CampaignSpec, figure=1, **{key: value}
            )
            assert err.value.key == key

    def test_bad_figure_with_config_names_figure_not_config(self):
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 9, "config": {"num_procs": 5}},
        )
        assert err.value.key == "figure"

    def test_serial_rejects_parallel_worker_counts(self):
        err = pytest.raises(
            CampaignConfigError, ExecutorSpec, kind="serial", workers=8
        )
        assert err.value.key == "executor.workers"
        assert ExecutorSpec(kind="serial", workers=1).workers == 1

    def test_registered_executor_kind_receives_socket_style_options(self):
        """Custom kinds take bind/timeout/... as factory options — only
        the builtin serial/process kinds reject them."""
        seen = {}

        def factory(workers=None, lease=None, **options):
            seen.update(options, workers=workers)
            return SerialExecutor()

        register_executor("tls-socket", factory)
        try:
            spec = ExecutorSpec(
                kind="tls-socket", workers=3, bind="127.0.0.1:7077", timeout=5.0
            )
            spec.build()
            assert seen == {
                "workers": 3,
                "bind": "127.0.0.1:7077",
                "timeout": 5.0,
            }
        finally:
            EXECUTORS.remove("tls-socket")

    def test_store_backend_rules(self):
        assert StoreSpec().resolved_backend == "memory"
        assert StoreSpec(directory="x").resolved_backend == "jsonl"
        with pytest.raises(CampaignConfigError, match="store.directory"):
            StoreSpec(backend="jsonl")
        with pytest.raises(CampaignConfigError, match="memory"):
            StoreSpec(backend="memory", directory="x")

    def test_resume_needs_persistent_store(self):
        err = pytest.raises(
            CampaignConfigError, Campaign(tiny_spec()).resume
        )
        assert "persistent store" in str(err.value)
        assert err.value.key == "store.directory"


# ------------------------------------------------------- the offending key


class TestOverrides:
    def test_parse_override_values_are_json_when_possible(self):
        assert parse_override("graphs=3") == ("graphs", 3)
        assert parse_override("fast=false") == ("fast", False)
        assert parse_override("config.granularities=[0.2]") == (
            "config.granularities",
            [0.2],
        )
        assert parse_override("executor.kind=process") == (
            "executor.kind",
            "process",
        )
        assert parse_override("store.directory=null") == ("store.directory", None)

    def test_parse_override_requires_key_value(self):
        with pytest.raises(CampaignConfigError, match="KEY=VALUE"):
            parse_override("graphs")

    def test_apply_overrides_wins_and_validates(self):
        spec = tiny_spec()
        out = apply_overrides(spec, {"graphs": 7, "executor.kind": "process"})
        assert out.graphs == 7 and out.executor.kind == "process"
        with pytest.raises(CampaignConfigError, match="unknown key"):
            apply_overrides(spec, {"grapsh": 7})

    def test_straggler_knobs_override_by_dotted_key(self):
        # `--override executor.speculate=auto` routes through the
        # serialized form like any other spec key — with identical
        # validation, so the knobs stay socket-only.
        spec = tiny_spec()
        out = apply_overrides(
            spec,
            {"executor.kind": "socket", "executor.spawn_workers": 2,
             "executor.speculate": "auto", "executor.steal": "off"},
        )
        assert out.executor.speculate == "auto"
        assert out.executor.steal == "off"
        err = pytest.raises(
            CampaignConfigError,
            apply_overrides, spec, {"executor.speculate": "auto"},
        )
        assert err.value.key == "executor.speculate"
        err = pytest.raises(
            CampaignConfigError,
            apply_overrides, spec,
            {"executor.kind": "socket", "executor.speculate": "sometimes"},
        )
        assert err.value.key == "executor.speculate"

    def test_apply_none_resets_to_default(self):
        spec = tiny_spec(lease=4)
        assert apply_overrides(spec, {"lease": None}).lease is None

    def test_override_through_non_table_rejected(self):
        with pytest.raises(CampaignConfigError, match="not a table"):
            apply_overrides(tiny_spec(), {"graphs.deep": 1})


# ------------------------------------------------ shipped spec equivalence

GOLDEN = Path(__file__).parent / "golden"


def golden_specs() -> dict[str, CampaignSpec]:
    """The tiny specs whose stored rows are checked in under ``golden/``."""
    online = apply_overrides(
        CampaignSpec.load(SPEC_DIR / "figure_online.json"),
        {
            "graphs": 1,
            "config.granularities": [0.01, 0.02],
            "config.task_range": [12, 16],
        },
    )
    return {
        "figure1_tiny": tiny_spec(),
        "figure1_tiny_axes": tiny_spec(
            topologies=("ring",), policies=("insertion",)
        ),
        "figure_online_tiny": online,
    }


class TestShippedSpecEquivalence:
    @pytest.mark.parametrize("number", sorted(FIGURES))
    def test_shipped_spec_matches_keyword_grid(self, number):
        """Every figure's shipped spec expands to exactly the grid of
        its ``FIGURES`` config."""
        assert figure_spec_path(number).exists()
        spec = figure_spec(number)
        assert spec.grid() == ScenarioGrid.from_config(FIGURES[number])
        assert spec.config == FIGURES[number]

    def test_shipped_specs_cover_all_figures(self):
        names = {p.stem for p in shipped_spec_paths()}
        assert {f"figure{n}" for n in FIGURES} <= names

    def test_spec_rows_bit_identical_to_keyword_path(self, tmp_path):
        """The acceptance pin: campaigns run from specs store rows
        byte-identical to ``golden/<name>.jsonl``.

        The golden files are the rows the removed keyword entry points
        stored for these specs; the spec path wrote the same bytes when
        they were generated.
        Regenerate one only for a change meant to alter rows: run its
        spec with ``store.directory`` set and copy the store's
        ``rows.jsonl`` over the file.
        """
        for name, spec in golden_specs().items():
            store = tmp_path / name
            Campaign(
                apply_overrides(spec, {"store.directory": str(store)})
            ).run()
            assert (store / "rows.jsonl").read_bytes() == (
                GOLDEN / f"{name}.jsonl"
            ).read_bytes(), name

    def test_scenario_axes_match_from_scenarios(self):
        spec = tiny_spec(topologies=("ring",), policies=("insertion",))
        base = spec.base_config()
        assert spec.grid() == ScenarioGrid.from_scenarios(
            base, topologies=("ring",), policies=("insertion",)
        )


# ----------------------------------------------------------------- facade


class TestCampaignFacade:
    def test_run_returns_handle_with_events_and_result(self):
        events = []
        handle = Campaign(tiny_spec()).run(progress=events.append)
        assert isinstance(handle, CampaignHandle)
        assert handle.result().config.num_graphs == 1
        assert handle.events == events
        kinds = [e.kind for e in events]
        assert kinds[0] == "start" and kinds[-1] == "done"
        # one "unit" event per work unit of the grid
        assert kinds.count("unit") == tiny_spec().grid().total_units
        assert all(isinstance(e, ProgressEvent) for e in events)
        assert handle.elapsed > 0

    def test_executor_spec_builds_requested_kinds(self):
        assert isinstance(ExecutorSpec().build(), SerialExecutor)
        proc = ExecutorSpec(kind="process", workers=2).build(lease=3)
        assert isinstance(proc, ProcessExecutor)
        assert proc.lease_policy.size == 3
        sock = ExecutorSpec(
            kind="socket", bind="127.0.0.1:0", spawn_workers=2, timeout=9.0
        ).build()
        assert isinstance(sock, SocketExecutor)
        assert sock.timeout == 9.0
        # Straggler-mitigation defaults: stealing on, speculation off.
        assert sock.steal is True
        assert sock.speculation.enabled is False
        tuned = ExecutorSpec(
            kind="socket", bind="127.0.0.1:0", speculate="auto", steal="off"
        ).build()
        assert tuned.speculation.enabled is True
        assert tuned.steal is False

    def test_run_with_process_executor_matches_serial(self):
        spec = tiny_spec()
        serial = Campaign(spec).run().result()
        pooled = replace(spec, executor=ExecutorSpec(kind="process", workers=2))
        parallel = Campaign(pooled).run().result()
        assert serial.rows() == parallel.rows()

    def test_spec_to_json_resumes_against_its_own_store(self, tmp_path):
        """The acceptance pin: a spec written by to_json() resumes
        against a store created from the same spec."""
        store_dir = tmp_path / "store"
        spec = apply_overrides(
            tiny_spec(), {"store.directory": str(store_dir)}
        )
        first = Campaign(spec).run()
        assert len(first.result().reps) == spec.grid().total_units

        # ship the spec as a file, reload it, resume: nothing re-runs,
        # rows are identical
        path = tmp_path / "campaign.json"
        path.write_text(spec.to_json())
        resumed = Campaign.from_file(path).resume()
        unit_events = [e for e in resumed.events if e.kind == "unit"]
        assert unit_events == []  # every unit was already stored
        assert resumed.result().rows() == first.result().rows()

    def test_resume_finishes_a_partial_store(self, tmp_path):
        store_dir = tmp_path / "store"
        spec = apply_overrides(tiny_spec(), {"store.directory": str(store_dir)})
        grid = spec.grid()
        units = grid.units()
        # simulate a crash: record only the first unit, by hand
        with RunStore(store_dir) as store:
            store.ensure_manifest(grid)
            store.append(units[0], units[0].run())
        handle = Campaign(spec).resume()
        unit_events = [e for e in handle.events if e.kind == "unit"]
        assert len(unit_events) == len(units) - 1
        assert len(handle.result().reps) == len(units)

    def test_multi_scenario_results_and_result_guard(self):
        spec = tiny_spec(topologies=("ring",))
        handle = Campaign(spec).run()
        assert len(handle.results) == 2
        with pytest.raises(ValueError, match="2 scenario"):
            handle.result()
