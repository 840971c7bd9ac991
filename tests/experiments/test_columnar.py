"""Tests for the columnar results backend and the streaming query layer.

The contract under test is *equivalence*: a columnar store must be
indistinguishable from the JSONL store through every read surface —
``rep_rows``, ``iter_rows``, the stats fast paths, campaign comparisons,
dedup attribution — while holding the same append-only/idempotent/
crash-repair discipline over its sealed ``chunk-*.npz`` files and
``tail.jsonl`` active chunk.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import StoreSpec
from repro.experiments.campaign import run_grid
from repro.experiments.compare import campaign_comparison_table
from repro.experiments.query import StoreCampaignView, aggregate_points
from repro.experiments.stats import compare_reps, paired_rep_series, rep_series
from repro.utils.errors import CampaignConfigError
from repro.experiments.columnar import ColumnarStore, INDEX_NAME
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import ScenarioGrid, WorkUnit, unit_id_for
from repro.experiments.harness import RepResult
from repro.experiments.store import (
    COLUMNAR_TAIL_NAME,
    ROWS_NAME,
    RunStore,
    StoreError,
    make_store,
    open_store,
    read_store_backend,
)

from test_store import fake_result


@pytest.fixture(scope="module")
def cfg() -> ExperimentConfig:
    return ExperimentConfig(
        name="columnar-test",
        granularities=(0.5, 1.5),
        num_procs=4,
        epsilon=1,
        crashes=1,
        num_graphs=3,
        task_range=(8, 10),
    )


@pytest.fixture(scope="module")
def small_campaign_cfg() -> ExperimentConfig:
    """A real (executed) campaign small enough for equivalence sweeps."""
    from dataclasses import replace

    from repro.experiments.config import FIGURES

    return replace(
        FIGURES[1].with_graphs(2),
        granularities=(0.4, 1.2),
        num_procs=4,
        task_range=(8, 12),
    )


def fill_both(cfg, tmp_path, chunk_rows=3, order=None):
    """The same synthetic appends into a JSONL and a columnar store."""
    units = [
        WorkUnit(cfg, g, rep)
        for g in cfg.granularities
        for rep in range(cfg.num_graphs)
    ]
    if order is not None:
        units = [units[i] for i in order]
    jsonl = RunStore(tmp_path / "jsonl")
    columnar = ColumnarStore(tmp_path / "columnar", chunk_rows=chunk_rows)
    for u in units:
        result = fake_result(u.granularity, u.rep)
        assert jsonl.append(u, result)
        assert columnar.append(u, result)
    jsonl.close()
    columnar.close()
    return units


class TestCrossBackendEquivalence:
    def test_rep_rows_identical(self, cfg, tmp_path):
        fill_both(cfg, tmp_path)
        with open_store(tmp_path / "jsonl") as js, open_store(
            tmp_path / "columnar"
        ) as cs:
            assert js.rep_rows() == cs.rep_rows()

    def test_out_of_order_appends_converge(self, cfg, tmp_path):
        # Canonical ordering is a property of the read path, not the
        # append order: a scrambled campaign reads back identically.
        fill_both(cfg, tmp_path, order=[5, 0, 3, 1, 4, 2])
        with open_store(tmp_path / "jsonl") as js, open_store(
            tmp_path / "columnar"
        ) as cs:
            rows = cs.rep_rows()
            assert rows == js.rep_rows()
            assert rows == sorted(
                rows,
                key=lambda r: (
                    r["config"], r["network"], r["topology"], r["policy"],
                    r["granularity"], r["rep"], r["algorithm"],
                ),
            )

    def test_every_chunk_size_reads_back_the_same(self, cfg, tmp_path):
        reference = None
        for chunk_rows in (1, 2, 4, 100):
            d = tmp_path / f"rows{chunk_rows}"
            d.mkdir()
            fill_both(cfg, d, chunk_rows=chunk_rows)
            with open_store(d / "columnar") as cs:
                rows = cs.rep_rows()
            if reference is None:
                reference = rows
            assert rows == reference, f"chunk_rows={chunk_rows} diverged"

    def test_results_and_lookups_identical(self, cfg, tmp_path):
        units = fill_both(cfg, tmp_path)
        with open_store(tmp_path / "jsonl") as js, open_store(
            tmp_path / "columnar"
        ) as cs:
            assert len(js) == len(cs) == len(units)
            assert js.completed_ids() == cs.completed_ids()
            for u in units:
                assert u.unit_id in cs
                assert js.result(u.unit_id) == cs.result(u.unit_id)
            assert js.results() == cs.results()

    def test_executed_campaign_statistics_bit_identical(
        self, small_campaign_cfg, tmp_path
    ):
        grid = ScenarioGrid.from_config(small_campaign_cfg)
        res_jsonl = run_grid(grid, store=RunStore(tmp_path / "jsonl"))
        res_col = run_grid(
            grid, store=ColumnarStore(tmp_path / "columnar", chunk_rows=3)
        )
        assert [r.points for r in res_jsonl] == [r.points for r in res_col]
        with open_store(tmp_path / "jsonl") as js, open_store(
            tmp_path / "columnar"
        ) as cs:
            rows = js.rep_rows()
            assert rows == cs.rep_rows()
            algos = sorted({r["algorithm"] for r in rows})
            for algo in algos:
                assert rep_series(rows, algo) == rep_series(cs, algo)
                assert rep_series(
                    rows, algo, "messages", where={"granularity": 0.4}
                ) == rep_series(cs, algo, "messages", where={"granularity": 0.4})
            a, b = algos[0], algos[1]
            assert paired_rep_series(rows, a, b) == paired_rep_series(cs, a, b)
            assert compare_reps(rows, a, b) == compare_reps(cs, a, b)
            assert campaign_comparison_table(js) == campaign_comparison_table(
                cs
            )
            assert js.dedup_stats() == cs.dedup_stats()

    def test_streaming_view_matches_in_memory_campaign(
        self, small_campaign_cfg, tmp_path
    ):
        grid = ScenarioGrid.from_config(small_campaign_cfg)
        [result] = run_grid(
            grid, store=ColumnarStore(tmp_path / "c", chunk_rows=3)
        )
        with open_store(tmp_path / "c") as cs:
            view = StoreCampaignView(cs, small_campaign_cfg)
            assert view.points == result.points
            assert view.rows() == result.rows()
            assert view.series("caft_latency0") == result.series(
                "caft_latency0"
            )
            assert view.rep_rows() == cs.rep_rows()
            assert aggregate_points(cs, small_campaign_cfg) == result.points

    def test_report_and_svg_render_from_streaming_view(
        self, small_campaign_cfg, tmp_path
    ):
        """The report/SVG layers run straight off a store view and emit
        byte-identical output to the in-memory campaign path."""
        from repro.experiments.report import render_figure
        from repro.experiments.svg import write_html_report

        grid = ScenarioGrid.from_config(small_campaign_cfg)
        [result] = run_grid(
            grid, store=ColumnarStore(tmp_path / "c", chunk_rows=3)
        )
        with open_store(tmp_path / "c") as cs:
            view = StoreCampaignView(cs, small_campaign_cfg)
            assert render_figure(view) == render_figure(result)
            from_view = write_html_report(view, tmp_path / "view.html")
            from_mem = write_html_report(result, tmp_path / "mem.html")
            assert from_view.read_text() == from_mem.read_text()


class TestIterRows:
    def test_where_and_columns_match_manual_filter(self, cfg, tmp_path):
        fill_both(cfg, tmp_path)
        cases = [
            (None, None),
            ({"granularity": 0.5}, None),
            ({"rep": [0, 2]}, ("granularity", "rep", "norm_latency")),
            ({"algorithm": "caft", "rep": 1}, ("norm_crash",)),
            ({"config": cfg.name}, None),
            ({"config": "no-such-campaign"}, None),
            ({"norm_crash": None}, ("rep",)),
        ]
        with open_store(tmp_path / "jsonl") as js, open_store(
            tmp_path / "columnar"
        ) as cs:
            for where, columns in cases:
                got_j = list(js.iter_rows(where=where, columns=columns))
                got_c = list(cs.iter_rows(where=where, columns=columns))
                assert got_j == got_c, (where, columns)

    def test_projection_decodes_only_requested_columns(self, cfg, tmp_path):
        fill_both(cfg, tmp_path)
        with open_store(tmp_path / "columnar") as cs:
            rows = list(cs.iter_rows(columns=("rep", "algorithm")))
            assert rows
            assert all(set(r) == {"rep", "algorithm"} for r in rows)

    def test_unknown_projected_column_raises(self, cfg, tmp_path):
        fill_both(cfg, tmp_path)
        with open_store(tmp_path / "columnar") as cs:
            with pytest.raises(KeyError):
                list(cs.iter_rows(columns=("no_such_metric",)))

    def test_pruned_chunks_are_never_opened(self, cfg, tmp_path):
        fill_both(cfg, tmp_path, chunk_rows=1)
        with open_store(tmp_path / "columnar") as cs:
            opened = []
            original = cs._chunk_path

            def spying(meta):
                opened.append(meta.name)
                return original(meta)

            cs._chunk_path = spying
            assert list(cs.iter_rows(where={"config": "elsewhere"})) == []
            assert opened == []


class TestColumnarCorruptionMatrix:
    def test_every_truncation_point_of_the_tail(self, cfg, tmp_path):
        """Chop ``tail.jsonl`` at every byte boundary — with sealed
        chunks present — and assert load + repair + resume never loses a
        sealed row, never duplicates one, and never rewrites a chunk."""
        units = [
            WorkUnit(cfg, g, rep)
            for g in cfg.granularities
            for rep in range(cfg.num_graphs)
        ]
        results = {u.unit_id: fake_result(u.granularity, u.rep) for u in units}
        ref = tmp_path / "ref"
        store = ColumnarStore(ref, chunk_rows=4)
        for u in units:  # 6 single-row units: one sealed chunk + 2 tail rows
            store.append(u, results[u.unit_id])
        store.close()
        chunk_blobs = {
            p.name: p.read_bytes() for p in ref.glob("chunk-*.npz")
        }
        assert len(chunk_blobs) == 1
        sealed = 4
        tail = (ref / COLUMNAR_TAIL_NAME).read_bytes()
        index_blob = (ref / INDEX_NAME).read_bytes()

        for cut in range(len(tail) + 1):
            directory = tmp_path / f"cut{cut}"
            directory.mkdir()
            for name, blob in chunk_blobs.items():
                (directory / name).write_bytes(blob)
            (directory / INDEX_NAME).write_bytes(index_blob)
            (directory / COLUMNAR_TAIL_NAME).write_bytes(tail[:cut])

            store = ColumnarStore(directory, chunk_rows=4)
            assert sealed <= len(store) <= len(units), f"cut={cut}"
            # Resume: rerun everything (duplicate delivery included).
            for u in units:
                store.append(u, results[u.unit_id])
            store.close()

            final = ColumnarStore(directory, chunk_rows=4)
            assert len(final) == len(units), f"cut={cut}"
            for u in units:
                assert final.result(u.unit_id) == results[u.unit_id], (
                    f"cut={cut} corrupted {u.unit_id}"
                )
            final.close()
            for name, blob in chunk_blobs.items():
                assert (directory / name).read_bytes() == blob, (
                    f"cut={cut} rewrote sealed chunk {name}"
                )

    def test_seal_crash_overlap_counts_replayed_rows(self, cfg, tmp_path):
        # A kill between the chunk rename and the tail truncation leaves
        # the sealed rows *also* in the tail; the reload must dedup them
        # and surface the overlap as replayed_rows.
        units = [WorkUnit(cfg, 0.5, rep) for rep in range(3)]
        store = ColumnarStore(tmp_path / "c", chunk_rows=3)
        jsonl = RunStore(tmp_path / "j")  # same record bytes as the tail
        for u in units:
            result = fake_result(u.granularity, u.rep)
            store.append(u, result)
            jsonl.append(u, result)
        store.close()
        jsonl.close()
        tail = tmp_path / "c" / COLUMNAR_TAIL_NAME
        assert tail.read_bytes() == b""  # the seal truncated it
        tail.write_bytes((tmp_path / "j" / ROWS_NAME).read_bytes())

        reloaded = ColumnarStore(tmp_path / "c", chunk_rows=3)
        assert len(reloaded) == 3
        assert reloaded.dedup_stats() == {
            "duplicate_appends": 0,
            "replayed_rows": 3,
        }

    def test_missing_index_is_rederived(self, cfg, tmp_path):
        fill_both(cfg, tmp_path, chunk_rows=2)
        (tmp_path / "columnar" / INDEX_NAME).unlink()
        with open_store(tmp_path / "columnar") as cs, open_store(
            tmp_path / "jsonl"
        ) as js:
            assert cs.rep_rows() == js.rep_rows()

    def test_corrupt_index_is_rederived(self, cfg, tmp_path):
        fill_both(cfg, tmp_path, chunk_rows=2)
        (tmp_path / "columnar" / INDEX_NAME).write_text("{not json")
        with open_store(tmp_path / "columnar") as cs, open_store(
            tmp_path / "jsonl"
        ) as js:
            assert cs.rep_rows() == js.rep_rows()

    def test_corrupt_chunk_raises_store_error(self, cfg, tmp_path):
        fill_both(cfg, tmp_path, chunk_rows=2)
        [chunk] = (tmp_path / "columnar").glob("chunk-000000.npz")
        chunk.write_bytes(chunk.read_bytes()[:30])
        (tmp_path / "columnar" / INDEX_NAME).unlink()  # force npz re-derive
        with pytest.raises(StoreError, match="corrupt columnar chunk"):
            ColumnarStore(tmp_path / "columnar")

    def test_partial_seal_tmp_file_is_ignored(self, cfg, tmp_path):
        fill_both(cfg, tmp_path, chunk_rows=2)
        # A kill mid-seal leaves chunk-NNNNNN.tmp; loads must skip it and
        # the next seal must not collide with it.
        (tmp_path / "columnar" / "chunk-000099.tmp").write_bytes(b"garbage")
        with open_store(tmp_path / "columnar") as cs, open_store(
            tmp_path / "jsonl"
        ) as js:
            assert cs.rep_rows() == js.rep_rows()


class TestBackendIdentity:
    def test_open_store_sniffs_both_backends(self, cfg, tmp_path):
        fill_both(cfg, tmp_path)
        assert read_store_backend(tmp_path / "jsonl") == "jsonl"
        assert read_store_backend(tmp_path / "columnar") == "columnar"
        with open_store(tmp_path / "jsonl") as s:
            assert isinstance(s, RunStore) and not isinstance(s, ColumnarStore)
        with open_store(tmp_path / "columnar") as s:
            assert isinstance(s, ColumnarStore)

    def test_wrong_backend_class_refuses_directory(self, cfg, tmp_path):
        fill_both(cfg, tmp_path)
        with pytest.raises(StoreError, match="columnar"):
            RunStore(tmp_path / "columnar")
        with pytest.raises(StoreError, match="jsonl"):
            ColumnarStore(tmp_path / "jsonl")

    def test_manifest_backend_mismatch_refused(self, cfg, tmp_path):
        grid = ScenarioGrid.from_config(cfg)
        with ColumnarStore(tmp_path / "s", chunk_rows=4) as store:
            store.ensure_manifest(grid)
        # Fake a tooling mistake: a jsonl store handed a columnar manifest.
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["backend"] == "columnar"
        other = tmp_path / "other"
        other.mkdir()
        (other / "manifest.json").write_text(json.dumps(manifest))
        with RunStore(other) as store:
            with pytest.raises(StoreError, match="backend"):
                store.ensure_manifest(grid)

    def test_columnar_requires_directory(self):
        with pytest.raises(StoreError, match="directory"):
            ColumnarStore(None)

    def test_make_store_registry(self, tmp_path):
        assert isinstance(
            make_store("columnar", tmp_path / "c"), ColumnarStore
        )
        assert isinstance(make_store("jsonl", tmp_path / "j"), RunStore)
        memory = make_store("memory", None)
        assert isinstance(memory, RunStore)
        assert memory.directory is None


class TestStoreSpecColumnar:
    def test_columnar_without_directory_rejected(self):
        with pytest.raises(CampaignConfigError, match="store.directory"):
            StoreSpec(backend="columnar")

    def test_round_trip_and_build(self, tmp_path):
        spec = StoreSpec(backend="columnar", directory=str(tmp_path / "c"))
        again = StoreSpec.from_dict(spec.to_dict())
        assert again == spec
        store = again.build()
        try:
            assert isinstance(store, ColumnarStore)
        finally:
            store.close()


class TestHypothesisRoundTrip:
    """Dictionary-encoded tags and float columns survive any value."""

    tag_text = st.text(
        alphabet=st.characters(exclude_characters="\x00"),
        min_size=1,
        max_size=25,
    )
    metric_value = st.none() | st.floats(
        allow_nan=False, allow_infinity=True, width=64
    )

    @settings(max_examples=40, deadline=None)
    @given(
        name=tag_text,
        algos=st.lists(tag_text, min_size=1, max_size=3, unique=True),
        # int granularities round-trip through the f8 column + int flag,
        # so stay within float64's exact-integer range
        granularity=st.one_of(
            st.integers(-(2 ** 53), 2 ** 53),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ),
        faultfree=st.floats(allow_nan=False, allow_infinity=True, width=64),
        data=st.data(),
    )
    def test_unicode_tags_and_floats_round_trip(
        self, tmp_path_factory, name, algos, granularity, faultfree, data
    ):
        tags = {
            "config": name,
            "network": "oneport",
            "topology": "clique",
            "policy": "append",
        }

        class StubUnit:
            scenario = tags
            locality_key = (name, "oneport")

            def __init__(self, granularity, rep):
                self.granularity = granularity
                self.rep = rep

            @property
            def unit_id(self):
                return unit_id_for(
                    tags["config"], tags["network"], tags["topology"],
                    tags["policy"], self.granularity, self.rep,
                )

        metric_names = ("norm_latency", "norm_upper", "messages", "norm_crash")
        results = {}
        units = []
        for rep in range(3):
            metrics = {}
            for algo in algos:
                vals = [data.draw(self.metric_value) for _ in metric_names]
                metrics[algo] = dict(zip(metric_names, vals))
            results[rep] = RepResult(
                granularity=granularity,
                rep=rep,
                faultfree_norm={a: faultfree for a in algos},
                metrics=metrics,
            )
            units.append(StubUnit(granularity, rep))
        directory = tmp_path_factory.mktemp("hyp") / "c"
        store = ColumnarStore(directory, chunk_rows=2)
        for u in units:
            assert store.append(u, results[u.rep])
        store.close()

        reloaded = ColumnarStore(directory, chunk_rows=2)
        assert len(reloaded) == len(units)
        for u in units:
            assert reloaded.result(u.unit_id) == results[u.rep]
        assert reloaded.dedup_stats() == {
            "duplicate_appends": 0,
            "replayed_rows": 0,
        }
        reloaded.close()

    def test_huge_base_seed_survives_the_manifest(self, tmp_path):
        cfg = ExperimentConfig(
            name="seed-test \U0001f409",  # astral tag round-trips too
            granularities=(0.5,),
            num_procs=4,
            epsilon=1,
            crashes=1,
            num_graphs=1,
            base_seed=2 ** 96 + 7,
            task_range=(8, 10),
        )
        grid = ScenarioGrid.from_config(cfg)
        with ColumnarStore(tmp_path / "c", chunk_rows=2) as store:
            store.ensure_manifest(grid)
        with open_store(tmp_path / "c") as reloaded:
            assert reloaded.read_manifest_grid() == grid


class TestSealSemantics:
    def test_heterogeneous_metric_schema_raises(self, cfg, tmp_path):
        store = ColumnarStore(tmp_path / "c", chunk_rows=2)
        store.append(WorkUnit(cfg, 0.5, 0), fake_result(0.5, 0))
        odd = RepResult(
            granularity=0.5,
            rep=1,
            faultfree_norm={"caft": 1.0},
            metrics={"caft": {"only_metric": 1.0}},
        )
        with pytest.raises(StoreError, match="uniform"):
            store.append(WorkUnit(cfg, 0.5, 1), odd)

    def test_sealed_chunks_are_append_only(self, cfg, tmp_path):
        store = ColumnarStore(tmp_path / "c", chunk_rows=1)
        store.append(WorkUnit(cfg, 0.5, 0), fake_result(0.5, 0))
        blob = (tmp_path / "c" / "chunk-000000.npz").read_bytes()
        store.append(WorkUnit(cfg, 0.5, 1), fake_result(0.5, 1))
        store.close()
        assert (tmp_path / "c" / "chunk-000000.npz").read_bytes() == blob
        assert (tmp_path / "c" / "chunk-000001.npz").exists()

    def test_duplicate_of_sealed_unit_is_swallowed(self, cfg, tmp_path):
        store = ColumnarStore(tmp_path / "c", chunk_rows=1)
        unit = WorkUnit(cfg, 0.5, 0)
        assert store.append(unit, fake_result(0.5, 0))
        assert not store.append(
            unit, fake_result(0.5, 0), attempt="speculative"
        )
        assert store.dedup_stats() == {
            "duplicate_appends": 1,
            "replayed_rows": 0,
            "by_attempt": {"speculative": 1},
        }
        store.close()
