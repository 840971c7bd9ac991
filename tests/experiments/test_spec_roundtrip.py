"""Property-based round-trip tests for campaign spec files.

A :class:`CampaignSpec` is the unit of versioning and shipping — it must
survive serialize → load → serialize *identically* in both JSON and
TOML for any spec a user can build: unicode scenario names, extreme
seeds, every executor/store/axis combination.  Hypothesis generates the
specs; equality is dataclass-deep and the second serialization must be
byte-identical to the first (the canonical form is stable).

Unknown keys anywhere in a spec are rejected with a message naming them
— a typo in a campaign file must never be silently ignored.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.api import CampaignSpec, ExecutorSpec, StoreSpec
from repro.experiments.arrival import ArrivalSpec
from repro.experiments.config import ExperimentConfig
from repro.fault.model import FailureSpec
from repro.utils.errors import CampaignConfigError

#: every valid (model, topology, policy) combination the config accepts
_SCENARIOS = st.one_of(
    st.tuples(
        st.just("oneport"),
        st.none(),
        st.sampled_from(["append", "insertion"]),
    ),
    st.tuples(
        st.just("routed-oneport"),
        st.sampled_from(["clique", "line", "mesh", "ring", "star", "torus"]),
        st.just("append"),
    ),
    st.tuples(
        st.sampled_from(["uniport", "oneport-nooverlap", "macro-dataflow"]),
        st.none(),
        st.just("append"),
    ),
)

_NAMES = st.text(min_size=1, max_size=24)

_SEEDS = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.just(2**96 + 7),  # beyond 64-bit: JSON and tomllib are unbounded
)

_FLOATS = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)


def _range(values):
    return st.tuples(values, values).map(lambda t: (min(t), max(t)))


@st.composite
def configs(draw) -> ExperimentConfig:
    model, topology, policy = draw(_SCENARIOS)
    task_lo = draw(st.integers(2, 100))
    num_procs = draw(st.integers(2, 40))
    return ExperimentConfig(
        name=draw(_NAMES),
        granularities=tuple(
            draw(st.lists(_FLOATS, min_size=1, max_size=6, unique=True))
        ),
        num_procs=num_procs,
        # ε + 1 replicas need as many distinct processors
        epsilon=draw(st.integers(0, min(5, num_procs - 1))),
        crashes=draw(st.integers(0, 4)),
        num_graphs=draw(st.integers(1, 5)),
        task_range=(task_lo, task_lo + draw(st.integers(0, 60))),
        degree_range=(1, draw(st.integers(1, 5))),
        volume_range=draw(_range(_FLOATS)),
        delay_range=draw(_range(_FLOATS)),
        base_cost_range=draw(_range(_FLOATS)),
        heterogeneity=draw(st.floats(0.0, 1.0)),
        base_seed=draw(_SEEDS),
        algorithms=tuple(
            draw(
                st.lists(
                    st.sampled_from(["caft", "caft-paper", "ftsa", "ftbar"]),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
        ),
        model=model,
        topology=topology,
        port_policy=policy,
        fast=draw(st.booleans()),
        description=draw(st.text(max_size=20)),
    )


@st.composite
def executor_specs(draw) -> ExecutorSpec:
    kind = draw(st.sampled_from(["serial", "process", "socket"]))
    if kind == "serial":
        # workers > 1 on the one-worker executor is (correctly) rejected
        return ExecutorSpec(kind=kind, workers=draw(st.none() | st.just(1)))
    workers = draw(st.none() | st.integers(1, 16))
    if kind != "socket":
        return ExecutorSpec(kind=kind, workers=workers)
    return ExecutorSpec(
        kind="socket",
        workers=workers,
        bind=draw(st.none() | st.just("127.0.0.1:7077")),
        spawn_workers=draw(st.none() | st.integers(1, 4)),
        timeout=draw(st.none() | st.floats(1.0, 1e6, allow_nan=False)),
        speculate=draw(st.none() | st.sampled_from(["off", "auto"])),
        steal=draw(st.none() | st.sampled_from(["off", "auto"])),
    )


@st.composite
def store_specs(draw) -> StoreSpec:
    directory = draw(
        st.none()
        | st.text(
            alphabet=st.characters(
                codec="utf-8", exclude_characters="\x00"
            ),
            min_size=1,
            max_size=30,
        )
    )
    if directory is None:
        return StoreSpec()
    backend = draw(st.sampled_from([None, "jsonl", "columnar"]))
    return StoreSpec(backend=backend, directory=directory)


@st.composite
def arrival_specs(draw) -> ArrivalSpec:
    kind = draw(st.sampled_from(["poisson", "uniform", "trace"]))
    kwargs = dict(
        kind=kind,
        granularity=draw(st.floats(0.01, 10.0, allow_nan=False)),
        # <= the smallest num_procs configs() can draw, so grid() stays
        # valid for every generated spec
        width=draw(st.integers(0, 2)),
        priority_levels=draw(st.integers(1, 4)),
    )
    if kind == "trace":
        times = sorted(
            draw(
                st.lists(
                    st.floats(
                        0.0, 1e6, allow_nan=False, allow_infinity=False
                    ),
                    min_size=1,
                    max_size=6,
                )
            )
        )
        kwargs["trace"] = tuple(times)
        n = draw(st.integers(0, len(times)))
        kwargs["priorities"] = tuple(
            draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        )
    else:
        kwargs["jobs"] = draw(st.integers(1, 8))
    return ArrivalSpec(**kwargs)


@st.composite
def failure_specs(draw) -> FailureSpec:
    kind = draw(st.sampled_from(["iid", "domains", "topology"]))
    if kind == "domains":
        return FailureSpec(kind=kind, domain_size=draw(st.integers(1, 6)))
    return FailureSpec(
        kind=kind, domain_size=draw(st.none() | st.integers(1, 6))
    )


@st.composite
def specs(draw) -> CampaignSpec:
    figure = draw(st.none() | st.integers(1, 6))
    config = None if figure is not None else draw(configs())
    # scenario-axis expansion only over a plain one-port base: any other
    # base can collide with the axis scenarios (duplicate scenario keys),
    # which validation correctly rejects
    topologies: tuple = ()
    policies: tuple = ()
    include_base = True
    base_is_plain = figure is not None or (
        config.model == "oneport" and config.port_policy == "append"
    )
    if base_is_plain and draw(st.booleans()):
        topologies = tuple(
            draw(
                st.lists(
                    st.sampled_from(["ring", "star", "torus"]),
                    max_size=2,
                    unique=True,
                )
            )
        )
        policies = draw(st.sampled_from([(), ("insertion",)]))
        if topologies or policies:
            include_base = draw(st.booleans())
    return CampaignSpec(
        figure=figure,
        config=config,
        graphs=draw(st.none() | st.integers(1, 100)),
        seed=draw(st.none() | _SEEDS),
        fast=draw(st.none() | st.booleans()),
        topologies=topologies,
        policies=policies,
        include_base=include_base,
        executor=draw(executor_specs()),
        store=draw(store_specs()),
        lease=draw(st.sampled_from([None, "auto", 1, 8, 64])),
        arrival_process=draw(st.none() | arrival_specs()),
        failure_model=draw(st.none() | failure_specs()),
    )


class TestSpecRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(specs())
    def test_json_identity(self, spec):
        text = spec.to_json()
        loaded = CampaignSpec.from_json(text)
        assert loaded == spec
        # canonical form: the second serialization is byte-identical
        assert loaded.to_json() == text

    @settings(max_examples=80, deadline=None)
    @given(specs())
    def test_toml_identity(self, spec):
        text = spec.to_toml()
        loaded = CampaignSpec.from_toml(text)
        assert loaded == spec
        assert loaded.to_toml() == text

    @settings(max_examples=40, deadline=None)
    @given(specs())
    def test_formats_agree(self, spec):
        assert CampaignSpec.from_toml(spec.to_toml()) == CampaignSpec.from_json(
            spec.to_json()
        )

    @settings(max_examples=40, deadline=None)
    @given(specs())
    def test_grid_survives_the_round_trip(self, spec):
        """What ultimately matters: the reloaded spec expands to the same
        units (same ids, same seeds) as the original."""
        reloaded = CampaignSpec.from_json(spec.to_json())
        assert reloaded.grid() == spec.grid()

    @settings(max_examples=40, deadline=None)
    @given(specs())
    def test_file_round_trip(self, tmp_path_factory, spec):
        base = tmp_path_factory.mktemp("specs")
        for name in ("spec.json", "spec.toml"):
            path = spec.save(base / name)
            assert CampaignSpec.load(path) == spec


class TestSpecCoercion:
    def test_integer_granularities_load_as_floats(self):
        """A hand-written spec saying ``granularities = [1, 2]`` must
        mean the same campaign as ``[1.0, 2.0]`` — unit ids derive from
        ``repr(granularity)``, so the type matters."""
        toml_text = (
            'version = 1\nfigure = 4\n\n[config]\ngranularities = [1, 2]\n'
        )
        spec = CampaignSpec.from_toml(toml_text)
        assert spec.config.granularities == (1.0, 2.0)
        assert all(isinstance(g, float) for g in spec.config.granularities)
        unit = spec.grid().units()[0]
        assert "g=1.0" in unit.unit_id

    def test_partial_config_overrides_figure_base(self):
        spec = CampaignSpec.from_dict(
            {"figure": 2, "config": {"epsilon": 4, "task_range": [10, 20]}}
        )
        from repro.experiments.config import FIGURES

        assert spec.config.epsilon == 4
        assert spec.config.task_range == (10, 20)
        assert spec.config.granularities == FIGURES[2].granularities

    def test_complete_config_required_without_figure(self):
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"config": {"epsilon": 4}},
        )
        assert "incomplete" in str(err.value)
        assert err.value.key == "config"


class TestUnknownKeyRejection:
    def test_top_level(self):
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 1, "granularity_sweep": "A"},
        )
        assert "granularity_sweep" in str(err.value)
        assert "known keys" in str(err.value)

    def test_executor_section(self):
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 1, "executor": {"kind": "process", "nworkers": 4}},
        )
        assert "nworkers" in str(err.value)
        assert err.value.key == "executor.nworkers"

    def test_store_section(self):
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 1, "store": {"dir": "x"}},
        )
        assert "dir" in str(err.value) and err.value.key == "store.dir"

    def test_config_section(self):
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 1, "config": {"epsilonn": 3}},
        )
        assert "epsilonn" in str(err.value)
        assert err.value.key == "config.epsilonn"

    def test_unsupported_version(self):
        with pytest.raises(CampaignConfigError, match="version"):
            CampaignSpec.from_dict({"figure": 1, "version": 99})

    def test_arrival_process_section(self):
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 1, "arrival_process": {"kind": "poisson", "rate": 2}},
        )
        assert "rate" in str(err.value)
        assert err.value.key == "arrival_process.rate"

    def test_failure_model_section(self):
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 1, "failure_model": {"kind": "iid", "sizes": 3}},
        )
        assert "sizes" in str(err.value)
        assert err.value.key == "failure_model.sizes"

    def test_arrival_inside_config_is_rejected(self):
        """The specs' canonical home for these tables is the top level
        (TOML cannot nest them under ``[config]``); a spec file putting
        them inside config gets an error pointing at the right key."""
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 1, "config": {"arrival": {"kind": "poisson"}}},
        )
        assert "arrival_process" in str(err.value)
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 1, "config": {"failure": {"kind": "iid"}}},
        )
        assert "failure_model" in str(err.value)


class TestOnlineSpecSections:
    """The online tables' spec-level semantics (beyond round-tripping)."""

    def test_unknown_kinds_are_rejected_with_registered_list(self):
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 1, "arrival_process": {"kind": "bursty"}},
        )
        assert "poisson" in str(err.value)
        assert err.value.key == "arrival_process.kind"
        err = pytest.raises(
            CampaignConfigError,
            CampaignSpec.from_dict,
            {"figure": 1, "failure_model": {"kind": "sunspots"}},
        )
        assert "iid" in str(err.value)
        assert err.value.key == "failure_model.kind"

    def test_tables_reach_the_base_config(self):
        spec = CampaignSpec.from_dict(
            {
                "figure": 1,
                "arrival_process": {"kind": "uniform", "jobs": 3},
                "failure_model": {"kind": "domains", "domain_size": 2},
            }
        )
        base = spec.base_config()
        assert base.arrival == ArrivalSpec(kind="uniform", jobs=3)
        assert base.failure == FailureSpec(kind="domains", domain_size=2)

    def test_config_level_specs_hoist_to_the_top_level(self):
        """A programmatically-built spec whose config already carries
        the online specs serializes them at the canonical top level —
        so TOML (one level of nesting) can always express it."""
        from dataclasses import replace

        from repro.experiments.config import FIGURES

        config = replace(
            FIGURES[1],
            arrival=ArrivalSpec(kind="poisson", jobs=4),
            failure=FailureSpec(kind="domains", domain_size=3),
        )
        spec = CampaignSpec(config=config)
        assert spec.arrival_process == ArrivalSpec(kind="poisson", jobs=4)
        assert spec.failure_model == FailureSpec(kind="domains", domain_size=3)
        assert spec.config.arrival is None and spec.config.failure is None
        data = spec.to_dict()
        assert data["arrival_process"] == {"kind": "poisson", "jobs": 4}
        assert "arrival" not in data["config"]
        assert CampaignSpec.from_toml(spec.to_toml()) == spec
