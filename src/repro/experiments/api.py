"""The declarative campaign API: one serializable spec for the whole stack.

Every experiment in this repository is an instance of one shape — sweep
scheduler × network × topology × policy × granularity over N reps and
compare paired metrics.  :class:`CampaignSpec` captures that shape as
*data*: scenario axes, executor, store backend, lease policy, reps and
seeds in one frozen dataclass that round-trips losslessly to JSON and
TOML.  A campaign is therefore a file you can version, diff, ship to a
remote master, and run::

    repro-ftsched campaign run spec.json --override graphs=60

Programmatically the :class:`Campaign` facade drives the existing
grid → executor → store layers::

    spec = CampaignSpec(figure=1, graphs=10,
                        executor=ExecutorSpec(kind="process", workers=4),
                        store=StoreSpec(directory="results/fig1"))
    handle = Campaign(spec).run(progress=print)
    result = handle.result()          # the aggregated CampaignResult
    handle = Campaign(spec).resume()  # finish a killed campaign

Every name a spec mentions — scheduler, network model, topology shape,
executor kind, store backend — resolves through the pluggable
registries in :mod:`repro.experiments.registry`, and every invalid
configuration raises :class:`~repro.utils.errors.CampaignConfigError`
naming the offending key, identically from the API and the CLI.  The
paper's six figures ship as spec files under
``repro/experiments/specs/`` (:func:`figure_spec`); checked-in golden
rows pin what they store.
"""

from __future__ import annotations

import copy
import json
import tomllib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping, Optional, Union

from repro.experiments.arrival import ArrivalSpec
from repro.experiments.config import (
    FIGURES,
    PORT_POLICIES,
    TUPLE_FIELDS,
    ExperimentConfig,
)
from repro.fault.model import FailureSpec
from repro.experiments.executors import Executor, LeasePolicy
from repro.experiments.grid import ScenarioGrid
from repro.experiments.harness import CampaignResult
from repro.experiments.registry import (
    EXECUTORS,
    SCHEDULERS,
    STORES,
    network_names,
    topology_names,
)
from repro.experiments.store import RunStore, make_store
from repro.utils.errors import CampaignConfigError

#: where the paper's figure campaigns ship as spec files
SPEC_DIR = Path(__file__).resolve().parent / "specs"

#: current spec schema version (bumped only on incompatible changes)
SPEC_VERSION = 1

#: config tuple fields coerced element-wise when loaded from a spec —
#: granularities written as TOML/JSON integers must still compare (and
#: hash into unit ids) as the floats the in-code configs use
_FLOAT_FIELDS = frozenset(
    {"granularities", "volume_range", "delay_range", "base_cost_range"}
)
_INT_FIELDS = frozenset({"task_range", "degree_range"})


def _unknown_keys(
    given: Mapping, known: frozenset[str], where: str, prefix: str = ""
) -> None:
    unknown = sorted(set(given) - known)
    if unknown:
        keys = ", ".join(repr(k) for k in unknown)
        raise CampaignConfigError(
            f"unknown key(s) {keys} in {where}; "
            f"known keys: {', '.join(sorted(known))}",
            key=prefix + unknown[0],
        )


# --------------------------------------------------------------------- TOML


def _toml_string(value: str) -> str:
    """A TOML basic string: escape quotes, backslashes, and controls.

    Everything else is written literally (TOML files are UTF-8), which —
    unlike JSON's surrogate-pair ``\\uXXXX`` escapes — stays valid for
    astral characters too.
    """
    out = ['"']
    for ch in value:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _toml_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)  # repr round-trips exactly through tomllib
    if isinstance(value, str):
        return _toml_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise CampaignConfigError(
        f"cannot write {type(value).__name__} value {value!r} to TOML"
    )


def toml_dumps(data: Mapping[str, object]) -> str:
    """Serialize one level of tables + scalar/array values to TOML.

    Exactly the shape :meth:`CampaignSpec.to_dict` produces.  TOML has
    no null, so ``None`` values are omitted — absent keys load back as
    their defaults, which is what ``None`` means in a spec, so the
    round trip stays lossless.
    """
    lines: list[str] = []
    tables: list[tuple[str, Mapping]] = []
    for key, value in data.items():
        if isinstance(value, Mapping):
            tables.append((key, value))
        elif value is not None:
            lines.append(f"{key} = {_toml_value(value)}")
    for key, table in tables:
        lines.append("")
        lines.append(f"[{key}]")
        for sub, value in table.items():
            if isinstance(value, Mapping):
                raise CampaignConfigError(
                    f"campaign specs nest at most one level deep "
                    f"({key}.{sub} is a table)"
                )
            if value is not None:
                lines.append(f"{sub} = {_toml_value(value)}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- specs


@dataclass(frozen=True)
class ExecutorSpec:
    """Where a campaign's work units run, as serializable data.

    ``kind`` names an entry of the executor registry (``"serial"``,
    ``"process"``, ``"socket"``, ``"service"``, or anything added via
    ``register_executor``); the remaining fields parameterize it.
    ``bind``/``spawn_workers``/``speculate``/``steal`` describe a socket
    master and are an error with any other builtin kind — the fields map
    1:1 onto the CLI's ``--executor/--workers/--bind/--spawn-workers/
    --timeout/--speculate/--steal``.  ``speculate`` (``"off"``, the
    default, or ``"auto"``) duplicates the slowest outstanding units
    near the campaign tail; ``steal`` (``"auto"``, the default, or
    ``"off"``) lets an idle worker take the unstarted remainder of a
    straggler's lease.

    ``kind="service"`` runs the units as a job on a running
    :class:`~repro.experiments.service.CampaignService`: ``address``
    (required, ``"HOST:PORT"``) locates it, ``tenant``/``priority``
    set the job's fair-share identity, and ``timeout`` is the client
    connection's no-activity deadline.
    """

    kind: str = "serial"
    workers: Optional[int] = None
    bind: Optional[str] = None
    spawn_workers: Optional[int] = None
    timeout: Optional[float] = None
    speculate: Optional[str] = None
    steal: Optional[str] = None
    address: Optional[str] = None
    tenant: Optional[str] = None
    priority: Optional[int] = None

    _KNOWN = frozenset(
        {"kind", "workers", "bind", "spawn_workers", "timeout",
         "speculate", "steal", "address", "tenant", "priority"}
    )
    _SOCKET_ONLY = (
        ("bind", "--bind"),
        ("spawn_workers", "--spawn-workers"),
        ("timeout", "--timeout"),
        ("speculate", "--speculate"),
        ("steal", "--steal"),
    )
    _SERVICE_ONLY = (
        ("address", "--address"),
        ("tenant", "--tenant"),
        ("priority", "--priority"),
    )
    #: every optional field forwarded to the registry factory by build()
    _OPTION_FIELDS = (
        "bind", "spawn_workers", "timeout", "speculate", "steal",
        "address", "tenant", "priority",
    )

    def __post_init__(self) -> None:
        EXECUTORS.get(self.kind, key="executor.kind")
        for field_name, types, what in (
            ("workers", (int,), "an integer"),
            ("spawn_workers", (int,), "an integer"),
            ("timeout", (int, float), "a number"),
        ):
            value = getattr(self, field_name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, types)
            ):
                raise CampaignConfigError(
                    f"executor.{field_name} must be {what}, got {value!r}",
                    key=f"executor.{field_name}",
                )
        if self.workers is not None and self.workers < 1:
            raise CampaignConfigError(
                f"executor.workers (--workers) must be >= 1, got {self.workers}",
                key="executor.workers",
            )
        if self.spawn_workers is not None and self.spawn_workers < 1:
            raise CampaignConfigError(
                f"executor.spawn_workers (--spawn-workers) must be >= 1, "
                f"got {self.spawn_workers}",
                key="executor.spawn_workers",
            )
        if self.timeout is not None and not self.timeout > 0:
            raise CampaignConfigError(
                f"executor.timeout (--timeout) must be > 0 seconds, "
                f"got {self.timeout}",
                key="executor.timeout",
            )
        # The serializable spec form of the straggler knobs is the
        # string ("off"/"auto"); richer policies are API-only.
        for field_name, flag in (("speculate", "--speculate"),
                                 ("steal", "--steal")):
            value = getattr(self, field_name)
            if value is not None and value not in ("off", "auto"):
                raise CampaignConfigError(
                    f"executor.{field_name} ({flag}) must be 'off' or "
                    f"'auto', got {value!r}",
                    key=f"executor.{field_name}",
                )
        if self.kind == "serial" and (self.workers or 1) > 1:
            # The serial executor runs one worker; accepting workers=N
            # would silently run 1/N of the parallelism the user asked
            # for.  (workers=1 is consistent and allowed.)
            raise CampaignConfigError(
                f"executor.workers={self.workers} (--workers) needs a "
                "parallel executor kind ('process' or 'socket'); kind "
                "'serial' runs exactly one worker",
                key="executor.workers",
            )
        if self.priority is not None and (
            isinstance(self.priority, bool)
            or not isinstance(self.priority, int)
            or self.priority < 0
        ):
            raise CampaignConfigError(
                f"executor.priority (--priority) must be an integer >= 0, "
                f"got {self.priority!r}",
                key="executor.priority",
            )
        if self.tenant is not None and (
            not isinstance(self.tenant, str) or not self.tenant
        ):
            raise CampaignConfigError(
                f"executor.tenant (--tenant) must be a non-empty string, "
                f"got {self.tenant!r}",
                key="executor.tenant",
            )
        if self.kind in ("serial", "process"):
            # Only the builtin non-socket kinds reject the socket fields
            # — kinds added via register_executor receive them as
            # factory options and decide for themselves.
            self._reject_fields(
                self._SOCKET_ONLY + self._SERVICE_ONLY,
                "executor kind 'socket' or 'service'",
            )
        elif self.kind == "socket":
            self._reject_fields(self._SERVICE_ONLY, "executor kind 'service'")
        elif self.kind == "service":
            # A service job's straggler mitigation and worker pool are
            # the *service's* configuration; only the client-side knobs
            # (address, tenant, priority, connection timeout) are the
            # spec's to set.
            self._reject_fields(
                (("bind", "--bind"), ("spawn_workers", "--spawn-workers"),
                 ("speculate", "--speculate"), ("steal", "--steal")),
                "executor kind 'socket'",
            )
            if self.address is None:
                raise CampaignConfigError(
                    "executor kind 'service' needs executor.address "
                    "(--address): the HOST:PORT of a running campaign "
                    "service",
                    key="executor.address",
                )
        if self.address is not None:
            host, sep, port = str(self.address).rpartition(":")
            if not (sep and host and port.isdigit()):
                raise CampaignConfigError(
                    f"bad service address {self.address!r} (key "
                    "'executor.address' / --address): expected HOST:PORT",
                    key="executor.address",
                )
        if self.bind is not None:
            from repro.experiments.executors import parse_bind

            parse_bind(self.bind)  # malformed addresses fail at spec time

    def _reject_fields(self, fields, needs: str) -> None:
        offending = [
            (spec_key, flag)
            for spec_key, flag in fields
            if getattr(self, spec_key) is not None
        ]
        if offending:
            names = ", ".join(
                f"executor.{spec_key} ({flag})" for spec_key, flag in offending
            )
            raise CampaignConfigError(
                f"{names} require(s) {needs}; got kind {self.kind!r}",
                key=f"executor.{offending[0][0]}",
            )

    def build(self, lease: Union[str, int, None] = None) -> Executor:
        """Instantiate the executor through the registry."""
        factory = EXECUTORS.get(self.kind, key="executor.kind")
        options = {
            key: getattr(self, key)
            for key in self._OPTION_FIELDS
            if getattr(self, key) is not None
        }
        return factory(workers=self.workers, lease=lease, **options)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for key in ("workers",) + self._OPTION_FIELDS:
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: Optional[Mapping]) -> "ExecutorSpec":
        if data is None:
            return cls()
        if not isinstance(data, Mapping):
            raise CampaignConfigError(
                f"'executor' must be a table/object, got {type(data).__name__}",
                key="executor",
            )
        _unknown_keys(data, cls._KNOWN, "executor spec", prefix="executor.")
        return cls(**dict(data))


@dataclass(frozen=True)
class StoreSpec:
    """Where a campaign's results accumulate, as serializable data.

    ``backend`` names an entry of the store registry (``"memory"``,
    ``"jsonl"``, or ``"columnar"`` for million-row campaigns); ``None``
    picks ``"jsonl"`` when a ``directory`` is set and the ephemeral
    ``"memory"`` store otherwise — so the common cases need nothing but
    ``--store DIR`` (or no store at all).
    """

    backend: Optional[str] = None
    directory: Optional[str] = None

    _KNOWN = frozenset({"backend", "directory"})
    #: builtin backends that persist to (and therefore require) a directory
    _DIRECTORY_BACKENDS = ("jsonl", "columnar")

    def __post_init__(self) -> None:
        resolved = self.resolved_backend
        STORES.get(resolved, key="store.backend")
        if resolved == "memory" and self.directory is not None:
            raise CampaignConfigError(
                "store.backend 'memory' cannot take store.directory "
                "(--store DIR implies the 'jsonl' backend)",
                key="store.directory",
            )
        if resolved in self._DIRECTORY_BACKENDS and self.directory is None:
            raise CampaignConfigError(
                f"store.backend {resolved!r} needs store.directory "
                "(--store DIR)",
                key="store.directory",
            )

    @property
    def resolved_backend(self) -> str:
        if self.backend is not None:
            return self.backend
        return "jsonl" if self.directory is not None else "memory"

    @property
    def persistent(self) -> bool:
        """Whether a killed campaign against this store can resume."""
        return self.directory is not None

    def build(self) -> RunStore:
        return make_store(self.resolved_backend, self.directory)

    def to_dict(self) -> dict:
        out: dict = {}
        if self.backend is not None:
            out["backend"] = self.backend
        if self.directory is not None:
            out["directory"] = self.directory
        return out

    @classmethod
    def from_dict(cls, data: Optional[Mapping]) -> "StoreSpec":
        if data is None:
            return cls()
        if not isinstance(data, Mapping):
            raise CampaignConfigError(
                f"'store' must be a table/object, got {type(data).__name__}",
                key="store",
            )
        _unknown_keys(data, cls._KNOWN, "store spec", prefix="store.")
        return cls(**dict(data))


def _coerce_config_value(key: str, value: object) -> object:
    if key in TUPLE_FIELDS and isinstance(value, (list, tuple)):
        if key in _FLOAT_FIELDS:
            return tuple(float(v) for v in value)
        if key in _INT_FIELDS:
            return tuple(int(v) for v in value)
        return tuple(value)
    return value


def _config_from_dict(
    figure: Optional[int],
    data: Optional[Mapping],
    arrival: Optional[ArrivalSpec] = None,
) -> Optional[ExperimentConfig]:
    """Build the spec's scenario config, strictly.

    With ``figure`` the mapping holds *partial overrides* applied onto
    the shipped figure config; without it the mapping must describe a
    complete scenario.  ``arrival`` is the spec's workload table, so an
    online config is validated as the online scenario it runs.  Unlike
    :meth:`ExperimentConfig.from_dict` (which tolerates unknown keys so
    old stores stay readable), spec configs reject them — a typo in a
    spec file must fail loudly.
    """
    if data is None:
        return None
    if not isinstance(data, Mapping):
        raise CampaignConfigError(
            f"'config' must be a table/object, got {type(data).__name__}",
            key="config",
        )
    # arrival/failure are *spec*-level tables ('arrival_process' /
    # 'failure_model'), never nested inside [config] — TOML specs nest
    # at most one level, so the config table holds scalars/arrays only.
    for key, surface in (("arrival", "arrival_process"),
                         ("failure", "failure_model")):
        if key in data:
            raise CampaignConfigError(
                f"config.{key} is not a spec key; declare the workload "
                f"with the top-level {surface!r} table instead",
                key=f"config.{key}",
            )
    known = frozenset(f.name for f in fields(ExperimentConfig)) - {
        "arrival",
        "failure",
    }
    _unknown_keys(data, known, "the campaign spec's 'config'", prefix="config.")
    kwargs = {k: _coerce_config_value(k, v) for k, v in data.items()}
    if arrival is not None:
        kwargs["arrival"] = arrival
    if figure is not None and figure not in FIGURES:
        raise CampaignConfigError(
            f"no figure {figure}; the paper has figures "
            f"{min(FIGURES)}-{max(FIGURES)}",
            key="figure",
        )
    try:
        if figure is not None:
            return replace(FIGURES[figure], **kwargs)
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise CampaignConfigError(
            f"incomplete 'config' in campaign spec: {exc}", key="config"
        ) from None
    except CampaignConfigError:
        raise
    except ValueError as exc:
        raise CampaignConfigError(
            f"invalid 'config' in campaign spec: {exc}", key="config"
        ) from None


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that defines one campaign, as plain serializable data.

    The base scenario is either a paper ``figure`` (1-6) or a complete
    ``config``; ``graphs``/``seed``/``fast`` and the
    ``network``/``topology``/``policy`` scenario override it, and the
    ``topologies``/``policies`` axes expand it into a paired
    multi-scenario grid (every scenario schedules the *same* random
    instances).  ``executor``, ``store`` and ``lease`` say where units
    run and where rows land.  Specs are frozen, comparable, and
    round-trip losslessly through :meth:`to_json`/:meth:`to_toml`;
    invalid combinations raise
    :class:`~repro.utils.errors.CampaignConfigError` at construction,
    naming the offending key.
    """

    figure: Optional[int] = None
    config: Optional[ExperimentConfig] = None
    graphs: Optional[int] = None
    seed: Optional[int] = None
    fast: Optional[bool] = None
    network: Optional[str] = None
    topology: Optional[str] = None
    policy: Optional[str] = None
    topologies: tuple[str, ...] = ()
    policies: tuple[str, ...] = ()
    include_base: bool = True
    #: online workload: DAG arrival process served incrementally, with
    #: the granularity axis reinterpreted as the arrival-rate sweep
    #: (``None`` = the paper's offline scenario)
    arrival_process: Optional[ArrivalSpec] = None
    #: how crash scenarios are drawn (``None`` = i.i.d. per-processor)
    failure_model: Optional[FailureSpec] = None
    executor: ExecutorSpec = field(default_factory=ExecutorSpec)
    store: StoreSpec = field(default_factory=StoreSpec)
    lease: Union[str, int, None] = None
    version: int = SPEC_VERSION

    _KNOWN = frozenset(
        {
            "figure",
            "config",
            "graphs",
            "seed",
            "fast",
            "network",
            "topology",
            "policy",
            "topologies",
            "policies",
            "include_base",
            "arrival_process",
            "failure_model",
            "executor",
            "store",
            "lease",
            "version",
        }
    )

    # ---------------------------------------------------------- validation

    def __post_init__(self) -> None:
        if self.version != SPEC_VERSION:
            raise CampaignConfigError(
                f"unsupported spec version {self.version!r}; "
                f"this build reads version {SPEC_VERSION}",
                key="version",
            )
        if self.figure is None and self.config is None:
            raise CampaignConfigError(
                "a campaign spec needs a base scenario: set 'figure' (1-6) "
                "or a complete 'config'",
                key="figure",
            )
        if self.figure is not None and self.figure not in FIGURES:
            raise CampaignConfigError(
                f"no figure {self.figure!r}; the paper has figures "
                f"{min(FIGURES)}-{max(FIGURES)}",
                key="figure",
            )
        if self.graphs is not None and (
            isinstance(self.graphs, bool)
            or not isinstance(self.graphs, int)
            or self.graphs < 1
        ):
            raise CampaignConfigError(
                f"'graphs' (--graphs) must be a positive integer, "
                f"got {self.graphs!r}",
                key="graphs",
            )
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, int)
        ):
            raise CampaignConfigError(
                f"'seed' must be an integer, got {self.seed!r}", key="seed"
            )
        for key in ("fast", "include_base"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, bool):
                raise CampaignConfigError(
                    f"{key!r} must be true or false, got {value!r}", key=key
                )
        if self.network is not None and self.network not in network_names():
            raise CampaignConfigError(
                f"unknown network {self.network!r} (key 'network' / "
                f"--network); registered: {', '.join(network_names())}",
                key="network",
            )
        for key, values in (("topology", (self.topology,)),
                            ("topologies", self.topologies)):
            for name in values:
                if name is not None and name not in topology_names():
                    raise CampaignConfigError(
                        f"unknown topology {name!r} (key {key!r} / "
                        f"--topology); registered: "
                        f"{', '.join(topology_names())}",
                        key=key,
                    )
        for key, values in (("policy", (self.policy,)),
                            ("policies", self.policies)):
            for name in values:
                if name is not None and name not in PORT_POLICIES:
                    raise CampaignConfigError(
                        f"unknown port policy {name!r} (key {key!r} / "
                        f"--policy); valid: {', '.join(PORT_POLICIES)}",
                        key=key,
                    )
        for key, typ in (("arrival_process", ArrivalSpec),
                         ("failure_model", FailureSpec)):
            value = getattr(self, key)
            if value is not None and not isinstance(value, typ):
                raise CampaignConfigError(
                    f"{key!r} must be a {typ.__name__} (or a "
                    f"{key.split('_')[0]} table in a spec file), "
                    f"got {value!r}",
                    key=key,
                )
        # Canonical form: the workload tables live on the spec surface.
        # A config passed with arrival/failure set is hoisted (so equal
        # campaigns compare equal and TOML stays one level deep) unless
        # the spec also names a conflicting top-level table.
        if self.config is not None and (
            self.config.arrival is not None or self.config.failure is not None
        ):
            for attr, spec_key, inner in (
                ("arrival_process", "arrival_process", self.config.arrival),
                ("failure_model", "failure_model", self.config.failure),
            ):
                outer = getattr(self, attr)
                if inner is not None and outer is not None and outer != inner:
                    raise CampaignConfigError(
                        f"{spec_key!r} is set both on the spec and on "
                        f"config.{attr.split('_')[0]}, and they differ",
                        key=spec_key,
                    )
                if inner is not None and outer is None:
                    object.__setattr__(self, attr, inner)
            # A copy, not ``replace``: the config was validated with its
            # workload, and an online config may ask for more replicas
            # than processors (each job's ε is clamped to its grant).
            stripped = copy.copy(self.config)
            object.__setattr__(stripped, "arrival", None)
            object.__setattr__(stripped, "failure", None)
            object.__setattr__(self, "config", stripped)
        try:
            LeasePolicy.from_spec(self.lease)
        except ValueError as exc:
            raise CampaignConfigError(
                f"bad 'lease' (--lease): {exc}", key="lease"
            ) from None
        # Cross-field checks: the grid must actually build, and every
        # algorithm the scenarios name must be a registered scheduler.
        for config in self.grid().configs:
            for algo in config.algorithms:
                SCHEDULERS.get(algo, key="config.algorithms")

    # ------------------------------------------------------------ building

    def base_config(self) -> ExperimentConfig:
        """The fully-resolved base scenario (overrides applied)."""
        base = self.config if self.config is not None else FIGURES[self.figure]
        # The workload goes on first, so every later copy is validated
        # as the scenario that runs (online or offline).
        if self.arrival_process is not None or self.failure_model is not None:
            try:
                base = replace(
                    base,
                    arrival=self.arrival_process,
                    failure=self.failure_model,
                )
            except ValueError as exc:
                raise CampaignConfigError(
                    f"invalid online scenario (keys 'arrival_process'/"
                    f"'failure_model'): {exc}",
                    key="arrival_process",
                ) from None
        try:
            base = base.with_graphs(self.graphs).with_fast(self.fast)
            if self.seed is not None:
                base = replace(base, base_seed=self.seed)
            return base.with_network(
                model=self.network, topology=self.topology, policy=self.policy
            )
        except ValueError as exc:
            raise CampaignConfigError(
                f"invalid scenario (keys 'network'/'topology'/'policy'): {exc}",
                key="network",
            ) from None

    def grid(self) -> ScenarioGrid:
        """Expand the spec's axes into the declarative scenario grid."""
        base = self.base_config()
        if not self.topologies and not self.policies:
            if not self.include_base:
                raise CampaignConfigError(
                    "include_base=false needs 'topologies' or 'policies' "
                    "axes, or the grid is empty",
                    key="include_base",
                )
            return ScenarioGrid.from_config(base)
        try:
            return ScenarioGrid.from_scenarios(
                base,
                topologies=self.topologies,
                policies=self.policies,
                include_base=self.include_base,
            )
        except ValueError as exc:
            raise CampaignConfigError(
                f"invalid scenario axes (keys 'topologies'/'policies'): {exc}",
                key="topologies",
            ) from None

    # ------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Canonical JSON/TOML-ready mapping (defaults omitted)."""
        out: dict = {"version": self.version}
        if self.figure is not None:
            out["figure"] = self.figure
        if self.config is not None:
            out["config"] = self.config.to_dict()
        for key in ("graphs", "seed", "fast", "network", "topology",
                    "policy", "lease"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.topologies:
            out["topologies"] = list(self.topologies)
        if self.policies:
            out["policies"] = list(self.policies)
        if not self.include_base:
            out["include_base"] = False
        if self.arrival_process is not None:
            out["arrival_process"] = self.arrival_process.to_dict()
        if self.failure_model is not None:
            out["failure_model"] = self.failure_model.to_dict()
        executor = self.executor.to_dict()
        if executor != {"kind": "serial"}:
            out["executor"] = executor
        store = self.store.to_dict()
        if store:
            out["store"] = store
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output, strictly.

        Unknown keys are a :class:`CampaignConfigError` naming them —
        a misspelled option in a spec file must never be silently
        ignored.
        """
        if not isinstance(data, Mapping):
            raise CampaignConfigError(
                f"a campaign spec must be a table/object, "
                f"got {type(data).__name__}"
            )
        _unknown_keys(data, cls._KNOWN, "campaign spec")
        figure = data.get("figure")
        if figure is not None and not isinstance(figure, int):
            raise CampaignConfigError(
                f"'figure' must be an integer, got {figure!r}", key="figure"
            )
        for key in ("topologies", "policies"):
            if key in data and not isinstance(data[key], (list, tuple)):
                raise CampaignConfigError(
                    f"{key!r} must be an array of names, got {data[key]!r}",
                    key=key,
                )
        arrival = ArrivalSpec.from_dict(data.get("arrival_process"))
        return cls(
            figure=figure,
            config=_config_from_dict(figure, data.get("config"), arrival),
            graphs=data.get("graphs"),
            seed=data.get("seed"),
            fast=data.get("fast"),
            network=data.get("network"),
            topology=data.get("topology"),
            policy=data.get("policy"),
            topologies=tuple(data.get("topologies", ())),
            policies=tuple(data.get("policies", ())),
            include_base=data.get("include_base", True),
            arrival_process=arrival,
            failure_model=FailureSpec.from_dict(data.get("failure_model")),
            executor=ExecutorSpec.from_dict(data.get("executor")),
            store=StoreSpec.from_dict(data.get("store")),
            lease=data.get("lease"),
            version=data.get("version", SPEC_VERSION),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignConfigError(f"unreadable JSON spec: {exc}") from None
        return cls.from_dict(data)

    def to_toml(self) -> str:
        return toml_dumps(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "CampaignSpec":
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise CampaignConfigError(f"unreadable TOML spec: {exc}") from None
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec to ``path`` (format from the suffix)."""
        path = Path(path)
        if path.suffix == ".toml":
            text = self.to_toml()
        elif path.suffix == ".json":
            text = self.to_json()
        else:
            raise CampaignConfigError(
                f"spec files are .json or .toml, got {path.name!r}"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Read a spec file (format from the suffix)."""
        path = Path(path)
        if not path.exists():
            raise CampaignConfigError(f"spec file {path} does not exist")
        if path.suffix == ".toml":
            return cls.from_toml(path.read_text())
        if path.suffix == ".json":
            return cls.from_json(path.read_text())
        raise CampaignConfigError(
            f"spec files are .json or .toml, got {path.name!r}"
        )


# ---------------------------------------------------------------- overrides


def parse_override(text: str) -> tuple[str, object]:
    """Parse one CLI ``--override KEY=VALUE`` pair.

    ``KEY`` is a dotted spec path (``graphs``, ``executor.kind``,
    ``config.granularities``); ``VALUE`` is parsed as JSON when
    possible (``3``, ``true``, ``[0.2, 0.4]``, ``null`` to reset a key
    to its default) and taken as a bare string otherwise.
    """
    key, sep, value = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise CampaignConfigError(
            f"bad --override {text!r}: expected KEY=VALUE "
            "(e.g. graphs=3 or executor.kind=process)",
            key="override",
        )
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value.strip()


def apply_overrides(
    spec: CampaignSpec, overrides: Mapping[str, object]
) -> CampaignSpec:
    """A copy of ``spec`` with dotted-key overrides applied.

    Overrides route through the serialized form, so exactly the keys a
    spec file accepts are overridable and exactly the same validation
    runs — ``campaign run spec.json --override executor.kind=process``
    and editing the file are equivalent.  A ``None`` value removes the
    key (resetting it to its default).
    """
    if not overrides:
        return spec
    data = spec.to_dict()
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = data
        for part in parts[:-1]:
            child = node.get(part)
            if child is None:
                child = node[part] = {}
            elif not isinstance(child, dict):
                raise CampaignConfigError(
                    f"cannot override {dotted!r}: {part!r} is not a table",
                    key=dotted,
                )
            node = child
        if value is None:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = value
    return CampaignSpec.from_dict(data)


# ------------------------------------------------------------ shipped specs


def figure_spec_path(number: int) -> Path:
    return SPEC_DIR / f"figure{number}.json"


def figure_spec(number: int) -> CampaignSpec:
    """Load the shipped spec of paper figure ``number`` (1-6)."""
    path = figure_spec_path(number)
    if not path.exists():
        raise CampaignConfigError(
            f"no figure {number!r}; the paper has figures "
            f"{min(FIGURES)}-{max(FIGURES)}",
            key="figure",
        )
    return CampaignSpec.load(path)


def shipped_spec_paths() -> tuple[Path, ...]:
    """Every spec file shipped with the package, sorted by name."""
    return tuple(sorted(SPEC_DIR.glob("*.json"))) + tuple(
        sorted(SPEC_DIR.glob("*.toml"))
    )


# ---------------------------------------------------------------- facade


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification of a running campaign.

    ``kind`` is ``"start"`` (grid expanded, before any unit runs),
    ``"unit"`` (one work unit finished; the message is the executor's
    progress line), or ``"done"`` (all units stored).
    """

    kind: str
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass
class CampaignHandle:
    """The outcome of one :meth:`Campaign.run`: results plus run metadata."""

    spec: CampaignSpec
    results: list[CampaignResult]
    elapsed: float
    events: list[ProgressEvent]

    def result(self) -> CampaignResult:
        """The single scenario's result (multi-scenario grids: use
        :attr:`results`)."""
        if len(self.results) != 1:
            raise ValueError(
                f"campaign holds {len(self.results)} scenario results; "
                "use .results"
            )
        return self.results[0]

    def resume(
        self, progress: Optional[Callable[[ProgressEvent], None]] = None
    ) -> "CampaignHandle":
        """Finish any units a crash left behind (fresh handle)."""
        return Campaign(self.spec).resume(progress=progress)


class Campaign:
    """Facade running a :class:`CampaignSpec` on the grid/executor/store
    stack.

    ``run()`` expands the grid, builds the executor and store the spec
    names (through the registries), drains every unit, and returns a
    :class:`CampaignHandle`.  ``resume()`` re-runs against the spec's
    persistent store, executing only the units a previous (possibly
    killed) run did not record — the crash-recovery path.  ``executor=``
    and ``store=`` accept pre-built instances for the cases data cannot
    describe (e.g. an already-bound :class:`SocketExecutor` master).
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "Campaign":
        return cls(CampaignSpec.load(path))

    def run(
        self,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        resume: bool = False,
        executor: Optional[Executor] = None,
        store: Union[RunStore, str, Path, None] = None,
    ) -> CampaignHandle:
        spec = self.spec
        if resume and store is None and not spec.store.persistent:
            raise CampaignConfigError(
                "resume needs a persistent store: set store.directory "
                "(--store DIR); an in-memory campaign has nothing to "
                "resume from",
                key="store.directory",
            )
        from repro.experiments.campaign import run_grid

        grid = spec.grid()
        events: list[ProgressEvent] = []

        def emit(kind: str, message: str) -> None:
            event = ProgressEvent(kind, message)
            events.append(event)
            if progress is not None:
                progress(event)

        start = perf_counter()
        emit(
            "start",
            f"campaign: {len(grid.configs)} scenario(s), "
            f"{grid.total_units} unit(s), executor "
            f"{spec.executor.kind if executor is None else executor.name}",
        )
        executor_obj = (
            executor if executor is not None else spec.executor.build(spec.lease)
        )
        store_obj = store if store is not None else spec.store.build()
        owns_store = store is None
        try:
            results = run_grid(
                grid,
                store=store_obj,
                executor=executor_obj,
                progress=lambda message: emit("unit", message),
                resume=resume,
            )
        finally:
            if owns_store:
                store_obj.close()
        elapsed = perf_counter() - start
        emit("done", f"campaign finished in {elapsed:.1f}s")
        return CampaignHandle(
            spec=spec, results=results, elapsed=elapsed, events=events
        )

    def resume(
        self,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        executor: Optional[Executor] = None,
    ) -> CampaignHandle:
        """Finish a killed campaign from the spec's persistent store."""
        return self.run(progress=progress, resume=True, executor=executor)

    def submit(
        self,
        address: Union[str, tuple],
        tenant: str = "default",
        priority: int = 0,
    ):
        """Submit this spec to a running campaign service and return a
        :class:`~repro.experiments.service.ServiceJobHandle` immediately
        — the service owns the run (its own store under the service
        root; an in-memory store spec becomes JSONL there).  Poll with
        ``handle.status()``, block with ``handle.wait()``, and read the
        rows from ``handle.open_store()`` at any point."""
        from repro.experiments.service import ServiceClient

        return ServiceClient(address).submit_handle(
            self.spec, tenant=tenant, priority=priority
        )


__all__ = [
    "CampaignSpec",
    "ExecutorSpec",
    "StoreSpec",
    "Campaign",
    "CampaignHandle",
    "ProgressEvent",
    "CampaignConfigError",
    "figure_spec",
    "figure_spec_path",
    "shipped_spec_paths",
    "parse_override",
    "apply_overrides",
    "toml_dumps",
    "SPEC_DIR",
    "SPEC_VERSION",
]
