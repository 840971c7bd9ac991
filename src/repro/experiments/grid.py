"""Declarative campaign description: scenario grids and work units.

A campaign is a cross product of axes — figure (granularity sweep, platform,
ε, crashes), communication scenario (network model × topology × port
policy), and repetition.  :class:`ScenarioGrid` expands those axes into a
flat list of :class:`WorkUnit`\\ s, each a *self-describing, individually
seeded* unit of work: a unit carries its full :class:`ExperimentConfig`,
so any executor — an inline loop, a process pool, or a worker on another
machine — can regenerate the same instance and produce the bit-identical
:class:`~repro.experiments.harness.RepResult` from the unit alone.

The grid is the single source of truth for *what* a campaign computes;
executors (``repro.experiments.executors``) decide *where*, and the
:class:`~repro.experiments.store.RunStore` records *results*.  Keeping the
three independent is what makes campaigns distributable and resumable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.experiments.config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness uses grid)
    from repro.experiments.harness import RepResult


def unit_id_for(
    name: str, model: str, topology: str, policy: str, granularity: float, rep: int
) -> str:
    """The stable unit identity shared by :class:`WorkUnit` and every
    store backend that regenerates ids from stored coordinates.

    ``repr`` of the granularity keeps distinct floats distinct (the sweep
    values round-trip exactly through JSON for the same reason).
    """
    return f"{name}|{model}|{topology}|{policy}|g={granularity!r}|rep={rep}"


@dataclass(frozen=True)
class WorkUnit:
    """One independently-executable cell of a campaign grid.

    The unit of distribution: ``run()`` is a pure function of the three
    fields (all randomness derives from labelled child seeds of
    ``config.base_seed``), so units can be executed in any order, on any
    machine, any number of times, and always yield the same result.
    """

    config: ExperimentConfig
    granularity: float
    rep: int

    @property
    def unit_id(self) -> str:
        """Stable identity used for store rows, resume, and dedup."""
        name, model, topology, policy = self.config.scenario_key()
        return unit_id_for(
            name, model, topology, policy, self.granularity, self.rep
        )

    @property
    def locality_key(self) -> tuple[str, str, str, str]:
        """What a lease should keep together: the communication scenario.

        Units sharing this key schedule over the same figure, network
        model, topology, and port policy, so a worker that computes them
        back to back reuses warm kernel/epoch-cache state.  Canonical
        grid order is already sorted by this key; requeues can interleave
        scenarios, which is why lease assembly filters on it explicitly.
        """
        name, model, topology, policy = self.config.scenario_key()
        return (name, model, topology, policy)

    @property
    def scenario(self) -> dict[str, str]:
        """Scenario tags every stored row carries (report columns)."""
        name, model, topology, policy = self.config.scenario_key()
        return {
            "config": name,
            "network": model,
            "topology": topology,
            "policy": policy,
        }

    def run(self) -> "RepResult":
        """Execute the unit (pure function of the unit's fields)."""
        from repro.experiments.harness import run_rep

        return run_rep(self.config, self.granularity, self.rep)

    def to_dict(self) -> dict:
        """JSON-ready wire format (socket executor, store manifest)."""
        return {
            "config": self.config.to_dict(),
            "granularity": self.granularity,
            "rep": self.rep,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkUnit":
        return cls(
            config=ExperimentConfig.from_dict(data["config"]),
            granularity=data["granularity"],
            rep=data["rep"],
        )


@dataclass(frozen=True)
class ScenarioGrid:
    """The declarative description of one campaign: a tuple of scenarios.

    Each member config is one fully-resolved scenario; the grid expands
    every config's ``granularities × num_graphs`` axes into
    :class:`WorkUnit`\\ s in canonical order (config, then granularity in
    sweep order, then rep).  Scenario keys must be unique so unit ids —
    and therefore store rows — never collide.
    """

    configs: tuple[ExperimentConfig, ...]

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("a ScenarioGrid needs at least one config")
        keys = [cfg.scenario_key() for cfg in self.configs]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate scenario keys in grid: {dupes}")

    @property
    def total_units(self) -> int:
        return sum(len(c.granularities) * c.num_graphs for c in self.configs)

    def units(self) -> list[WorkUnit]:
        """All work units in canonical (config, granularity, rep) order."""
        return list(self.iter_units())

    def iter_units(self) -> Iterator[WorkUnit]:
        for cfg in self.configs:
            for g in cfg.granularities:
                for rep in range(cfg.num_graphs):
                    yield WorkUnit(cfg, g, rep)

    def units_for(self, config: ExperimentConfig) -> list[WorkUnit]:
        """The sub-grid of one member scenario, in canonical order."""
        return [
            WorkUnit(config, g, rep)
            for g in config.granularities
            for rep in range(config.num_graphs)
        ]

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "ScenarioGrid":
        """A single-scenario grid (what a spec without axes expands to)."""
        return cls(configs=(config,))

    @classmethod
    def from_scenarios(
        cls,
        base: ExperimentConfig,
        topologies: Sequence[str] = (),
        policies: Sequence[str] = (),
        include_base: bool = True,
    ) -> "ScenarioGrid":
        """Expand one base config along communication-scenario axes.

        Every scenario keeps ``base.name`` (and therefore the labelled
        seeds), so all scenarios schedule the *same* random instances —
        comparisons across the grid are paired.  ``topologies`` adds one
        routed-one-port scenario per shape; ``policies`` adds one clique
        one-port scenario per reservation policy.
        """
        configs: list[ExperimentConfig] = []
        if include_base:
            configs.append(base)
        for topo in topologies:
            configs.append(base.with_network(model="routed-oneport", topology=topo))
        for pol in policies:
            configs.append(
                replace(base, model="oneport", topology=None, port_policy=pol)
            )
        return cls(configs=tuple(configs))

    def to_dict(self) -> dict:
        """Manifest form: enough to rebuild the grid for ``--resume``."""
        return {"configs": [cfg.to_dict() for cfg in self.configs]}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioGrid":
        return cls(
            configs=tuple(
                ExperimentConfig.from_dict(c) for c in data["configs"]
            )
        )
