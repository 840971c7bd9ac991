"""Experiment configurations for the paper's evaluation (§6).

The paper characterizes its random workloads by three parameters — task
count in ``[80, 120]``, per-task degree in ``[1, 3]``, granularity sweep —
plus unit link delays in ``[0.5, 1]`` and message volumes in ``[50, 150]``.
Each data point averages 60 random DAGs.  Two granularity sweeps are used:
``A = 0.2..2.0`` (step 0.2, Figures 1–3) and ``B = 1..10`` (step 1,
Figures 4–6), with platforms of 10 processors (ε ∈ {1, 3}) or 20
processors (ε = 5).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Mapping, Optional, Sequence

from repro.experiments.arrival import ArrivalSpec
from repro.fault.model import FailureSpec
from repro.utils.errors import CampaignConfigError

GRANULARITY_SWEEP_A: tuple[float, ...] = tuple(round(0.2 * i, 1) for i in range(1, 11))
GRANULARITY_SWEEP_B: tuple[float, ...] = tuple(float(i) for i in range(1, 11))

#: figure panels compare these fault-tolerant algorithms
DEFAULT_ALGORITHMS: tuple[str, ...] = ("caft", "caft-paper", "ftsa", "ftbar")

#: valid one-port reservation policies (``port_policy`` / ``--policy``):
#: the paper's append-only eqs. (4)/(6), or the gap-reusing ablation
PORT_POLICIES: tuple[str, ...] = ("append", "insertion")

#: config fields whose values are tuples (JSON round-trips them as lists)
TUPLE_FIELDS: frozenset[str] = frozenset(
    {
        "granularities",
        "task_range",
        "degree_range",
        "volume_range",
        "delay_range",
        "base_cost_range",
        "algorithms",
    }
)


def default_num_graphs(paper_count: int = 60) -> int:
    """Graphs per data point: the paper's 60, unless ``REPRO_GRAPHS`` says less.

    Benchmarks default to a faster count; export ``REPRO_GRAPHS=60`` to run
    campaigns at the paper's scale (EXPERIMENTS.md records such runs).
    """
    env = os.environ.get("REPRO_GRAPHS")
    if env:
        return max(1, int(env))
    return paper_count


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to regenerate one figure."""

    name: str
    granularities: tuple[float, ...]
    num_procs: int
    epsilon: int
    crashes: int
    num_graphs: int = 60
    task_range: tuple[int, int] = (80, 120)
    degree_range: tuple[int, int] = (1, 3)
    volume_range: tuple[float, float] = (50.0, 150.0)
    delay_range: tuple[float, float] = (0.5, 1.0)
    base_cost_range: tuple[float, float] = (1.0, 2.0)
    heterogeneity: float = 0.5
    base_seed: int = 20080206  # the report's publication month
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    model: str = "oneport"
    #: sparse-interconnect shape (``"ring"``, ``"torus"``, ``"star"``, ...)
    #: for ``model="routed-oneport"`` campaigns: per-link delays are drawn
    #: from ``delay_range`` and the platform is the topology's effective
    #: route-delay matrix (paper §7 scenario axis).  ``None`` = clique.
    topology: Optional[str] = None
    #: port-reservation policy for ``model="oneport"``: the paper's
    #: append-only eqs. (4)/(6) or the gap-reusing ``"insertion"`` ablation
    port_policy: str = "append"
    #: route scheduler trials through the vectorized placement kernel
    #: (bit-identical schedules; set False to time the slow path)
    fast: bool = True
    #: online workload: DAGs arriving over time against the shared
    #: platform, with the ``granularities`` axis reinterpreted as the
    #: arrival-rate sweep.  ``None`` = the paper's offline scenario.
    arrival: Optional[ArrivalSpec] = None
    #: how crash scenarios are drawn (``None`` = i.i.d. per-processor,
    #: bit-identical to the historical draws)
    failure: Optional[FailureSpec] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.topology is not None and self.model != "routed-oneport":
            raise ValueError(
                f"topology={self.topology!r} requires model='routed-oneport' "
                f"(got {self.model!r})"
            )
        if self.model == "routed-oneport" and self.topology is None:
            raise ValueError("model='routed-oneport' needs a topology shape")
        if self.port_policy != "append" and self.model != "oneport":
            raise ValueError(
                f"port_policy={self.port_policy!r} only applies to model='oneport'"
            )
        if self.arrival is not None and not isinstance(self.arrival, ArrivalSpec):
            raise ValueError(
                f"arrival must be an ArrivalSpec or None, got {self.arrival!r}"
            )
        if self.failure is not None and not isinstance(self.failure, FailureSpec):
            raise ValueError(
                f"failure must be a FailureSpec or None, got {self.failure!r}"
            )
        if self.arrival is None and self.epsilon + 1 > self.num_procs:
            # Space exclusion puts the ε+1 replicas of a task on distinct
            # processors.  Online configs are exempt: each job's ε is
            # clamped to the processors it is granted.
            raise CampaignConfigError(
                f"epsilon={self.epsilon} needs epsilon+1={self.epsilon + 1} "
                f"distinct processors, but num_procs={self.num_procs}",
                key="config.epsilon",
            )
        if self.arrival is not None:
            for rate in self.granularities:
                if rate <= 0:
                    raise ValueError(
                        f"online configs sweep the arrival rate on the "
                        f"granularity axis; rates must be positive, got {rate}"
                    )
            if self.arrival.width > self.num_procs:
                raise ValueError(
                    f"arrival.width={self.arrival.width} exceeds "
                    f"num_procs={self.num_procs}"
                )

    def with_graphs(self, num_graphs: Optional[int]) -> "ExperimentConfig":
        """A copy with a different repetition count (None keeps the default)."""
        if num_graphs is None:
            return self
        return replace(self, num_graphs=num_graphs)

    def with_fast(self, fast: Optional[bool]) -> "ExperimentConfig":
        """A copy with the fast path toggled (None keeps the default)."""
        if fast is None or fast == self.fast:
            return self
        return replace(self, fast=fast)

    def with_network(
        self,
        model: Optional[str] = None,
        topology: Optional[str] = None,
        policy: Optional[str] = None,
    ) -> "ExperimentConfig":
        """A copy over a different communication scenario (None = keep).

        ``topology`` alone implies ``model="routed-oneport"``; naming the
        routed model without a shape defaults to ``"ring"``.
        """
        if model is None and topology is None and policy is None:
            return self
        if model is None and topology is None:
            model, topology = self.model, self.topology
        elif model is None:
            model = "routed-oneport"
        elif model == "routed-oneport" and topology is None:
            topology = self.topology or "ring"
        return replace(
            self,
            model=model,
            topology=topology,
            port_policy=policy if policy is not None else self.port_policy,
        )

    def scenario_key(self) -> tuple[str, str, str, str]:
        """The identity of this config's communication scenario.

        ``(name, model, topology, policy)`` — what distinguishes two
        campaigns over the same figure, and what tags every stored row.
        """
        return (self.name, self.model, self.topology or "clique", self.port_policy)

    def to_dict(self) -> dict:
        """JSON-ready mapping (tuples become lists; see :meth:`from_dict`).

        The ``arrival``/``failure`` sub-specs serialize through their own
        canonical ``to_dict`` and are omitted entirely when unset, so
        offline configs round-trip byte-identically to pre-online stores.
        """
        out = asdict(self)
        for key, spec in (("arrival", self.arrival), ("failure", self.failure)):
            if spec is None:
                del out[key]
            else:
                out[key] = spec.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output (JSON round-trip safe).

        Unknown keys are ignored so stores written by newer versions stay
        readable; list-valued fields are coerced back to tuples and the
        ``arrival``/``failure`` tables back to their spec types
        (tolerantly — manifests, not spec files).
        """
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in known:
                continue
            if key == "arrival" and isinstance(value, Mapping):
                value = ArrivalSpec.from_dict(value, strict=False)
            elif key == "failure" and isinstance(value, Mapping):
                value = FailureSpec.from_dict(value, strict=False)
            kwargs[key] = tuple(value) if key in TUPLE_FIELDS else value
        return cls(**kwargs)


FIGURES: dict[int, ExperimentConfig] = {
    1: ExperimentConfig(
        name="figure1",
        granularities=GRANULARITY_SWEEP_A,
        num_procs=10,
        epsilon=1,
        crashes=1,
        description="latency/overhead vs granularity 0.2..2.0, m=10, eps=1, 1 crash",
    ),
    2: ExperimentConfig(
        name="figure2",
        granularities=GRANULARITY_SWEEP_A,
        num_procs=10,
        epsilon=3,
        crashes=2,
        description="latency/overhead vs granularity 0.2..2.0, m=10, eps=3, 2 crashes",
    ),
    3: ExperimentConfig(
        name="figure3",
        granularities=GRANULARITY_SWEEP_A,
        num_procs=20,
        epsilon=5,
        crashes=3,
        description="latency/overhead vs granularity 0.2..2.0, m=20, eps=5, 3 crashes",
    ),
    4: ExperimentConfig(
        name="figure4",
        granularities=GRANULARITY_SWEEP_B,
        num_procs=10,
        epsilon=1,
        crashes=1,
        description="latency/overhead vs granularity 1..10, m=10, eps=1, 1 crash",
    ),
    5: ExperimentConfig(
        name="figure5",
        granularities=GRANULARITY_SWEEP_B,
        num_procs=10,
        epsilon=3,
        crashes=2,
        description="latency/overhead vs granularity 1..10, m=10, eps=3, 2 crashes",
    ),
    6: ExperimentConfig(
        name="figure6",
        granularities=GRANULARITY_SWEEP_B,
        num_procs=20,
        epsilon=5,
        crashes=3,
        description="latency/overhead vs granularity 1..10, m=20, eps=5, 3 crashes",
    ),
}
