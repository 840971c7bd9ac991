"""repro — contention-aware fault-tolerant scheduling on heterogeneous platforms.

A full reproduction of *"Realistic Models and Efficient Algorithms for
Fault Tolerant Scheduling on Heterogeneous Platforms"* (Benoit, Hakem,
Robert — ICPP 2008 / INRIA RR-6606): the CAFT scheduler, the FTSA/FTBAR
competitors, the bi-directional one-port communication model, active
replication, crash replay, and the complete experimental campaign.

Quickstart
----------
>>> from repro import random_dag, uniform_delay_platform, range_exec_matrix
>>> from repro import ProblemInstance, caft, validate_schedule
>>> graph = random_dag(40, rng=1)
>>> platform = uniform_delay_platform(8, rng=2)
>>> E = range_exec_matrix([10.0] * 40, 8, rng=3)
>>> inst = ProblemInstance(graph, platform, E)
>>> sched = caft(inst, epsilon=1)
>>> validate_schedule(sched)
>>> sched.latency() > 0
True
"""

from repro.dag import (
    TaskGraph,
    random_dag,
    layered_dag,
    random_out_forest,
    chain,
    fork,
    join,
    fork_join,
    out_tree,
    in_tree,
    gaussian_elimination,
    fft_butterfly,
    stencil_1d,
    tiled_cholesky,
    Workload,
)
from repro.platform import (
    Platform,
    ProblemInstance,
    Topology,
    uniform_delay_platform,
    range_exec_matrix,
    related_exec_matrix,
    granularity,
    scale_to_granularity,
)
from repro.comm import (
    NetworkModel,
    OnePortNetwork,
    UniPortNetwork,
    NoOverlapOnePortNetwork,
    MacroDataflowNetwork,
    RoutedOnePortNetwork,
    make_network,
)
from repro.schedule import (
    Schedule,
    ScheduleBuilder,
    Replica,
    CommEvent,
    validate_schedule,
    is_valid,
    latency_upper_bound,
    normalized_latency,
    overhead_percent,
    summarize,
    render_gantt,
)
from repro.schedulers import heft, ftsa, ftbar
from repro.core import caft, caft_batch
from repro.fault import (
    FailureScenario,
    replay,
    crash_latency,
    random_crash_scenario,
    check_robustness,
    ReplicaStatus,
)
from repro.utils.errors import (
    ReproError,
    InvalidGraphError,
    InvalidPlatformError,
    SchedulingError,
    ScheduleValidationError,
    ExecutionFailedError,
)

__version__ = "1.0.0"

__all__ = [
    "TaskGraph",
    "random_dag",
    "layered_dag",
    "random_out_forest",
    "chain",
    "fork",
    "join",
    "fork_join",
    "out_tree",
    "in_tree",
    "gaussian_elimination",
    "fft_butterfly",
    "stencil_1d",
    "tiled_cholesky",
    "Workload",
    "Platform",
    "ProblemInstance",
    "Topology",
    "uniform_delay_platform",
    "range_exec_matrix",
    "related_exec_matrix",
    "granularity",
    "scale_to_granularity",
    "NetworkModel",
    "OnePortNetwork",
    "UniPortNetwork",
    "NoOverlapOnePortNetwork",
    "MacroDataflowNetwork",
    "RoutedOnePortNetwork",
    "make_network",
    "Schedule",
    "ScheduleBuilder",
    "Replica",
    "CommEvent",
    "validate_schedule",
    "is_valid",
    "latency_upper_bound",
    "normalized_latency",
    "overhead_percent",
    "summarize",
    "render_gantt",
    "heft",
    "ftsa",
    "ftbar",
    "caft",
    "caft_batch",
    "FailureScenario",
    "replay",
    "crash_latency",
    "random_crash_scenario",
    "check_robustness",
    "ReplicaStatus",
    "ReproError",
    "InvalidGraphError",
    "InvalidPlatformError",
    "SchedulingError",
    "ScheduleValidationError",
    "ExecutionFailedError",
]
