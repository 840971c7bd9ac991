"""Shared fixtures: small deterministic instances used across the suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.dag.generators import chain, fork_join, random_dag
from repro.dag.graph import TaskGraph
from repro.platform.heterogeneity import (
    range_exec_matrix,
    scale_to_granularity,
    uniform_delay_platform,
)
from repro.platform.instance import ProblemInstance
from repro.platform.platform import Platform

# Property tests draw the same examples on every run, with no example
# database carried between runs: a red run is a regression, never a
# newly drawn example.  Per-test ``max_examples``/``deadline`` still apply.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def make_instance(
    num_tasks: int = 20,
    num_procs: int = 5,
    granularity: float = 1.0,
    seed: int = 0,
    degree_range: tuple[int, int] = (1, 3),
) -> ProblemInstance:
    """A reproducible random instance for tests."""
    graph = random_dag(num_tasks, degree_range=degree_range, rng=seed)
    platform = uniform_delay_platform(num_procs, rng=seed + 1000)
    rng = np.random.default_rng(seed + 2000)
    base = rng.uniform(1.0, 2.0, size=num_tasks)
    exec_cost = range_exec_matrix(base, num_procs, heterogeneity=0.5, rng=rng)
    exec_cost = scale_to_granularity(graph, platform, exec_cost, granularity)
    return ProblemInstance(graph, platform, exec_cost)


@pytest.fixture
def small_instance() -> ProblemInstance:
    """20 tasks / 5 processors / granularity 1."""
    return make_instance()


@pytest.fixture
def tiny_instance() -> ProblemInstance:
    """A 4-task diamond on 3 homogeneous processors (hand-checkable)."""
    graph = fork_join(2, volume=10.0)  # t0 -> {t1, t2} -> t3
    platform = Platform.homogeneous(3, unit_delay=1.0)
    exec_cost = np.full((4, 3), 5.0)
    return ProblemInstance(graph, platform, exec_cost)


@pytest.fixture
def chain_instance() -> ProblemInstance:
    """A 5-task chain on 6 homogeneous processors."""
    graph = chain(5, volume=10.0)
    platform = Platform.homogeneous(6, unit_delay=1.0)
    exec_cost = np.full((5, 6), 5.0)
    return ProblemInstance(graph, platform, exec_cost)


@pytest.fixture
def comm_heavy_instance() -> ProblemInstance:
    """Fine-grain instance (g = 0.2): contention dominates."""
    return make_instance(granularity=0.2, seed=7)


@pytest.fixture(params=[1, 2])
def epsilon(request) -> int:
    return request.param
