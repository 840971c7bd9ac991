"""Span recorder for the benchmark's traced runs.

Every span is recorded from the benchmark's own files: :class:`Tracer`
wraps the public entry points of each layer (module-level names the
harness and the online harness look up when they are called, the
scheduler registry, ``RunStore.append``, the service client and the
master's wire decoder) and restores them when it is uninstalled.  The
program under test is never edited.

A span is ``[name, start_ns, end_ns, parent, unit]``: ``parent`` is the
index of the enclosing span on the same thread (``-1`` at the top) and
``unit`` the id of the request (unit or job) it belongs to.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

#: evaluator families of the placement kernel the per-layer table splits
KERNEL_FAMILIES = ("oneport", "routed", "insertion")
KERNEL_COUNTERS = ("cache_hits", "cache_misses", "batch_rows", "scalar_rows")

NAME, START, END, PARENT, UNIT = range(5)


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part of it its children cover.

    Children of one span are disjoint when they ran on one thread; the
    union is taken anyway, so overlapping children are not subtracted
    twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def layer_rollup(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{name: {calls, busy_s, self_s}}`` over every span name.

    ``busy_s`` counts a span only when no ancestor has the same name, so
    a layer that calls itself (``generate_instance`` building its own
    topology) is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for i, span in enumerate(spans):
        name = span[NAME]
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs[i] / 1e9
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["busy_s"] += (span[END] - span[START]) / 1e9
    return dict(out)


def unit_coverage(spans: list[list], unit_name: str) -> float:
    """Mean share of each ``unit_name`` span that its children cover."""
    selfs = self_times(spans)
    shares = [
        1.0 - selfs[i] / (s[END] - s[START])
        for i, s in enumerate(spans)
        if s[NAME] == unit_name and s[END] > s[START]
    ]
    return sum(shares) / len(shares) if shares else 0.0


class Tracer:
    """Records spans and kernel counters while installed.

    ``install()`` patches the layer entry points and ``uninstall()``
    restores every original, in reverse order; use it as a context
    manager.  The span stack is per thread, so the campaign service's
    master threads record spans beside the client's.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kernel: dict[str, dict[str, int]] = {
            family: dict.fromkeys(KERNEL_COUNTERS, 0) for family in KERNEL_FAMILIES
        }
        self.replay_failed = 0
        #: ``RunStore.append`` calls that found the unit already stored
        self.store_duplicates = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._builders = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._registrations: list[tuple[str, object]] = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, unit: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if unit is None and parent >= 0:
            unit = self.spans[parent][UNIT]
        span = [name, time.perf_counter_ns(), 0, parent, unit]
        with self._lock:  # the master's threads record spans too
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, unit: Optional[str] = None):
        index = self.begin(name, unit)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable, on_error=None) -> Callable:
        """``fn`` inside a span called ``name``; ``on_error(exc)`` sees
        every exception before it propagates."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self.end(index)

        return traced

    # ---------------------------------------------------------- patching
    def _set(self, owner: object, attr: str, value: object) -> None:
        # A class attribute is read from the class's own namespace, so
        # restoring it never shadows an inherited one.
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch(self, owner: object, attr: str, name: str, on_error=None) -> None:
        self._set(owner, attr, self.wrap(name, getattr(owner, attr), on_error))

    def install(self) -> "Tracer":
        from repro.experiments import harness, online, service
        from repro.experiments.registry import SCHEDULERS, SchedulerEntry
        from repro.experiments.store import RunStore
        from repro.schedulers import base as scheduler_base
        from repro.utils.errors import ExecutionFailedError

        def count_replay_failure(exc: Exception) -> None:
            if isinstance(exc, ExecutionFailedError):
                self.replay_failed += 1

        for module in (harness, online):
            self.patch(module, "min_critical_path", "critical_path")
            self.patch(module, "replay", "replay", count_replay_failure)
        self.patch(harness, "generate_topology", "instance")
        self.patch(harness, "generate_instance", "instance")
        self.patch(harness, "latency_upper_bound", "bounds")
        self.patch(harness, "random_crash_scenario", "scenario")
        self.patch(harness, "build_failure_model", "scenario")
        self.patch(online, "generate_arrivals", "arrivals")
        self.patch(online.OnlineHarness, "_schedule_job", "online.schedule_job")
        self.patch(online.OnlineHarness, "_dedicated", "online.dedicated")
        self.patch(online.OnlineHarness, "_crash_latency", "online.crash")
        self.patch(service, "result_from_dict", "wire.decode")
        self.patch(service.ServiceClient, "submit", "service.submit")
        self.patch(service.ServiceClient, "status", "service.status")
        original_append = RunStore.append

        def append(store, *args, **kwargs):
            stored = original_append(store, *args, **kwargs)
            if not stored:
                with self._lock:
                    self.store_duplicates += 1
            return stored

        self._set(RunStore, "append", self.wrap("store.append", append))

        # Every schedule is built through this module-level name; the
        # builders one scheduler call makes are harvested for their
        # kernel counters when the call returns.
        builders = self._builders

        class CountedBuilder(scheduler_base.ScheduleBuilder):
            def __init__(inner, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made = getattr(builders, "made", None)
                if made is not None:
                    made.append(inner)

        self._set(scheduler_base, "ScheduleBuilder", CountedBuilder)

        for algo in SCHEDULERS.names():
            entry = SCHEDULERS.get(algo)
            self._registrations.append((algo, entry))
            SCHEDULERS.register(
                algo,
                SchedulerEntry(
                    self._counted(f"eps_run.{algo}", entry.runner),
                    self._counted(f"faultfree.{algo}", entry.faultfree),
                ),
                overwrite=True,
            )
        return self

    def _counted(self, name: str, fn: Callable) -> Callable:
        traced = self.wrap(name, fn)
        builders = self._builders

        def run(*args, **kwargs):
            outer = getattr(builders, "made", None)
            builders.made = []
            try:
                return traced(*args, **kwargs)
            finally:
                for builder in builders.made:
                    self._add_kernel_stats(builder.kernel_stats())
                builders.made = outer

        return run

    def _add_kernel_stats(self, stats: Optional[dict]) -> None:
        if stats is None:  # the exact (kernel-free) path
            return
        family = self.kernel.setdefault(
            stats["evaluator"], dict.fromkeys(KERNEL_COUNTERS, 0)
        )
        for key in KERNEL_COUNTERS:
            family[key] += stats[key]

    def uninstall(self) -> None:
        from repro.experiments.registry import SCHEDULERS

        for algo, entry in reversed(self._registrations):
            SCHEDULERS.register(algo, entry, overwrite=True)
        self._registrations.clear()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Nothing is recorded inside; the tracer is reinstalled after if
        it was installed before."""
        installed = bool(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ----------------------------------------------------------- output
    def kernel_total(self, key: str) -> int:
        return sum(family[key] for family in self.kernel.values())

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start_ns": span[START],
                            "end_ns": span[END],
                            "parent": span[PARENT],
                            "unit": span[UNIT],
                        }
                    )
                )
                fh.write("\n")
