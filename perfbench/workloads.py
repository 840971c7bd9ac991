"""The four benchmark workloads.

Each workload turns ``--seed`` into a deterministic stream of inputs
(base seeds, rep indices, job specs); the program only ever sees those
generated specs.  Serial workloads call ``run_rep`` once per unit; the
churn workload drives a warm ``CampaignService`` through ``Campaign.submit``
and ``ServiceJobHandle``.  Every output is checked: against the
checked-in digests for the reference seed, and against identities that
hold at every scale for any seed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import itertools
import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy

from repro.experiments.api import SPEC_DIR, Campaign, CampaignSpec, figure_spec
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    CampaignResult,
    flatten_rep_result,
    generate_instance,
    run_rep,
)
from repro.experiments.online import check_online_shape
from repro.experiments.query import StoreCampaignView
from repro.experiments.report import render_figure
from repro.experiments.service import CampaignService
from repro.experiments.store import open_store

from stats import Tally

HERE = Path(__file__).resolve().parent
#: the seed whose outputs reference.json pins digest by digest
REFERENCE_SEED = 0
#: set-up samples per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: what a fresh interpreter imports before it can run a workload
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import repro.experiments.api, repro.experiments.service, workloads; "
    "print(time.perf_counter() - t0)"
)
#: seconds the speed probe takes on the reference machine; timings are
#: reported scaled to it (see ``Outcome.scale``)
PROBE_REFERENCE_S = 0.010
PROBE_STEPS = 6000
#: a unit (serial) or job (service) slower than this counts as failed
UNIT_DEADLINE_S = 60.0
JOB_DEADLINE_S = 30.0
#: jobs per rep of the online stream (the shipped figure uses 6)
ONLINE_JOBS = 24
#: equal-width task-count bins the offline plans cycle through
TASK_BINS = 5
#: algorithms that must survive any crash set of size <= epsilon
ROBUST = frozenset({"caft", "ftsa", "ftbar"})
#: relative slack of the float identities (latency >= critical path, ...)
TOL = 1e-9


@dataclass(frozen=True)
class PlannedUnit:
    stratum: str
    config: ExperimentConfig
    granularity: float
    rep: int


@dataclass
class Outcome:
    """What one run measured; ``run.py`` turns it into metrics.

    Times are in reference-machine seconds: each interval as measured,
    times the :func:`speed` factor probed right before it.  Only
    ``measured_wall_s`` is in measured seconds.
    """

    setup_s: float
    wall_s: float = 0.0
    measured_wall_s: float = 0.0
    units: int = 0
    latencies: list[float] = field(default_factory=list)
    #: stratum -> unit (or job) seconds, for the full-campaign projection
    strata: dict[str, list[float]] = field(default_factory=dict)
    #: stratum -> units of that stratum in the workload's full campaign
    full_units: dict[str, int] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    digests: list[str] = field(default_factory=list)
    #: human-table-only metrics: name -> (value, unit)
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: per-layer numbers only a workload knows (service read-back)
    layer: dict[str, float] = field(default_factory=dict)
    #: the :func:`speed` factor probed before each request
    speeds: list[float] = field(default_factory=list)

    @property
    def latency_p50(self) -> float:
        """Median of all request latencies.  The round-robin plans give
        every stratum an equal share of the requests, so the pooled
        median is balanced across strata."""
        return statistics.median(self.latencies) if self.latencies else 0.0

    @property
    def eta_s(self) -> float:
        return sum(
            statistics.fmean(times) * self.full_units[name]
            for name, times in self.strata.items()
            if times
        )


# ---------------------------------------------------------------- checks
def digest(rows: list[dict]) -> str:
    """Short content hash of canonical rows (floats by exact repr)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def unit_rows(config: ExperimentConfig, result) -> list[dict]:
    name, model, topology, policy = config.scenario_key()
    tags = {"config": name, "network": model, "topology": topology, "policy": policy}
    return flatten_rep_result(tags, result)


def offline_problems(config: ExperimentConfig, rows: list[dict]) -> list[str]:
    """Identities of one offline unit's rows that hold for every seed."""
    problems = []
    by_algo = {row["algorithm"]: row for row in rows}
    if sorted(by_algo) != sorted(config.algorithms):
        return [f"algorithms {sorted(by_algo)} != {sorted(config.algorithms)}"]
    for algo, row in by_algo.items():
        # Zero is a valid count: some small m = 4 units of service-churn
        # (job churn-s4-j43 of --seed 4) send no message at all.
        if not row["messages"] >= 0:
            problems.append(f"{algo}: messages={row['messages']}")
        if not row["norm_latency"] >= 1 - TOL:
            problems.append(f"{algo}: latency below the critical path")
        if not row["faultfree_norm"] >= 1 - TOL:
            problems.append(f"{algo}: fault-free latency below the critical path")
        if not row["norm_upper"] >= row["norm_latency"] * (1 - TOL):
            problems.append(f"{algo}: upper bound below the latency")
        if algo in ROBUST and config.crashes <= config.epsilon:
            if row["norm_crash"] is None:
                problems.append(f"{algo}: did not survive {config.crashes} crash(es)")
    return problems


def online_problems(config: ExperimentConfig, result) -> list[str]:
    report = check_online_shape(CampaignResult(config=config, reps=[result]))
    problems = list(report.failed())
    for algo in config.algorithms:
        if not result.metrics[algo]["messages"] > 0:
            problems.append(f"{algo}: no messages")
    return problems


def reference_problems(
    reference: Optional[list[str]], index: int, value: str
) -> list[str]:
    if reference is None or index >= len(reference):
        return []
    if reference[index] != value:
        return [f"digest {value} != reference {reference[index]}"]
    return []


def pick_rep(config: ExperimentConfig, g: float, task_bin: int, rng: random.Random) -> int:
    """A rep whose instance falls in ``task_bin`` of ``TASK_BINS`` equal
    bins of ``config.task_range``."""
    lo, hi = config.task_range
    while True:
        rep = rng.randrange(10**6)
        tasks = generate_instance(config, g, rep).num_tasks
        if (tasks - lo) * TASK_BINS // (hi - lo + 1) == task_bin:
            return rep


def _span(tracer, name: str, unit: Optional[str] = None):
    return tracer.span(name, unit) if tracer is not None else contextlib.nullcontext()


# ----------------------------------------------------------- speed probe
def probe_seconds() -> float:
    """Seconds one pass of the speed probe takes now.

    The probe is the benchmark's own code, so no change to the program
    moves it: the kind of work the schedulers' inner loops do (heap
    pushes and pops, dict updates, float arithmetic, argmin over a small
    array).  Garbage collection is off while it runs, so the size of the
    program's heap does not change it either.
    """
    rng = random.Random(0)
    heap: list[tuple[float, int]] = []
    loads: dict[int, float] = {}
    ready = numpy.zeros(32)
    finish = numpy.empty(32)
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(PROBE_STEPS):
            x = rng.random()
            heapq.heappush(heap, (x, i))
            if len(heap) > 64:
                heapq.heappop(heap)
            loads[i % 97] = loads.get(i % 97, 0.0) + x
            numpy.add(ready, x, out=finish)
            ready[int(finish.argmin())] += x
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def speed() -> float:
    """The factor from measured seconds to reference-machine seconds for
    the interval that starts now.

    The machine's speed drifts by tens of percent within seconds, and the
    program and the probe slow down together, so an interval scaled by a
    probe taken right before it moves with the program and much less with
    the machine."""
    return PROBE_REFERENCE_S / probe_seconds()


# ---------------------------------------------------------------- set-up
def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import what a run needs."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE.parent / "src"), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class SetupSamples:
    """``SETUP_REPEATS`` set-up samples spread evenly over a run.

    The machine's speed drifts over tens of seconds, so set-ups taken
    back to back all see one state of it; spread over the run they see
    the mix the measured window sees.  A sample is a fresh interpreter's
    import plus the seconds ``set_up()`` returns, scaled by the speed
    probed before it.  Samples are taken
    between requests with the tracer suspended, and ``paused`` counts
    their time so the caller can take it out of the measured window.
    """

    def __init__(self, set_up: Callable[[], float], seconds: float, tracer=None) -> None:
        self.set_up = set_up
        self.every = seconds / SETUP_REPEATS
        self.tracer = tracer
        self.samples: list[float] = []
        self.paused = 0.0

    def add(self, set_up_s: float, factor: float) -> None:
        self.samples.append((import_seconds() + set_up_s) * factor)

    def _take(self) -> None:
        t0 = time.perf_counter()
        with self.tracer.suspended() if self.tracer is not None else contextlib.nullcontext():
            factor = speed()
            self.add(self.set_up(), factor)
        self.paused += time.perf_counter() - t0

    def due(self, elapsed: float) -> None:
        """Take the next sample once ``elapsed`` measured seconds reach it."""
        if len(self.samples) < SETUP_REPEATS and elapsed >= len(self.samples) * self.every:
            self._take()

    def median(self) -> float:
        """Take the samples still missing; the median of all of them."""
        while len(self.samples) < SETUP_REPEATS:
            self._take()
        return statistics.median(self.samples)


# ------------------------------------------------------ serial workloads
class SerialWorkload:
    """Units run one after another through ``run_rep`` on one core."""

    name = ""
    online = False

    def specs(self, base_seed: int) -> dict[str, CampaignSpec]:
        """Stratum -> spec, every spec carrying ``base_seed``."""
        raise NotImplementedError

    def full_units(self, configs: dict[str, ExperimentConfig]) -> dict[str, int]:
        """Units per stratum of the workload's full-size campaign."""
        return {s: len(c.granularities) * c.num_graphs for s, c in configs.items()}

    def round_strata(self, strata: list[str], rng: random.Random) -> list[str]:
        """The strata one round visits, in order (each once by default)."""
        return rng.sample(strata, len(strata))

    def plan(self, seed: int) -> tuple[dict[str, ExperimentConfig], Iterator[PlannedUnit]]:
        rng = random.Random(f"{self.name}/{seed}")
        base_seed = rng.randrange(1, 2**31)
        configs = {s: spec.base_config() for s, spec in self.specs(base_seed).items()}

        def cycle(cycles: dict, key: str, values) -> object:
            if not cycles.get(key):
                cycles[key] = rng.sample(list(values), len(values))
            return cycles[key].pop()

        def units() -> Iterator[PlannedUnit]:
            # Per stratum, shuffled cycles of granularities and of
            # task-count bins: every stratum x granularity cell gets the
            # same number of units, and every run the same spread of
            # instance sizes, the main driver of a unit's cost.
            grans: dict = {}
            bins: dict = {}
            while True:
                for s in self.round_strata(sorted(configs), rng):
                    config = configs[s]
                    g = cycle(grans, s, config.granularities)
                    if self.online:
                        rep = rng.randrange(10**6)
                    else:
                        rep = pick_rep(config, g, cycle(bins, s, range(TASK_BINS)), rng)
                    yield PlannedUnit(s, config, g, rep)

        return configs, units()

    def warmup(self) -> None:
        """One fixed, seed-independent unit (set-up, not measured)."""
        configs, _ = self.plan(REFERENCE_SEED)
        config = configs[sorted(configs)[0]]
        run_rep(config, config.granularities[len(config.granularities) // 2], 0)

    def check(self, unit: PlannedUnit, result) -> tuple[str, list[str]]:
        rows = unit_rows(unit.config, result)
        if self.online:
            problems = online_problems(unit.config, result)
        else:
            problems = offline_problems(unit.config, rows)
        return digest(rows), problems

    def run(
        self,
        seed: int,
        seconds: float,
        tracer=None,
        reference: Optional[list[str]] = None,
        max_units: Optional[int] = None,
    ) -> Outcome:
        def set_up() -> float:
            t0 = time.perf_counter()
            self.plan(seed)
            self.warmup()
            return time.perf_counter() - t0

        setups = SetupSamples(set_up, seconds, tracer)
        factor = speed()
        setups.add(set_up(), factor)
        configs, units = self.plan(seed)
        out = Outcome(setup_s=0.0, full_units=self.full_units(configs))
        out.strata = {s: [] for s in configs}
        jobs = 0
        with tracer if tracer is not None else contextlib.nullcontext():
            jobs = self._measure(out, units, seconds, tracer, reference, max_units, setups)
        out.setup_s = setups.median()
        if self.online:
            out.extras["jobs_per_s"] = (jobs / out.wall_s, "1/s")
        return out

    def _measure(self, out, units, seconds, tracer, reference, max_units, setups) -> int:
        """Run units until ``seconds`` of measured time have passed.

        Picking the next unit (instance-size probing), the speed probe
        and the set-up samples are not measured: their time is taken out
        of the window.
        """
        jobs = 0
        unmeasured = 0.0
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start - unmeasured - setups.paused) < seconds and (
            max_units is None or out.units < max_units
        ):
            setups.due(elapsed)
            t0 = time.perf_counter()
            unit = next(units)
            factor = speed()
            out.speeds.append(factor)
            t1 = time.perf_counter()
            unmeasured += t1 - t0
            jobs += self._unit(out, unit, factor, tracer, reference)
            dt = time.perf_counter() - t1
            out.measured_wall_s += dt
            out.wall_s += dt * factor
        return jobs

    def _unit(self, out, unit, factor, tracer, reference) -> int:
        """Run and check one unit; the jobs it scheduled (online only)."""
        label = f"{unit.config.name}|{unit.stratum}|g={unit.granularity!r}|rep={unit.rep}"
        t0 = time.perf_counter()
        try:
            with _span(tracer, "unit", label):
                result = run_rep(unit.config, unit.granularity, unit.rep)
        except Exception as exc:  # a failed unit is counted, not fatal
            out.tally.record([f"raised {exc!r}"], label)
            out.digests.append("")
            return 0
        dt = time.perf_counter() - t0
        value, problems = self.check(unit, result)
        problems += reference_problems(reference, len(out.digests), value)
        if dt > UNIT_DEADLINE_S:
            problems.append(f"took {dt:.1f}s > {UNIT_DEADLINE_S:.0f}s")
        out.tally.record(problems, label)
        out.digests.append(value)
        out.latencies.append(dt * factor)
        out.strata[unit.stratum].append(dt * factor)
        out.units += 1
        return unit.config.arrival.jobs * len(unit.config.algorithms) if self.online else 0


class PaperSlice(SerialWorkload):
    name = "paper-slice"

    def specs(self, base_seed):
        return {
            f"figure{f}": replace(figure_spec(f), seed=base_seed) for f in range(1, 7)
        }


class OnlineStream(SerialWorkload):
    name = "online-stream"
    online = True

    def specs(self, base_seed):
        spec = CampaignSpec.load(SPEC_DIR / "figure_online.json")
        return {
            "online": replace(
                spec,
                seed=base_seed,
                arrival_process=replace(spec.arrival_process, jobs=ONLINE_JOBS),
            )
        }


class ContentionM40(SerialWorkload):
    name = "contention-m40"

    def specs(self, base_seed):
        base = replace(
            figure_spec(1).base_config(),
            name="contention-m40",
            num_procs=40,
            epsilon=2,
            crashes=2,
            task_range=(40, 60),
            algorithms=("caft", "ftbar"),
            base_seed=base_seed,
        )
        return {
            "insertion": CampaignSpec(config=base, policy="insertion"),
            "ring": CampaignSpec(config=base, network="routed-oneport", topology="ring"),
            "torus": CampaignSpec(config=base, network="routed-oneport", topology="torus"),
        }

    def full_units(self, configs):
        # the full campaign: 600 clique-insertion units, 600 routed ones
        return {"insertion": 600, "ring": 300, "torus": 300}

    def round_strata(self, strata, rng):
        return rng.sample(["insertion", "insertion", "ring", "torus"], 4)


# ------------------------------------------------------- service churn
#: each churn job: 5 granularities x 10 graphs = 50 units
CHURN_GRANULARITIES = (0.5, 1.0, 1.5, 2.0, 2.5)
CHURN_GRAPHS = 10
CHURN_TENANTS = ("alpha", "beta")
#: the churn projection: this many jobs back to back
CHURN_FULL_JOBS = 20
CHURN_WORKERS = 2
#: work stealing stays off until the steal/revoke stall (README.md) is
#: fixed: with it on, this workload loses a unit in some runs
CHURN_STEAL = "off"
#: client status poll interval
POLL_S = 0.01


def churn_spec(name: str, base_seed: int, graphs: int = CHURN_GRAPHS) -> CampaignSpec:
    config = ExperimentConfig(
        name=name,
        granularities=CHURN_GRANULARITIES,
        num_procs=4,
        epsilon=1,
        crashes=1,
        num_graphs=graphs,
        task_range=(10, 15),
        base_seed=base_seed,
        algorithms=("caft", "ftsa"),
    )
    return CampaignSpec(config=config)


class ServiceChurn:
    name = "service-churn"

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def plan(self, seed: int) -> Iterator[tuple[CampaignSpec, str]]:
        rng = random.Random(f"{self.name}/{seed}")
        i = 0
        while True:
            # Distinct names keep unit ids distinct across jobs (see the
            # steal/revoke stall in README.md).
            yield churn_spec(f"churn-s{seed}-j{i}", rng.randrange(1, 2**31)), CHURN_TENANTS[i % 2]
            i += 1

    def _start(self, cycle: int) -> tuple[CampaignService, tuple]:
        service = CampaignService(
            self.workdir / f"service-{cycle}", spawn_workers=CHURN_WORKERS, steal=CHURN_STEAL
        )
        address = service.start()
        try:
            warm = Campaign(churn_spec(f"warm-{cycle}", 1, graphs=2)).submit(address, tenant="warm")
            warm.wait(timeout=JOB_DEADLINE_S, poll=POLL_S)
        except BaseException:
            service.stop()
            raise
        return service, address

    def run(
        self,
        seed: int,
        seconds: float,
        tracer=None,
        reference: Optional[list[str]] = None,
        max_units: Optional[int] = None,
    ) -> Outcome:
        cycles = itertools.count()

        def set_up() -> float:
            # A later sample: a second service beside the measured one,
            # stopped again.
            t0 = time.perf_counter()
            extra, _ = self._start(next(cycles))
            set_up_s = time.perf_counter() - t0
            extra.stop()
            return set_up_s

        service = None
        try:
            factor = speed()
            t0 = time.perf_counter()
            plan = self.plan(seed)
            service, address = self._start(next(cycles))
            setups = SetupSamples(set_up, seconds, tracer)
            setups.add(time.perf_counter() - t0, factor)
            out = Outcome(setup_s=0.0, full_units={"job": CHURN_FULL_JOBS})
            out.strata = {"job": []}
            with tracer if tracer is not None else contextlib.nullcontext():
                handles = self._churn(out, plan, address, seconds, tracer, max_units, setups)
            out.setup_s = setups.median()
        finally:
            if service is not None:
                service.stop()
        with tracer if tracer is not None else contextlib.nullcontext():
            self._read_back(out, handles, tracer, reference)
        return out

    def _churn(self, out, plan, address, seconds, tracer, max_units, setups):
        """Closed loop: submit a job, poll it until it ends, repeat, until
        ``seconds`` of measured time have passed (the speed probe and the
        set-up samples, taken between jobs, are not measured)."""
        first = []
        handles = []
        probing = 0.0
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start - probing - setups.paused) < seconds and (
            max_units is None or len(handles) < max_units
        ):
            setups.due(elapsed)
            t0 = time.perf_counter()
            factor = speed()
            out.speeds.append(factor)
            t1 = time.perf_counter()
            probing += t1 - t0
            spec, tenant = next(plan)
            problems = []
            handle = t_first = None
            with _span(tracer, "unit", spec.config.name):
                t0 = time.perf_counter()
                try:
                    handle = Campaign(spec).submit(address, tenant=tenant)
                    while True:
                        snap = handle.status()
                        now = time.perf_counter()
                        if t_first is None and snap["done"] > 0:
                            t_first = now - t0
                        if snap["state"] != "running":
                            break
                        if now - t0 > JOB_DEADLINE_S:
                            handle.cancel()
                            problems.append(
                                f"missed the {JOB_DEADLINE_S:.0f}s deadline at "
                                f"{snap['done']}/{snap['total']} units"
                            )
                            break
                        time.sleep(POLL_S)
                except Exception as exc:  # a failed job is counted, not fatal
                    problems.append(f"raised {exc!r}")
                dt = time.perf_counter() - t0
            if not problems and snap["state"] != "done":
                problems.append(f"ended {snap['state']}: {snap.get('error')}")
            handles.append((spec, handle, problems))
            if not problems:
                out.latencies.append(dt * factor)
                out.strata["job"].append(dt * factor)
                out.units += snap["total"]
                if t_first is not None:
                    first.append(t_first * factor)
            dt = time.perf_counter() - t1
            out.measured_wall_s += dt
            out.wall_s += dt * factor
        if first:
            out.extras["first_result_s_p50"] = (statistics.median(first), "s")
        return handles

    def _read_back(self, out, handles, tracer, reference) -> None:
        """Open every job's store, check its rows, aggregate and render."""
        timings = {"query.open_s": 0.0, "query.aggregate_s": 0.0, "report.render_s": 0.0}
        stored = replayed = 0
        t_start = time.perf_counter()
        for index, (spec, handle, problems) in enumerate(handles):
            config = spec.base_config()
            label = config.name
            if problems:
                out.tally.record(problems, label)
                out.digests.append("")
                continue
            with _span(tracer, "readback", label):
                t0 = time.perf_counter()
                with _span(tracer, "query.open"):
                    store = open_store(handle.store_directory)
                t1 = time.perf_counter()
                with _span(tracer, "query.aggregate"):
                    view = StoreCampaignView(store, config)
                    view.rows()
                t2 = time.perf_counter()
                with _span(tracer, "report.render"):
                    render_figure(view)
                t3 = time.perf_counter()
            timings["query.open_s"] += t1 - t0
            timings["query.aggregate_s"] += t2 - t1
            timings["report.render_s"] += t3 - t2
            rows = store.rep_rows()
            stored += len(store)
            replayed += store.dedup_stats()["replayed_rows"]
            store.close()
            value = digest(rows)
            units = len(config.granularities) * config.num_graphs
            if len(rows) != units * len(config.algorithms):
                problems.append(f"{len(rows)} rows for {units} units")
            for unit_index in range(0, len(rows), len(config.algorithms)):
                chunk = rows[unit_index : unit_index + len(config.algorithms)]
                problems.extend(offline_problems(config, chunk))
            problems.extend(reference_problems(reference, index, value))
            out.tally.record(problems, label)
            out.digests.append(value)
        jobs = max(1, len(handles))
        out.extras["readback_s"] = (time.perf_counter() - t_start, "s")
        out.layer.update({k: v / jobs for k, v in timings.items()})
        out.layer["store.replayed_rows"] = replayed
        out.layer["store.stored"] = stored
        if out.latencies:
            out.extras["jobs_per_s"] = (len(out.latencies) / out.wall_s, "1/s")


def make(name: str, workdir: Path):
    """The workload called ``name``."""
    for cls in (PaperSlice, OnlineStream, ContentionM40):
        if cls.name == name:
            return cls()
    if name == ServiceChurn.name:
        return ServiceChurn(workdir)
    raise KeyError(name)


NAMES = (PaperSlice.name, OnlineStream.name, ContentionM40.name, ServiceChurn.name)
