"""Command-line front end: a thin shell over campaign specs.

The campaign-shaped commands (``figure``, ``campaign run/resume``) all
work the same way: load a :class:`~repro.experiments.api.CampaignSpec`
(a shipped figure spec, or any ``.json``/``.toml`` file), overlay the
explicit flags and ``--override KEY=VALUE`` pairs onto it, and hand the
result to :class:`~repro.experiments.api.Campaign`.  Invalid
configurations raise the same
:class:`~repro.utils.errors.CampaignConfigError` the API raises; the
CLI prints it and exits 2.

Examples
--------
Regenerate a figure's data (CSV + paper-style panels)::

    repro-ftsched figure 1 --graphs 10 --out results/fig1.csv

Run a campaign from a spec file, overriding one key::

    repro-ftsched campaign run spec.json --override graphs=60

Schedule a demo workload and show the Gantt chart::

    repro-ftsched demo --workload gaussian_elimination --epsilon 1

Check Proposition 5.1 message bounds on random out-forests::

    repro-ftsched prop51 --epsilon 2 --trials 20
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.core.caft import caft
from repro.dag.generators import random_out_forest
from repro.dag.workloads import ALL_WORKLOADS
from repro.experiments.api import (
    Campaign,
    CampaignSpec,
    apply_overrides,
    figure_spec,
    parse_override,
)
from repro.experiments.config import FIGURES, PORT_POLICIES
from repro.experiments.figures import check_shape
from repro.experiments.registry import (
    SCHEDULERS,
    executor_names,
    network_names,
    scheduler_names,
    topology_names,
)
from repro.experiments.report import render_figure, write_csv
from repro.fault.model import FailureScenario
from repro.fault.scenarios import random_crash_scenario
from repro.fault.simulator import replay
from repro.platform.heterogeneity import (
    range_exec_matrix,
    scale_to_granularity,
    uniform_delay_platform,
)
from repro.platform.instance import ProblemInstance
from repro.schedule.gantt import render_gantt
from repro.schedule.metrics import summarize
from repro.utils.errors import CampaignConfigError


def _progress_fn(args: argparse.Namespace) -> Optional[Callable]:
    if not args.verbose:
        return None
    return lambda event: print(str(event), file=sys.stderr)


def _scenario_overrides(args: argparse.Namespace) -> dict:
    """Spec overrides from the scenario flags the user actually gave."""
    overrides: dict = {}
    if getattr(args, "graphs", None) is not None:
        overrides["graphs"] = args.graphs
    if getattr(args, "slow", False):
        overrides["fast"] = False
    for flag in ("network", "topology", "policy"):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[flag] = value
    return overrides


def _executor_overrides(args: argparse.Namespace) -> dict:
    """Spec overrides from the executor/store flags the user gave."""
    overrides: dict = {}
    if getattr(args, "executor", None):
        overrides["executor.kind"] = args.executor
    if getattr(args, "workers", None) is not None:
        overrides["executor.workers"] = args.workers
    if getattr(args, "bind", None) is not None:
        overrides["executor.bind"] = f"{args.bind[0]}:{args.bind[1]}"
    if getattr(args, "spawn_workers", 0):
        overrides["executor.spawn_workers"] = args.spawn_workers
    if getattr(args, "timeout", None) is not None:
        overrides["executor.timeout"] = args.timeout
    if getattr(args, "speculate", None) is not None:
        overrides["executor.speculate"] = args.speculate
    if getattr(args, "steal", None) is not None:
        overrides["executor.steal"] = args.steal
    if getattr(args, "lease", None) is not None:
        overrides["lease"] = args.lease
    if getattr(args, "store", None):
        overrides["store.directory"] = args.store
    if getattr(args, "store_backend", None):
        overrides["store.backend"] = args.store_backend
    return overrides


def _default_to_process(overrides: dict, base_kind: str) -> dict:
    """The historical default: --workers N without --executor means a
    local process pool, not N ignored workers on the serial path."""
    if (
        "executor.kind" not in overrides
        and base_kind == "serial"
        and (overrides.get("executor.workers") or 0) > 1
    ):
        overrides["executor.kind"] = "process"
    return overrides


def _spec_from_args(args: argparse.Namespace, spec: CampaignSpec) -> CampaignSpec:
    """Overlay flags, defaults, and ``--override`` pairs onto ``spec``.

    Precedence (lowest to highest): the spec file, explicit flags,
    ``--override KEY=VALUE`` pairs — overriding a spec file and editing
    it are equivalent, with identical validation.
    """
    overrides = _default_to_process(
        {**_scenario_overrides(args), **_executor_overrides(args)},
        spec.executor.kind,
    )
    spec = apply_overrides(spec, overrides)
    pairs = [parse_override(text) for text in getattr(args, "override", None) or []]
    return apply_overrides(spec, dict(pairs))


def _load_target_spec(target: str) -> CampaignSpec:
    """Resolve a campaign target: a paper figure number or a spec file."""
    if target.isdigit():
        return figure_spec(int(target))
    path = Path(target)
    if path.suffix in (".json", ".toml"):
        return CampaignSpec.load(path)
    raise CampaignConfigError(
        f"campaign target {target!r} is neither a figure number "
        f"({min(FIGURES)}-{max(FIGURES)}) nor a spec file (.json/.toml)",
        key="target",
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = _spec_from_args(args, figure_spec(args.number))
    handle = Campaign(spec).run(progress=_progress_fn(args))
    if args.html:
        from repro.experiments.svg import write_html_report

        # one report per scenario, tagged like the CSV files, so a
        # multi-scenario --override campaign never loses scenarios
        multi = len(handle.results) > 1
        for result in handle.results:
            path = write_html_report(
                result, _scenario_out_path(args.html, result, multi)
            )
            print(f"wrote {path}")
    return _report_results(handle.results, args, t0)


def _parse_address(spec: str) -> tuple[str, int]:
    from repro.experiments.executors import parse_bind

    try:
        return parse_bind(spec)
    except CampaignConfigError:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {spec!r}"
        ) from None


def _report_campaign(result, args: argparse.Namespace, out=None) -> int:
    if result.config.arrival is not None:
        from repro.experiments.online import check_online_shape
        from repro.experiments.report import render_online

        print(render_online(result))
        shape = check_online_shape(result)
    else:
        print(render_figure(result))
        shape = check_shape(result)
    print(f"shape checks: {'OK' if shape.ok else 'FAILED ' + str(shape.failed())}")
    if out is None:
        out = args.out
    if out:
        path = write_csv(result, out)
        print(f"wrote {path}")
    return 0 if shape.ok else 1


def _scenario_out_path(base: str, result, multi: bool) -> str:
    """Per-scenario output path (CSV/HTML): one scenario keeps ``base``
    untouched, a multi-scenario campaign gets a scenario-tagged file
    each so no scenario's output overwrites another's."""
    if not multi:
        return base
    from pathlib import Path

    _, model, topology, policy = result.config.scenario_key()
    tag = "-".join((model, topology, policy))
    path = Path(base)
    return str(path.with_name(f"{path.stem}.{tag}{path.suffix}"))


def _report_results(results, args: argparse.Namespace, t0: float) -> int:
    rc = 0
    multi = len(results) > 1
    for result in results:
        out = _scenario_out_path(args.out, result, multi) if args.out else None
        rc = max(rc, _report_campaign(result, args, out=out))
    print(f"elapsed: {time.perf_counter() - t0:.1f}s")
    return rc


def _announce_master(address: tuple[str, int]) -> None:
    host, port = address
    print(
        f"master listening on {host}:{port} — connect workers "
        f"with: repro-ftsched campaign worker {host}:{port}",
        file=sys.stderr,
        flush=True,
    )


def _cli_executor(spec: CampaignSpec):
    """Pre-build the spec's executor when the CLI needs its hooks.

    The socket master announces its address only once it is bound, via
    ``on_listen`` — so ``--bind host:0`` prints the ephemeral port the
    OS actually picked, which is the address workers must be pointed
    at (the requested ``:0`` is unconnectable).  Every other kind
    returns ``None`` and lets :class:`Campaign` build as usual.
    """
    if spec.executor.kind != "socket":
        return None
    executor = spec.executor.build(spec.lease)
    executor.on_listen = _announce_master
    return executor


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = _spec_from_args(args, _load_target_spec(args.target))
    handle = Campaign(spec).run(
        progress=_progress_fn(args),
        resume=args.resume,
        executor=_cli_executor(spec),
    )
    return _report_results(handle.results, args, t0)


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    target = Path(args.target)
    if target.suffix in (".json", ".toml"):
        # Resume straight from the spec that created the campaign: the
        # store directory is part of the spec, nothing else is needed.
        spec = _spec_from_args(args, CampaignSpec.load(target))
        handle = Campaign(spec).resume(
            progress=_progress_fn(args), executor=_cli_executor(spec)
        )
        return _report_results(handle.results, args, t0)

    # A bare store directory: the manifest records the grid; executor
    # and lease come from the flags alone, through the same flag->spec
    # mapping the spec-file path uses.
    if args.override:
        raise CampaignConfigError(
            "--override needs a spec-file target (a bare store directory "
            "has no spec to override); resume from the campaign's "
            ".json/.toml file instead",
            key="override",
        )
    from repro.experiments.api import ExecutorSpec
    from repro.experiments.campaign import run_grid
    from repro.experiments.executors import LeasePolicy
    from repro.experiments.store import open_store

    flags = _default_to_process(_executor_overrides(args), "serial")
    lease = flags.get("lease")
    try:
        LeasePolicy.from_spec(lease)
    except ValueError as exc:
        raise CampaignConfigError(
            f"bad 'lease' (--lease): {exc}", key="lease"
        ) from None
    executor_spec = ExecutorSpec.from_dict(
        {
            key.split(".", 1)[1]: value
            for key, value in flags.items()
            if key.startswith("executor.")
        }
    )
    executor = executor_spec.build(lease)
    if executor_spec.kind == "socket":
        executor.on_listen = _announce_master
    with open_store(args.target) as store:
        results = run_grid(
            store.read_manifest_grid(),
            store=store,
            executor=executor,
            progress=_progress_fn(args),
            resume=True,
        )
    return _report_results(results, args, t0)


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    from repro.experiments.executors import run_worker

    host, port = args.master
    return run_worker(
        host,
        port,
        max_units=args.max_units,
        heartbeat=args.heartbeat,
        verbose=args.verbose,
        slow_factor=args.slow_factor,
        die_after=args.die_after,
    )


def _cmd_service_start(args: argparse.Namespace) -> int:
    import signal

    from repro.experiments.service import CampaignService

    host, port = args.bind if args.bind else ("127.0.0.1", 0)
    service = CampaignService(
        args.root,
        host=host,
        port=port,
        spawn_workers=args.workers,
        heartbeat=args.heartbeat,
        lease=args.lease,
        speculate=args.speculate,
        steal=args.steal,
        job_ttl=args.job_ttl,
    )
    bound_host, bound_port = service.start()
    # The *bound* address, never the requested one: --bind host:0 asks
    # the OS for an ephemeral port, and that port is what clients and
    # external workers must be given.
    print(
        f"service listening on {bound_host}:{bound_port} "
        f"(root {args.root}) — submit with: repro-ftsched service "
        f"submit SPEC --address {bound_host}:{bound_port}",
        flush=True,
    )
    signal.signal(signal.SIGTERM, lambda *_: service.request_stop())
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


def _cmd_service_gc(args: argparse.Namespace) -> int:
    from repro.experiments.service import gc_job_dirs

    removed = gc_job_dirs(args.root, args.job_ttl)
    for job_id in removed:
        print(f"removed {job_id}")
    print(f"pruned {len(removed)} terminal job dir(s) older than "
          f"{args.job_ttl:g}s under {args.root}/jobs")
    return 0


def _service_client(args: argparse.Namespace):
    from repro.experiments.service import ServiceClient

    host, port = args.address
    return ServiceClient((host, port))


def _print_job(snap: dict) -> None:
    line = (
        f"{snap['job_id']}  {snap['state']:<9}  "
        f"{snap['done']}/{snap['total']}  tenant={snap['tenant']} "
        f"priority={snap['priority']}"
    )
    if snap.get("error"):
        line += f"  error: {snap['error']}"
    print(line)


def _cmd_service_submit(args: argparse.Namespace) -> int:
    spec = _load_target_spec(args.target)
    pairs = [parse_override(text) for text in args.override or []]
    spec = apply_overrides(spec, dict(pairs))
    client = _service_client(args)
    snap = client.submit(spec, tenant=args.tenant, priority=args.priority)
    _print_job(snap)
    if args.wait:
        snap = client.wait(snap["job_id"])
        _print_job(snap)
        return 0 if snap["state"] == "done" else 1
    return 0


def _cmd_service_status(args: argparse.Namespace) -> int:
    snap = _service_client(args).status(args.job)
    _print_job(snap)
    return 0 if snap["state"] in ("running", "done") else 1


def _cmd_service_jobs(args: argparse.Namespace) -> int:
    for snap in _service_client(args).jobs():
        _print_job(snap)
    return 0


def _cmd_service_cancel(args: argparse.Namespace) -> int:
    _print_job(_service_client(args).cancel(args.job))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    inst = _make_demo_instance(args)
    sched = SCHEDULERS.get(args.scheduler).runner(
        inst, args.epsilon, args.seed, "oneport"
    )
    print(render_gantt(sched, width=args.width, show_comms=args.comms))
    report = summarize(sched)
    print(
        f"latency={report.latency:.1f} upper={report.upper_bound:.1f} "
        f"messages={report.messages} SLR={report.normalized_latency:.2f}"
    )
    if args.crash and args.scheduler != "heft":
        scenario = random_crash_scenario(args.procs, args.crash, rng=args.seed + 2)
        result = replay(sched, scenario)
        print(f"replay under {scenario}: ", end="")
        if result.success:
            print(f"latency={result.latency():.1f} ({result.counts()})")
        else:
            print(f"FAILED — dead tasks {result.dead_tasks}")
    return 0


def _cmd_prop51(args: argparse.Namespace) -> int:
    """Empirical check of Proposition 5.1 on random out-forests."""
    rng = np.random.default_rng(args.seed)
    worst_ratio = 0.0
    for trial in range(args.trials):
        graph = random_out_forest(args.tasks, rng=rng)
        platform = uniform_delay_platform(args.procs, rng=rng)
        base = rng.uniform(1.0, 2.0, size=graph.num_tasks)
        exec_cost = range_exec_matrix(base, args.procs, rng=rng)
        exec_cost = scale_to_granularity(graph, platform, exec_cost, 1.0)
        inst = ProblemInstance(graph, platform, exec_cost)
        sched = caft(inst, args.epsilon, locking="paper", rng=trial)
        bound = graph.num_edges * (args.epsilon + 1)
        ratio = sched.message_count() / bound if bound else 0.0
        worst_ratio = max(worst_ratio, ratio)
        status = "ok" if sched.message_count() <= bound else "VIOLATED"
        print(
            f"trial {trial}: e={graph.num_edges} messages={sched.message_count()} "
            f"bound e(eps+1)={bound} [{status}]"
        )
        if sched.message_count() > bound:
            return 1
    print(f"Proposition 5.1 holds on all trials (worst ratio {worst_ratio:.2f})")
    return 0


def _make_demo_instance(args: argparse.Namespace):
    workload = ALL_WORKLOADS[args.workload](args.size)
    platform = uniform_delay_platform(args.procs, rng=args.seed)
    exec_cost = range_exec_matrix(
        workload.base_costs, args.procs, heterogeneity=0.5, rng=args.seed + 1
    )
    exec_cost = scale_to_granularity(workload.graph, platform, exec_cost,
                                     args.granularity)
    return ProblemInstance(workload.graph, platform, exec_cost)


def _cmd_robustness(args: argparse.Namespace) -> int:
    """Monte-Carlo survival analysis of a workload's schedule."""
    from repro.fault.montecarlo import survival_curve
    from repro.fault.scenarios import check_robustness

    inst = _make_demo_instance(args)
    sched = caft(inst, args.epsilon, locking=args.locking, rng=args.seed)
    print(f"schedule: {sched}")
    if args.exhaustive:
        report = check_robustness(sched)
        status = "ROBUST" if report.robust else "NOT ROBUST"
        print(
            f"exhaustive check over {report.scenarios_checked} scenarios: {status}"
        )
        for scenario, dead in report.violations[:5]:
            print(f"  {scenario} kills tasks {dead[:8]}")
    curve = survival_curve(sched, args.max_failures, samples=args.samples,
                           rng=args.seed + 7)
    print("survival curve (crashes -> estimated survival):")
    for k, report in curve.items():
        rate = report.survival_rate
        bar = "#" * int(rate * 40)
        print(f"  {k:>2}: {rate:6.1%} ({report.samples} samples) {bar}")
    guaranteed = all(
        curve[k].survival_rate == 1.0
        for k in range(min(args.epsilon, args.max_failures) + 1)
    )
    return 0 if guaranteed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Export a schedule (and optionally a crash replay) as a Chrome trace."""
    from repro.fault.scenarios import random_crash_scenario
    from repro.schedule.trace import write_trace

    inst = _make_demo_instance(args)
    sched = caft(inst, args.epsilon, rng=args.seed)
    path = write_trace(sched, args.out)
    print(f"wrote {path} (load in chrome://tracing or ui.perfetto.dev)")
    if args.crash:
        scenario = random_crash_scenario(args.procs, args.crash, rng=args.seed + 2)
        result = replay(sched, scenario)
        crash_path = str(args.out).replace(".json", f".crash.json")
        write_trace(result, crash_path)
        print(f"wrote {crash_path} (replay under {scenario})")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Side-by-side algorithm comparison on one workload."""
    from repro.experiments.compare import compare_algorithms, comparison_table

    inst = _make_demo_instance(args)
    rows = compare_algorithms(
        inst, args.epsilon, crashes=args.crash, samples=args.samples,
        rng=args.seed,
    )
    print(
        f"workload={args.workload}({args.size}) m={args.procs} "
        f"eps={args.epsilon} g={args.granularity}"
    )
    print(comparison_table(rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Heterogeneity / platform-size sweeps (beyond the paper's figures)."""
    from repro.experiments.extra import (
        heterogeneity_sweep,
        platform_size_sweep,
        sweep_table,
    )

    if args.kind == "heterogeneity":
        results = heterogeneity_sweep(num_graphs=args.graphs, epsilon=args.epsilon)
        label = "h"
    else:
        results = platform_size_sweep(num_graphs=args.graphs, epsilon=args.epsilon)
        label = "m"
    for metric in ("norm_latency", "messages"):
        print(f"\n{metric} vs {label}:")
        print(sweep_table(results, metric=metric, label=label))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ftsched",
        description="Fault-tolerant contention-aware scheduling (ICPP 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate one of the paper's figures")
    p_fig.add_argument("number", type=int, choices=sorted(FIGURES))
    p_fig.add_argument("--graphs", type=int, default=None,
                       help="random graphs per data point (default: paper's 60)")
    p_fig.add_argument("--out", type=str, default=None, help="CSV output path")
    p_fig.add_argument("--html", type=str, default=None,
                       help="write an HTML report with SVG charts")
    p_fig.add_argument("--workers", type=int, default=None,
                       help="worker processes for the campaign (default: serial)")
    p_fig.add_argument("--network", choices=list(network_names()), default=None,
                       help="communication model (default: the figure's, oneport)")
    p_fig.add_argument("--topology", choices=list(topology_names()), default=None,
                       help="sparse interconnect shape for routed-oneport "
                            "(implies --network routed-oneport)")
    p_fig.add_argument("--policy", choices=list(PORT_POLICIES), default=None,
                       help="one-port reservation policy (insertion = gap reuse)")
    p_fig.add_argument("--slow", action="store_true",
                       help="disable the vectorized placement kernel (baseline timing)")
    p_fig.add_argument("--override", action="append", default=None,
                       metavar="KEY=VALUE",
                       help="override any campaign-spec key (dotted paths, "
                            "JSON values: graphs=3, config.epsilon=2)")
    p_fig.add_argument("--verbose", action="store_true")
    p_fig.set_defaults(func=_cmd_figure)

    p_camp = sub.add_parser(
        "campaign",
        help="distributed / resumable campaigns (grid -> executor -> store)",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    def add_executor_args(p):
        p.add_argument("--executor", choices=list(executor_names()),
                       default=None,
                       help="where work units run (default: serial, or a "
                            "process pool when --workers > 1)")
        p.add_argument("--workers", type=int, default=None,
                       help="process-pool size, or sockets to auto-spawn for "
                            "--executor socket")
        p.add_argument("--bind", type=_parse_address, default=None,
                       metavar="HOST:PORT",
                       help="socket master bind address (default: an "
                            "ephemeral localhost port)")
        p.add_argument("--spawn-workers", type=int, default=0,
                       help="local worker processes the socket master "
                            "launches itself")
        p.add_argument("--timeout", type=float, default=None,
                       help="socket campaign no-activity timeout in seconds "
                            "(resets on any worker heartbeat or result; "
                            "default 300)")
        p.add_argument("--speculate", choices=["off", "auto"], default=None,
                       help="duplicate the slowest outstanding units onto "
                            "idle workers near the campaign tail (first ack "
                            "wins; socket executor only; default off)")
        p.add_argument("--steal", choices=["off", "auto"], default=None,
                       help="let an idle worker take the unstarted remainder "
                            "of a straggler's lease (socket executor only; "
                            "default auto)")
        p.add_argument("--lease", "--lease-size", dest="lease",
                       default=None, metavar="{auto,N}",
                       help="units per worker lease / pool chunk: an integer "
                            "pins the size, 'auto' (default) adapts to "
                            "observed unit latency (~2x heartbeat of work "
                            "per lease) and prefers same-scenario units")
        p.add_argument("--override", action="append", default=None,
                       metavar="KEY=VALUE",
                       help="override any campaign-spec key (dotted paths, "
                            "JSON values: graphs=3, executor.kind=process, "
                            "config.granularities=[0.2,0.4]); applied after "
                            "the explicit flags")
        p.add_argument("--out", type=str, default=None, help="CSV output path")
        p.add_argument("--verbose", action="store_true")

    p_crun = camp_sub.add_parser(
        "run", help="run a campaign: a paper figure number or a spec file")
    p_crun.add_argument("target", metavar="FIGURE|SPEC",
                        help="paper figure number (1-6, runs its shipped "
                             "spec) or a campaign spec file (.json/.toml)")
    p_crun.add_argument("--graphs", type=int, default=None,
                        help="random graphs per data point (default: paper's 60)")
    p_crun.add_argument("--network", choices=list(network_names()), default=None,
                        help="communication model (default: the figure's)")
    p_crun.add_argument("--topology", choices=list(topology_names()), default=None,
                        help="sparse interconnect shape (implies routed-oneport)")
    p_crun.add_argument("--policy", choices=list(PORT_POLICIES), default=None,
                        help="one-port reservation policy")
    p_crun.add_argument("--slow", action="store_true",
                        help="disable the vectorized placement kernel")
    p_crun.add_argument("--store", type=str, default=None,
                        help="directory for the append-only results store "
                             "(enables --resume)")
    p_crun.add_argument("--store-backend", type=str, default=None,
                        help="results store backend for --store: 'jsonl' "
                             "(the default) or 'columnar' (chunked NumPy "
                             "columns for million-row campaigns); any "
                             "register_store name is accepted")
    p_crun.add_argument("--resume", action="store_true",
                        help="skip units already completed in the store")
    add_executor_args(p_crun)
    p_crun.set_defaults(func=_cmd_campaign_run)

    p_cres = camp_sub.add_parser(
        "resume",
        help="finish a killed campaign from its store directory or spec file")
    p_cres.add_argument("target", metavar="DIR|SPEC",
                        help="store directory of the interrupted campaign, or "
                             "the spec file that created it (.json/.toml with "
                             "store.directory set)")
    add_executor_args(p_cres)
    p_cres.set_defaults(func=_cmd_campaign_resume)

    p_cwork = camp_sub.add_parser(
        "worker", help="compute units for a campaign master over TCP")
    p_cwork.add_argument("master", type=_parse_address, metavar="HOST:PORT",
                         help="address of the campaign master")
    p_cwork.add_argument("--heartbeat", type=float, default=0.5,
                         help="seconds between liveness heartbeats")
    p_cwork.add_argument("--max-units", type=int, default=None,
                         help="drop the connection after N units — fault "
                              "injection for requeue tests; the worker exits "
                              "with code 3 (distinct from a crash's 1) so "
                              "harnesses can assert why it died")
    p_cwork.add_argument("--slow-factor", type=float, default=None,
                         metavar="F",
                         help="fault injection: throttle every unit to F x "
                              "its real compute time (a reproducible "
                              "straggler)")
    p_cwork.add_argument("--die-after", type=int, default=None,
                         metavar="N",
                         help="fault injection: exit with the genuine-crash "
                              "code 1 after N results (exercises the "
                              "master's bounded worker respawn)")
    p_cwork.add_argument("--verbose", action="store_true")
    p_cwork.set_defaults(func=_cmd_campaign_worker)

    p_svc = sub.add_parser(
        "service",
        help="persistent multi-tenant campaign service (one master, "
             "many submitted campaigns)",
    )
    svc_sub = p_svc.add_subparsers(dest="service_command", required=True)

    p_sstart = svc_sub.add_parser(
        "start",
        help="run a campaign service in the foreground (SIGTERM/Ctrl-C "
             "stops it; restarting on the same --root resumes "
             "incomplete jobs)",
    )
    p_sstart.add_argument("--root", type=str, required=True,
                          help="durable service directory (job specs and "
                               "stores live under ROOT/jobs)")
    p_sstart.add_argument("--bind", type=_parse_address, default=None,
                          metavar="HOST:PORT",
                          help="bind address (default: an ephemeral "
                               "localhost port; the actually-bound port "
                               "is printed and written to ROOT/"
                               "service.json)")
    p_sstart.add_argument("--workers", type=int, default=2,
                          help="local worker processes the service "
                               "spawns and shares across jobs "
                               "(default 2; external workers can "
                               "connect at any time)")
    p_sstart.add_argument("--heartbeat", type=float, default=0.5,
                          help="seconds between worker liveness "
                               "heartbeats")
    p_sstart.add_argument("--lease", "--lease-size", dest="lease",
                          default=None, metavar="{auto,N}",
                          help="default units per worker lease (a "
                               "submitted spec's own lease field "
                               "overrides this per job)")
    p_sstart.add_argument("--speculate", choices=["off", "auto"],
                          default=None,
                          help="duplicate slow tail units onto idle "
                               "workers (per job; default off)")
    p_sstart.add_argument("--steal", choices=["off", "auto"], default=None,
                          help="idle workers take the unstarted "
                               "remainder of stragglers' leases "
                               "(per job; default auto)")
    p_sstart.add_argument("--job-ttl", type=float, default=None,
                          metavar="SECONDS",
                          help="prune terminal job directories "
                               "(done/cancelled/failed) older than this "
                               "many seconds, at start and periodically "
                               "while serving (default: keep forever); "
                               "running jobs are never touched")
    p_sstart.set_defaults(func=_cmd_service_start)

    p_sgc = svc_sub.add_parser(
        "gc",
        help="one-shot prune of terminal job directories under a "
             "service root (safe alongside a running service: only "
             "done/cancelled/failed jobs older than the TTL go)")
    p_sgc.add_argument("--root", type=str, required=True,
                       help="service directory to sweep (ROOT/jobs)")
    p_sgc.add_argument("--job-ttl", type=float, default=0.0,
                       metavar="SECONDS",
                       help="minimum age of a terminal job.json before "
                            "its directory is removed (default 0: every "
                            "terminal job dir)")
    p_sgc.set_defaults(func=_cmd_service_gc)

    def add_service_client_args(p):
        p.add_argument("--address", type=_parse_address, required=True,
                       metavar="HOST:PORT",
                       help="address of the running campaign service")

    p_ssub = svc_sub.add_parser(
        "submit", help="submit a campaign to a running service")
    p_ssub.add_argument("target", metavar="FIGURE|SPEC",
                        help="paper figure number or a campaign spec "
                             "file (.json/.toml); the service stores "
                             "results under its own root")
    add_service_client_args(p_ssub)
    p_ssub.add_argument("--tenant", type=str, default="default",
                        help="fair-share tenant the job is accounted to")
    p_ssub.add_argument("--priority", type=int, default=0,
                        help="scheduling priority within the tenant "
                             "(higher first; >= 0)")
    p_ssub.add_argument("--wait", action="store_true",
                        help="block until the job reaches a terminal "
                             "state (exit 1 unless it is 'done')")
    p_ssub.add_argument("--override", action="append", default=None,
                        metavar="KEY=VALUE",
                        help="override any campaign-spec key before "
                             "submitting")
    p_ssub.set_defaults(func=_cmd_service_submit)

    p_sstat = svc_sub.add_parser("status", help="one job's progress")
    p_sstat.add_argument("job", metavar="JOB_ID")
    add_service_client_args(p_sstat)
    p_sstat.set_defaults(func=_cmd_service_status)

    p_sjobs = svc_sub.add_parser("jobs", help="list every job the "
                                              "service knows about")
    add_service_client_args(p_sjobs)
    p_sjobs.set_defaults(func=_cmd_service_jobs)

    p_scan = svc_sub.add_parser(
        "cancel", help="cancel a running job (completed units stay in "
                       "its store)")
    p_scan.add_argument("job", metavar="JOB_ID")
    add_service_client_args(p_scan)
    p_scan.set_defaults(func=_cmd_service_cancel)

    p_demo = sub.add_parser("demo", help="schedule a workload and show a Gantt chart")
    p_demo.add_argument("--workload", choices=sorted(ALL_WORKLOADS), default="gaussian_elimination")
    p_demo.add_argument("--size", type=int, default=6)
    p_demo.add_argument("--procs", type=int, default=6)
    p_demo.add_argument("--epsilon", type=int, default=1)
    p_demo.add_argument("--granularity", type=float, default=1.0)
    p_demo.add_argument("--scheduler", choices=scheduler_names(), default="caft")
    p_demo.add_argument("--crash", type=int, default=0, help="replay with this many crashes")
    p_demo.add_argument("--comms", action="store_true", help="show link rows in the Gantt")
    p_demo.add_argument("--width", type=int, default=100)
    p_demo.add_argument("--seed", type=int, default=42)
    p_demo.set_defaults(func=_cmd_demo)

    p_51 = sub.add_parser("prop51", help="check Proposition 5.1 message bounds")
    p_51.add_argument("--epsilon", type=int, default=1)
    p_51.add_argument("--tasks", type=int, default=60)
    p_51.add_argument("--procs", type=int, default=10)
    p_51.add_argument("--trials", type=int, default=10)
    p_51.add_argument("--seed", type=int, default=0)
    p_51.set_defaults(func=_cmd_prop51)

    def add_workload_args(p):
        p.add_argument("--workload", choices=sorted(ALL_WORKLOADS),
                       default="gaussian_elimination")
        p.add_argument("--size", type=int, default=6)
        p.add_argument("--procs", type=int, default=6)
        p.add_argument("--epsilon", type=int, default=1)
        p.add_argument("--granularity", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=42)

    p_rob = sub.add_parser("robustness", help="survival analysis of a schedule")
    add_workload_args(p_rob)
    p_rob.add_argument("--locking", choices=["support", "paper"], default="support")
    p_rob.add_argument("--max-failures", type=int, default=4)
    p_rob.add_argument("--samples", type=int, default=50)
    p_rob.add_argument("--exhaustive", action="store_true")
    p_rob.set_defaults(func=_cmd_robustness)

    p_tr = sub.add_parser("trace", help="export a Chrome/Perfetto trace")
    add_workload_args(p_tr)
    p_tr.add_argument("--out", type=str, default="results/trace.json")
    p_tr.add_argument("--crash", type=int, default=0)
    p_tr.set_defaults(func=_cmd_trace)

    p_cmp = sub.add_parser("compare", help="side-by-side algorithm comparison")
    add_workload_args(p_cmp)
    p_cmp.add_argument("--crash", type=int, default=1)
    p_cmp.add_argument("--samples", type=int, default=25)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sw = sub.add_parser("sweep", help="heterogeneity / platform-size sweeps")
    p_sw.add_argument("kind", choices=["heterogeneity", "platform"])
    p_sw.add_argument("--graphs", type=int, default=3)
    p_sw.add_argument("--epsilon", type=int, default=1)
    p_sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CampaignConfigError as exc:
        # The one way every invalid configuration leaves the CLI — same
        # error object the API raises, printed with its offending key.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
