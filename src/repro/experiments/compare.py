"""Side-by-side algorithm comparisons.

Two granularities of the same question:

* :func:`compare_algorithms` — "which scheduler should I use for *this*
  application on *this* cluster": run every algorithm on one instance,
  collect the full metric set (latency, bounds, messages, utilization,
  crash behaviour) and print one table.  Algorithms are the names of
  :data:`~repro.experiments.registry.SCHEDULERS`, the table campaigns
  use.  Backs the ``repro-ftsched compare`` subcommand.
* :func:`campaign_comparison` — the same verdict over a whole stored
  campaign: reads the scenario-tagged per-rep rows a
  :class:`~repro.experiments.store.RunStore` (or
  :class:`~repro.experiments.harness.CampaignResult`) holds and reports
  paired statistics per scenario, so multi-scenario sweeps produce one
  honest table instead of eyeballed averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from repro.experiments.registry import SCHEDULERS
from repro.fault.montecarlo import monte_carlo_crashes
from repro.platform.instance import ProblemInstance
from repro.schedule.bounds import latency_upper_bound
from repro.schedule.metrics import normalized_latency
from repro.schedule.utilization import replication_traffic_share
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class ComparisonRow:
    """All headline metrics of one algorithm on one instance."""

    algorithm: str
    latency: float
    normalized: float
    upper_bound: float
    messages: int
    replication_share: float
    survival_rate: float  # under `crashes` sampled crash scenarios
    mean_crash_latency: float


def compare_algorithms(
    instance: ProblemInstance,
    epsilon: int,
    algorithms: Optional[Sequence[str]] = None,
    model: str = "oneport",
    crashes: int = 1,
    samples: int = 25,
    rng: RngLike = 0,
) -> list[ComparisonRow]:
    """Run each registered algorithm and collect the comparison metrics.

    The default list is every registered scheduler in name order, with
    ``heft`` skipped when ``epsilon > 0`` (it provides no fault
    tolerance) unless explicitly requested.  Crashes are sampled only
    for schedules replicated with ε > 0 (the schedule's own ε: ``heft``
    builds ε = 0 whatever ``epsilon`` is).
    """
    if algorithms is None:
        algorithms = [a for a in SCHEDULERS.names() if a != "heft" or epsilon == 0]
    rows = []
    for name in algorithms:
        sched = SCHEDULERS.get(name).runner(instance, epsilon, rng, model)
        eps = sched.epsilon
        if eps > 0 and crashes > 0:
            mc = monte_carlo_crashes(sched, min(crashes, eps), samples=samples, rng=rng)
            survival = mc.survival_rate
            crash_lat = mc.mean_latency
        else:
            survival = 1.0 if eps == 0 else float("nan")
            crash_lat = float("nan")
        rows.append(
            ComparisonRow(
                algorithm=name,
                latency=sched.latency(),
                normalized=normalized_latency(sched),
                upper_bound=latency_upper_bound(sched),
                messages=sched.message_count(),
                replication_share=replication_traffic_share(sched),
                survival_rate=survival,
                mean_crash_latency=crash_lat,
            )
        )
    return rows


def _rep_rows(source) -> list[dict]:
    """Normalize a rows source: a store, a campaign result, or raw rows."""
    if hasattr(source, "rep_rows"):
        return source.rep_rows()
    return list(source)


@dataclass(frozen=True)
class CampaignComparisonRow:
    """One algorithm × scenario line of a campaign comparison."""

    scenario: str
    algorithm: str
    n: int
    mean: float
    win_rate_vs_baseline: float  # NaN for the baseline row itself
    geomean_ratio_vs_baseline: float
    significant: bool


def campaign_comparison(
    source: Union[Sequence[Mapping], object],
    baseline: str = "caft",
    metric: str = "norm_latency",
) -> list[CampaignComparisonRow]:
    """Per-scenario paired comparison of every algorithm against ``baseline``.

    ``source`` is anything with ``rep_rows()`` (a ``RunStore``, a
    ``CampaignResult``) or the rows themselves.  Rows are paired on the
    shared random instances, so the win rates and ratios are the
    trustworthy kind even at small repetition counts.

    A source carrying the streaming-query surface (the columnar backend's
    ``scenario_algorithms``/``series_values``) is never flattened: the
    scenario/algorithm discovery and every per-scenario series run as
    pushed-down aggregate queries, so million-row campaigns compare in
    chunk-bounded memory.
    """
    from repro.experiments.stats import compare_reps, rep_series, summarize_series

    discover = getattr(source, "scenario_algorithms", None)
    if discover is not None:
        scenarios, algorithms = discover()
        # rep_series/compare_reps dispatch to the source's fast paths
        rows: Union[Sequence[Mapping], object] = source
    else:
        rows = _rep_rows(source)
        scenarios = {}
        algorithms = []
        for row in rows:
            key = "/".join(
                (row["config"], row["network"], row["topology"], row["policy"])
            )
            scenarios.setdefault(key, {k: row[k] for k in
                                       ("config", "network", "topology", "policy")})
            if row["algorithm"] not in algorithms:
                algorithms.append(row["algorithm"])
    out: list[CampaignComparisonRow] = []
    for key, where in sorted(scenarios.items()):
        for algo in algorithms:
            series = [
                v for v in rep_series(rows, algo, metric, where=where)
                if not math.isnan(v)
            ]
            stats = summarize_series(series)
            if algo == baseline:
                out.append(
                    CampaignComparisonRow(
                        key, algo, stats.n, stats.mean, math.nan, math.nan, False
                    )
                )
                continue
            paired = compare_reps(rows, algo, baseline, metric, where=where)
            out.append(
                CampaignComparisonRow(
                    scenario=key,
                    algorithm=algo,
                    n=stats.n,
                    mean=stats.mean,
                    win_rate_vs_baseline=paired.win_rate,
                    geomean_ratio_vs_baseline=paired.geomean_ratio,
                    significant=paired.significant,
                )
            )
    return out


def campaign_comparison_table(
    source: Union[Sequence[Mapping], object],
    baseline: str = "caft",
    metric: str = "norm_latency",
) -> str:
    """Render :func:`campaign_comparison` as an aligned ASCII table."""
    lines_rows = campaign_comparison(source, baseline=baseline, metric=metric)
    header = (
        f"{'scenario':38s} {'algorithm':12s} {'n':>4} {metric:>14} "
        f"{'win%':>6} {'ratio':>6} {'sig':>4}"
    )
    lines = [header, "-" * len(header)]
    for r in lines_rows:
        win = "  -  " if math.isnan(r.win_rate_vs_baseline) else (
            f"{100 * r.win_rate_vs_baseline:4.0f}%"
        )
        ratio = "  -  " if math.isnan(r.geomean_ratio_vs_baseline) else (
            f"{r.geomean_ratio_vs_baseline:6.3f}"
        )
        sig = "  * " if r.significant else "    "
        lines.append(
            f"{r.scenario:38s} {r.algorithm:12s} {r.n:>4d} {r.mean:>14.3f} "
            f"{win:>6} {ratio:>6} {sig}"
        )
    lines.append(f"(win%/ratio vs {baseline}; * = 95% CI excludes zero)")
    return "\n".join(lines)


def comparison_table(rows: Sequence[ComparisonRow]) -> str:
    """Render comparison rows as an aligned ASCII table."""
    header = (
        f"{'algorithm':12s} {'latency':>9} {'SLR':>6} {'bound':>9} "
        f"{'msgs':>6} {'repl%':>6} {'surv':>6} {'crash-lat':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.algorithm:12s} {r.latency:>9.1f} {r.normalized:>6.2f} "
            f"{r.upper_bound:>9.1f} {r.messages:>6d} "
            f"{100 * r.replication_share:>5.1f}% "
            f"{r.survival_rate:>6.1%} {r.mean_crash_latency:>10.1f}"
        )
    return "\n".join(lines)
