"""The repository benchmark: one command, four seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-slice --seed 3 --seconds 20 --trace 0

prints a table of every metric with its unit and sample count, then, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Other modes:

* ``--steady N`` runs each named workload (or ``all``) N times with
  seeds ``--seed`` .. ``--seed + N - 1`` in fresh processes and prints
  every metric's median, quartiles and relative spread against its
  bound; ``--steady-trace`` adds one traced run per workload and reports
  the tracing overhead.
* ``--crosscheck`` times one full figure-1 granularity column beside the
  projection the paper slice makes for it.
* ``--make-reference`` regenerates ``reference.json``, the row digests
  of the reference seed.

See README.md for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench"

#: requests per workload pinned in reference.json (units; jobs for churn)
REFERENCE_COUNTS = {
    "paper-slice": 120,
    "online-stream": 120,
    "contention-m40": 120,
    "service-churn": 60,
}
ALGORITHMS = ("caft", "caft-paper", "ftsa", "ftbar")
PER_LAYER_BUSY = (
    "instance",
    "critical_path",
    "bounds",
    "replay",
    "arrivals",
    "online.schedule_job",
    "online.dedicated",
    "online.crash",
    "service.submit",
    "service.status",
    "wire.decode",
    "store.append",
)
PER_LAYER_CALLS = ("replay", "online.schedule_job", "online.dedicated", "store.append")


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else {}


# ------------------------------------------------------------ metrics
def end_to_end(outcome) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (outcome.setup_s, "s"),
        "units_per_s": (outcome.units / outcome.wall_s, "1/s"),
        "latency_s_p50": (outcome.latency_p50, "s"),
        "eta_s": (outcome.eta_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, outcome, online: bool) -> dict[str, tuple[float, str]]:
    from spans import KERNEL_FAMILIES, NAME, layer_rollup, self_times, unit_coverage

    roll = layer_rollup(tracer.spans)
    n = max(1, outcome.tally.attempted)

    def busy(name: str) -> float:
        return roll.get(name, {}).get("busy_s", 0.0) / n

    def calls(name: str) -> float:
        return roll.get(name, {}).get("calls", 0) / n

    m: dict[str, tuple[float, str]] = {}
    for kind in ("eps_run", "faultfree"):
        for algo in ALGORITHMS:
            m[f"{kind}.{algo}.busy_s"] = (busy(f"{kind}.{algo}"), "s/req")
        m[f"{kind}.calls"] = (sum(calls(f"{kind}.{a}") for a in ALGORITHMS), "1/req")
    hits = tracer.kernel_total("cache_hits")
    misses = tracer.kernel_total("cache_misses")
    m["kernel.cache_hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["kernel.cache_misses"] = (misses / n, "1/req")
    for key in ("batch_rows", "scalar_rows"):
        m[f"kernel.{key}"] = (tracer.kernel_total(key) / n, "1/req")
        for family in KERNEL_FAMILIES:
            m[f"kernel.{family}.{key}"] = (tracer.kernel[family][key] / n, "1/req")
    for name in PER_LAYER_BUSY:
        m[f"{name}.busy_s"] = (busy(name), "s/req")
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (calls(name), "1/req")
    m["replay.failed"] = (tracer.replay_failed / n, "1/req")
    other = 0.0
    if online:
        selfs = self_times(tracer.spans)
        other = sum(selfs[i] for i, s in enumerate(tracer.spans) if s[NAME] == "unit") / 1e9 / n
    m["online.other_s"] = (other, "s/req")
    layer = outcome.layer
    duplicates = tracer.store_duplicates + layer.get("store.replayed_rows", 0)
    stored = layer.get("store.stored", 0)
    m["store.duplicates"] = (duplicates / n, "1/req")
    m["store.useful_ratio"] = (stored / (stored + duplicates) if stored else 1.0, "ratio")
    for name in ("query.open_s", "query.aggregate_s", "report.render_s"):
        m[name] = (layer.get(name, 0.0), "s/req")
    m["trace.units_per_s"] = (outcome.units / outcome.wall_s, "1/s")
    m["trace.coverage"] = (unit_coverage(tracer.spans, "unit"), "ratio")
    return m


# ------------------------------------------------------------ printing
def print_metrics(title: str, metrics: dict[str, tuple[float, str]], samples: dict) -> None:
    print(f"\n{title}")
    for name, (value, unit) in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<32} {value:>14.6g} {unit:<6}{note}")


def print_layer_table(tracer, outcome) -> None:
    from spans import layer_rollup

    roll = layer_rollup(tracer.spans)
    unit_wall = roll.get("unit", {}).get("busy_s", 0.0) or 1.0
    print(f"\nper-layer spans (requests={outcome.tally.attempted})")
    print(f"  {'layer':<26} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'busy/unit wall':>15}")
    for name, row in sorted(roll.items(), key=lambda kv: -kv[1]["busy_s"]):
        print(
            f"  {name:<26} {row['calls']:>8} {row['busy_s']:>10.3f} "
            f"{row['self_s']:>10.3f} {row['busy_s'] / unit_wall:>15.1%}"
        )
    print("  kernel rows by evaluator family:")
    for family, counters in tracer.kernel.items():
        print(f"    {family:<10} " + "  ".join(f"{k}={v}" for k, v in counters.items()))


# ------------------------------------------------------------ modes
def load_reference(workload: str, seed: int) -> list[str] | None:
    from workloads import REFERENCE_SEED

    if seed != REFERENCE_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload)


def run_once(args, workdir: Path) -> int:
    import workloads
    from spans import Tracer
    from stats import MIN_BEYOND, supported_percentile, tail_percentile

    workload = workloads.make(args.workload, workdir)
    reference = load_reference(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    outcome = workload.run(args.seed, args.seconds, tracer, reference)

    tally = outcome.tally
    e2e = end_to_end(outcome)
    samples = {"latency_s_p50": len(outcome.latencies)}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print_metrics("end-to-end (timings in reference-machine seconds)", e2e, samples)
    if supported_percentile(outcome.latencies, 50) is None:
        print(f"  WARNING: latency_s_p50 has fewer than {MIN_BEYOND} samples beyond it")
    extras = dict(outcome.extras)
    tail = tail_percentile(outcome.latencies)
    if tail is not None:
        extras[f"latency_s_p{tail[0]}"] = (tail[1], "s")
    extras["failed_frac"] = (tally.failed_frac, "ratio")
    extras["speed_p50"] = (statistics.median(outcome.speeds), "ratio")
    extras["measured_units_per_s"] = (outcome.units / outcome.measured_wall_s, "1/s")
    print_metrics("workload extras (not in BENCHMARK.json)", extras, {})
    for reason in tally.reasons[:20]:
        print(f"  FAILED {reason}")

    if tracer is not None:
        metrics = per_layer(tracer, outcome, getattr(workload, "online", False))
        print_layer_table(tracer, outcome)
        print_metrics("per-layer", metrics, {})
        spans_path = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"\nspans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = e2e
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and tally.attempted > 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def make_reference(args, workdir: Path) -> int:
    import workloads

    out = {"seed": workloads.REFERENCE_SEED, "workloads": {}}
    for name in workloads.NAMES:
        workload = workloads.make(name, workdir)
        t0 = time.perf_counter()
        outcome = workload.run(
            workloads.REFERENCE_SEED, float("inf"), max_units=REFERENCE_COUNTS[name]
        )
        if outcome.tally.failed:
            print("\n".join(outcome.tally.reasons), file=sys.stderr)
            return 1
        out["workloads"][name] = outcome.digests
        print(f"{name}: {len(outcome.digests)} digests in {time.perf_counter() - t0:.1f}s")
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def crosscheck(args, workdir: Path) -> int:
    """One full figure-1 column, timed beside the slice's projection."""
    from dataclasses import replace

    import workloads
    from repro.experiments.api import Campaign, figure_spec

    slice_run = workloads.make("paper-slice", workdir).run(args.seed, args.seconds)
    fig1 = slice_run.strata["figure1"]
    projected = sum(fig1) / len(fig1) * 60
    spec = figure_spec(1)
    g = spec.base_config().granularities[4]
    spec = replace(spec, config=replace(spec.base_config(), granularities=(g,)))
    t0 = time.perf_counter()
    Campaign(spec).run()
    measured = time.perf_counter() - t0
    print(
        f"figure 1, g={g}, 60 graphs: measured {measured:.1f}s; projected from "
        f"{len(fig1)} slice units {projected:.1f}s ({projected / measured - 1:+.1%}); "
        f"slice eta_s {slice_run.eta_s:.0f}s"
    )
    return 0


def steady(args) -> int:
    from stats import spread

    from workloads import NAMES

    bench = load_benchmark()
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}
    names = NAMES if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        failed = 0
        runs = [(seed, 0) for seed in range(args.seed, args.seed + args.steady)]
        if args.steady_trace:
            runs.append((args.seed, 1))
        traced = None
        for seed, trace in runs:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                ok = False
                continue
            result = json.loads(last)
            failed += result["failed"]
            if trace:
                traced = result["metrics"]["trace.units_per_s"]["value"]
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"\n{name}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}, failed {failed}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric, vals in values.items():
            if len(vals) < 2:
                continue
            median, q1, q3, rel = spread(vals)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and rel > bound / 3:
                flag = "  <-- above bound/3"
            print(f"  {metric:<16} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.2%} {bound!s:>6}{flag}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
        if traced is not None and "units_per_s" in values:
            base = sorted(values["units_per_s"])[len(values["units_per_s"]) // 2]
            print(f"  tracing overhead: traced units_per_s {traced:.4g} vs untraced median {base:.4g} ({1 - traced / base:+.1%})")
        ok = ok and failed == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper-slice")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    parser.add_argument("--steady-trace", action="store_true")
    parser.add_argument("--crosscheck", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.steady:
        return steady(args)
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.make_reference:
            return make_reference(args, workdir)
        if args.crosscheck:
            return crosscheck(args, workdir)
        return run_once(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
