"""Lockstep A/B: the same perfbench units through two checkouts, interleaved.

Usage (from any directory)::

    python benchmarks/ab_lockstep.py PARENT_TREE CHANGE_TREE \\
        --workload paper-slice --seed 1 --units 24

One worker process per tree imports that tree's ``src/`` and its
perfbench workload plans (read-only: nothing under ``perfbench/`` is
changed or patched), draws the workload's seeded unit stream, and runs
one set-up warm-up unit.  The controller then asks both workers for the
next unit in turn, alternating which side goes first, so the two sides
run identical units at nearly the same moment and a slow phase of the
machine hits both alike.  Each worker times ``run_rep`` alone (no speed
probe, no result checks in the timed window) and reports the unit's row
digest and the placement kernels' counters (``kernel_stats()`` summed
over every schedule the unit built).

The report gives both sides' total seconds, the change ÷ parent ratio
of the totals, the median and quartiles of the per-unit ratios, and
whether the row digests and the kernel counters (same rows evaluated,
same rows pruned) matched on every unit.  Only the serial workloads
(``paper-slice``, ``online-stream``, ``contention-m40``) are supported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: the kernel counters compared across the two sides
COUNTERS = (
    "cache_hits",
    "cache_misses",
    "bound_rows",
    "pruned_rows",
    "urgency_tasks",
    "urgency_pruned",
    "urgency_fallbacks",
)


def worker(tree: str, workload: str, seed: int) -> None:
    """Serve units of ``workload`` from ``tree`` over stdin/stdout."""
    root = Path(tree).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from repro.experiments.harness import run_rep
    from repro.schedule.schedule import ScheduleBuilder

    counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
    finish = ScheduleBuilder.finish

    def counted_finish(builder):
        stats = builder.kernel_stats()
        if stats is not None:
            for key in COUNTERS:
                counters[key] += stats.get(key, 0)
        return finish(builder)

    ScheduleBuilder.finish = counted_finish
    work = workloads.make(workload, root)
    if not hasattr(work, "plan") or not hasattr(work, "check"):
        raise SystemExit(f"{workload}: only serial workloads run in lockstep")
    _configs, units = work.plan(seed)
    work.warmup()
    for _line in sys.stdin:
        unit = next(units)
        counters.update(dict.fromkeys(COUNTERS, 0))
        t0 = time.perf_counter()
        result = run_rep(unit.config, unit.granularity, unit.rep)
        dt = time.perf_counter() - t0
        value, _problems = work.check(unit, result)
        label = f"{unit.stratum}|g={unit.granularity!r}|rep={unit.rep}"
        print(json.dumps({"s": dt, "digest": value, "label": label, "kernel": counters}),
              flush=True)


class Side:
    """One worker process over one tree."""

    def __init__(self, tree: str, workload: str, seed: int) -> None:
        self.tree = tree
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", tree, "--workload", workload,
             "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def unit(self) -> dict:
        self.proc.stdin.write("next\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker for {self.tree} exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def lockstep(parent: str, change: str, workload: str, seed: int, units: int,
             verbose: bool = False) -> dict:
    sides = [Side(parent, workload, seed), Side(change, workload, seed)]
    rows = []
    try:
        for i in range(units):
            got = [None, None]
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                got[s] = sides[s].unit()
            rows.append(got)
            if verbose:
                a, b = got
                print(f"  {i:3d} {a['label']:<40} {a['s']:8.3f} {b['s']:8.3f} "
                      f"{b['s'] / a['s']:6.3f}", flush=True)
    finally:
        for side in sides:
            side.close()
    total_a = sum(a["s"] for a, _b in rows)
    total_b = sum(b["s"] for _a, b in rows)
    ratios = [b["s"] / a["s"] for a, b in rows]
    q1, med, q3 = quartiles(ratios)
    return {
        "workload": workload,
        "seed": seed,
        "units": len(rows),
        "parent_s": total_a,
        "change_s": total_b,
        "total_ratio": total_b / total_a,
        "unit_ratio_q1": q1,
        "unit_ratio_median": med,
        "unit_ratio_q3": q3,
        "digests_equal": sum(a["digest"] == b["digest"] for a, b in rows),
        "kernel_equal": sum(a["kernel"] == b["kernel"] for a, b in rows),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", help="PARENT_TREE CHANGE_TREE")
    ap.add_argument("--workload", default="paper-slice")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--units", type=int, default=24)
    ap.add_argument("--verbose", action="store_true", help="print every unit")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload, args.seed)
        return 0
    if len(args.trees) != 2:
        ap.error("give two checkouts: PARENT_TREE CHANGE_TREE")
    out = lockstep(*args.trees, args.workload, args.seed, args.units, args.verbose)
    print(
        f"{out['workload']} seed {out['seed']}: {out['units']} units  "
        f"parent {out['parent_s']:.2f} s  change {out['change_s']:.2f} s  "
        f"change/parent {out['total_ratio']:.3f}  per-unit median "
        f"{out['unit_ratio_median']:.3f} (q1 {out['unit_ratio_q1']:.3f}, "
        f"q3 {out['unit_ratio_q3']:.3f})  digests equal {out['digests_equal']}/"
        f"{out['units']}  kernel counters equal {out['kernel_equal']}/{out['units']}"
    )
    print(json.dumps(out))
    return 0 if out["digests_equal"] == out["units"] else 1


if __name__ == "__main__":
    sys.exit(main())
