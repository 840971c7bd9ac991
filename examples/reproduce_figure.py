"""Regenerate a paper figure from the library API (miniature scale).

The full campaigns live in ``benchmarks/bench_figure*.py`` and the CLI
(``repro-ftsched figure N``); this example shows the same machinery
driven programmatically: each figure ships as a campaign spec
(``repro/experiments/specs/figure<N>.json``), which is loaded, shrunk
with an override, and run through the :class:`Campaign` facade.  It
prints panel (c) — the average overhead comparison that carries the
paper's headline claim — and verifies the qualitative shape.

Run:  python examples/reproduce_figure.py [figure-number] [graphs-per-point]
"""

import sys

from repro.experiments import Campaign, apply_overrides, figure_spec
from repro.experiments.figures import check_shape
from repro.experiments.report import panel_c, write_csv


def main() -> None:
    number = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    graphs = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    print(f"running figure {number} with {graphs} random graphs per point ...")
    spec = apply_overrides(figure_spec(number), {"graphs": graphs})
    result = Campaign(spec).run().result()

    print()
    print(panel_c(result))
    path = write_csv(result, f"results/figure{number}_example.csv")
    print(f"full series written to {path}")

    shape = check_shape(result)
    if shape.ok:
        print("qualitative shape of the paper's figure reproduced ✓")
    else:
        print(f"shape checks failed: {shape.failed()} (try more graphs per point)")


if __name__ == "__main__":
    main()
