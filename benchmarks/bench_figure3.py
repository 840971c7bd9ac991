"""Regenerates paper Figure 3: sweep A (0.2..2.0), m=20, eps=5, 3 crashes.

Panels (a) normalized latency + upper bounds + fault-free references,
(b) latency with 0 vs c crashes, (c) average overhead (%), plus message
counts.  Series are printed in the paper's layout and written to
results/figure3.csv.
"""

from benchmarks.conftest import figure_bench


def test_figure_3(benchmark):
    figure_bench(benchmark, 3)
