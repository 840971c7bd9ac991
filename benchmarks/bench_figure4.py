"""Regenerates paper Figure 4: sweep B (1..10), m=10, eps=1, 1 crash.

Panels (a) normalized latency + upper bounds + fault-free references,
(b) latency with 0 vs c crashes, (c) average overhead (%), plus message
counts.  Series are printed in the paper's layout and written to
results/figure4.csv.
"""

from benchmarks.conftest import figure_bench


def test_figure_4(benchmark):
    figure_bench(benchmark, 4)
