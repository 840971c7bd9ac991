"""Regenerates paper Figure 5: sweep B (1..10), m=10, eps=3, 2 crashes.

Panels (a) normalized latency + upper bounds + fault-free references,
(b) latency with 0 vs c crashes, (c) average overhead (%), plus message
counts.  Series are printed in the paper's layout and written to
results/figure5.csv.
"""

from benchmarks.conftest import figure_bench


def test_figure_5(benchmark):
    figure_bench(benchmark, 5)
