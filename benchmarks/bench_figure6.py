"""Regenerates paper Figure 6: sweep B (1..10), m=20, eps=5, 3 crashes.

Panels (a) normalized latency + upper bounds + fault-free references,
(b) latency with 0 vs c crashes, (c) average overhead (%), plus message
counts.  Series are printed in the paper's layout and written to
results/figure6.csv.
"""

from benchmarks.conftest import figure_bench


def test_figure_6(benchmark):
    figure_bench(benchmark, 6)
