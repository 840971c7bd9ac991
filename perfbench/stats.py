"""Metric math shared by the benchmark, its steadiness mode and its tests."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

#: percentiles a timing may be reported at, lowest first
PERCENTILES = (50, 75, 90, 95, 99)
#: a percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """0-based nearest-rank index of percentile ``q`` among ``n`` samples."""
    return max(0, math.ceil(q / 100.0 * n) - 1)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n - 1 - rank(n, q) if n else 0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a measured sample, never interpolated)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q)]


def supported_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """``percentile`` when at least :data:`MIN_BEYOND` samples lie
    beyond it, else ``None``."""
    if beyond(len(samples), q) < MIN_BEYOND:
        return None
    return percentile(samples, q)


def tail_percentile(samples: Sequence[float]) -> Optional[tuple[int, float]]:
    """The highest of :data:`PERCENTILES` the samples support, as
    ``(q, value)``; ``None`` when even the median is unsupported."""
    best = None
    for q in PERCENTILES:
        value = supported_percentile(samples, q)
        if value is not None:
            best = (q, value)
    return best


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` the way the acceptance
    check computes it (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else math.inf


@dataclass
class Tally:
    """Attempted and failed requests.  A request fails when its output
    differs from the reference, it raises, or it misses its deadline."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problems: Sequence[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(f"{label}: {p}" for p in problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
