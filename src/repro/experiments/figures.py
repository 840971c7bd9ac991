"""Shape checking: the paper's §6 findings, asserted on a campaign result.

The figures themselves ship as campaign specs
(``repro/experiments/specs/figure*.json``, loaded by
:func:`repro.experiments.api.figure_spec`) and run through
:class:`repro.experiments.api.Campaign`; :func:`check_shape` asserts the
qualitative findings of §6 hold on the result (who wins, how overheads
order, bounds sanity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.harness import CampaignResult


@dataclass
class ShapeReport:
    """Outcome of the qualitative checks mirroring §6's findings."""

    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed(self) -> list[str]:
        return [name for name, passed in self.checks.items() if not passed]


def check_shape(result: CampaignResult, reference: str = "caft-paper") -> ShapeReport:
    """Verify the paper's qualitative findings on a campaign result.

    ``reference`` names the CAFT variant expected to reproduce the paper's
    curves (the literal ``caft-paper`` by default; see EXPERIMENTS.md for
    the robust variant's behaviour).  Checks are on sweep-averaged values
    so single noisy points don't flip them.
    """

    def avg(col: str) -> float:
        return float(np.nanmean(result.series(col)))

    checks = {
        # (1) CAFT beats FTSA — the primary competitor — on latency and
        # overhead with 0 crash (paper §6 headline).
        "caft_beats_ftsa_latency": avg(f"{reference}_latency0") < avg("ftsa_latency0"),
        "caft_overhead_below_ftsa": avg(f"{reference}_overhead0")
        < avg("ftsa_overhead0"),
        # (2) FTBAR: the paper reports CAFT strictly better; our FTBAR
        # reimplementation (schedule pressure without the Ahmad–Kwok
        # duplication pass) turns out *stronger* than the paper's at coarse
        # grain, so the reproduction only requires CAFT within 25% of it on
        # the sweep average (EXPERIMENTS.md, finding 3).
        "caft_within_1p25x_ftbar": avg(f"{reference}_latency0")
        < 1.25 * avg("ftbar_latency0"),
        # (3) CAFT sends fewer messages than FTSA and FTBAR.
        "caft_fewest_messages": avg(f"{reference}_messages")
        < min(avg("ftsa_messages"), avg("ftbar_messages")),
        # (4) Upper bounds dominate the 0-crash latencies.
        "bounds_consistent": all(
            avg(f"{a}_upper") >= avg(f"{a}_latency0") - 1e-9
            for a in result.config.algorithms
        ),
        # (5) Latencies sit above the fault-free references.
        "ft_above_faultfree": avg(f"{reference}_latency0")
        >= avg(f"faultfree_{reference}") - 1e-9,
    }
    # (6) Crash latencies are compared on the *robust* variant — the
    # literal caft-paper column is a survivor-only mean (it loses most
    # crash replays, the reproduction's headline finding).  The strict
    # "CAFT beats FTSA under crashes" holds while the platform has slack;
    # in the saturated regime (ε+1 within a factor ~3 of m) the provably
    # robust variant pays a disjointness tax and we only require it to
    # stay within 1.6x of FTSA (EXPERIMENTS.md discusses the trade-off).
    pressure = result.config.num_procs / (result.config.epsilon + 1)
    if pressure >= 4.0:
        checks["caft_beats_ftsa_crash"] = avg("caft_crash") < avg("ftsa_crash")
    else:
        checks["caft_crash_within_1p6x_ftsa"] = (
            avg("caft_crash") < 1.6 * avg("ftsa_crash")
        )
    return ShapeReport(checks=checks)
