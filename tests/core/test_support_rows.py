"""CAFT's support rounds: candidate supports never meet the locked set.

:func:`repro.core.one_to_one.fit_support` compares a candidate's support
with the budget by its plain size and sorts the heads once, because
:func:`support_pools` admits only replicas whose support misses the
locked set and every candidate processor is unlocked.  This test checks
that invariant at every support round, on hypothesis-drawn instances
and ε, and that the rows ``(proc, heads, support)`` equal those of the
demotion loop the helper replaced, kept here as the reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import one_to_one
from repro.core.caft import caft
from tests.conftest import make_instance


def reference_rows(builder, task, state, remaining_after):
    """The support round's rows as the demotion loop computed them."""
    m = builder.instance.num_procs
    unlocked = m - len(state.locked)
    budget = max(1, unlocked // (remaining_after + 1))
    procs = [proc for proc in range(m) if proc not in state.locked]
    rows = []
    for proc, heads in zip(
        procs, one_to_one._candidate_heads(builder, task, procs, state.pools)
    ):
        while True:
            support = frozenset({proc}).union(*(h.support for h in heads.values())) \
                if heads else frozenset({proc})
            if len(support - state.locked) <= budget or not heads:
                break
            widest = max(heads, key=lambda p: (len(heads[p].support), p))
            del heads[widest]
        if m - len(state.locked | support) < remaining_after:
            continue
        rows.append((proc, heads, support))
    return rows


def _rows(rows):
    return [(proc, list(heads.items()), support) for proc, heads, support in rows]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    num_tasks=st.integers(5, 16),
    num_procs=st.integers(3, 8),
    epsilon=st.integers(0, 4),
    fast=st.booleans(),
)
def test_candidate_supports_miss_the_locked_set(seed, num_tasks, num_procs, epsilon, fast):
    if epsilon + 1 > num_procs:
        epsilon = num_procs - 1
    inst = make_instance(num_tasks, num_procs, granularity=0.5, seed=seed)
    original = one_to_one.support_rows
    rounds = []

    def checked(builder, task, state, remaining_after):
        locked = set(state.locked)
        procs = [p for p in range(builder.instance.num_procs) if p not in locked]
        for proc, heads in zip(
            procs, one_to_one._candidate_heads(builder, task, procs, state.pools)
        ):
            support = frozenset({proc}).union(*(h.support for h in heads.values()))
            assert not support & locked, (task, proc, support, locked)
        expected = _rows(reference_rows(builder, task, state, remaining_after))
        rows = original(builder, task, state, remaining_after)
        assert _rows(rows) == expected
        assert state.locked == locked
        rounds.append(len(rows))
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(one_to_one, "support_rows", checked)
        caft(inst, epsilon, rng=seed, fast=fast)
    assert len(rounds) == num_tasks * (epsilon + 1)
