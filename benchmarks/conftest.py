"""Shared helpers for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper's evaluation
(Section 4) and asserts its *shape*: who wins, direction of trends,
rough factors.  Absolute numbers differ (MiniDB is a Python simulator,
not the authors' 64-core testbed); EXPERIMENTS.md records both.

Budgets are laptop-scale: every benchmark runs in tens of seconds, not
the paper's 24 hours.  ``benchmark.pedantic(..., rounds=1)`` is used
because a campaign is a long-running measured unit, not a microbench.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark accounting."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_interleaved(campaigns, slices, *, n_tests, after_slice=None):
    """Run every :class:`repro.Campaign` in *campaigns* (a dict) to
    *n_tests* tests in *slices* round-robin slices; returns
    ``{key: stats}``.  ``after_slice(key, stats, seconds)``, if given,
    sees each campaign after each of its slices, with its wall time so
    far.

    A shared machine's speed can drift 2x within a minute.  Campaigns
    run one after another each meet a different spell, so comparing
    their wall-clock rates can measure the drift instead of the
    campaigns; short interleaved slices spread every spell over all of
    them alike, and every other round runs in reverse order so a
    change of speed within a round evens out too.  ``wall_seconds`` is
    the sum over the slices.  Each slice starts on a new database
    state, so the deterministic columns (plans, coverage) differ from
    one uninterrupted campaign's.
    """
    wall = dict.fromkeys(campaigns, 0.0)
    order = list(campaigns.items())
    for i in range(1, slices + 1):
        for key, campaign in order:
            stats = campaign.run(n_tests=n_tests * i // slices)
            wall[key] += stats.wall_seconds
            if after_slice is not None:
                after_slice(key, stats, wall[key])
        order.reverse()
    for key, campaign in campaigns.items():
        campaign.stats.wall_seconds = wall[key]
    return {key: campaign.stats for key, campaign in campaigns.items()}


@pytest.fixture
def oracle_factories():
    from repro import CoddTestOracle, DQEOracle, NoRECOracle, TLPOracle

    return {
        "coddtest": lambda: CoddTestOracle(),
        "norec": lambda: NoRECOracle(),
        "tlp": lambda: TLPOracle(),
        "dqe": lambda: DQEOracle(),
    }
