"""E17 — campaign-engine scaling: hypercalls/hour at 1 vs N workers.

The paper sustains its random tester for 24-hour campaigns (§5); the
campaign engine exists so such budgets amortise over worker processes.
This bench runs the same fixed-seed step budget single-worker inline and
multiprocess, and reports the speedup. The >=2.5x assertion only applies
on hosts with at least 4 cores — on smaller machines the numbers are
still reported, but fan-out cannot beat the core count.
"""

import os

import pytest

from repro.testing.campaign.engine import CampaignConfig, run_campaign
from benchmarks.conftest import report

BUDGET = 2400
BATCH = 300


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _config(workers: int, inline: bool) -> CampaignConfig:
    return CampaignConfig(
        workers=workers,
        budget=BUDGET,
        batch_steps=BATCH,
        seed=3,
        inline=inline,
        shrink=False,
        coverage="off",
    )


def bench_campaign_scaling_report(benchmark):
    workers = min(4, _cores())

    single = run_campaign(_config(workers=1, inline=True))

    def parallel():
        return run_campaign(_config(workers=workers, inline=(workers == 1)))

    multi = benchmark.pedantic(parallel, rounds=1, iterations=1)

    speedup = (
        multi.hypercalls_per_hour / single.hypercalls_per_hour
        if single.hypercalls_per_hour
        else 0.0
    )
    report(
        "E17",
        "campaigns sustained for 24h runs (~200k hypercalls/hour in QEMU)",
        f"1 worker: {single.hypercalls_per_hour:,.0f}/hr; "
        f"{workers} workers: {multi.hypercalls_per_hour:,.0f}/hr "
        f"({speedup:.2f}x on {_cores()} cores)",
    )
    assert single.findings == [] and multi.findings == []
    assert multi.total_steps == single.total_steps == BUDGET
    if _cores() >= 4 and workers >= 4:
        # The tentpole acceptance: real fan-out on a real multicore host.
        assert speedup >= 2.5, f"expected >=2.5x, measured {speedup:.2f}x"


@pytest.mark.benchmark(group="campaign")
def bench_campaign_single_worker_baseline(benchmark):
    stats = benchmark.pedantic(
        run_campaign,
        args=(_config(workers=1, inline=True),),
        rounds=1,
        iterations=1,
    )
    assert stats.total_steps == BUDGET
