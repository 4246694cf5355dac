"""E15 — schedule-space search: PCT vs random schedules on a paper race.

Paper §5 reaches its two concurrency bugs (the vCPU load/init race and
the fragile concurrent host pagefault) with hand-pinned interleavings;
the schedule fuzzer instead *searches* the schedule space of a plain
multi-CPU trace. This bench prices that search: schedules/second, the
distinct interleaving classes each policy explores, and — the number
that matters — how often each policy's schedules strike the vCPU race
within the same budget. PCT's calibrated priority schedules concentrate
probability on the narrow publish-before-init window; uniformly random
switching almost never composes the full sequence of lucky choices.
"""

import time

from repro.arch.exceptions import HypervisorPanic
from repro.sim.explore import run_schedule
from repro.sim.sched import Scheduler
from repro.testing.campaign.concurrency import CONCURRENCY_SCENARIOS, calibrate
from benchmarks.conftest import report

SCHEDULES = 40
BUG = ("vcpu_load_race",)


def _fresh():
    trace = CONCURRENCY_SCENARIOS["vcpu-race"]()
    trace.bug_names = BUG
    return trace


def _sweep(policy: str, pct_steps: int, priority_tags: tuple[str, ...]):
    hits = 0
    classes = set()
    started = time.perf_counter()
    for seed in range(SCHEDULES):
        scheduler = Scheduler(
            policy=policy,
            seed=seed,
            pct_depth=3,
            pct_steps=pct_steps,
            priority_tags=priority_tags,
        )
        outcome = run_schedule(_fresh().spawn, scheduler)
        if isinstance(outcome.error, HypervisorPanic):
            hits += 1
        elif outcome.failed:
            raise outcome.error
        classes.add(outcome.interleaving_class)
    seconds = time.perf_counter() - started
    return hits, len(classes), SCHEDULES / seconds


def bench_pct_vs_random_report(benchmark):
    k, rare_tags = calibrate(_fresh())

    def sweeps():
        pct = _sweep("pct", k, rare_tags)
        rnd = _sweep("random", k, ())
        return pct, rnd

    (pct_hits, pct_classes, pct_rate), (
        rnd_hits,
        rnd_classes,
        rnd_rate,
    ) = benchmark.pedantic(sweeps, rounds=1, iterations=1)

    report(
        "E15",
        "the vCPU load/init race hides in a ~2-tick window the paper "
        "only reaches with a hand-pinned interleaving",
        f"over {SCHEDULES} schedules of the unsynchronised vcpu-race "
        f"trace: PCT (calibrated k={k}, rare-tag change points) strikes "
        f"the race {pct_hits}x and explores {pct_classes} interleaving "
        f"classes at {pct_rate:.1f} schedules/s; uniform random strikes "
        f"{rnd_hits}x over {rnd_classes} classes at {rnd_rate:.1f} "
        "schedules/s",
    )
    # PCT must actually find the race in this budget; random's hit rate
    # is an order of magnitude lower (usually zero here).
    assert pct_hits > 0
    assert pct_hits > rnd_hits
    # Both policies explore multiple distinct interleaving classes.
    # (PCT's are *fewer* by design — priority schedules are mostly solid
    # runs with d-1 deliberate switches, which is exactly why its
    # probability mass concentrates on schedules that matter.)
    assert pct_classes > 1
    assert rnd_classes > 1
