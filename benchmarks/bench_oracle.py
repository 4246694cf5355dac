"""E13 — incremental-oracle speedup over the full-recompute pipeline.

The paper pays its 3.2× boot / 11.5× suite overhead by re-running
abstraction functions over whole page-table trees at every handler
check. This repository's incremental oracle (write journal +
footprint-invalidated abstraction cache + word-diff re-interpretation,
``docs/ORACLE.md``) amortises that: the claim measured here is that the
*checked* handwritten suite runs ≥ 3× faster with the cache than on the
pre-refactor full-recompute path (``oracle_cache=False``), with
identical verdicts, and that paranoid mode — which recomputes every
cached result from scratch and asserts equality — passes over the whole
suite.

Every measurement also lands in ``BENCH_oracle.json`` (repo root), which
CI uploads as a workflow artifact.
"""

import json
import time
from pathlib import Path

import pytest

from repro.machine import Machine
from repro.testing.handwritten import ALL_TESTS
from repro.testing.harness import run_tests
from repro.testing.random_tester import RandomTester
from benchmarks.conftest import report

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_oracle.json"


def _merge_results(update: dict) -> None:
    data = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            data = {}
    data.update(update)
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _run_suite(**kwargs) -> float:
    start = time.perf_counter()
    results = run_tests(ALL_TESTS, **kwargs)
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in results)
    return elapsed


def bench_oracle_suite_speedup(benchmark):
    """The headline: checked handwritten suite, cache on vs cache off."""

    def measure():
        off = _run_suite(oracle_cache=False)
        on = _run_suite(oracle_cache=True)
        return on, off

    on, off = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = off / on if on else float("inf")
    report(
        "E13",
        "incremental oracle amortises the 11.5x suite overhead "
        "(target: >= 3x faster than full recompute)",
        f"checked suite {speedup:.1f}x faster with the cache "
        f"({off:.2f}s full-recompute -> {on:.2f}s incremental, "
        f"{len(ALL_TESTS)} tests)",
    )
    _merge_results(
        {
            "suite_seconds_cache_off": round(off, 4),
            "suite_seconds_cache_on": round(on, 4),
            "suite_speedup": round(speedup, 2),
            "suite_tests": len(ALL_TESTS),
        }
    )
    assert speedup >= 3.0, (
        f"incremental oracle speedup {speedup:.2f}x below the 3x bar"
    )


def bench_oracle_checked_boot(benchmark):
    """Boot with the oracle off / on-incremental / on-full-recompute."""

    def boot(ghost, **kwargs):
        start = time.perf_counter()
        Machine(ghost=ghost, **kwargs)
        return time.perf_counter() - start

    def measure():
        return (
            boot(False),
            boot(True, oracle_cache=True),
            boot(True, oracle_cache=False),
        )

    unchecked, cached, uncached = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    report(
        "E13",
        "checked boot stays a small-integer factor over unchecked",
        f"boot unchecked {unchecked * 1000:.1f}ms, checked+cache "
        f"{cached * 1000:.1f}ms, checked full-recompute "
        f"{uncached * 1000:.1f}ms",
    )
    _merge_results(
        {
            "boot_seconds_unchecked": round(unchecked, 4),
            "boot_seconds_checked_cache_on": round(cached, 4),
            "boot_seconds_checked_cache_off": round(uncached, 4),
        }
    )
    assert cached <= uncached * 1.5  # the cache never makes boot slower


def bench_oracle_campaign_throughput(benchmark):
    """Random-campaign hypercalls/hour, cache off vs on (paper: ~200k/h;
    throughput is the whole point of making the oracle incremental)."""
    steps = 600

    def campaign(oracle_cache):
        machine = Machine(oracle_cache=oracle_cache)
        tester = RandomTester(machine, seed=13)
        start = time.perf_counter()
        tester.run(steps)
        elapsed = time.perf_counter() - start
        calls = tester.stats.hypercalls
        return calls * 3600.0 / elapsed, machine.obs.metrics

    def measure():
        off, _ = campaign(False)
        on, metrics = campaign(True)
        return off, on, metrics

    off, on, metrics = benchmark.pedantic(measure, rounds=1, iterations=1)
    hits = metrics.value("oracle_cache_hits")
    misses = metrics.value("oracle_cache_misses")
    sweeps_skipped = metrics.value("oracle_isolation_sweeps_skipped")
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    report(
        "E13",
        "campaign throughput ~200k hypercalls/hour with the oracle live",
        f"campaign {on:,.0f} hypercalls/hour incremental vs "
        f"{off:,.0f} full-recompute ({on / off:.1f}x); "
        f"cache hit rate {hit_rate:.0%} "
        f"({hits} hits / {misses} misses / "
        f"{metrics.value('oracle_cache_invalidations')} invalidations, "
        f"{sweeps_skipped} isolation sweeps skipped)",
    )
    _merge_results(
        {
            "campaign_hypercalls_per_hour_cache_off": round(off),
            "campaign_hypercalls_per_hour_cache_on": round(on),
            "campaign_steps": steps,
            "oracle_cache_stats": {
                m.name: m.value for m in metrics if m.name.startswith("oracle_cache_")
            },
            "isolation_sweeps_skipped": sweeps_skipped,
        }
    )
    assert on > off


def bench_oracle_paranoid_suite(benchmark):
    """Correctness bar: paranoid mode (recompute every cached abstraction
    from scratch, assert equality) passes the full handwritten suite."""

    def measure():
        return _run_suite(oracle_cache=True, paranoid=True)

    elapsed = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "E13",
        "paranoid recompute-and-compare agrees with the incremental "
        "oracle across the suite",
        f"paranoid suite passed in {elapsed:.2f}s "
        f"({len(ALL_TESTS)} tests, every cache decision double-checked)",
    )
    _merge_results({"paranoid_suite_seconds": round(elapsed, 4)})
