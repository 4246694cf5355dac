"""E3/E10 — random-testing throughput and discrimination.

Paper §5: the model-guided random tester "completes about 200,000
hypercalls per hour" in QEMU on a Mac Mini M2, with the longest runs at 24
hours finding 9 specification errors in subtle error scenarios.

We measure hypercalls/hour of the same generator running against the
simulated machine with the oracle live, and demonstrate the discrimination
side: a seeded campaign against a buggy hypervisor reports a violation
within a bounded number of steps.
"""

import gc
import time

import pytest

from repro.arch.exceptions import HostCrash
from repro.ghost.checker import GhostChecker, SpecViolation
from repro.machine import Machine
from repro.pkvm.bugs import Bugs
from repro.testing.random_tester import RandomTester, run_campaign
from benchmarks.conftest import report


@pytest.mark.benchmark(group="random")
def bench_random_steps_with_oracle(benchmark):
    def campaign():
        return run_campaign(seed=11, steps=150)

    stats = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert stats.spec_violations == 0


def bench_random_throughput_report(benchmark):
    stats = benchmark.pedantic(
        run_campaign, kwargs={"seed": 0, "steps": 600}, rounds=1, iterations=1
    )
    report(
        "E3",
        "~200,000 hypercalls/hour (QEMU, Mac Mini M2)",
        f"{stats.hypercalls_per_hour:,.0f} hypercalls/hour "
        f"({stats.hypercalls} calls in {stats.seconds:.1f}s, oracle on; "
        f"{stats.ok_returns} ok / {stats.error_returns} errors / "
        f"{stats.rejected_crashy} crash-predicted steps rejected)",
    )
    # Shape: a tester viable for long campaigns (>= tens of thousands/hr).
    assert stats.hypercalls_per_hour > 10_000


def tenths(steps: int, seed: int) -> dict:
    """One checked machine living ``steps`` random steps: mean step and
    isolation-sweep cost (µs) in its first and last tenth, and the
    sweeps' share of the steps' wall time. The cycle collector is off
    while it runs, as under ``timeit``: a checked machine makes no cycles
    (``tests/integration/test_machine_lifetime.py``), and a collection
    would charge the whole process's heap to whichever step set it off."""
    step_ns: list[int] = []
    sweep_ns: list[tuple[int, int]] = []  # (step index, ns)
    check = GhostChecker._check_isolation

    def timed_sweep(checker):
        started = time.perf_counter_ns()
        try:
            check(checker)
        finally:
            sweep_ns.append((len(step_ns), time.perf_counter_ns() - started))

    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GhostChecker, "_check_isolation", timed_sweep)
            tester = RandomTester(Machine(), seed=seed)
            for _ in range(steps):
                started = time.perf_counter_ns()
                try:
                    tester.step()
                except HostCrash:
                    pass  # the model's rare misprediction; the machine lives on
                step_ns.append(time.perf_counter_ns() - started)
    finally:
        gc.enable()
    tenth = steps // 10

    def mean_us(values):
        return sum(values) / len(values) / 1000

    def sweeps(lo, hi):
        return mean_us([ns for step, ns in sweep_ns if lo <= step < hi])

    return {
        "step_first": mean_us(step_ns[:tenth]),
        "step_last": mean_us(step_ns[-tenth:]),
        "sweep_first": sweeps(0, tenth),
        "sweep_last": sweeps(steps - tenth, steps),
        "sweep_share": sum(ns for _, ns in sweep_ns) / sum(step_ns),
    }


def bench_long_lived_machine_report(benchmark):
    """E3 over a machine's life: the §3.1 sweep re-checks only what
    moved, so a sweep late in a 3,000-step life costs at most twice one
    early in it."""
    runs = benchmark.pedantic(
        lambda: {
            (steps, seed): tenths(steps, seed)
            for steps in (600, 3000)
            for seed in (1, 2)
        },
        rounds=1,
        iterations=1,
    )
    report(
        "E3",
        "long campaigns viable (24 h runs)",
        "; ".join(
            f"{steps:,} steps, seed {seed}: step {r['step_first']:.0f} -> "
            f"{r['step_last']:.0f} us, sweep {r['sweep_first']:.0f} -> "
            f"{r['sweep_last']:.0f} us (first -> last tenth), sweeps "
            f"{r['sweep_share']:.0%} of wall"
            for (steps, seed), r in runs.items()
        ),
    )
    for (steps, _seed), r in runs.items():
        if steps == 3000:
            assert r["sweep_last"] <= 2 * r["sweep_first"]


def bench_random_discrimination_report(benchmark):
    """E10's shape: long random runs expose disagreements. Against an
    injected bug, the campaign must find the violation quickly."""
    def hunt():
        machine = Machine(bugs=Bugs.single("synth_share_wrong_state"))
        tester = RandomTester(machine, seed=0)
        try:
            tester.run(500)
        except SpecViolation:
            return tester.stats.steps
        return None

    detected_at = benchmark.pedantic(hunt, rounds=1, iterations=1)
    report(
        "E10",
        "random testing found 9 spec/impl disagreements in subtle error scenarios",
        f"injected-bug campaign: disagreement detected after "
        f"{detected_at} random steps",
    )
    assert detected_at is not None and detected_at < 500
