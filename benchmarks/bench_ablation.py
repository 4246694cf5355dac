"""Ablations of the design decisions DESIGN.md calls out.

A1 — **model-guided vs unguided random testing** (paper §5): "values which
are too arbitrary — in a history-dependent sense — can easily crash the
kernel being used for testing", destroying throughput. We run the same
generator with the abstract model disabled and compare host-crash rates.

A2 — **loose vs strict host abstraction** (paper §3.1): the host ghost
state records only annotations and sharing relations, so map-on-demand is
unobservable. The ablation records the *full* host mapping; a plain
demand fault then changes state the spec does not predict, and the oracle
misfires — demonstrating why the looseness is load-bearing, not optional.
"""

import pytest

from repro.arch.defs import phys_to_pfn
from repro.arch.exceptions import HypervisorPanic
from repro.ghost.checker import GhostChecker
from repro.machine import Machine
from repro.pkvm.bugs import Bugs
from repro.pkvm.defs import HypercallId
from repro.sim import explore
from repro.testing.proxy import HypProxy
from repro.testing.random_tester import run_campaign
from benchmarks.conftest import report


@pytest.mark.benchmark(group="ablation")
def bench_unguided_random_crash_rate(benchmark):
    def measure():
        guided = run_campaign(seed=3, steps=250, ghost=False, guided=True)
        unguided = run_campaign(seed=3, steps=250, ghost=False, guided=False)
        return guided, unguided

    guided, unguided = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "A1",
        "without the abstract model, random testing crashes the host "
        "constantly (the §5 tension)",
        f"guided: {guided.host_crashes} host crashes / {guided.steps} steps; "
        f"unguided: {unguided.host_crashes} crashes / {unguided.steps} steps "
        f"(and only {unguided.ok_returns} vs {guided.ok_returns} successful "
        f"calls — far less state-machine progress)",
    )
    assert unguided.host_crashes > guided.host_crashes
    assert unguided.ok_returns < guided.ok_returns


@pytest.mark.benchmark(group="ablation")
def bench_strict_host_abstraction_misfires(benchmark):
    def measure():
        # Loose (the paper's design): demand faults are spec-clean.
        machine = Machine()
        for _ in range(4):
            machine.host.write64(machine.host.alloc_page(), 1)
        loose_violations = len(machine.checker.violations)

        # Strict (ablation): the same workload misfires.
        machine = Machine(ghost=False)
        checker = GhostChecker(machine, fail_fast=False, loose_host=False)
        checker.attach()
        for _ in range(4):
            machine.host.write64(machine.host.alloc_page(), 1)
        strict_violations = len(checker.violations)
        return loose_violations, strict_violations

    loose, strict = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "A2",
        "the host abstraction must be loose: demand mapping is not part "
        "of the hypercall contract (§3.1)",
        f"loose abstraction: {loose} violations on a demand-fault workload; "
        f"strict (full-mapping) abstraction: {strict} false violations on "
        f"the identical, correct implementation",
    )
    assert loose == 0
    assert strict > 0


@pytest.mark.benchmark(group="ablation")
def bench_systematic_exploration_finds_bug3(benchmark):
    """A3 — systematic interleaving exploration (the stateless-model-
    checking capability of the paper's closest prior work) finds the vCPU
    load/init race mechanically, without a hand-placed window."""

    def build(sched):
        machine = Machine(ghost=False, bugs=Bugs.single("vcpu_load_race"))
        proxy = HypProxy(machine)
        handle = proxy.create_vm(nr_vcpus=2)
        donated = proxy.alloc_page()

        def initer():
            proxy.hvc(
                HypercallId.INIT_VCPU, handle, phys_to_pfn(donated), cpu_index=0
            )

        def loader():
            if proxy.hvc(HypercallId.VCPU_LOAD, handle, 0, cpu_index=1) == 0:
                proxy.hvc(HypercallId.VCPU_RUN, cpu_index=1)

        sched.spawn(initer, "init")
        sched.spawn(loader, "load")

    def hunt():
        result = explore(build, max_schedules=400)
        failure = result.first_failure()
        found_at = (
            result.outcomes.index(failure) + 1 if failure is not None else None
        )
        return result, failure, found_at

    result, failure, found_at = benchmark.pedantic(hunt, rounds=1, iterations=1)
    report(
        "A3",
        "concurrency bugs need interleaving search (random tests rarely "
        "hit the window; the handwritten repro pins it by hand)",
        f"DFS over scheduler decisions finds the vCPU load/init race at "
        f"schedule {found_at} of {result.schedules_run} "
        f"({len(result.failures())} failing schedules total)",
    )
    assert failure is not None
    assert isinstance(failure.error, HypervisorPanic)
