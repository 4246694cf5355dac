"""Micro-benchmarks: per-hypercall cost with the oracle off and on.

Not a paper table per se, but the decomposition behind E1/E2: which
handlers pay most for checking. The expectation (§6): overhead is
dominated by the abstraction recording at lock operations, so hypercalls
touching larger page tables (host stage 2) pay more than metadata-only
ones (vcpu_load/put).
"""

import pytest

from repro.machine import Machine
from repro.pkvm.defs import HypercallId
from repro.testing.proxy import HypProxy


def _machine(ghost: bool):
    machine = Machine(ghost=ghost)
    proxy = HypProxy(machine)
    return machine, proxy


def _share_unshare_cycle(machine, proxy, page):
    machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
    machine.host.hvc(HypercallId.HOST_UNSHARE_HYP, page >> 12)


@pytest.mark.benchmark(group="micro-share")
@pytest.mark.parametrize("ghost", [False, True], ids=["baseline", "ghost"])
def bench_share_unshare_cycle(benchmark, ghost):
    machine, proxy = _machine(ghost)
    page = proxy.alloc_page()
    benchmark(_share_unshare_cycle, machine, proxy, page)
    if ghost:
        assert machine.checker.violations == []


@pytest.mark.benchmark(group="micro-load")
@pytest.mark.parametrize("ghost", [False, True], ids=["baseline", "ghost"])
def bench_vcpu_load_put_cycle(benchmark, ghost):
    machine, proxy = _machine(ghost)
    handle = proxy.create_vm()
    idx = proxy.init_vcpu(handle)

    def cycle():
        proxy.vcpu_load(handle, idx)
        proxy.vcpu_put()

    benchmark(cycle)


@pytest.mark.benchmark(group="micro-fault")
@pytest.mark.parametrize("ghost", [False, True], ids=["baseline", "ghost"])
def bench_demand_fault(benchmark, ghost):
    machine, proxy = _machine(ghost)
    # fresh page each round: pre-allocate a large pool of untouched pages
    pages = iter([proxy.alloc_page() for _ in range(4096)])

    def fault_one():
        machine.host.read64(next(pages))

    benchmark.pedantic(fault_one, rounds=200, iterations=1)


@pytest.mark.benchmark(group="micro-run")
@pytest.mark.parametrize("ghost", [False, True], ids=["baseline", "ghost"])
def bench_vcpu_run_halt(benchmark, ghost):
    machine, proxy = _machine(ghost)
    handle, idx = proxy.create_running_guest()

    def run_halt():
        proxy.set_guest_script(handle, idx, [("halt",)])
        proxy.vcpu_run()

    benchmark(run_halt)
