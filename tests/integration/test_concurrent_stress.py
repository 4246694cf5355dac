"""Multi-CPU randomised stress under the deterministic scheduler, with
the full oracle attached — the closest the suite gets to the paper's
concurrent QEMU runs."""

import random

import pytest

from repro.arch.defs import phys_to_pfn
from repro.arch.exceptions import HostCrash
from repro.machine import Machine
from repro.pkvm.defs import HypercallId
from repro.sim.sched import Scheduler
from repro.testing.proxy import HypProxy


def stress_worker(machine, proxy, cpu_index: int, seed: int, steps: int):
    """Random share/unshare/touch traffic from one CPU, all valid-ish."""
    rng = random.Random(seed)
    # per-CPU disjoint page pool so workers don't need cross-thread
    # coordination in the *test*; contention happens in the hypervisor
    pages = [proxy.alloc_page() for _ in range(6)]

    def body():
        for _ in range(steps):
            action = rng.choice(("share", "unshare", "touch", "bogus"))
            page = rng.choice(pages)
            if action == "share":
                proxy.share_page(page, cpu_index=cpu_index)
            elif action == "unshare":
                proxy.unshare_page(page, cpu_index=cpu_index)
            elif action == "touch":
                try:
                    machine.host.write64(
                        page, rng.getrandbits(32), cpu=machine.cpu(cpu_index)
                    )
                except HostCrash:
                    pass
            else:
                proxy.hvc(
                    HypercallId.HOST_UNSHARE_HYP,
                    phys_to_pfn(0x2000_0000),
                    cpu_index=cpu_index,
                )

    return body


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("policy", ["rr", "random"])
def test_concurrent_stress_stays_spec_clean(seed, policy):
    machine = Machine(nr_cpus=3)
    machine.checker.fail_fast = False
    proxy = HypProxy(machine)
    sched = Scheduler(policy=policy, seed=seed)
    for cpu_index in range(3):
        sched.spawn(
            stress_worker(machine, proxy, cpu_index, seed * 31 + cpu_index, 12),
            f"cpu{cpu_index}",
        )
    sched.run()
    assert machine.checker.violations == []
    assert machine.obs.metrics.value("oracle_checks_run") > 20


def test_concurrent_vm_lifecycles():
    """Two CPUs each run a full VM lifecycle concurrently."""
    machine = Machine(nr_cpus=2)
    machine.checker.fail_fast = False
    proxy = HypProxy(machine)
    results = {}

    def lifecycle(cpu_index):
        def body():
            handle = proxy.create_vm(cpu_index=cpu_index)
            idx = proxy.init_vcpu(handle, cpu_index=cpu_index)
            assert proxy.vcpu_load(handle, idx, cpu_index=cpu_index) == 0
            assert proxy.topup_memcache(4, cpu_index=cpu_index) == 0
            assert proxy.map_guest_page(0x40, cpu_index=cpu_index) == 0
            assert proxy.vcpu_put(cpu_index=cpu_index) == 0
            assert proxy.teardown_vm(handle, cpu_index=cpu_index) == 0
            results[cpu_index] = handle

        return body

    sched = Scheduler(policy="random", seed=17)
    for cpu_index in range(2):
        sched.spawn(lifecycle(cpu_index), f"cpu{cpu_index}")
    sched.run()
    assert len(set(results.values())) == 2  # distinct handles
    proxy.reclaim_all()
    assert machine.checker.violations == []


def test_contended_vcpu_is_exclusive():
    """Both CPUs race to load the same vCPU: exactly one wins, and the
    ghost records the winner's ownership transfer."""
    machine = Machine(nr_cpus=2)
    machine.checker.fail_fast = False
    proxy = HypProxy(machine)
    handle = proxy.create_vm()
    idx = proxy.init_vcpu(handle)
    outcome = {}

    def loader(cpu_index):
        def body():
            outcome[cpu_index] = proxy.vcpu_load(handle, idx, cpu_index=cpu_index)

        return body

    sched = Scheduler(policy="random", seed=5)
    for cpu_index in range(2):
        sched.spawn(loader(cpu_index), f"cpu{cpu_index}")
    sched.run()
    assert sorted(outcome.values()).count(0) == 1
    winner = next(c for c, r in outcome.items() if r == 0)
    vms = machine.checker.committed["vms"]
    assert vms.vms[handle].vcpus[idx].loaded_on == winner
    assert machine.checker.violations == []
