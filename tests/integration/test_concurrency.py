"""Integration tests for multi-CPU behaviour under the deterministic
scheduler: lock interleavings, the paper's two concurrency bugs, and the
oracle's behaviour for concurrent handlers."""

import pytest

from repro.arch.defs import phys_to_pfn
from repro.arch.exceptions import HypervisorPanic
from repro.machine import Machine
from repro.pkvm.bugs import Bugs
from repro.pkvm.defs import HypercallId
from repro.sim.sched import Scheduler, current_scheduler
from repro.testing.proxy import HypProxy


class TestConcurrentHypercalls:
    def test_parallel_shares_all_succeed(self):
        machine = Machine(ghost=False)
        proxy = HypProxy(machine)
        pages = [proxy.alloc_page() for _ in range(4)]
        results = {}
        sched = Scheduler(policy="random", seed=42)

        def sharer(i):
            def body():
                results[i] = proxy.share_page(pages[i], cpu_index=i)
            return body

        for i in range(4):
            sched.spawn(sharer(i), f"cpu{i}")
        sched.run()
        assert all(r == 0 for r in results.values())

    def test_parallel_shares_of_same_page_exactly_one_wins(self):
        machine = Machine(ghost=False)
        proxy = HypProxy(machine)
        page = proxy.alloc_page()
        results = {}
        sched = Scheduler(policy="random", seed=9)

        def sharer(i):
            def body():
                results[i] = proxy.share_page(page, cpu_index=i)
            return body

        for i in range(3):
            sched.spawn(sharer(i), f"cpu{i}")
        sched.run()
        assert sorted(results.values()).count(0) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_many_seeds_with_ghost_on(self, seed):
        """Concurrent hypercalls on disjoint state stay spec-clean under
        varied interleavings."""
        machine = Machine()
        proxy = HypProxy(machine)
        pages = [proxy.alloc_page() for _ in range(3)]
        sched = Scheduler(policy="random", seed=seed)

        def worker(i):
            def body():
                proxy.share_page(pages[i], cpu_index=i)
                proxy.unshare_page(pages[i], cpu_index=i)
            return body

        for i in range(3):
            sched.spawn(worker(i), f"cpu{i}")
        sched.run()
        assert machine.checker.violations == []


class TestConcurrentFaults:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_page_faults_are_safe_when_fixed(self, seed):
        machine = Machine(ghost=False)
        addr = machine.host.alloc_page()
        sched = Scheduler(policy="random", seed=seed)
        for i in range(3):
            sched.spawn(
                (lambda c: lambda: machine.host.read64(addr, cpu=machine.cpu(c)))(i),
                f"cpu{i}",
            )
        sched.run()

    def test_same_page_faults_panic_with_bug4(self):
        machine = Machine(ghost=False, bugs=Bugs.single("host_fault_fragile"))
        addr = machine.host.alloc_page()
        sched = Scheduler(policy="rr")
        for i in range(2):
            sched.spawn(
                (lambda c: lambda: machine.host.read64(addr, cpu=machine.cpu(c)))(i),
                f"cpu{i}",
            )
        with pytest.raises(HypervisorPanic):
            sched.run()


class TestVcpuLoadInitRace:
    def _race(self, bugs: Bugs):
        machine = Machine(ghost=False, bugs=bugs)
        proxy = HypProxy(machine)
        handle = proxy.create_vm(nr_vcpus=2)
        donated = proxy.alloc_page()
        vm_obj = machine.pkvm.vm_table.get(handle)
        sched = Scheduler(policy="rr")

        def initer():
            return proxy.hvc(
                HypercallId.INIT_VCPU, handle, phys_to_pfn(donated), cpu_index=0
            )

        def loader():
            current_scheduler().block_until(
                lambda: len(vm_obj.vcpus) > 0, "published"
            )
            ret = proxy.hvc(HypercallId.VCPU_LOAD, handle, 0, cpu_index=1)
            if ret == 0:
                return proxy.hvc(HypercallId.VCPU_RUN, cpu_index=1)
            return ret

        sched.spawn(initer, "init")
        sched.spawn(loader, "load")
        return sched.run()

    def test_bug3_panics(self):
        with pytest.raises(HypervisorPanic, match="uninitialised"):
            self._race(Bugs.single("vcpu_load_race"))

    def test_fixed_order_is_safe(self):
        results = self._race(Bugs())
        assert results["init"] == 0
        assert results["load"] == 0  # load+run both clean


class TestMultiphaseHandling:
    def test_multi_event_vcpu_run_skips_reacquired_components(self):
        """Two guest shares in one vcpu_run re-take the VM and host locks;
        the checker must record the phases but skip those components (the
        paper's documented limitation), not report a false violation."""
        machine = Machine()
        proxy = HypProxy(machine)
        handle, idx = proxy.create_running_guest(backed_gfns=[0x40, 0x41])
        from repro.arch.defs import PAGE_SIZE

        proxy.set_guest_script(
            handle,
            idx,
            [
                ("share", 0x40 * PAGE_SIZE),
                ("share", 0x41 * PAGE_SIZE),
                ("halt",),
            ],
        )
        code, _ = proxy.vcpu_run()
        assert code == 0
        assert machine.checker.violations == []
        metrics = machine.obs.metrics
        assert metrics.value("oracle_components_skipped_multiphase") > 0
