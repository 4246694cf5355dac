"""Each registry bug's detection scenario.

Paper §5: "To further confirm the discriminating power of our testing, we
introduced a small number of synthetic bugs into pKVM and checked that it
finds them." And §6 lists the five real bugs, all catchable here via the
bug-injection registry.

A bug with no exercising workload is invisible, exactly as in the real
system, so each bug is paired with the scenario that exposes it: a
harness :class:`~repro.testing.harness.TestCase` whose
``machine_kwargs`` carry the machine the bug needs. The pairing, and the
verdicts each scenario must give with its bug injected and on the fixed
hypervisor, are the bug's entry in the differential matrix
(``MATRIX`` in :mod:`repro.analysis.differential`), which runs every
scenario through :func:`~repro.testing.harness.run_one`.
"""

from __future__ import annotations

from repro.arch.defs import PAGE_SIZE, phys_to_pfn
from repro.pkvm.defs import HypercallId
from repro.sim.sched import Scheduler, current_scheduler
from repro.testing.handwritten import conc_faults_same_page
from repro.testing.harness import TestCase
from repro.testing.proxy import HypProxy


def _share(p: HypProxy) -> None:
    page = p.alloc_page()
    p.share_page(page)
    p.share_page(page)  # also drive the error path
    p.unshare_page(page)


def _unshare(p: HypProxy) -> None:
    page = p.alloc_page()
    p.share_page(page)
    p.unshare_page(page)
    p.share_page(page)


def _error_ret(p: HypProxy) -> None:
    p.unshare_page(p.alloc_page())  # pure error path


def _vm_create(p: HypProxy) -> None:
    p.create_vm()


def _teardown(p: HypProxy) -> None:
    handle = p.create_vm()
    p.teardown_vm(handle)
    p.reclaim_all()


def _topup_unaligned(p: HypProxy) -> None:
    p.create_running_guest(memcache_pages=0)
    list_page = p.alloc_page()
    victim = p.alloc_page()
    p.write_words(list_page, [victim + 0x40])  # deliberately unaligned
    p.share_page(list_page)
    p.hvc(HypercallId.MEMCACHE_TOPUP, phys_to_pfn(list_page), 1)


def _topup_huge(p: HypProxy) -> None:
    p.create_running_guest(memcache_pages=0)
    list_page = p.alloc_page()
    p.write_words(list_page, [p.alloc_page() for _ in range(8)])
    p.share_page(list_page)
    # nr whose byte count overflows s64: (2^61 + 8) * 8 == 64 (mod 2^64).
    p.hvc(HypercallId.MEMCACHE_TOPUP, phys_to_pfn(list_page), (1 << 61) + 8)


def _fault_adjacent(p: HypProxy) -> None:
    """Demand-fault the page right before a donated page: an off-by-one
    demand map tramples the neighbour's annotation.

    The pair lives in a far, untouched 2MB block so the fault takes the
    single-page path (the block is not free: its neighbour is annotated).
    """
    handle, _ = p.create_running_guest()
    dram = p.machine.mem.dram_regions()[-1]
    a = dram.base + 64 * 1024 * 1024  # far from the allocator's cursor
    b = a + PAGE_SIZE
    ret = p.hvc(HypercallId.HOST_MAP_GUEST, phys_to_pfn(b), 0x40)
    assert ret == 0, ret
    p.host.read64(a)


def _guest_run(p: HypProxy) -> None:
    """Run a guest to completion — the vcpu_run exit path must restore
    the host's stage 2."""
    handle, idx = p.create_running_guest()
    p.set_guest_script(handle, idx, [("halt",)])
    p.vcpu_run()


def _vcpu_race(p: HypProxy) -> None:
    m = p.machine
    handle = p.create_vm(nr_vcpus=2)
    donated = p.alloc_page()
    vm_obj = m.pkvm.vm_table.get(handle)
    sched = Scheduler(policy="rr")

    def initer():
        p.hvc(HypercallId.INIT_VCPU, handle, phys_to_pfn(donated), cpu_index=0)

    def loader():
        current_scheduler().block_until(
            lambda: len(vm_obj.vcpus) > 0, "publish"
        )
        if p.hvc(HypercallId.VCPU_LOAD, handle, 0, cpu_index=1) == 0:
            p.hvc(HypercallId.VCPU_RUN, cpu_index=1)

    sched.spawn(initer, "init")
    sched.spawn(loader, "load")
    sched.run()


def _iommu_lifecycle(p: HypProxy) -> None:
    """The full DMA-domain lifecycle. With ``synth_iommu_refcount_init``
    the oracle flags the refcount post-mismatch at alloc_domain; without
    the oracle, attach_dev hits the jetson-pkvm ``BUG_ON(!old)`` panic."""
    iova = 0x80 * PAGE_SIZE
    p.iommu_alloc_domain(3)
    p.iommu_attach_dev(3, 5)
    page = p.alloc_page()
    p.iommu_map_page(3, iova, page)
    p.iommu_unmap_page(3, iova)
    p.iommu_detach_dev(3, 5)
    p.iommu_free_domain(3)


SHARE = TestCase("share", _share)
UNSHARE = TestCase("unshare", _unshare)
ERROR_RET = TestCase("error_ret", _error_ret, "error")
VM_CREATE = TestCase("vm_create", _vm_create)
TEARDOWN = TestCase("teardown", _teardown)
TOPUP_UNALIGNED = TestCase("topup_unaligned", _topup_unaligned)
TOPUP_HUGE = TestCase("topup_huge", _topup_huge)
FAULT_ADJACENT = TestCase("fault_adjacent", _fault_adjacent)
GUEST_RUN = TestCase("guest_run", _guest_run)
IOMMU_LIFECYCLE = TestCase("iommu_lifecycle", _iommu_lifecycle)
#: The two races crash without the oracle, under the deterministic
#: scheduler.
VCPU_RACE = TestCase("vcpu_race", _vcpu_race, "concurrent", {"ghost": False})
FAULTS_SAME_PAGE = TestCase(
    "conc_faults_same_page", conc_faults_same_page, "concurrent", {"ghost": False}
)
#: Paper bug 5 manifests while the machine boots, before any body runs:
#: this DRAM size puts the carveout's linear image across the private VA
#: base (phys 3GB).
BIG_DRAM_BOOT = TestCase(
    "big_dram_boot",
    lambda _p: None,
    machine_kwargs={"dram_size": 0xC040_0000 - 0x4000_0000},
)
