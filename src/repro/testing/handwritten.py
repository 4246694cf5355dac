"""The handwritten test suite.

The paper (§5): "We first wrote a small suite of handwritten tests,
currently 41, of which 19 target error-free paths, 22 target various
errors, and a handful are highly concurrent and target locking." This
module reproduces that census: 19 ``ok`` tests, 22 ``error`` tests, and 4
``concurrent`` tests, each a small program over the hyp-proxy. Every test
runs with the ghost oracle attached, so every hypercall in every test is
checked against the specification.
"""

from __future__ import annotations

from repro.arch.defs import PAGE_SIZE, phys_to_pfn
from repro.arch.exceptions import HostCrash
from repro.pkvm.defs import (
    E2BIG,
    EBUSY,
    EINVAL,
    ENOENT,
    EPERM,
    HypercallId,
)
from repro.sim.sched import Scheduler
from repro.testing.harness import TestCase
from repro.testing.proxy import HypProxy


def _expect(actual: int, expected: int, what: str) -> None:
    assert actual == expected, f"{what}: expected {expected}, got {actual}"


# ---------------------------------------------------------------------------
# Error-free paths (19)
# ---------------------------------------------------------------------------


def ok_share_one_page(p: HypProxy) -> None:
    page = p.alloc_page()
    _expect(p.share_page(page), 0, "share")


def ok_share_then_unshare(p: HypProxy) -> None:
    page = p.alloc_page()
    _expect(p.share_page(page), 0, "share")
    _expect(p.unshare_page(page), 0, "unshare")


def ok_share_many_pages(p: HypProxy) -> None:
    pages = [p.alloc_page() for _ in range(16)]
    for page in pages:
        _expect(p.share_page(page), 0, "share")
    for page in pages:
        _expect(p.unshare_page(page), 0, "unshare")


def ok_reshare_after_unshare(p: HypProxy) -> None:
    page = p.alloc_page()
    for _round in range(3):
        _expect(p.share_page(page), 0, "share")
        _expect(p.unshare_page(page), 0, "unshare")


def ok_host_demand_read(p: HypProxy) -> None:
    addr = p.alloc_page()
    assert p.host.read64(addr) == 0


def ok_host_demand_write(p: HypProxy) -> None:
    addr = p.alloc_page()
    p.host.write64(addr, 0x1122334455667788)
    assert p.host.read64(addr) == 0x1122334455667788


def ok_host_block_mapping(p: HypProxy) -> None:
    """A fault in an untouched 2MB region maps the whole block."""
    addr = p.alloc_page()
    p.host.touch(addr)
    from repro.pkvm.pgtable import lookup

    pte = lookup(p.machine.pkvm.mp.host_mmu, addr)
    assert pte.level <= 2, f"expected a block mapping, got level {pte.level}"


def ok_host_mmio_access(p: HypProxy) -> None:
    uart = next(r for r in p.machine.mem.regions if r.name == "uart")
    p.host.write64(uart.base, ord("!"))


def ok_create_vm(p: HypProxy) -> None:
    handle = p.create_vm()
    assert handle >= 0x1000


def ok_create_vm_with_vcpu(p: HypProxy) -> None:
    handle = p.create_vm(nr_vcpus=2)
    _expect(p.init_vcpu(handle), 0, "first vcpu index")
    _expect(p.init_vcpu(handle), 1, "second vcpu index")


def ok_vcpu_load_put(p: HypProxy) -> None:
    handle = p.create_vm()
    idx = p.init_vcpu(handle)
    _expect(p.vcpu_load(handle, idx), 0, "load")
    _expect(p.vcpu_put(), 0, "put")


def ok_memcache_topup(p: HypProxy) -> None:
    handle, idx = p.create_running_guest(memcache_pages=0)
    _expect(p.topup_memcache(8), 0, "topup")


def ok_map_guest_page(p: HypProxy) -> None:
    p.create_running_guest(backed_gfns=[0x40])


def ok_guest_halts(p: HypProxy) -> None:
    handle, idx = p.create_running_guest()
    p.set_guest_script(handle, idx, [("halt",)])
    code, _aux = p.vcpu_run()
    _expect(code, 0, "guest exit")


def ok_guest_writes_own_page(p: HypProxy) -> None:
    handle, idx = p.create_running_guest(backed_gfns=[0x40])
    ipa = 0x40 * PAGE_SIZE
    p.set_guest_script(
        handle, idx, [("write", ipa, 0xCAFE), ("read", ipa), ("halt",)]
    )
    code, _aux = p.vcpu_run()
    _expect(code, 0, "guest exit")


def ok_guest_fault_then_backed(p: HypProxy) -> None:
    handle, idx = p.create_running_guest()
    ipa = 0x80 * PAGE_SIZE
    p.set_guest_script(handle, idx, [("read", ipa), ("halt",)])
    code, aux = p.vcpu_run()
    _expect(code, 1, "mem abort exit")
    _expect(aux, ipa, "faulting IPA")
    _expect(p.map_guest_page(0x80), 0, "backing map")
    code, _aux = p.vcpu_run()
    _expect(code, 0, "resumed exit")


def ok_guest_share_host_reads(p: HypProxy) -> None:
    handle, idx = p.create_running_guest(backed_gfns=[0x40])
    ipa = 0x40 * PAGE_SIZE
    p.set_guest_script(
        handle, idx, [("write", ipa, 0xFEED), ("share", ipa), ("halt",)]
    )
    code, _aux = p.vcpu_run()
    _expect(code, 0, "guest exit")
    phys = p.vms[handle].mapped[0x40]
    assert p.host.read64(phys) == 0xFEED


def ok_guest_share_then_unshare(p: HypProxy) -> None:
    handle, idx = p.create_running_guest(backed_gfns=[0x40])
    ipa = 0x40 * PAGE_SIZE
    p.set_guest_script(handle, idx, [("share", ipa), ("halt",)])
    _expect(p.vcpu_run()[0], 0, "share run")
    # a second share of an already-shared page fails inside the guest
    p.set_guest_script(handle, idx, [("share", ipa), ("halt",)])
    _expect(p.vcpu_run()[0], 0, "double-share run still exits cleanly")
    p.set_guest_script(handle, idx, [("unshare", ipa), ("halt",)])
    _expect(p.vcpu_run()[0], 0, "unshare run")
    # unsharing again fails inside the guest (already exclusive)
    p.set_guest_script(handle, idx, [("unshare", ipa), ("halt",)])
    _expect(p.vcpu_run()[0], 0, "double-unshare run still exits cleanly")


def ok_teardown_reclaims_everything(p: HypProxy) -> None:
    handle, idx = p.create_running_guest(
        memcache_pages=4, backed_gfns=[0x40, 0x41]
    )
    _expect(p.vcpu_put(), 0, "put")
    _expect(p.teardown_vm(handle), 0, "teardown")
    reclaimed = p.reclaim_all()
    assert reclaimed >= 4, f"only {reclaimed} pages reclaimed"
    assert not p.machine.pkvm.vm_table.reclaimable


OK_TESTS = [
    TestCase("ok_share_one_page", ok_share_one_page),
    TestCase("ok_share_then_unshare", ok_share_then_unshare),
    TestCase("ok_share_many_pages", ok_share_many_pages),
    TestCase("ok_reshare_after_unshare", ok_reshare_after_unshare),
    TestCase("ok_host_demand_read", ok_host_demand_read),
    TestCase("ok_host_demand_write", ok_host_demand_write),
    TestCase("ok_host_block_mapping", ok_host_block_mapping),
    TestCase("ok_host_mmio_access", ok_host_mmio_access),
    TestCase("ok_create_vm", ok_create_vm),
    TestCase("ok_create_vm_with_vcpu", ok_create_vm_with_vcpu),
    TestCase("ok_vcpu_load_put", ok_vcpu_load_put),
    TestCase("ok_memcache_topup", ok_memcache_topup),
    TestCase("ok_map_guest_page", ok_map_guest_page),
    TestCase("ok_guest_halts", ok_guest_halts),
    TestCase("ok_guest_writes_own_page", ok_guest_writes_own_page),
    TestCase("ok_guest_fault_then_backed", ok_guest_fault_then_backed),
    TestCase("ok_guest_share_host_reads", ok_guest_share_host_reads),
    TestCase("ok_guest_share_then_unshare", ok_guest_share_then_unshare),
    TestCase("ok_teardown_reclaims_everything", ok_teardown_reclaims_everything),
]


# ---------------------------------------------------------------------------
# Error paths (22)
# ---------------------------------------------------------------------------


def err_share_mmio(p: HypProxy) -> None:
    uart = next(r for r in p.machine.mem.regions if r.name == "uart")
    _expect(p.share_page(uart.base), -EINVAL, "share MMIO")
    _expect(p.unshare_page(uart.base), -EINVAL, "unshare MMIO")


def err_share_hole(p: HypProxy) -> None:
    _expect(p.share_page(0x1000_0000), -EINVAL, "share unmapped hole")


def err_double_share(p: HypProxy) -> None:
    page = p.alloc_page()
    _expect(p.share_page(page), 0, "share")
    _expect(p.share_page(page), -EPERM, "double share")


def err_unshare_never_shared(p: HypProxy) -> None:
    _expect(p.unshare_page(p.alloc_page()), -EPERM, "unshare fresh page")


def err_unshare_twice(p: HypProxy) -> None:
    page = p.alloc_page()
    p.share_page(page)
    _expect(p.unshare_page(page), 0, "unshare")
    _expect(p.unshare_page(page), -EPERM, "unshare again")


def err_share_donated_page(p: HypProxy) -> None:
    handle, _ = p.create_running_guest(backed_gfns=[0x40])
    donated = p.vms[handle].mapped[0x40]
    _expect(p.share_page(donated), -EPERM, "share guest page")
    # the host can no longer touch it: the fault is injected back
    try:
        p.host.read64(donated)
        raise AssertionError("host still reads the guest's page")
    except HostCrash:
        pass
    # and a hole in the memory map injects too
    try:
        p.host.read64(0x2000_0000)
        raise AssertionError("host read a memory-map hole")
    except HostCrash:
        pass


def err_init_vm_unshared_params(p: HypProxy) -> None:
    params = p.alloc_page()
    pgd = p.alloc_page()
    p.write_words(params, [1, 1, phys_to_pfn(pgd)])
    ret = p.hvc(HypercallId.INIT_VM, phys_to_pfn(params))
    _expect(ret, -EPERM, "init_vm with unshared params")


def err_init_vm_zero_vcpus(p: HypProxy) -> None:
    params = p.alloc_page()
    p.write_words(params, [0, 1, phys_to_pfn(p.alloc_page())])
    p.share_page(params)
    ret = p.hvc(HypercallId.INIT_VM, phys_to_pfn(params))
    _expect(ret, -EINVAL, "init_vm nr_vcpus=0")


def err_init_vm_too_many_vcpus(p: HypProxy) -> None:
    params = p.alloc_page()
    p.write_words(params, [1000, 1, phys_to_pfn(p.alloc_page())])
    p.share_page(params)
    ret = p.hvc(HypercallId.INIT_VM, phys_to_pfn(params))
    _expect(ret, -EINVAL, "init_vm nr_vcpus=1000")


def err_init_vm_shared_pgd(p: HypProxy) -> None:
    params = p.alloc_page()
    pgd = p.alloc_page()
    p.share_page(pgd)  # a shared page cannot be donated
    p.write_words(params, [1, 1, phys_to_pfn(pgd)])
    p.share_page(params)
    ret = p.hvc(HypercallId.INIT_VM, phys_to_pfn(params))
    _expect(ret, -EPERM, "init_vm with shared pgd")
    # an MMIO page cannot be donated either
    p.host.write64(params, 1)
    p.host.write64(params + 16, phys_to_pfn(0x0900_0000))
    ret = p.hvc(HypercallId.INIT_VM, phys_to_pfn(params))
    _expect(ret, -EINVAL, "init_vm with MMIO pgd")


def err_init_vcpu_bad_handle(p: HypProxy) -> None:
    ret = p.hvc(HypercallId.INIT_VCPU, 0x9999, phys_to_pfn(p.alloc_page()))
    _expect(ret, -ENOENT, "init_vcpu bad handle")


def err_init_vcpu_overflow(p: HypProxy) -> None:
    handle = p.create_vm(nr_vcpus=1)
    p.init_vcpu(handle)
    ret = p.hvc(HypercallId.INIT_VCPU, handle, phys_to_pfn(p.alloc_page()))
    _expect(ret, -EINVAL, "one vcpu too many")


def err_vcpu_load_bad_handle(p: HypProxy) -> None:
    _expect(p.vcpu_load(0x9999, 0), -ENOENT, "load bad handle")


def err_vcpu_load_bad_index(p: HypProxy) -> None:
    handle = p.create_vm()
    _expect(p.vcpu_load(handle, 5), -ENOENT, "load bad index")


def err_vcpu_load_twice_same_cpu(p: HypProxy) -> None:
    handle = p.create_vm(nr_vcpus=2)
    a = p.init_vcpu(handle)
    b = p.init_vcpu(handle)
    _expect(p.vcpu_load(handle, a), 0, "first load")
    _expect(p.vcpu_load(handle, b), -EBUSY, "second load, same cpu")


def err_vcpu_load_on_two_cpus(p: HypProxy) -> None:
    handle = p.create_vm()
    idx = p.init_vcpu(handle)
    _expect(p.vcpu_load(handle, idx, cpu_index=0), 0, "load cpu0")
    _expect(p.vcpu_load(handle, idx, cpu_index=1), -EBUSY, "load cpu1")


def err_vcpu_put_without_load(p: HypProxy) -> None:
    _expect(p.vcpu_put(), -EINVAL, "put without load")


def err_vcpu_run_without_load(p: HypProxy) -> None:
    code, _aux = p.vcpu_run()
    _expect(code, -EINVAL, "run without load")


def err_map_guest_without_load(p: HypProxy) -> None:
    _expect(p.map_guest_page(0x40), -EINVAL, "map without loaded vcpu")


def err_map_guest_mapped_gfn(p: HypProxy) -> None:
    p.create_running_guest(backed_gfns=[0x40])
    _expect(p.map_guest_page(0x40), -EPERM, "remap same gfn")
    # MMIO cannot be donated into a guest
    ret = p.hvc(
        HypercallId.HOST_MAP_GUEST, phys_to_pfn(0x0900_0000), 0x50
    )
    _expect(ret, -EINVAL, "map MMIO into guest")


def err_topup_too_big(p: HypProxy) -> None:
    p.create_running_guest(memcache_pages=0)
    list_page = p.alloc_page()
    p.share_page(list_page)
    ret = p.hvc(HypercallId.MEMCACHE_TOPUP, phys_to_pfn(list_page), 1 << 20)
    _expect(ret, -E2BIG, "huge topup")


def err_reclaim_random_page(p: HypProxy) -> None:
    ret = p.hvc(HypercallId.HOST_RECLAIM_PAGE, phys_to_pfn(p.alloc_page()))
    _expect(ret, -ENOENT, "reclaim non-reclaimable")


ERROR_TESTS = [
    TestCase("err_share_mmio", err_share_mmio, category="error"),
    TestCase("err_share_hole", err_share_hole, category="error"),
    TestCase("err_double_share", err_double_share, category="error"),
    TestCase("err_unshare_never_shared", err_unshare_never_shared, category="error"),
    TestCase("err_unshare_twice", err_unshare_twice, category="error"),
    TestCase("err_share_donated_page", err_share_donated_page, category="error"),
    TestCase("err_init_vm_unshared_params", err_init_vm_unshared_params, category="error"),
    TestCase("err_init_vm_zero_vcpus", err_init_vm_zero_vcpus, category="error"),
    TestCase("err_init_vm_too_many_vcpus", err_init_vm_too_many_vcpus, category="error"),
    TestCase("err_init_vm_shared_pgd", err_init_vm_shared_pgd, category="error"),
    TestCase("err_init_vcpu_bad_handle", err_init_vcpu_bad_handle, category="error"),
    TestCase("err_init_vcpu_overflow", err_init_vcpu_overflow, category="error"),
    TestCase("err_vcpu_load_bad_handle", err_vcpu_load_bad_handle, category="error"),
    TestCase("err_vcpu_load_bad_index", err_vcpu_load_bad_index, category="error"),
    TestCase("err_vcpu_load_twice_same_cpu", err_vcpu_load_twice_same_cpu, category="error"),
    TestCase("err_vcpu_load_on_two_cpus", err_vcpu_load_on_two_cpus, category="error"),
    TestCase("err_vcpu_put_without_load", err_vcpu_put_without_load, category="error"),
    TestCase("err_vcpu_run_without_load", err_vcpu_run_without_load, category="error"),
    TestCase("err_map_guest_without_load", err_map_guest_without_load, category="error"),
    TestCase("err_map_guest_mapped_gfn", err_map_guest_mapped_gfn, category="error"),
    TestCase("err_topup_too_big", err_topup_too_big, category="error"),
    TestCase("err_reclaim_random_page", err_reclaim_random_page, category="error"),
]


# ---------------------------------------------------------------------------
# Concurrent tests (the "handful ... highly concurrent" targeting locking)
# ---------------------------------------------------------------------------


def conc_faults_distinct_pages(p: HypProxy) -> None:
    m = p.machine
    addrs = [p.alloc_page() for _ in range(4)]
    sched = Scheduler(policy="rr")
    for i, addr in enumerate(addrs[: len(m.cpus)]):
        sched.spawn(
            (lambda a, c: lambda: m.host.read64(a, cpu=m.cpu(c)))(addr, i),
            f"cpu{i}",
        )
    sched.run()


def conc_faults_same_page(p: HypProxy) -> None:
    m = p.machine
    addr = p.alloc_page()
    sched = Scheduler(policy="rr")
    for i in range(2):
        sched.spawn(
            (lambda c: lambda: m.host.read64(addr, cpu=m.cpu(c)))(i), f"cpu{i}"
        )
    sched.run()


def conc_share_distinct_pages(p: HypProxy) -> None:
    m = p.machine
    pages = [p.alloc_page() for _ in range(len(m.cpus))]
    sched = Scheduler(policy="random", seed=7)
    results: dict[int, int] = {}

    def sharer(c: int):
        def body():
            results[c] = p.share_page(pages[c], cpu_index=c)
        return body

    for i in range(len(m.cpus)):
        sched.spawn(sharer(i), f"cpu{i}")
    sched.run()
    assert all(r == 0 for r in results.values()), results


def conc_vm_create_vs_share(p: HypProxy) -> None:
    m = p.machine
    page = p.alloc_page()
    sched = Scheduler(policy="random", seed=11)
    sched.spawn(lambda: p.create_vm(cpu_index=0), "create")
    sched.spawn(lambda: p.share_page(page, cpu_index=1), "share")
    sched.run()


CONCURRENT_TESTS = [
    TestCase(
        "conc_faults_distinct_pages",
        conc_faults_distinct_pages,
        category="concurrent",
    ),
    TestCase(
        "conc_faults_same_page", conc_faults_same_page, category="concurrent"
    ),
    TestCase(
        "conc_share_distinct_pages",
        conc_share_distinct_pages,
        category="concurrent",
    ),
    TestCase(
        "conc_vm_create_vs_share",
        conc_vm_create_vs_share,
        category="concurrent",
    ),
]

# ---------------------------------------------------------------------------
# Extended tests — beyond the paper's 41: the non-protected-VM and
# range-operation surface this reproduction adds. Kept out of the census
# (E7 pins the paper's numbers) but part of the full suite and of the
# coverage measurement.
# ---------------------------------------------------------------------------


def _unprotected_guest(p: HypProxy, memcache: int = 6) -> int:
    handle = p.create_vm(nr_vcpus=1, protected=False)
    idx = p.init_vcpu(handle)
    _expect(p.vcpu_load(handle, idx), 0, "load")
    if memcache:
        _expect(p.topup_memcache(memcache), 0, "topup")
    return handle


def ext_share_guest_roundtrip(p: HypProxy) -> None:
    _unprotected_guest(p)
    page = p.alloc_page()
    _expect(
        p.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40),
        0,
        "share_guest",
    )
    p.host.write64(page, 1)  # host keeps access
    _expect(
        p.hvc(HypercallId.HOST_UNSHARE_GUEST, phys_to_pfn(page), 0x40),
        0,
        "unshare_guest",
    )


def ext_share_guest_errors(p: HypProxy) -> None:
    _expect(
        p.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(p.alloc_page()), 0x40),
        -EINVAL,
        "share_guest without vcpu",
    )
    _unprotected_guest(p)
    page = p.alloc_page()
    p.share_page(page)
    _expect(
        p.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x41),
        -EPERM,
        "share_guest of shared page",
    )
    _expect(
        p.hvc(HypercallId.HOST_UNSHARE_GUEST, phys_to_pfn(page), 0x41),
        -EPERM,
        "unshare_guest of unshared gfn",
    )
    _expect(
        p.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(0x0900_0000), 0x42),
        -EINVAL,
        "share_guest of MMIO",
    )


def ext_share_guest_to_protected(p: HypProxy) -> None:
    p.create_running_guest()
    _expect(
        p.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(p.alloc_page()), 0x40),
        -EPERM,
        "share_guest to protected VM",
    )


def ext_share_guest_oom_rollback(p: HypProxy) -> None:
    _unprotected_guest(p, memcache=0)
    from repro.pkvm.defs import ENOMEM

    page = p.alloc_page()
    _expect(
        p.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40),
        -ENOMEM,
        "share_guest with empty memcache",
    )
    # rollback means the page is still shareable afterwards
    _expect(p.share_page(page), 0, "share after rollback")


def ext_range_share_roundtrip(p: HypProxy) -> None:
    base = p.alloc_pages(8)
    _expect(p.share_range(base, 8), 0, "range share")
    _expect(p.unshare_range(base + 2 * PAGE_SIZE, 2), 0, "partial unshare")
    _expect(p.unshare_range(base, 2), 0, "head unshare")
    _expect(p.unshare_range(base + 4 * PAGE_SIZE, 4), 0, "tail unshare")


def ext_range_share_errors(p: HypProxy) -> None:
    base = p.alloc_pages(4)
    p.share_page(base + PAGE_SIZE)
    _expect(p.share_range(base, 4), -EPERM, "range over shared page")
    _expect(p.unshare_range(base, 4), -EPERM, "range over unshared pages")


def ext_teardown_with_lent_pages(p: HypProxy) -> None:
    handle = _unprotected_guest(p)
    page = p.alloc_page()
    _expect(
        p.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40),
        0,
        "share_guest",
    )
    _expect(p.vcpu_put(), 0, "put")
    _expect(p.teardown_vm(handle), 0, "teardown")
    assert p.reclaim_all() > 0


def _starve_pool(pool) -> list[int]:
    """Leave the hyp pool one free page: enough for a host-side
    (initiator) block split, not for the hyp-side (completer) tables.

    Takes the free memory largest runs first, one allocation per run
    rather than per page, and returns the runs taken so the caller can
    free them again."""
    from repro.pkvm.allocator import MAX_ORDER, OutOfMemory

    taken = []
    for order in range(MAX_ORDER, -1, -1):
        while pool.free_page_count() > 1 << order:
            try:
                taken.append(pool.alloc_pages(order))
            except OutOfMemory:  # no free run this large is left
                break
    assert pool.free_page_count() == 1
    return taken


def ext_share_oom_rollback(p: HypProxy) -> None:
    """Drive the completer-failure rollbacks: exhaust the hyp pool so the
    host-side (initiator) update succeeds but the hyp-side (completer)
    map fails, and check the initiator was rolled back cleanly."""
    from repro.pkvm.defs import ENOMEM

    pool = p.machine.pkvm.pool
    page = p.alloc_page()
    p.host.touch(page)  # host stage 2 gets a 2MB block here
    taken = _starve_pool(pool)
    _expect(p.share_page(page), -ENOMEM, "share with starved completer")
    # rollback: the page is host-exclusive again, and shareable once the
    # pool recovers
    for phys in taken:
        pool.free_pages(phys)
    _expect(p.share_page(page), 0, "share after pool recovery")


def ext_donate_oom_rollback(p: HypProxy) -> None:
    """The same starvation through the donation path (init_vm's pgd)."""
    from repro.arch.pte import EntryKind
    from repro.pkvm.defs import ENOMEM

    pool = p.machine.pkvm.pool
    # a pgd far from every earlier mapping, so its hyp VA needs fresh
    # tables at every level (the params share below must not pre-build
    # them)
    dram = p.machine.mem.dram_regions()[-1]
    pgd = dram.base + 48 * 1024 * 1024
    params = p.alloc_page()
    p.write_words(params, [1, 1, phys_to_pfn(pgd)])
    _expect(p.share_page(params), 0, "share params")
    p.host.touch(pgd)
    taken = _starve_pool(pool)
    ret = p.hvc(HypercallId.INIT_VM, phys_to_pfn(params))
    _expect(ret, -ENOMEM, "init_vm with starved completer")
    # the donation was rolled back: no stale HYP annotation remains
    kind, _state, _owner = p.machine.pkvm.mp.host_state_of(pgd)
    assert kind is not EntryKind.INVALID_ANNOTATED, "annotation leaked"
    for phys in taken:
        pool.free_pages(phys)


def ext_vcpu_run_restores_stage2(p: HypProxy) -> None:
    handle, idx = p.create_running_guest()
    p.set_guest_script(handle, idx, [("halt",)])
    _expect(p.vcpu_run()[0], 0, "run")
    cpu = p.machine.cpu(0)
    assert cpu.sysregs.stage2_root == p.machine.pkvm.mp.host_mmu.root


EXTENDED_TESTS = [
    TestCase("ext_share_guest_roundtrip", ext_share_guest_roundtrip, category="extended"),
    TestCase("ext_share_guest_errors", ext_share_guest_errors, category="extended"),
    TestCase("ext_share_guest_to_protected", ext_share_guest_to_protected, category="extended"),
    TestCase("ext_share_guest_oom_rollback", ext_share_guest_oom_rollback, category="extended"),
    TestCase("ext_range_share_roundtrip", ext_range_share_roundtrip, category="extended"),
    TestCase("ext_range_share_errors", ext_range_share_errors, category="extended"),
    TestCase("ext_teardown_with_lent_pages", ext_teardown_with_lent_pages, category="extended"),
    TestCase("ext_share_oom_rollback", ext_share_oom_rollback, category="extended"),
    TestCase("ext_donate_oom_rollback", ext_donate_oom_rollback, category="extended"),
    TestCase("ext_vcpu_run_restores_stage2", ext_vcpu_run_restores_stage2, category="extended"),
]

#: The full suite: 19 + 22 = 41 single-CPU tests (the paper's count), plus
#: the concurrent handful and the extended (beyond-paper) surface.
ALL_TESTS = OK_TESTS + ERROR_TESTS + CONCURRENT_TESTS + EXTENDED_TESTS


def census() -> dict[str, int]:
    return {
        "ok": len(OK_TESTS),
        "error": len(ERROR_TESTS),
        "concurrent": len(CONCURRENT_TESTS),
        "extended": len(EXTENDED_TESTS),
        "total_single_cpu": len(OK_TESTS) + len(ERROR_TESTS),
        "total": len(ALL_TESTS),
    }
