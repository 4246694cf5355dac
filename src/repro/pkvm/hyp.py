"""pKVM proper: initialisation, the top-level trap handler, and every
hypercall handler.

The handler structure mirrors the real code the paper walks through for
``__pkvm_host_share_hyp`` (Fig. 3): read arguments out of the saved host
context, take the locks the operation needs (two-phase), call into
``mem_protect``, write the return code back into the host's registers, and
return to EL1.

Ghost instrumentation attaches at exactly the points the paper lists
(§3.2): entry and exit of the top-level handler (thread-local state), and
the acquire/release hooks of each page-table/metadata lock (the abstract
mappings). The hypervisor itself only carries an optional ``ghost`` object
and a few call-outs — the analogue of the paper's
``#ifdef CONFIG_NVHE_GHOST_SPEC`` blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.arch.cpu import Cpu
from repro.arch.defs import PAGE_SIZE, MemType, Perms, Stage, pfn_to_phys
from repro.arch.exceptions import EsrEc, HypervisorPanic, Syndrome
from repro.arch.memory import MemoryRegion, PhysicalMemory
from repro.arch.pte import PageState
from repro.arch.translate import TranslationFault, walk
from repro.pkvm.allocator import HypPool, OutOfMemory
from repro.pkvm.bugs import Bugs
from repro.pkvm.defs import (
    E2BIG,
    EBUSY,
    EINVAL,
    ENOENT,
    ENOMEM,
    EPERM,
    HYP_PRIVATE_VA_BASE,
    MEMCACHE_CAPACITY,
    MEMCACHE_TOPUP_MAX,
    HypercallId,
    OwnerId,
    s64,
    u64,
)
from repro.obs.metrics import LATENCY_BUCKETS_US
from repro.pkvm.iommu import Iommu
from repro.pkvm.mem_protect import (
    HostAbortResult,
    MemProtect,
    hyp_memory_attrs,
    hyp_va,
)
from repro.pkvm.pgtable import (
    KvmPgtable,
    MapAttrs,
    MemcacheMmOps,
    lookup,
    map_range,
)
from repro.pkvm.vm import (
    MAX_VCPUS,
    PreallocatedMmOps,
    Vcpu,
    Vm,
    VmTable,
)
from repro.sim.sched import shared_access, yield_point

#: vCPU-run exit reasons returned to the host in x1.
EXIT_DONE = 0
EXIT_MEM_ABORT = 1


@dataclass
class GuestEvent:
    """One guest-visible action performed during a vcpu_run handler,
    recorded for the specification's call data."""

    kind: str
    ipa: int = 0
    phys: int = 0
    ret: int = 0


class PKvm:
    """The hypervisor instance for one simulated machine."""

    def __init__(
        self,
        mem: PhysicalMemory,
        cpus: list[Cpu],
        bugs: Bugs | None = None,
        *,
        carveout_pages: int = 1024,
        obs,
    ):
        self.mem = mem
        self.cpus = cpus
        self.bugs = bugs or Bugs()
        self.ghost = None  # attached by repro.ghost.checker when enabled
        #: The machine's observability bundle (repro.obs.Observability).
        self.obs = obs
        self._trap_hists: dict[str, object] = {}

        dram = mem.dram_regions()[-1]
        carveout_size = carveout_pages * PAGE_SIZE
        # 2MB-align the carveout so the linear map can use block entries.
        carveout_base = (dram.end - carveout_size) & ~(0x200000 - 1)
        self.carveout = MemoryRegion(
            carveout_base, dram.end - carveout_base, MemType.NORMAL, "hyp"
        )
        self.pool = HypPool(
            mem, carveout_base, (dram.end - carveout_base) // PAGE_SIZE
        )
        self.mp = MemProtect(mem, self.pool, self.bugs)
        self.iommu = Iommu(mem, self.pool, self.bugs, self.mp)
        self.vm_table = VmTable()

        #: pKVM's private VA cursor for non-linear (IO) mappings.
        self._uart_va: int | None = None
        self._init_hyp_mappings()
        self._init_host_stage2()
        for cpu in cpus:
            cpu.sysregs.ttbr0_el2 = self.mp.pkvm_pgd.root
            cpu.sysregs.install_stage2(self.mp.host_mmu.root, vmid=0)

        #: Count of traps handled, for throughput measurements.
        self.traps_handled = 0

    # -- initialisation ----------------------------------------------------

    def _init_hyp_mappings(self) -> None:
        """Create pKVM's own stage 1: the linear map of its carveout, then
        the private IO mappings.

        The fixed code places the private range *after* the end of the
        linear map; the pre-fix code (paper bug 5) used a fixed private
        base, which very large physical memory overlaps.
        """
        linear_base_va = hyp_va(self.carveout.base)
        linear_end_va = hyp_va(self.carveout.end)
        # analysis: allow[unmanifested-write] boot-time construction of the hyp linear map, before any ownership transitions exist
        ret = map_range(
            self.mp.pkvm_pgd,
            linear_base_va,
            self.carveout.size,
            self.carveout.base,
            hyp_memory_attrs(True, PageState.OWNED),
            try_block=True,
        )
        if ret:
            raise HypervisorPanic(f"linear map init failed: {ret}")

        if self.bugs.linear_map_overlap:
            private_base = HYP_PRIVATE_VA_BASE
        else:
            private_base = max(HYP_PRIVATE_VA_BASE, linear_end_va)
        uart = next(r for r in self.mem.regions if r.name == "uart")
        self._uart_va = private_base
        # analysis: allow[unmanifested-write] boot-time private IO mapping; no page changes owner here
        ret = map_range(
            self.mp.pkvm_pgd,
            private_base,
            PAGE_SIZE,
            uart.base,
            MapAttrs(Perms.rw(), MemType.DEVICE, PageState.OWNED),
        )
        if ret:
            raise HypervisorPanic(f"IO map init failed: {ret}")

    def _init_host_stage2(self) -> None:
        """Annotate the carveout as pKVM-owned in the (otherwise empty)
        host stage 2; everything else is filled lazily on host faults."""
        from repro.pkvm.pgtable import set_owner_range

        # analysis: allow[unmanifested-write] boot-time carveout annotation; the donate/reclaim ops take over from here
        ret = set_owner_range(
            self.mp.host_mmu, self.carveout.base, self.carveout.size, OwnerId.HYP
        )
        if ret:
            raise HypervisorPanic(f"host stage 2 init failed: {ret}")

    @property
    def uart_va(self) -> int:
        assert self._uart_va is not None
        return self._uart_va

    # -- trap entry ---------------------------------------------------------

    def handle_trap(self, cpu: Cpu, syndrome: Syndrome) -> None:
        """The top-level EL2 exception handler (``handle_trap``).

        The syndrome travels architecturally: exception entry latches it
        into ESR_EL2/FAR_EL2/HPFAR_EL2, and the handler's first act is to
        read it back out of those registers — the same dataflow as the
        real ``handle_trap`` reading ``kvm_vcpu_get_esr``.
        """
        # hardware exception entry: capture the syndrome registers
        cpu.sysregs.esr_el2 = syndrome.encode_esr()
        cpu.sysregs.far_el2 = syndrome.fault_ipa & 0xFFF
        cpu.sysregs.hpfar_el2 = (syndrome.fault_ipa >> 12) << 4
        cpu.enter_el2()
        # the handler decodes what the hardware latched
        fault_ipa = ((cpu.sysregs.hpfar_el2 >> 4) << 12) | (
            cpu.sysregs.far_el2 & 0xFFF
        )
        syndrome = Syndrome.decode_esr(cpu.sysregs.esr_el2, fault_ipa)
        self.traps_handled += 1
        obs = self.obs
        name = self._trap_name(cpu, syndrome)
        with obs.tracer.span(f"trap:{name}", "hypercall", tid=cpu.index):
            started_ns = time.perf_counter_ns()
            obs.flight.record(
                "trap-entry",
                call=name,
                cpu=cpu.index,
                args=[hex(r) for r in cpu.saved_el1.regs[1:4]],
            )
            if self.ghost is not None:
                self.ghost.on_handler_entry(cpu, syndrome)
            try:
                if syndrome.ec is EsrEc.HVC64:
                    self._handle_host_hcall(cpu)
                elif syndrome.is_abort:
                    self._handle_host_mem_abort(cpu, syndrome)
                else:
                    raise HypervisorPanic(
                        f"unhandled exception class {syndrome.ec}"
                    )
            finally:
                # The exit-time ternary check may raise (fail-fast); the
                # latency observation and the flight-recorder exit event
                # must survive that — the dump's last events are exactly
                # what identifies the faulting hypercall.
                try:
                    if self.ghost is not None:
                        self.ghost.on_handler_exit(cpu)
                    cpu.return_to_el1()
                finally:
                    self._trap_latency(name).observe(
                        (time.perf_counter_ns() - started_ns) // 1000
                    )
                    obs.flight.record(
                        "trap-exit",
                        call=name,
                        cpu=cpu.index,
                        ret=s64(cpu.saved_el1.regs[1]),
                    )

    def _trap_name(self, cpu: Cpu, syndrome: Syndrome) -> str:
        """A stable label for the trap: the hypercall name, ``mem_abort``,
        or the raw exception class."""
        if syndrome.ec is EsrEc.HVC64:
            try:
                return HypercallId(cpu.saved_el1.regs[0]).name.lower()
            except ValueError:
                return "garbage_hvc"
        if syndrome.is_abort:
            return "mem_abort"
        return syndrome.ec.name.lower()

    def _trap_latency(self, name: str):
        """The per-hypercall latency histogram (cached per label)."""
        hist = self._trap_hists.get(name)
        if hist is None:
            hist = self.obs.metrics.histogram(
                "hypercall_latency_us", LATENCY_BUCKETS_US, {"call": name}
            )
            self._trap_hists[name] = hist
        return hist

    def _handle_host_hcall(self, cpu: Cpu) -> None:
        ctx = cpu.saved_el1
        call_id = ctx.regs[0]
        args = (ctx.regs[1], ctx.regs[2], ctx.regs[3])
        handlers = {
            HypercallId.HOST_SHARE_HYP: self._hcall_share_hyp,
            HypercallId.HOST_UNSHARE_HYP: self._hcall_unshare_hyp,
            HypercallId.HOST_RECLAIM_PAGE: self._hcall_reclaim_page,
            HypercallId.HOST_MAP_GUEST: self._hcall_map_guest,
            HypercallId.INIT_VM: self._hcall_init_vm,
            HypercallId.INIT_VCPU: self._hcall_init_vcpu,
            HypercallId.TEARDOWN_VM: self._hcall_teardown_vm,
            HypercallId.VCPU_LOAD: self._hcall_vcpu_load,
            HypercallId.VCPU_PUT: self._hcall_vcpu_put,
            HypercallId.VCPU_RUN: self._hcall_vcpu_run,
            HypercallId.MEMCACHE_TOPUP: self._hcall_memcache_topup,
            HypercallId.HOST_SHARE_GUEST: self._hcall_share_guest,
            HypercallId.HOST_UNSHARE_GUEST: self._hcall_unshare_guest,
            HypercallId.IOMMU_ALLOC_DOMAIN: self._hcall_iommu_alloc_domain,
            HypercallId.IOMMU_FREE_DOMAIN: self._hcall_iommu_free_domain,
            HypercallId.IOMMU_ATTACH_DEV: self._hcall_iommu_attach_dev,
            HypercallId.IOMMU_DETACH_DEV: self._hcall_iommu_detach_dev,
            HypercallId.IOMMU_MAP_PAGES: self._hcall_iommu_map_pages,
            HypercallId.IOMMU_UNMAP_PAGES: self._hcall_iommu_unmap_pages,
        }
        try:
            handler = handlers.get(HypercallId(call_id))
        except ValueError:
            handler = None
        if handler is None:
            self._finish_hcall(cpu, -EINVAL)
            return
        handler(cpu, *args)

    def _finish_hcall(self, cpu: Cpu, ret: int, aux: int = 0) -> None:
        """Write the return value into the host context and clear the
        argument registers (the paper's diff shows r0/r1 zeroed)."""
        if self.bugs.synth_missing_ret_write and ret < 0:
            return  # the injected bug: error paths forget the write-back
        ctx = cpu.saved_el1
        ctx.regs[0] = 0
        ctx.regs[1] = u64(ret)
        ctx.regs[2] = aux
        ctx.regs[3] = 0

    # -- READ_ONCE of host-owned memory -------------------------------------

    def _read_host_once(self, cpu: Cpu, phys: int) -> int:
        """Read a word from memory the host still owns and can race on.

        The specification cannot predict these values, so they are
        recorded into the call data of ``cpu``'s handler (paper §4.3)
        and the spec function is made parametric on them.
        """
        value = self.mem.read64(phys)
        yield_point("read_once")
        if self.ghost is not None:
            self.ghost.on_read_once(cpu.index, phys, value)
        return value

    def _page_is_shared_with_hyp(self, phys: int) -> bool:
        kind, state = self.mp.hyp_state_of(hyp_va(phys))
        return kind.is_leaf and state is PageState.SHARED_BORROWED

    # -- simple host <-> hyp hypercalls --------------------------------------

    def _hcall_share_hyp(self, cpu: Cpu, pfn: int, nr: int, _a3: int) -> None:
        """``__pkvm_host_share_hyp`` — the paper's running example.

        ``nr`` pages from ``pfn`` (0 means 1, preserving the single-page
        ABI the paper describes)."""
        phys = pfn_to_phys(pfn)
        self.mp.host_lock_component(cpu.index)
        self.mp.hyp_lock_component(cpu.index)
        ret = self.mp.do_share_hyp(phys, max(1, nr))
        self.mp.hyp_unlock_component(cpu.index)
        self.mp.host_unlock_component(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_unshare_hyp(self, cpu: Cpu, pfn: int, nr: int, _a3: int) -> None:
        phys = pfn_to_phys(pfn)
        self.mp.host_lock_component(cpu.index)
        self.mp.hyp_lock_component(cpu.index)
        ret = self.mp.do_unshare_hyp(phys, max(1, nr))
        self.mp.hyp_unlock_component(cpu.index)
        self.mp.host_unlock_component(cpu.index)
        self._finish_hcall(cpu, ret)

    # -- VM lifecycle --------------------------------------------------------

    def _hcall_init_vm(self, cpu: Cpu, params_pfn: int, _a2: int, _a3: int) -> None:
        """``__pkvm_init_vm``: create a VM from a host-shared params page.

        The params page holds (nr_vcpus, protected, pgd_pfn); the host can
        race on it, so every field is a recorded READ_ONCE.
        """
        params_phys = pfn_to_phys(params_pfn)
        if not self.mem.is_memory(params_phys):
            self._finish_hcall(cpu, -EINVAL)
            return
        if not self._page_is_shared_with_hyp(params_phys):
            self._finish_hcall(cpu, -EPERM)
            return
        nr_vcpus = self._read_host_once(cpu, params_phys)
        protected = self._read_host_once(cpu, params_phys + 8)
        pgd_pfn = self._read_host_once(cpu, params_phys + 16)
        if not 1 <= nr_vcpus <= MAX_VCPUS:
            self._finish_hcall(cpu, -EINVAL)
            return
        pgd_phys = pfn_to_phys(pgd_pfn)

        # Phase 1: take ownership of the donated stage 2 root page.
        self.mp.host_lock_component(cpu.index)
        self.mp.hyp_lock_component(cpu.index)
        ret = self.mp.do_donate_hyp(pgd_phys)
        self.mp.hyp_unlock_component(cpu.index)
        self.mp.host_unlock_component(cpu.index)
        if ret:
            self._finish_hcall(cpu, ret)
            return

        # Phase 2: insert into the VM table.
        self.vm_table.lock.acquire(cpu.index)
        try:
            def make_vm(handle: int, index: int) -> Vm:
                pgt = KvmPgtable(
                    self.mem,
                    Stage.STAGE2,
                    PreallocatedMmOps(self.mem, [pgd_phys]),
                    f"guest{index}_s2",
                )
                vm = Vm(
                    handle,
                    index,
                    int(nr_vcpus),
                    bool(protected),
                    pgt,
                    donated_pages=[pgd_phys],
                )
                if self.ghost is not None:
                    self.ghost.on_vm_created(cpu.index, vm)
                return vm

            vm = self.vm_table.insert(make_vm)
            ret = vm.handle if vm is not None else -ENOMEM
        finally:
            self.vm_table.lock.release(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_init_vcpu(
        self, cpu: Cpu, handle: int, donated_pfn: int, _a3: int
    ) -> None:
        """``__pkvm_init_vcpu``: add a vCPU, backed by a donated page.

        Paper bug 3 is the publication order here: the buggy code made the
        vCPU visible in the table before its fields were initialised.
        """
        donated_phys = pfn_to_phys(donated_pfn)
        self.mp.host_lock_component(cpu.index)
        self.mp.hyp_lock_component(cpu.index)
        ret = self.mp.do_donate_hyp(donated_phys)
        self.mp.hyp_unlock_component(cpu.index)
        self.mp.host_unlock_component(cpu.index)
        if ret:
            self._finish_hcall(cpu, ret)
            return

        self.vm_table.lock.acquire(cpu.index)
        vm = self.vm_table.get(handle)
        if vm is None:
            ret = -ENOENT
        elif len(vm.vcpus) >= vm.nr_vcpus:
            ret = -EINVAL
        else:
            vcpu = Vcpu(vm, len(vm.vcpus))
            vcpu.donated_page = donated_phys
            vm.donated_pages.append(donated_phys)
            if self.bugs.vcpu_load_race:
                # The bug: publish the vCPU, then initialise it without
                # the synchronisation that would order the field writes
                # before its visibility — modelled by dropping the lock
                # across the initialisation (the race window a concurrent
                # vcpu_load can hit).
                vm.vcpus.append(vcpu)
                self.vm_table.lock.release(cpu.index)
                yield_point("vcpu_published_uninit")
                self.vm_table.lock.acquire(cpu.index)
                vcpu.finish_init()
            else:
                vcpu.finish_init()
                vm.vcpus.append(vcpu)
            ret = vcpu.index
        self.vm_table.lock.release(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_teardown_vm(self, cpu: Cpu, handle: int, _a2: int, _a3: int) -> None:
        """``__pkvm_teardown_vm``: retire the VM; its pages become
        reclaimable one-by-one via ``host_reclaim_page`` (as in pKVM)."""
        self.vm_table.lock.acquire(cpu.index)
        try:
            vm = self.vm_table.get(handle)
            if vm is None:
                ret = -ENOENT
            elif any(v.loaded_on is not None for v in vm.vcpus):
                ret = -EBUSY
            else:
                vm.lock.acquire(cpu.index)
                try:
                    from repro.arch.pte import PageState

                    for ipa, (phys, state) in vm.guest_pages().items():
                        if state is PageState.SHARED_BORROWED:
                            # a page the host lent in: withdrawal, not
                            # ownership transfer
                            self.vm_table.reclaimable[phys] = (
                                "hostshare", vm, ipa,
                            )
                        else:
                            self.vm_table.reclaimable[phys] = ("guest", vm, ipa)
                    # Pages of the guest's stage 2 pagetable itself (the
                    # donated pgd root plus tables grown from memcaches)
                    # must outlive every reclaim that still walks the
                    # pagetable, so they are classified separately and
                    # their release is gated in host_reclaim_page.
                    pgt_pages = set(vm.pgt.table_pages)
                    leak_one = self.bugs.synth_teardown_page_leak
                    for phys in vm.donated_pages:
                        if leak_one:
                            leak_one = False
                            continue
                        if phys in pgt_pages:
                            self.vm_table.reclaimable[phys] = ("pgt", vm, phys)
                        else:
                            self.vm_table.reclaimable[phys] = ("hyp", phys)
                    for vcpu in vm.vcpus:
                        if vcpu.memcache is not None:
                            for phys in vcpu.memcache.pages:
                                self.vm_table.reclaimable[phys] = ("hyp", phys)
                    for phys in pgt_pages - set(vm.donated_pages):
                        self.vm_table.reclaimable[phys] = ("pgt", vm, phys)
                    vm.torn_down = True
                finally:
                    vm.lock.release(cpu.index)
                self.vm_table.remove(vm)
                ret = 0
        finally:
            self.vm_table.lock.release(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_reclaim_page(self, cpu: Cpu, pfn: int, _a2: int, _a3: int) -> None:
        """``__pkvm_host_reclaim_page``: recover one page of a dead VM."""
        phys = pfn_to_phys(pfn)
        self.vm_table.lock.acquire(cpu.index)
        try:
            entry = self.vm_table.reclaimable.get(phys)
            if entry is None:
                ret = -ENOENT
            elif entry[0] == "guest":
                _, vm, ipa = entry
                vm.lock.acquire(cpu.index)
                self.mp.host_lock_component(cpu.index)
                ret = self.mp.do_reclaim_from_guest(phys, vm.pgt, ipa, vm.owner_id)
                self.mp.host_unlock_component(cpu.index)
                vm.lock.release(cpu.index)
            elif entry[0] == "hostshare":
                _, vm, ipa = entry
                vm.lock.acquire(cpu.index)
                self.mp.host_lock_component(cpu.index)
                ret = self.mp.do_unshare_guest(phys, vm.pgt, ipa)
                self.mp.host_unlock_component(cpu.index)
                vm.lock.release(cpu.index)
            elif entry[0] == "pgt":
                # A page of the dead VM's stage 2 pagetable. Releasing
                # (and zeroing) it while guest pages are still pending
                # would corrupt the very pagetable their reclaim walks —
                # the hypervisor must refuse, whatever order a (possibly
                # malicious) host asks for.
                _, vm, _phys = entry
                if any(
                    e[0] in ("guest", "hostshare") and e[1] is vm
                    for e in self.vm_table.reclaimable.values()
                ):
                    ret = -EBUSY
                else:
                    self.mp.host_lock_component(cpu.index)
                    self.mp.hyp_lock_component(cpu.index)
                    ret = self.mp.do_reclaim_from_hyp(phys)
                    self.mp.hyp_unlock_component(cpu.index)
                    self.mp.host_unlock_component(cpu.index)
            else:
                self.mp.host_lock_component(cpu.index)
                self.mp.hyp_lock_component(cpu.index)
                ret = self.mp.do_reclaim_from_hyp(phys)
                self.mp.hyp_unlock_component(cpu.index)
                self.mp.host_unlock_component(cpu.index)
            if ret == 0:
                del self.vm_table.reclaimable[phys]
        finally:
            self.vm_table.lock.release(cpu.index)
        self._finish_hcall(cpu, ret)

    # -- vCPU load/put/run ----------------------------------------------------

    def _hcall_vcpu_load(
        self, cpu: Cpu, handle: int, vcpu_idx: int, _a3: int
    ) -> None:
        self.vm_table.lock.acquire(cpu.index)
        try:
            vm = self.vm_table.get(handle)
            if vm is None:
                ret = -ENOENT
            elif cpu.loaded_vcpu is not None:
                ret = -EBUSY
            elif vcpu_idx >= len(vm.vcpus):
                ret = -ENOENT
            else:
                vcpu = vm.vcpus[vcpu_idx]
                # Reads initialized/loaded_on and writes loaded_on: one
                # access to the vCPU metadata location. (The post-load
                # accesses in vcpu_run are intentionally not instrumented:
                # loading transfers ownership to the hardware thread, a
                # protocol a lockset analysis cannot express.)
                shared_access(vcpu.location_key, write=True)
                if not self.bugs.vcpu_load_race and not vcpu.initialized:
                    ret = -ENOENT
                elif vcpu.loaded_on is not None:
                    ret = -EBUSY
                else:
                    # Ownership of the vCPU metadata transfers from the
                    # vm_table lock to this hardware thread.
                    vcpu.loaded_on = cpu.index
                    cpu.loaded_vcpu = vcpu
                    ret = 0
        finally:
            self.vm_table.lock.release(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_vcpu_put(self, cpu: Cpu, _a1: int, _a2: int, _a3: int) -> None:
        self.vm_table.lock.acquire(cpu.index)
        try:
            vcpu = cpu.loaded_vcpu
            if vcpu is None:
                ret = -EINVAL
            else:
                shared_access(vcpu.location_key, write=True)
                vcpu.loaded_on = None
                cpu.loaded_vcpu = None
                ret = 0
        finally:
            self.vm_table.lock.release(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_vcpu_run(self, cpu: Cpu, _a1: int, _a2: int, _a3: int) -> None:
        """``__pkvm_vcpu_run``: context-switch to the guest and execute its
        (scripted) program until it halts or faults.

        Guest memory accesses translate through the guest's stage 2 — the
        implicit page-table walks the specification must constrain. Guest
        hypercalls (share/unshare with the host) are handled inline, taking
        the VM and host locks per operation.
        """
        vcpu = cpu.loaded_vcpu
        if vcpu is None:
            self._finish_hcall(cpu, -EINVAL)
            return
        if vcpu.saved_regs is None or vcpu.memcache is None:
            # Only reachable with bug 3 enabled: the vCPU was published
            # before initialisation and we are now using garbage metadata.
            raise HypervisorPanic("running uninitialised vCPU metadata")
        vm = vcpu.vm
        cpu.sysregs.install_stage2(vm.pgt.root, vmid=vm.index + 1)
        try:
            ret, aux = self._run_guest(cpu, vcpu)
        finally:
            if not self.bugs.synth_vttbr_not_restored:
                cpu.sysregs.install_stage2(self.mp.host_mmu.root, vmid=0)
        self._finish_hcall(cpu, ret, aux)

    def _run_guest(self, cpu: Cpu, vcpu: Vcpu) -> tuple[int, int]:
        vm = vcpu.vm
        while vcpu.script_pos < len(vcpu.script):
            op = vcpu.script[vcpu.script_pos]
            kind = op[0]
            if kind in ("read", "write"):
                ipa = op[1]
                try:
                    result = walk(
                        self.mem,
                        vm.pgt.root,
                        ipa,
                        Stage.STAGE2,
                        write=(kind == "write"),
                    )
                except TranslationFault:
                    # Exit to the host, which may donate a page and re-run.
                    return EXIT_MEM_ABORT, ipa
                if kind == "write":
                    self.mem.write64(result.oa & ~7, op[2])
                vcpu.script_pos += 1
            elif kind in ("share", "unshare"):
                ipa = op[1]
                ret = self._guest_mem_hcall(cpu, vcpu, kind, ipa)
                if self.ghost is not None:
                    pte = lookup(vm.pgt, ipa)
                    self.ghost.on_guest_event(
                        cpu.index, GuestEvent(kind, ipa=ipa, phys=pte.oa, ret=ret)
                    )
                vcpu.script_pos += 1
            elif kind == "halt":
                vcpu.script_pos += 1
                return EXIT_DONE, 0
            else:
                raise HypervisorPanic(f"unknown guest op {kind!r}")
        return EXIT_DONE, 0

    def _guest_mem_hcall(self, cpu: Cpu, vcpu: Vcpu, kind: str, ipa: int) -> int:
        """A guest ``hvc``: share/unshare one of its pages with the host."""
        vm = vcpu.vm
        vm.lock.acquire(cpu.index)
        self.mp.host_lock_component(cpu.index)
        try:
            pte = lookup(vm.pgt, ipa & ~(PAGE_SIZE - 1))
            if not pte.kind.is_leaf:
                return -ENOENT
            phys = pte.oa
            if kind == "share":
                return self.mp.do_guest_share_host(vm.pgt, ipa, phys)
            return self.mp.do_guest_unshare_host(vm.pgt, ipa, phys, vm.owner_id)
        finally:
            self.mp.host_unlock_component(cpu.index)
            vm.lock.release(cpu.index)

    def _hcall_map_guest(self, cpu: Cpu, pfn: int, gfn: int, _a3: int) -> None:
        """``__pkvm_host_map_guest``: donate a host page into the loaded
        guest at the given guest frame (how hosts back protected VMs)."""
        vcpu = cpu.loaded_vcpu
        if vcpu is None:
            self._finish_hcall(cpu, -EINVAL)
            return
        vm = vcpu.vm
        phys = pfn_to_phys(pfn)
        ipa = pfn_to_phys(gfn)
        vm.lock.acquire(cpu.index)
        self.mp.host_lock_component(cpu.index)
        try:
            # Guest table pages come from the loaded vCPU's memcache.
            old_ops = vm.pgt.mm_ops
            vm.pgt.mm_ops = MemcacheMmOps(vcpu.memcache, self.mem)
            try:
                ret = self.mp.do_donate_guest(phys, vm.pgt, ipa, vm.owner_id)
            except OutOfMemory:
                ret = -ENOMEM
            finally:
                vm.pgt.mm_ops = old_ops
        finally:
            self.mp.host_unlock_component(cpu.index)
            vm.lock.release(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_share_guest(self, cpu: Cpu, pfn: int, gfn: int, _a3: int) -> None:
        """``__pkvm_host_share_guest``: lend a host page to the loaded
        *non-protected* guest — the host keeps access (vs donation)."""
        vcpu = cpu.loaded_vcpu
        if vcpu is None:
            self._finish_hcall(cpu, -EINVAL)
            return
        vm = vcpu.vm
        if vm.protected:
            self._finish_hcall(cpu, -EPERM)
            return
        phys = pfn_to_phys(pfn)
        ipa = pfn_to_phys(gfn)
        vm.lock.acquire(cpu.index)
        self.mp.host_lock_component(cpu.index)
        try:
            old_ops = vm.pgt.mm_ops
            vm.pgt.mm_ops = MemcacheMmOps(vcpu.memcache, self.mem)
            try:
                ret = self.mp.do_share_guest(phys, vm.pgt, ipa)
            except OutOfMemory:
                ret = -ENOMEM
            finally:
                vm.pgt.mm_ops = old_ops
        finally:
            self.mp.host_unlock_component(cpu.index)
            vm.lock.release(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_unshare_guest(
        self, cpu: Cpu, pfn: int, gfn: int, _a3: int
    ) -> None:
        vcpu = cpu.loaded_vcpu
        if vcpu is None:
            self._finish_hcall(cpu, -EINVAL)
            return
        vm = vcpu.vm
        phys = pfn_to_phys(pfn)
        ipa = pfn_to_phys(gfn)
        vm.lock.acquire(cpu.index)
        self.mp.host_lock_component(cpu.index)
        try:
            # Rebind table allocation to the loaded vCPU's memcache so
            # table pages freed by the unmap return where they came from.
            old_ops = vm.pgt.mm_ops
            vm.pgt.mm_ops = MemcacheMmOps(vcpu.memcache, self.mem)
            try:
                ret = self.mp.do_unshare_guest(phys, vm.pgt, ipa)
            finally:
                vm.pgt.mm_ops = old_ops
        finally:
            self.mp.host_unlock_component(cpu.index)
            vm.lock.release(cpu.index)
        self._finish_hcall(cpu, ret)

    # -- IOMMU hypercalls ----------------------------------------------------

    def _hcall_iommu_alloc_domain(
        self, cpu: Cpu, domain_id: int, _a2: int, _a3: int
    ) -> None:
        """``__pkvm_iommu_alloc_domain``: create a DMA domain (its shadow
        stage 2 root comes from the hyp pool)."""
        self.iommu.iommu_lock_component(cpu.index)
        try:
            ret = self.iommu.alloc_domain(domain_id)
        except OutOfMemory:
            ret = -ENOMEM
        finally:
            self.iommu.iommu_unlock_component(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_iommu_free_domain(
        self, cpu: Cpu, domain_id: int, _a2: int, _a3: int
    ) -> None:
        self.iommu.iommu_lock_component(cpu.index)
        try:
            ret = self.iommu.free_domain(domain_id)
        finally:
            self.iommu.iommu_unlock_component(cpu.index)
        if ret == 0 and self.ghost is not None:
            self.ghost.on_iommu_domain_freed(domain_id)
        self._finish_hcall(cpu, ret)

    def _hcall_iommu_attach_dev(
        self, cpu: Cpu, domain_id: int, dev: int, _a3: int
    ) -> None:
        self.iommu.iommu_lock_component(cpu.index)
        try:
            ret = self.iommu.attach_dev(domain_id, dev)
        finally:
            self.iommu.iommu_unlock_component(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_iommu_detach_dev(
        self, cpu: Cpu, domain_id: int, dev: int, _a3: int
    ) -> None:
        self.iommu.iommu_lock_component(cpu.index)
        try:
            ret = self.iommu.detach_dev(domain_id, dev)
        finally:
            self.iommu.iommu_unlock_component(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_iommu_map_pages(
        self, cpu: Cpu, domain_id: int, iova_pfn: int, pfn: int
    ) -> None:
        """``__pkvm_iommu_map_pages``: flip the host page OWNED ->
        SHARED_OWNED and install the SHARED_BORROWED shadow entry; lock
        order is host, then iommu (matching map's two-table write)."""
        iova = pfn_to_phys(iova_pfn)
        phys = pfn_to_phys(pfn)
        self.mp.host_lock_component(cpu.index)
        self.iommu.iommu_lock_component(cpu.index)
        try:
            ret = self.iommu.do_map_pages(domain_id, iova, phys)
        except OutOfMemory:
            ret = -ENOMEM
        finally:
            self.iommu.iommu_unlock_component(cpu.index)
            self.mp.host_unlock_component(cpu.index)
        self._finish_hcall(cpu, ret)

    def _hcall_iommu_unmap_pages(
        self, cpu: Cpu, domain_id: int, iova_pfn: int, _a3: int
    ) -> None:
        iova = pfn_to_phys(iova_pfn)
        self.mp.host_lock_component(cpu.index)
        self.iommu.iommu_lock_component(cpu.index)
        try:
            ret = self.iommu.do_unmap_pages(domain_id, iova)
        finally:
            self.iommu.iommu_unlock_component(cpu.index)
            self.mp.host_unlock_component(cpu.index)
        self._finish_hcall(cpu, ret)

    # -- memcache topup (paper bugs 1 and 2) -----------------------------------

    def _hcall_memcache_topup(
        self, cpu: Cpu, list_pfn: int, nr: int, _a3: int
    ) -> None:
        """Refill the loaded vCPU's memcache from a host-provided list.

        The host writes ``nr`` page *addresses* into a page it has shared
        with pKVM; pKVM validates each, takes ownership, zeroes it, and
        pushes it onto the memcache. The two real bugs:

        - **bug 2** (size check): the fixed code bounds ``nr`` directly;
          the buggy code bounded ``nr * 8`` computed in signed 64-bit
          arithmetic, which overflows for huge ``nr`` and goes negative,
          passing the check and reading past the shared page.
        - **bug 1** (alignment check): the fixed code rejects unaligned
          entries; the buggy code masked the address for the ownership
          transfer but zeroed at the *raw* address, letting a malicious
          host get EL2 to zero memory straddling a page boundary.
        """
        vcpu = cpu.loaded_vcpu
        if vcpu is None:
            self._finish_hcall(cpu, -EINVAL)
            return
        list_phys = pfn_to_phys(list_pfn)
        if not self.mem.is_memory(list_phys):
            self._finish_hcall(cpu, -EINVAL)
            return
        if not self._page_is_shared_with_hyp(list_phys):
            self._finish_hcall(cpu, -EPERM)
            return

        if self.bugs.memcache_overflow:
            space = s64(u64(nr) * 8)
            if space > PAGE_SIZE:
                self._finish_hcall(cpu, -E2BIG)
                return
        else:
            if nr > MEMCACHE_TOPUP_MAX:
                self._finish_hcall(cpu, -E2BIG)
                return
        ret = 0
        self.mp.host_lock_component(cpu.index)
        self.mp.hyp_lock_component(cpu.index)
        try:
            # Bound the buggy over-read so the simulation stays finite; in
            # the real bug the walk off the page reads unshared host data.
            limit = min(u64(nr), 520)
            for i in range(limit):
                if len(vcpu.memcache) >= MEMCACHE_CAPACITY:
                    ret = -ENOMEM
                    break
                addr = self._read_host_once(cpu, list_phys + 8 * i)
                if not self.bugs.memcache_alignment and addr % PAGE_SIZE:
                    ret = -EINVAL
                    break
                page_phys = addr & ~(PAGE_SIZE - 1)
                ret = self.mp.do_donate_hyp(page_phys)
                if ret:
                    break
                # Initialise the cached page — at the *raw* address.
                self.mem.zero_range(addr & ~7, PAGE_SIZE)
                vcpu.memcache.push(page_phys)
        finally:
            self.mp.hyp_unlock_component(cpu.index)
            self.mp.host_unlock_component(cpu.index)
        self._finish_hcall(cpu, ret)

    # -- host stage 2 aborts -----------------------------------------------

    def _handle_host_mem_abort(self, cpu: Cpu, syndrome: Syndrome) -> None:
        """Stage 2 abort from the host: map on demand, or inject back."""
        self.mp.host_lock_component(cpu.index)
        try:
            result = self.mp.host_handle_mem_abort(syndrome.fault_ipa)
        finally:
            self.mp.host_unlock_component(cpu.index)
        # Communicate the outcome to the simulated host: x1 = 0 for a
        # successful demand map (retry the access), 1 for an injected
        # fault (the host's own fault handler runs).
        cpu.saved_el1.regs[1] = 0 if result is HostAbortResult.MAPPED else 1
