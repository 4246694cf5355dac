"""The hyp-proxy: user-space-style access to the pKVM API.

The paper patches the Linux kernel to "expose pKVM API calls, and the
required kernel memory management, to user-space", then programs tests
above an OCaml library of "functions both for well-behaved and arbitrary
invocations". This module is that library: the *well-behaved* flows (set
up a params page properly, donate fresh pages, keep handles) plus raw
access for arbitrary calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.defs import PAGE_SIZE, phys_to_pfn
from repro.machine import Machine
from repro.pkvm.defs import EBUSY, HypercallId
from repro.testing.trace import Trace


@dataclass
class VmHandleInfo:
    """Proxy-side bookkeeping for one created VM."""

    handle: int
    nr_vcpus: int
    protected: bool
    vcpu_indices: list[int] = field(default_factory=list)
    #: gfn -> donated phys, pages currently mapped into the guest.
    mapped: dict[int, int] = field(default_factory=dict)


class HypProxy:
    """Well-behaved and arbitrary invocations of the pKVM hypercall API.

    Given a ``trace``, the proxy records every machine interaction
    (hypercalls, host reads and writes, installed guest scripts) before
    it runs it, so the trace replays the faulting step too.
    """

    def __init__(self, machine: Machine, trace: Trace | None = None):
        self.machine = machine
        self.host = machine.host
        self.trace = trace
        self.vms: dict[int, VmHandleInfo] = {}

    # -- raw access ----------------------------------------------------------

    def hvc(self, call_id: int, *args: int, cpu_index: int = 0) -> int:
        """An arbitrary hypercall: no validation, no bookkeeping."""
        if self.trace is not None:
            self.trace.record_hvc(cpu_index, call_id, *args)
        return self.host.hvc(call_id, *args, cpu=self.machine.cpu(cpu_index))

    def read64(self, addr: int, cpu_index: int = 0) -> int:
        """A host load through the host's own stage 2."""
        if self.trace is not None:
            self.trace.record_read(addr, cpu_index)
        return self.host.read64(addr, cpu=self.machine.cpu(cpu_index))

    def write64(self, addr: int, value: int, cpu_index: int = 0) -> None:
        """A host store through the host's own stage 2."""
        if self.trace is not None:
            self.trace.record_write(addr, value, cpu_index)
        self.host.write64(addr, value, cpu=self.machine.cpu(cpu_index))

    # -- memory helpers --------------------------------------------------------

    def alloc_page(self) -> int:
        return self.host.alloc_page()

    def write_words(
        self, phys: int, values: list[int], cpu_index: int = 0
    ) -> None:
        """Write words into host memory through the host's own stage 2
        (faulting pages in on demand, as the real kernel would). Every
        word is recorded before the first is written."""
        if self.trace is not None:
            for i, value in enumerate(values):
                self.trace.record_write(phys + 8 * i, value, cpu_index)
        cpu = self.machine.cpu(cpu_index)
        for i, value in enumerate(values):
            self.host.write64(phys + 8 * i, value, cpu=cpu)

    def share_page(self, phys: int, cpu_index: int = 0) -> int:
        return self.hvc(
            HypercallId.HOST_SHARE_HYP, phys_to_pfn(phys), cpu_index=cpu_index
        )

    def unshare_page(self, phys: int, cpu_index: int = 0) -> int:
        return self.hvc(
            HypercallId.HOST_UNSHARE_HYP, phys_to_pfn(phys), cpu_index=cpu_index
        )

    def share_range(self, phys: int, nr_pages: int, cpu_index: int = 0) -> int:
        """Multi-page share: ``nr_pages`` contiguous pages from ``phys``."""
        return self.hvc(
            HypercallId.HOST_SHARE_HYP,
            phys_to_pfn(phys),
            nr_pages,
            cpu_index=cpu_index,
        )

    def unshare_range(self, phys: int, nr_pages: int, cpu_index: int = 0) -> int:
        return self.hvc(
            HypercallId.HOST_UNSHARE_HYP,
            phys_to_pfn(phys),
            nr_pages,
            cpu_index=cpu_index,
        )

    def alloc_pages(self, nr_pages: int) -> int:
        """Allocate ``nr_pages`` contiguous host pages (bump allocator)."""
        pages = [self.alloc_page() for _ in range(nr_pages)]
        for a, b in zip(pages, pages[1:]):
            if b != a + PAGE_SIZE:
                raise RuntimeError("host allocator returned non-contiguous run")
        return pages[0]

    # -- well-behaved VM lifecycle ------------------------------------------

    def create_vm(
        self, nr_vcpus: int = 1, protected: bool = True, cpu_index: int = 0
    ) -> int:
        """The full, correct init_vm flow; returns the VM handle.

        Allocates and shares a params page, donates a fresh page for the
        guest stage 2 root, invokes the hypercall, and unshares the params
        page again.
        """
        params = self.alloc_page()
        pgd = self.alloc_page()
        self.write_words(
            params, [nr_vcpus, int(protected), phys_to_pfn(pgd)], cpu_index
        )
        ret = self.share_page(params, cpu_index)
        if ret:
            raise RuntimeError(f"sharing params page failed: {ret}")
        handle = self.hvc(
            HypercallId.INIT_VM, phys_to_pfn(params), cpu_index=cpu_index
        )
        self.unshare_page(params, cpu_index)
        self.host.free_page(params)
        if handle < 0:
            self.host.free_page(pgd)
            raise RuntimeError(f"init_vm failed: {handle}")
        self.vms[handle] = VmHandleInfo(handle, nr_vcpus, protected)
        return handle

    def init_vcpu(self, handle: int, cpu_index: int = 0) -> int:
        donated = self.alloc_page()
        idx = self.hvc(
            HypercallId.INIT_VCPU,
            handle,
            phys_to_pfn(donated),
            cpu_index=cpu_index,
        )
        if idx < 0:
            self.host.free_page(donated)
            raise RuntimeError(f"init_vcpu failed: {idx}")
        if handle in self.vms:
            self.vms[handle].vcpu_indices.append(idx)
        return idx

    def vcpu_load(self, handle: int, vcpu_idx: int, cpu_index: int = 0) -> int:
        return self.hvc(
            HypercallId.VCPU_LOAD, handle, vcpu_idx, cpu_index=cpu_index
        )

    def vcpu_put(self, cpu_index: int = 0) -> int:
        return self.hvc(HypercallId.VCPU_PUT, cpu_index=cpu_index)

    def vcpu_run(self, cpu_index: int = 0) -> tuple[int, int]:
        """Run the loaded vCPU; returns (exit code, aux e.g. fault IPA)."""
        ret = self.hvc(HypercallId.VCPU_RUN, cpu_index=cpu_index)
        return ret, self.machine.cpu(cpu_index).read_gpr(2)

    def topup_memcache(self, nr: int, cpu_index: int = 0) -> int:
        """Donate ``nr`` fresh pages into the loaded vCPU's memcache."""
        list_page = self.alloc_page()
        pages = [self.alloc_page() for _ in range(nr)]
        self.write_words(list_page, pages, cpu_index)
        ret = self.share_page(list_page, cpu_index)
        if ret:
            raise RuntimeError(f"sharing topup list failed: {ret}")
        ret = self.hvc(
            HypercallId.MEMCACHE_TOPUP,
            phys_to_pfn(list_page),
            nr,
            cpu_index=cpu_index,
        )
        self.unshare_page(list_page, cpu_index)
        self.host.free_page(list_page)
        return ret

    def map_guest_page(self, gfn: int, cpu_index: int = 0) -> int:
        """Donate one fresh host page into the loaded guest at ``gfn``."""
        page = self.alloc_page()
        ret = self.hvc(
            HypercallId.HOST_MAP_GUEST,
            phys_to_pfn(page),
            gfn,
            cpu_index=cpu_index,
        )
        if ret == 0:
            vcpu = self.machine.cpu(cpu_index).loaded_vcpu
            if vcpu is not None and vcpu.vm.handle in self.vms:
                self.vms[vcpu.vm.handle].mapped[gfn] = page
        else:
            self.host.free_page(page)
        return ret

    def set_guest_script(self, handle: int, vcpu_idx: int, script: list) -> None:
        """Install the program the guest will execute when run.

        In the real system this is the guest image in its memory; the
        simulation scripts guest behaviour directly ("read"/"write"/
        "share"/"unshare"/"halt" ops).
        """
        vm = self.machine.pkvm.vm_table.get(handle)
        if vm is None:
            raise ValueError(f"no such VM {handle:#x}")
        vcpu = vm.vcpus[vcpu_idx]
        if self.trace is not None:
            self.trace.record_script(handle, vcpu_idx, script)
        vcpu.script = list(script)
        vcpu.script_pos = 0

    def teardown_vm(self, handle: int, cpu_index: int = 0) -> int:
        ret = self.hvc(HypercallId.TEARDOWN_VM, handle, cpu_index=cpu_index)
        if ret == 0:
            self.vms.pop(handle, None)
        return ret

    def reclaim_all(self, cpu_index: int = 0) -> int:
        """Reclaim every reclaimable page (what the host does after a VM
        teardown); returns how many pages came back."""
        count = 0
        while True:
            reclaimable = list(self.machine.pkvm.vm_table.reclaimable)
            if not reclaimable:
                return count
            progressed = False
            for phys in reclaimable:
                ret = self.hvc(
                    HypercallId.HOST_RECLAIM_PAGE,
                    phys_to_pfn(phys),
                    cpu_index=cpu_index,
                )
                if ret == 0:
                    count += 1
                    progressed = True
                elif ret == -EBUSY:
                    # Pagetable pages of a dead VM are refused while its
                    # guest pages are pending; the next sweep gets them.
                    continue
                else:
                    raise RuntimeError(
                        f"reclaim of {phys:#x} failed: {ret}"
                    )
            if not progressed:
                raise RuntimeError("reclaim made no progress over a sweep")

    # -- DMA domains (the IOMMU boundary) -----------------------------------

    def iommu_alloc_domain(self, domain_id: int, cpu_index: int = 0) -> int:
        return self.hvc(
            HypercallId.IOMMU_ALLOC_DOMAIN, domain_id, cpu_index=cpu_index
        )

    def iommu_free_domain(self, domain_id: int, cpu_index: int = 0) -> int:
        return self.hvc(
            HypercallId.IOMMU_FREE_DOMAIN, domain_id, cpu_index=cpu_index
        )

    def iommu_attach_dev(
        self, domain_id: int, dev: int, cpu_index: int = 0
    ) -> int:
        return self.hvc(
            HypercallId.IOMMU_ATTACH_DEV, domain_id, dev, cpu_index=cpu_index
        )

    def iommu_detach_dev(
        self, domain_id: int, dev: int, cpu_index: int = 0
    ) -> int:
        return self.hvc(
            HypercallId.IOMMU_DETACH_DEV, domain_id, dev, cpu_index=cpu_index
        )

    def iommu_map_page(
        self, domain_id: int, iova: int, phys: int, cpu_index: int = 0
    ) -> int:
        """Map one host page for DMA at ``iova`` (byte addresses, like
        ``share_page``; the hypercall ABI carries pfns)."""
        return self.hvc(
            HypercallId.IOMMU_MAP_PAGES,
            domain_id,
            phys_to_pfn(iova),
            phys_to_pfn(phys),
            cpu_index=cpu_index,
        )

    def iommu_unmap_page(
        self, domain_id: int, iova: int, cpu_index: int = 0
    ) -> int:
        return self.hvc(
            HypercallId.IOMMU_UNMAP_PAGES,
            domain_id,
            phys_to_pfn(iova),
            cpu_index=cpu_index,
        )

    # -- composite flows -------------------------------------------------------

    def create_running_guest(
        self,
        nr_vcpus: int = 1,
        memcache_pages: int = 8,
        backed_gfns: list[int] | None = None,
        cpu_index: int = 0,
    ) -> tuple[int, int]:
        """VM + vCPU + load + memcache + optional backing pages.

        Returns (handle, vcpu index) with the vCPU still loaded.
        """
        handle = self.create_vm(nr_vcpus=nr_vcpus)
        idx = self.init_vcpu(handle)
        ret = self.vcpu_load(handle, idx, cpu_index)
        if ret:
            raise RuntimeError(f"vcpu_load failed: {ret}")
        ret = self.topup_memcache(memcache_pages, cpu_index)
        if ret:
            raise RuntimeError(f"memcache topup failed: {ret}")
        for gfn in backed_gfns or []:
            ret = self.map_guest_page(gfn, cpu_index)
            if ret:
                raise RuntimeError(f"map_guest({gfn:#x}) failed: {ret}")
        return handle, idx
