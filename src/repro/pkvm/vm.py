"""Guest virtual machines: metadata, the vm_table, and vCPU lifecycle.

The shared metadata of all VMs is protected by a single ``vm_table`` lock
(paper §3: "one more lock protecting its table holding the metadata of the
guest virtual machines"). Before a vCPU can run it must be *loaded* onto a
physical CPU, which — the paper's "additional subtlety" — transfers
ownership of that vCPU's metadata from the vm_table lock to the hardware
thread's local state. The ghost machinery mirrors exactly this ownership
movement.

Paper bug 3 lives here: vCPU initialisation published the vCPU before its
metadata writes were complete, racing with a concurrent load.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field

from repro.arch.defs import PAGE_SIZE
from repro.arch.memory import PhysicalMemory
from repro.pkvm.allocator import Memcache
from repro.pkvm.pgtable import KvmPgtable, MmOps
from repro.pkvm.defs import OwnerId
from repro.pkvm.spinlock import HypSpinLock
from repro.sim.sched import shared_access, yield_point

MAX_VMS = 16
MAX_VCPUS = 8

#: VM handles start here, so a handle is never a plausible small errno.
HANDLE_OFFSET = 0x1000


class PreallocatedMmOps(MmOps):
    """Table pages from an explicit list of host-donated pages.

    The guest stage 2 root comes from the page donated with ``init_vm``;
    later guest tables come from the running vCPU's memcache, installed by
    rebinding ``pgt.mm_ops`` at map time (the kernel passes the memcache as
    a walker argument; rebinding is the same dataflow).
    """

    def __init__(self, mem: PhysicalMemory, pages: list[int]):
        self.mem = mem
        self.pages = list(pages)
        self.returned: list[int] = []

    def alloc_table(self) -> int:
        from repro.pkvm.allocator import OutOfMemory

        if not self.pages:
            raise OutOfMemory("no donated table pages left")
        phys = self.pages.pop()
        self.mem.zero_page(phys >> 12)
        return phys

    def free_table(self, phys: int) -> None:
        self.returned.append(phys)


class VcpuState(enum.Enum):
    READY = "ready"
    LOADED = "loaded"


@dataclass
class VcpuRegs:
    """Saved guest register state while the vCPU is not running."""

    regs: list[int] = field(default_factory=lambda: [0] * 31)
    pc: int = 0


class Vcpu:
    """One virtual CPU. Fields are written by ``init_vcpu`` and must all be
    in place before the vCPU becomes visible in the VM's list — bug 3 is
    the violation of exactly that."""

    def __init__(self, vm: "Vm", index: int):
        # Weak: the VM owns its vCPUs (``Vm.vcpus``), and a loaded vCPU's
        # VM cannot be torn down, so the referent outlives every use.
        self._vm = weakref.ref(vm)
        self.index = index
        self.initialized = False
        self.memcache: Memcache | None = None
        self.saved_regs: VcpuRegs | None = None
        self.loaded_on: int | None = None
        #: Physical page donated by the host for this vCPU's metadata.
        self.donated_page: int = 0
        #: Program position for scripted guest execution (host.py drives).
        self.script_pos: int = 0
        self.script: list = []

    @property
    def vm(self) -> "Vm":
        return self._vm()

    def finish_init(self) -> None:
        shared_access(self.location_key, write=True)
        self.memcache = Memcache()
        self.saved_regs = VcpuRegs()
        yield_point("vcpu_init_fields")
        self.initialized = True

    @property
    def location_key(self) -> str:
        """Stable shared-location key for this vCPU's metadata fields."""
        return f"vcpu:{self.vm.index}:{self.index}"

    @property
    def state(self) -> VcpuState:
        return VcpuState.LOADED if self.loaded_on is not None else VcpuState.READY


class Vm:
    """One guest VM's shared metadata."""

    def __init__(
        self,
        handle: int,
        index: int,
        nr_vcpus: int,
        protected: bool,
        pgt: KvmPgtable,
        donated_pages: list[int],
    ):
        self.handle = handle
        self.index = index
        self.nr_vcpus = nr_vcpus
        self.protected = protected
        self.pgt = pgt
        #: Per-guest stage 2 lock (paper §3.1: "one for each guest Stage 2").
        self.lock = HypSpinLock(f"vm{index}")
        self.vcpus: list[Vcpu] = []
        #: Host pages donated for this VM's metadata (vm struct, pgd,
        #: vcpu structs); returned via host_reclaim_page after teardown.
        self.donated_pages = list(donated_pages)
        self.torn_down = False

    @property
    def owner_id(self) -> int:
        """The annotation owner id for pages this guest owns (GUEST+index;
        a plain int, since guest ids are open-ended)."""
        return int(OwnerId.GUEST) + self.index

    def guest_pages(self) -> dict[int, tuple[int, "PageState"]]:
        """ipa -> (phys, page state) for every page in the guest stage 2.

        Used at teardown to seed the reclaim set; the state distinguishes
        guest-owned pages (reclaimed by ownership transfer) from pages
        the host lent in (reclaimed by withdrawing the share).
        """
        from repro.pkvm.pgtable import iter_leaves

        pages: dict[int, tuple[int, "PageState"]] = {}
        for va, pte in iter_leaves(self.pgt):
            if pte.kind.is_leaf:
                size = PAGE_SIZE if pte.level == 3 else 1 << (12 + 9 * (3 - pte.level))
                for off in range(0, size, PAGE_SIZE):
                    pages[va + off] = (pte.oa + off, pte.page_state)
        return pages


class VmTable:
    """The table of guest VMs, with its single protecting lock."""

    def __init__(self):
        self.lock = HypSpinLock("vm_table")
        self._slots: list[Vm | None] = [None] * MAX_VMS
        #: Monotonic handle generation counter: handles are never reused
        #: even when a slot (and hence an 8-bit owner id) is.
        self._nr_created = 0
        #: Pages awaiting host_reclaim_page after a VM teardown:
        #: phys -> ("guest", vm, ipa) or ("hyp", phys).
        self.reclaimable: dict[int, tuple] = {}

    def get(self, handle: int) -> Vm | None:
        shared_access("vm_table", write=False)
        for vm in self._slots:
            if vm is not None and vm.handle == handle:
                return vm
        return None

    def next_handle(self) -> int:
        """The handle the next successful insert will allocate."""
        return HANDLE_OFFSET + self._nr_created

    def insert(self, make_vm) -> Vm | None:
        """Allocate a free slot and build the VM into it, or None if full."""
        shared_access("vm_table", write=True)
        for index, slot in enumerate(self._slots):
            if slot is None:
                vm = make_vm(self.next_handle(), index)
                self._slots[index] = vm
                self._nr_created += 1
                return vm
        return None

    def remove(self, vm: Vm) -> None:
        shared_access("vm_table", write=True)
        assert self._slots[vm.index] is vm
        self._slots[vm.index] = None

    def live_vms(self) -> list[Vm]:
        return [vm for vm in self._slots if vm is not None]
