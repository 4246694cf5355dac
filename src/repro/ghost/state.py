"""The reified ghost state: a mathematical abstraction of pKVM's concrete
state, structured to mirror the implementation's ownership discipline.

Every component that corresponds to an implementation lock is wrapped in
an option: ``present`` is False (or the entry is missing) when the
corresponding lock was never held during the recorded window, so no
abstraction could safely be computed (paper §3.1: "encapsulated in the
ghost state in (a C representation of) an option type, which can then be
recorded as being absent").

The components and their owners:

- ``pkvm``    — pKVM's own stage 1 as an abstract pgtable    [pkvm_pgd lock]
- ``host``    — *two* mappings: the owner annotations and the
  shared/borrowed pages (deliberately NOT the full host map) [host_mmu lock]
- ``vms``     — guest *metadata* and the post-teardown
  reclaim set                                               [vm_table lock]
- ``vm_pgts`` — each guest's stage 2 extension               [that VM's lock]
- ``iommu``   — DMA domains: refcounts, attached devices,
  and each shadow stage 2's extension                        [iommu lock]
- ``globals`` — init-time constants, copied (not read from the
  implementation) to preserve spec/impl hygiene
- ``locals``  — per-hardware-thread state: saved EL1 registers
  and the loaded vCPU's metadata                             [thread-local]
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ghost.maplets import Mapping

# Component-key helpers shared by the checker and the spec functions.


def local_key(cpu_index: int) -> str:
    return f"local:{cpu_index}"


def vm_pgt_key(handle: int) -> str:
    return f"vm_pgt:{handle}"


@dataclass
class AbstractPgtable:
    """A page table's extension plus its concrete memory footprint.

    The footprint (set of physical table-page addresses) is what the §4.4
    separation invariant is checked against.
    """

    mapping: Mapping = field(default_factory=Mapping)
    #: Behavioural equality is extensional: the mapping only. The
    #: footprint is internal memory management — it feeds the §4.4
    #: separation check and the teardown reclaim enumeration, but the
    #: abstraction deliberately does not constrain its evolution (paper
    #: §3.1: allocation "should not be reflected in the abstract state").
    footprint: frozenset[int] = field(default=frozenset(), compare=False)

    def copy(self) -> "AbstractPgtable":
        return AbstractPgtable(self.mapping.copy(), self.footprint)

    def freeze(self) -> "AbstractPgtable":
        """Freeze the underlying mapping (cached-snapshot immutability)."""
        self.mapping.freeze()
        return self


@dataclass
class GhostPkvm:
    """Abstraction of pKVM's own stage 1 mapping (option type)."""

    present: bool = False
    pgt: AbstractPgtable = field(default_factory=AbstractPgtable)

    def copy(self) -> "GhostPkvm":
        return GhostPkvm(self.present, self.pgt.copy())

    def freeze(self) -> "GhostPkvm":
        self.pgt.freeze()
        return self


@dataclass
class GhostHost:
    """Abstraction of the host stage 2 — deliberately partial.

    ``annot`` is the pages the host does *not* own (annotated away to pKVM
    or a guest); ``shared`` is the pages the host owns-and-shares or
    borrows. Pages in neither are the host's exclusively, whether or not
    the implementation happens to have demand-mapped them yet — this is
    exactly the looseness that makes map-on-demand unobservable here.
    """

    present: bool = False
    annot: Mapping = field(default_factory=Mapping)
    shared: Mapping = field(default_factory=Mapping)
    #: As for AbstractPgtable: the footprint (host stage 2 table pages
    #: from the hyp pool) is internal memory management, which the
    #: abstraction deliberately does not constrain (§3.1); it takes part
    #: only in the §4.4 separation check, not in equality.
    footprint: frozenset[int] = field(default=frozenset(), compare=False)

    def copy(self) -> "GhostHost":
        return GhostHost(
            self.present, self.annot.copy(), self.shared.copy(), self.footprint
        )

    def freeze(self) -> "GhostHost":
        self.annot.freeze()
        self.shared.freeze()
        return self


@dataclass(frozen=True)
class GhostVcpuRef:
    """A vCPU as visible under the vm_table lock.

    While loaded, the vCPU's mutable metadata is owned by a hardware
    thread, so only the loading state is meaningful here; the contents
    appear in that thread's :class:`GhostCpuLocal` — the ghost state
    mirrors the implementation's ownership transfer exactly.
    """

    index: int
    initialized: bool
    loaded_on: int | None
    #: None while loaded (contents owned by the loading hardware thread)
    #: or before initialisation completes.
    memcache_pages: tuple[int, ...] | None = None


@dataclass(frozen=True)
class GhostVm:
    """One guest VM's abstract metadata (its stage 2 lives in
    ``GhostState.vm_pgts`` under the VM's own lock)."""

    handle: int
    index: int
    protected: bool
    nr_vcpus: int
    vcpus: tuple[GhostVcpuRef, ...] = ()
    donated_pages: tuple[int, ...] = ()


@dataclass
class GhostVms:
    """Everything protected by the vm_table lock (option type)."""

    present: bool = False
    vms: dict[int, GhostVm] = field(default_factory=dict)
    #: phys -> ("guest", owner_id, ipa, handle) or ("hyp",): pages of dead
    #: VMs awaiting host_reclaim_page.
    reclaimable: dict[int, tuple] = field(default_factory=dict)
    #: Handle-generation counter (handles are never reused), so the spec
    #: can predict the handle the next VM creation returns.
    nr_created: int = 0

    def copy(self) -> "GhostVms":
        return GhostVms(
            self.present, dict(self.vms), dict(self.reclaimable), self.nr_created
        )


@dataclass(frozen=True)
class GhostIommuDomain:
    """One DMA domain's abstract state: refcount, attached devices, and
    the extension of its shadow stage 2."""

    refcount: int
    devices: tuple[int, ...]
    pgt: AbstractPgtable

    def copy(self) -> "GhostIommuDomain":
        return GhostIommuDomain(self.refcount, self.devices, self.pgt.copy())


@dataclass
class GhostIommu:
    """Everything the iommu lock protects (option type)."""

    present: bool = False
    domains: dict[int, GhostIommuDomain] = field(default_factory=dict)

    def copy(self) -> "GhostIommu":
        return GhostIommu(
            self.present,
            {i: d.copy() for i, d in self.domains.items()},
        )

    def freeze(self) -> "GhostIommu":
        for domain in self.domains.values():
            domain.pgt.freeze()
        return self

    @property
    def footprint(self) -> frozenset[int]:
        """Union of the shadow stage-2 footprints (for the §4.4
        separation check against every other page table)."""
        fp: frozenset[int] = frozenset()
        for domain in self.domains.values():
            fp |= domain.pgt.footprint
        return fp


@dataclass(frozen=True)
class GhostGlobals:
    """Constants established at pKVM initialisation (paper §3.1).

    Copied into the ghost state rather than read from the implementation,
    "to maintain the hygiene distinction between implementation and
    specification".
    """

    nr_cpus: int = 0
    hyp_va_offset: int = 0
    #: (base, end) of each DRAM region.
    dram_ranges: tuple[tuple[int, int], ...] = ()
    #: (base, end) of each device (MMIO) region.
    device_ranges: tuple[tuple[int, int], ...] = ()
    #: (base, end) of pKVM's carveout.
    carveout: tuple[int, int] = (0, 0)
    uart_va: int = 0

    def addr_is_allowed_memory(self, phys: int) -> bool:
        """The paper's ``ghost_addr_is_allowed_memory``."""
        return any(base <= phys < end for base, end in self.dram_ranges)

    def addr_is_device(self, phys: int) -> bool:
        return any(base <= phys < end for base, end in self.device_ranges)

    def hyp_va(self, phys: int) -> int:
        return phys + self.hyp_va_offset


@dataclass(frozen=True)
class GhostLoadedVcpu:
    """The loaded vCPU's metadata, owned by this hardware thread."""

    vm_handle: int
    index: int
    memcache_pages: tuple[int, ...] = ()


@dataclass
class GhostCpuLocal:
    """Per-hardware-thread state: saved EL1 context, loaded vCPU, and the
    installed translation regime.

    ``stage2_is_host`` abstracts VTTBR_EL2: on every handler exit the host
    is about to resume, so its stage 2 must be installed — a hypervisor
    that forgets to restore it after running a guest hands the host the
    guest's address space.
    """

    present: bool = False
    regs: tuple[int, ...] = ()
    loaded_vcpu: GhostLoadedVcpu | None = None
    stage2_is_host: bool = True

    def copy(self) -> "GhostCpuLocal":
        return GhostCpuLocal(
            self.present, self.regs, self.loaded_vcpu, self.stage2_is_host
        )


@dataclass
class GhostState:
    """The whole reified ghost state (paper's ``struct ghost_state``)."""

    pkvm: GhostPkvm = field(default_factory=GhostPkvm)
    host: GhostHost = field(default_factory=GhostHost)
    vms: GhostVms = field(default_factory=GhostVms)
    vm_pgts: dict[int, AbstractPgtable] = field(default_factory=dict)
    iommu: GhostIommu = field(default_factory=GhostIommu)
    globals_: GhostGlobals = field(default_factory=GhostGlobals)
    locals_: dict[int, GhostCpuLocal] = field(default_factory=dict)

    @staticmethod
    def blank(globals_: GhostGlobals) -> "GhostState":
        """A fresh, all-absent state sharing the init-time globals."""
        return GhostState(globals_=globals_)

    def local(self, cpu_index: int) -> GhostCpuLocal:
        return self.locals_.setdefault(cpu_index, GhostCpuLocal())

    def copy(self) -> "GhostState":
        return GhostState(
            pkvm=self.pkvm.copy(),
            host=self.host.copy(),
            vms=self.vms.copy(),
            vm_pgts={h: p.copy() for h, p in self.vm_pgts.items()},
            iommu=self.iommu.copy(),
            globals_=self.globals_,
            locals_={i: l.copy() for i, l in self.locals_.items()},
        )

    # -- spec helpers (the paper's copy_abstraction_* / ghost_read_gpr) -----

    def read_gpr(self, cpu_index: int, n: int) -> int:
        """``ghost_read_gpr``: a register from the saved EL1 context."""
        local = self.locals_.get(cpu_index)
        if local is None or not local.present:
            raise KeyError(f"cpu{cpu_index} local state absent")
        return local.regs[n]

    def write_gpr(self, cpu_index: int, n: int, value: int) -> None:
        """``ghost_write_gpr``: update a register in the post-state."""
        local = self.local(cpu_index)
        regs = list(local.regs) if local.regs else [0] * 31
        regs[n] = value & ((1 << 64) - 1)
        local.regs = tuple(regs)
        local.present = True

    def copy_abstraction_pkvm(self, source: "GhostState") -> None:
        self.pkvm = source.pkvm.copy()

    def copy_abstraction_host(self, source: "GhostState") -> None:
        self.host = source.host.copy()

    def copy_abstraction_vms(self, source: "GhostState") -> None:
        self.vms = source.vms.copy()

    def copy_abstraction_iommu(self, source: "GhostState") -> None:
        self.iommu = source.iommu.copy()

    def copy_abstraction_vm_pgt(self, source: "GhostState", handle: int) -> None:
        self.vm_pgts[handle] = source.vm_pgts[handle].copy()

    def copy_abstraction_local(self, source: "GhostState", cpu_index: int) -> None:
        if cpu_index in source.locals_:
            self.locals_[cpu_index] = source.locals_[cpu_index].copy()

    # -- component access (used by the checker's ternary comparison) --------

    def get_component(self, key: str):
        """Fetch one ownership component by its checker key, or None."""
        if key == "pkvm":
            return self.pkvm if self.pkvm.present else None
        if key == "host":
            return self.host if self.host.present else None
        if key == "vms":
            return self.vms if self.vms.present else None
        if key == "iommu":
            return self.iommu if self.iommu.present else None
        if key.startswith("vm_pgt:"):
            return self.vm_pgts.get(int(key.split(":")[1]))
        if key.startswith("local:"):
            local = self.locals_.get(int(key.split(":")[1]))
            return local if local is not None and local.present else None
        raise KeyError(f"unknown component key {key!r}")

    def set_component(self, key: str, value) -> None:
        if key == "pkvm":
            self.pkvm = value
        elif key == "host":
            self.host = value
        elif key == "vms":
            self.vms = value
        elif key == "iommu":
            self.iommu = value
        elif key.startswith("vm_pgt:"):
            self.vm_pgts[int(key.split(":")[1])] = value
        elif key.startswith("local:"):
            self.locals_[int(key.split(":")[1])] = value
        else:
            raise KeyError(f"unknown component key {key!r}")
