"""Model-guided random testing of the pKVM API.

The tension the paper resolves (§5): purely random hypercalls either crash
the host kernel (destroying test throughput) or never get deep into the
pKVM state machine. The fix is "including a very abstract model in the
test generator": a pool of allocated host memory, the subset donated to
pKVM, the VMs with their handles and their shared memory, the vCPUs, and
the vCPU memcache pages. The generator samples mostly-valid arguments
from the model, deliberately mixes in invalid ones to reach error paths,
and *rejects* steps it predicts would crash the host or the test process
(while pKVM crashes remain desirable findings).

Every generated call runs with the ghost oracle attached, so a run is a
randomised differential test of implementation against specification.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.arch.defs import PAGE_SIZE, phys_to_pfn
from repro.arch.exceptions import HostCrash, HypervisorPanic
from repro.ghost.checker import SpecViolation
from repro.machine import Machine
from repro.pkvm.defs import HypercallId
from repro.pkvm.iommu import MAX_DEVICES, MAX_DOMAINS
from repro.testing.proxy import HypProxy


@dataclass
class ModelVm:
    """The generator's (very abstract) model of one VM."""

    handle: int
    nr_vcpus: int
    protected: bool = True
    vcpus: int = 0
    loaded_vcpu: int | None = None
    memcache: int = 0
    mapped_gfns: set[int] = field(default_factory=set)
    #: gfn -> phys for pages the host *lent* (non-protected share).
    lent_gfns: dict[int, int] = field(default_factory=dict)


@dataclass
class ModelDomain:
    """The generator's model of one DMA domain."""

    domain_id: int
    devices: set[int] = field(default_factory=set)
    #: iova pfn -> phys for live DMA mappings.
    dma: dict[int, int] = field(default_factory=dict)


@dataclass
class ModelState:
    """The generator's abstraction of the abstract state (paper §5)."""

    #: Host pages allocated by the tester and still exclusively host-owned.
    host_pages: list[int] = field(default_factory=list)
    #: Pages currently shared with pKVM.
    shared_pages: list[int] = field(default_factory=list)
    #: Pages donated away (to pKVM or guests) — touching these would crash.
    donated_pages: set[int] = field(default_factory=set)
    vms: dict[int, ModelVm] = field(default_factory=dict)
    #: Physical pages awaiting reclaim after teardowns.
    reclaimable: list[int] = field(default_factory=list)
    #: Live DMA domains (the IOMMU boundary). DMA-mapped pages stay in
    #: ``host_pages``: the host keeps access, and re-sharing/donating
    #: them is a rejected error path, not a crash.
    domains: dict[int, ModelDomain] = field(default_factory=dict)


@dataclass
class RandomRunStats:
    hypercalls: int = 0
    steps: int = 0
    by_action: dict[str, int] = field(default_factory=dict)
    ok_returns: int = 0
    error_returns: int = 0
    #: Steps the model rejected because they would crash the host.
    rejected_crashy: int = 0
    spec_violations: int = 0
    hyp_panics: int = 0
    host_crashes: int = 0
    seconds: float = 0.0

    @property
    def hypercalls_per_hour(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.hypercalls * 3600.0 / self.seconds


class RandomTester:
    """Seeded random hypercall generation guided by the abstract model."""

    ACTIONS = (
        ("share", 12),
        ("unshare", 8),
        ("share_bogus", 3),
        ("unshare_bogus", 3),
        ("touch", 8),
        ("touch_bogus", 2),
        ("create_vm", 4),
        ("init_vcpu", 5),
        ("vcpu_load", 6),
        ("vcpu_put", 4),
        ("vcpu_run", 6),
        ("map_guest", 8),
        ("share_guest", 5),
        ("unshare_guest", 4),
        ("topup", 5),
        ("teardown", 2),
        ("reclaim", 6),
        ("iommu_domain", 4),
        ("iommu_attach", 4),
        ("iommu_map", 6),
        ("iommu_unmap", 4),
        ("garbage_hvc", 2),
    )

    #: The IOMMU-focused profile (campaign ``--mode iommu``): heavy on
    #: the DMA-domain lifecycle, with just enough share/unshare/touch
    #: traffic to exercise the host-side interplay (sharing a DMA-mapped
    #: page, DMA-mapping a shared page) and reclaim pressure.
    IOMMU_ACTIONS = (
        ("iommu_domain", 10),
        ("iommu_attach", 10),
        ("iommu_map", 14),
        ("iommu_unmap", 10),
        ("share", 6),
        ("unshare", 4),
        ("touch", 4),
        ("create_vm", 2),
        ("teardown", 1),
        ("reclaim", 2),
        ("garbage_hvc", 1),
    )

    ACTION_PROFILES = {"all": ACTIONS, "iommu": IOMMU_ACTIONS}

    def __init__(
        self,
        machine: Machine,
        seed: int = 0,
        *,
        guided: bool = True,
        rng: random.Random | None = None,
        trace: "Trace | None" = None,
        profile: str = "all",
    ):
        self.machine = machine
        #: Records every machine interaction into ``trace``, if given.
        self.proxy = HypProxy(machine, trace)
        #: All randomness flows through this injectable generator, so a
        #: campaign shard is reproducible from its ``(campaign seed,
        #: worker id, batch index)``-derived seed alone.
        self.rng = rng if rng is not None else random.Random(seed)
        self.model = ModelState()
        self.stats = RandomRunStats()
        #: The ablation switch: without guidance, arguments are sampled
        #: uniformly rather than from the abstract model, and the crash
        #: predictor is disabled — the paper's "too arbitrary" regime.
        self.guided = guided
        if profile not in self.ACTION_PROFILES:
            raise ValueError(f"unknown action profile {profile!r}")
        self.profile = profile
        self._actions = [
            name
            for name, weight in self.ACTION_PROFILES[profile]
            for _ in range(weight)
        ]

    # -- the abstract-model guidance ---------------------------------------

    def _fresh_page(self) -> int:
        page = self.proxy.alloc_page()
        self.model.host_pages.append(page)
        return page

    def _pick_host_page(self) -> int:
        if not self.guided:
            # Unguided: any page-aligned address in (or near) DRAM.
            dram = self.machine.mem.dram_regions()[-1]
            span = dram.size + (64 << 20)
            return dram.base + self.rng.randrange(0, span, PAGE_SIZE)
        if not self.model.host_pages or self.rng.random() < 0.3:
            return self._fresh_page()
        return self.rng.choice(self.model.host_pages)

    def _would_crash_host(self, action: str, addr: int | None = None) -> bool:
        """The crash predictor: donated pages and the carveout are off
        limits for host touches; everything else is fair game."""
        if action != "touch":
            return False
        assert addr is not None
        if addr in self.model.donated_pages:
            return True
        carve = self.machine.pkvm.carveout
        return carve.base <= addr < carve.end

    # -- one step -------------------------------------------------------------

    def step(self) -> None:
        action = self.rng.choice(self._actions)
        self.stats.steps += 1
        self.stats.by_action[action] = self.stats.by_action.get(action, 0) + 1
        handler = getattr(self, f"_do_{action}")
        handler()

    def run(self, steps: int) -> RandomRunStats:
        started = time.perf_counter()
        for _ in range(steps):
            try:
                self.step()
            except SpecViolation:
                self.stats.spec_violations += 1
                raise
            except HypervisorPanic:
                self.stats.hyp_panics += 1
                raise
            except HostCrash:
                # The model failed to predict this; count it and continue
                # on a machine that is, by construction, still alive (the
                # simulated "crash" unwinds only the access).
                self.stats.host_crashes += 1
        self.stats.seconds += time.perf_counter() - started
        return self.stats

    def _hvc(self, call_id: int, *args: int) -> int:
        self.stats.hypercalls += 1
        ret = self.proxy.hvc(call_id, *args)
        if ret >= 0:
            self.stats.ok_returns += 1
        else:
            self.stats.error_returns += 1
        return ret

    # -- actions ---------------------------------------------------------------

    def _do_share(self) -> None:
        # Mostly well-behaved, but deliberately probe the share handler's
        # state checks too: re-sharing an already-shared page and sharing
        # a donated page are exactly the error paths a skipped ownership
        # check lets through (hypercalls reject them; only host *touches*
        # of donated pages are fatal, so nothing here needs the predictor).
        roll = self.rng.random()
        if self.guided and roll < 0.15 and self.model.shared_pages:
            page = self.rng.choice(self.model.shared_pages)
        elif self.guided and roll < 0.25 and self.model.donated_pages:
            page = self.rng.choice(sorted(self.model.donated_pages))
        else:
            page = self._pick_host_page()
        ret = self._hvc(HypercallId.HOST_SHARE_HYP, phys_to_pfn(page))
        if ret == 0 and page in self.model.host_pages:
            self.model.host_pages.remove(page)
            self.model.shared_pages.append(page)

    def _do_unshare(self) -> None:
        roll = self.rng.random()
        if self.model.shared_pages and roll > 0.2:
            page = self.rng.choice(self.model.shared_pages)
        elif self.guided and roll < 0.1 and self.model.donated_pages:
            # unsharing a donated page: the ownership-check error path
            page = self.rng.choice(sorted(self.model.donated_pages))
        else:
            page = self._pick_host_page()
        ret = self._hvc(HypercallId.HOST_UNSHARE_HYP, phys_to_pfn(page))
        if ret == 0 and page in self.model.shared_pages:
            self.model.shared_pages.remove(page)
            self.model.host_pages.append(page)

    def _do_share_bogus(self) -> None:
        """Deliberately invalid shares: MMIO, holes, huge pfns."""
        bogus = self.rng.choice([0x0900_0000, 0x1234_5000, 1 << 40, 0])
        self._hvc(HypercallId.HOST_SHARE_HYP, phys_to_pfn(bogus))

    def _do_unshare_bogus(self) -> None:
        bogus = self.rng.choice([0x0900_0000, 0x2000_0000, 1 << 45])
        self._hvc(HypercallId.HOST_UNSHARE_HYP, phys_to_pfn(bogus))

    def _do_touch(self) -> None:
        page = self._pick_host_page()
        addr = page + self.rng.randrange(0, PAGE_SIZE, 8)
        if self.guided and self._would_crash_host("touch", page):
            self.stats.rejected_crashy += 1
            return
        if self.rng.random() < 0.5:
            self.proxy.write64(addr, self.rng.getrandbits(64))
        else:
            self.proxy.read64(addr)

    def _do_touch_bogus(self) -> None:
        """A touch the model predicts is fatal — rejected, not executed."""
        if self.model.donated_pages:
            self.stats.rejected_crashy += 1
            return
        self.stats.rejected_crashy += 1

    def _do_create_vm(self) -> None:
        if len(self.model.vms) >= 4:
            return
        params = self._fresh_page()
        pgd = self._fresh_page()
        nr_vcpus = self.rng.randint(1, 3)
        protected = self.rng.random() < 0.6
        self.proxy.write_words(
            params, [nr_vcpus, int(protected), phys_to_pfn(pgd)]
        )
        if self._hvc(HypercallId.HOST_SHARE_HYP, phys_to_pfn(params)):
            return
        handle = self._hvc(HypercallId.INIT_VM, phys_to_pfn(params))
        self._hvc(HypercallId.HOST_UNSHARE_HYP, phys_to_pfn(params))
        # The pgd was donated in init_vm's phase 1; even when a later
        # phase fails the donation sticks, so the page is gone either way.
        self.model.host_pages.remove(pgd)
        self.model.donated_pages.add(pgd)
        if handle >= 0:
            self.model.vms[handle] = ModelVm(handle, nr_vcpus, protected)

    def _pick_vm(self) -> ModelVm | None:
        if not self.model.vms:
            return None
        return self.rng.choice(list(self.model.vms.values()))

    def _donated(self, page: int) -> None:
        """Mark a page the model handed to pKVM as off limits. Donations
        happen *before* argument validation, so they stick even when the
        hypercall then fails — the model must not touch the page again."""
        if page in self.model.host_pages:
            self.model.host_pages.remove(page)
        self.model.donated_pages.add(page)

    def _do_init_vcpu(self) -> None:
        vm = self._pick_vm()
        if vm is None:
            page = self._fresh_page()
            self._hvc(HypercallId.INIT_VCPU, 0xBAD, phys_to_pfn(page))
            self._donated(page)
            return
        page = self._fresh_page()
        ret = self._hvc(HypercallId.INIT_VCPU, vm.handle, phys_to_pfn(page))
        self._donated(page)
        if ret >= 0:
            vm.vcpus += 1

    def _do_vcpu_load(self) -> None:
        vm = self._pick_vm()
        if vm is None or vm.vcpus == 0:
            self._hvc(HypercallId.VCPU_LOAD, 0xBAD, 0)
            return
        idx = self.rng.randrange(vm.vcpus + 1)  # sometimes out of range
        ret = self._hvc(HypercallId.VCPU_LOAD, vm.handle, idx)
        if ret == 0:
            vm.loaded_vcpu = idx

    def _loaded_vm(self) -> ModelVm | None:
        for vm in self.model.vms.values():
            if vm.loaded_vcpu is not None:
                return vm
        return None

    def _do_vcpu_put(self) -> None:
        ret = self._hvc(HypercallId.VCPU_PUT)
        vm = self._loaded_vm()
        if ret == 0 and vm is not None:
            vm.loaded_vcpu = None

    def _do_vcpu_run(self) -> None:
        vm = self._loaded_vm()
        if vm is not None and vm.mapped_gfns and self.rng.random() < 0.7:
            gfn = self.rng.choice(sorted(vm.mapped_gfns))
            ipa = gfn * PAGE_SIZE
            ops = self.rng.choice(
                [
                    [("read", ipa), ("halt",)],
                    [("write", ipa, self.rng.getrandbits(32)), ("halt",)],
                    [("share", ipa), ("unshare", ipa), ("halt",)],
                    [("read", (gfn + 100) * PAGE_SIZE), ("halt",)],
                ]
            )
            try:
                self.proxy.set_guest_script(vm.handle, vm.loaded_vcpu, ops)
            except (ValueError, IndexError):
                pass
        self._hvc(HypercallId.VCPU_RUN)

    def _do_map_guest(self) -> None:
        vm = self._loaded_vm()
        page = self._fresh_page()
        gfn = self.rng.randrange(0x40, 0x80)
        ret = self._hvc(HypercallId.HOST_MAP_GUEST, phys_to_pfn(page), gfn)
        if ret == 0:
            # Donated for real even if the model lost track of which VM
            # is loaded — the page is off limits regardless.
            self._donated(page)
            if vm is not None:
                vm.mapped_gfns.add(gfn)

    def _do_share_guest(self) -> None:
        vm = self._loaded_vm()
        page = self._fresh_page()
        gfn = self.rng.randrange(0x80, 0xC0)
        ret = self._hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), gfn)
        if ret == 0 and vm is not None:
            # lent, not donated: the host keeps access
            vm.lent_gfns[gfn] = page

    def _do_unshare_guest(self) -> None:
        vm = self._loaded_vm()
        if vm is not None and vm.lent_gfns and self.rng.random() > 0.2:
            gfn = self.rng.choice(sorted(vm.lent_gfns))
            page = vm.lent_gfns[gfn]
        else:
            gfn = self.rng.randrange(0x80, 0xC0)
            page = self._pick_host_page()
        ret = self._hvc(HypercallId.HOST_UNSHARE_GUEST, phys_to_pfn(page), gfn)
        if ret == 0 and vm is not None:
            vm.lent_gfns.pop(gfn, None)

    def _do_topup(self) -> None:
        vm = self._loaded_vm()
        nr = self.rng.randint(1, 6)
        list_page = self._fresh_page()
        pages = [self._fresh_page() for _ in range(nr)]
        self.proxy.write_words(list_page, pages)
        if self._hvc(HypercallId.HOST_SHARE_HYP, phys_to_pfn(list_page)):
            return
        ret = self._hvc(HypercallId.MEMCACHE_TOPUP, phys_to_pfn(list_page), nr)
        self._hvc(HypercallId.HOST_UNSHARE_HYP, phys_to_pfn(list_page))
        # A failed topup still donates the list prefix it got through;
        # the model cannot see how far it got, so it conservatively
        # writes off every listed page.
        for page in pages:
            self._donated(page)
        if ret == 0 and vm is not None:
            vm.memcache += nr

    def _do_teardown(self) -> None:
        vm = self._pick_vm()
        handle = vm.handle if vm is not None else 0xBAD
        ret = self._hvc(HypercallId.TEARDOWN_VM, handle)
        if ret == 0 and vm is not None:
            del self.model.vms[vm.handle]
            self.model.reclaimable.extend(
                self.machine.pkvm.vm_table.reclaimable
            )

    def _do_reclaim(self) -> None:
        if self.model.reclaimable and self.rng.random() > 0.1:
            page = self.model.reclaimable[-1]
        else:
            page = self._pick_host_page()
        ret = self._hvc(HypercallId.HOST_RECLAIM_PAGE, phys_to_pfn(page))
        if ret == 0:
            if page in self.model.reclaimable:
                self.model.reclaimable.remove(page)
            self.model.donated_pages.discard(page)
            self.model.host_pages.append(page)

    def _pick_domain(self) -> ModelDomain | None:
        if not self.model.domains:
            return None
        return self.rng.choice(list(self.model.domains.values()))

    def _do_iommu_domain(self) -> None:
        # Free an existing domain sometimes (busy -EBUSY paths when it
        # still holds devices or mappings), otherwise allocate — with ids
        # occasionally past MAX_DOMAINS for the -EINVAL path.
        if self.guided and self.model.domains and self.rng.random() < 0.4:
            dom = self._pick_domain()
            ret = self._hvc(HypercallId.IOMMU_FREE_DOMAIN, dom.domain_id)
            if ret == 0:
                del self.model.domains[dom.domain_id]
            return
        domain_id = self.rng.randrange(0, MAX_DOMAINS + 2)
        ret = self._hvc(HypercallId.IOMMU_ALLOC_DOMAIN, domain_id)
        if ret == 0:
            self.model.domains[domain_id] = ModelDomain(domain_id)

    def _do_iommu_attach(self) -> None:
        dom = self._pick_domain()
        if dom is None:
            self._hvc(HypercallId.IOMMU_ATTACH_DEV, 0xBAD, 0)
            return
        if dom.devices and self.rng.random() < 0.4:
            dev = self.rng.choice(sorted(dom.devices))
            ret = self._hvc(HypercallId.IOMMU_DETACH_DEV, dom.domain_id, dev)
            if ret == 0:
                dom.devices.discard(dev)
            return
        dev = self.rng.randrange(0, MAX_DEVICES + 2)
        ret = self._hvc(HypercallId.IOMMU_ATTACH_DEV, dom.domain_id, dev)
        if ret == 0:
            dom.devices.add(dev)

    def _do_iommu_map(self) -> None:
        dom = self._pick_domain()
        if dom is None:
            self._hvc(HypercallId.IOMMU_MAP_PAGES, 0xBAD, 0x100, 0x100)
            return
        # _pick_host_page sometimes returns shared or already-DMA-mapped
        # pages — exactly the -EPERM ownership-check error paths.
        page = self._pick_host_page()
        iova_pfn = self.rng.randrange(0x100, 0x140)
        ret = self._hvc(
            HypercallId.IOMMU_MAP_PAGES,
            dom.domain_id,
            iova_pfn,
            phys_to_pfn(page),
        )
        if ret == 0:
            dom.dma[iova_pfn] = page

    def _do_iommu_unmap(self) -> None:
        dom = self._pick_domain()
        if dom is None:
            self._hvc(HypercallId.IOMMU_UNMAP_PAGES, 0xBAD, 0x100)
            return
        if dom.dma and self.rng.random() > 0.2:
            iova_pfn = self.rng.choice(sorted(dom.dma))
        else:
            iova_pfn = self.rng.randrange(0x100, 0x140)
        ret = self._hvc(
            HypercallId.IOMMU_UNMAP_PAGES, dom.domain_id, iova_pfn
        )
        if ret == 0:
            dom.dma.pop(iova_pfn, None)

    def _do_garbage_hvc(self) -> None:
        self._hvc(
            self.rng.getrandbits(32),
            self.rng.getrandbits(16),
            self.rng.getrandbits(16),
        )


def run_campaign(
    seed: int = 0,
    steps: int = 500,
    *,
    ghost: bool = True,
    bugs=None,
    guided: bool = True,
) -> RandomRunStats:
    """One random-testing campaign on a fresh machine."""
    machine = Machine(ghost=ghost, bugs=bugs)
    tester = RandomTester(machine, seed=seed, guided=guided)
    return tester.run(steps)
