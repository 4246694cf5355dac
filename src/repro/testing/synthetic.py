"""Synthetic-bug discrimination: confirm the oracle finds what it should.

Paper §5: "To further confirm the discriminating power of our testing, we
introduced a small number of synthetic bugs into pKVM and checked that it
finds them." And §6 lists the five real bugs, all catchable here via the
bug-injection registry.

For each bug, this module pairs the injection flag with the *scenario*
that exposes it (a bug with no exercising workload is invisible, exactly
as in the real system), runs the scenario once fixed and once buggy, and
reports whether the oracle discriminated: clean when fixed, a violation,
panic, or crash when buggy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.arch.defs import PAGE_SIZE, phys_to_pfn
from repro.machine import Machine
from repro.pkvm.bugs import Bugs
from repro.pkvm.defs import HypercallId
from repro.sim.sched import Scheduler, current_scheduler
from repro.testing.campaign.findings import FINDING_EXCEPTIONS, finding_class
from repro.testing.proxy import HypProxy


@dataclass
class DetectionResult:
    bug: str
    kind: str  # "paper" | "synthetic"
    detected_when_buggy: bool
    how: str
    clean_when_fixed: bool

    @property
    def discriminated(self) -> bool:
        return self.detected_when_buggy and self.clean_when_fixed


# -- scenarios: the workload that exposes each bug ---------------------------


def _scenario_share(p: HypProxy) -> None:
    page = p.alloc_page()
    p.share_page(page)
    p.share_page(page)  # also drive the error path
    p.unshare_page(page)


def _scenario_unshare(p: HypProxy) -> None:
    page = p.alloc_page()
    p.share_page(page)
    p.unshare_page(page)
    p.share_page(page)


def _scenario_error_ret(p: HypProxy) -> None:
    p.unshare_page(p.alloc_page())  # pure error path


def _scenario_vm_create(p: HypProxy) -> None:
    p.create_vm()


def _scenario_teardown(p: HypProxy) -> None:
    handle = p.create_vm()
    p.teardown_vm(handle)
    p.reclaim_all()


def _scenario_topup_unaligned(p: HypProxy) -> None:
    p.create_running_guest(memcache_pages=0)
    list_page = p.alloc_page()
    victim = p.alloc_page()
    p.write_words(list_page, [victim + 0x40])  # deliberately unaligned
    p.share_page(list_page)
    p.hvc(HypercallId.MEMCACHE_TOPUP, phys_to_pfn(list_page), 1)


def _scenario_topup_huge(p: HypProxy) -> None:
    p.create_running_guest(memcache_pages=0)
    list_page = p.alloc_page()
    p.write_words(list_page, [p.alloc_page() for _ in range(8)])
    p.share_page(list_page)
    # nr whose byte count overflows s64: (2^61 + 8) * 8 == 64 (mod 2^64).
    p.hvc(HypercallId.MEMCACHE_TOPUP, phys_to_pfn(list_page), (1 << 61) + 8)


def _scenario_fault_adjacent(p: HypProxy) -> None:
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


def _scenario_guest_run(p: HypProxy) -> None:
    """Run a guest to completion — the vcpu_run exit path must restore
    the host's stage 2."""
    handle, idx = p.create_running_guest()
    p.set_guest_script(handle, idx, [("halt",)])
    p.vcpu_run()


def _scenario_concurrent_fault(p: HypProxy) -> None:
    m = p.machine
    addr = p.alloc_page()
    sched = Scheduler(policy="rr")
    for i in range(2):
        sched.spawn(
            (lambda c: lambda: m.host.read64(addr, cpu=m.cpu(c)))(i), f"cpu{i}"
        )
    sched.run()


def _scenario_vcpu_race(p: HypProxy) -> None:
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


def _scenario_iommu_lifecycle(p: HypProxy) -> None:
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


def _scenario_boot_big_dram(_p: HypProxy) -> None:
    """Handled specially: the bug manifests at machine construction."""


#: DRAM size that puts the carveout's linear image across the private VA
#: base (phys 3GB), the geometry paper bug 5 needs.
BIG_DRAM = 0xC040_0000 - 0x4000_0000

SCENARIOS: dict[str, tuple[str, Callable[[HypProxy], None], dict]] = {
    # paper bugs
    "memcache_alignment": ("paper", _scenario_topup_unaligned, {}),
    "memcache_overflow": ("paper", _scenario_topup_huge, {}),
    "vcpu_load_race": ("paper", _scenario_vcpu_race, {"ghost": False}),
    "host_fault_fragile": ("paper", _scenario_concurrent_fault, {"ghost": False}),
    "linear_map_overlap": ("paper", _scenario_boot_big_dram, {"dram_size": BIG_DRAM}),
    # synthetic bugs
    "synth_share_skip_check": ("synthetic", _scenario_share, {}),
    "synth_share_skip_hyp_map": ("synthetic", _scenario_share, {}),
    "synth_share_wrong_state": ("synthetic", _scenario_share, {}),
    "synth_unshare_leak": ("synthetic", _scenario_unshare, {}),
    "synth_donate_wrong_owner": ("synthetic", _scenario_vm_create, {}),
    "synth_missing_ret_write": ("synthetic", _scenario_error_ret, {}),
    "synth_teardown_page_leak": ("synthetic", _scenario_teardown, {}),
    "synth_fault_off_by_one": ("synthetic", _scenario_fault_adjacent, {}),
    "synth_vttbr_not_restored": ("synthetic", _scenario_guest_run, {}),
    "synth_iommu_refcount_init": ("synthetic", _scenario_iommu_lifecycle, {}),
}


def oracle_verdict(run: Callable[[], Machine]) -> str:
    """What became of ``run``, which builds a machine, drives it and
    returns it: ``clean``, ``hyp-panic``, ``host-crash``, or
    ``spec-violation:<kind>`` when the oracle raised or recorded one."""
    try:
        machine = run()
    except FINDING_EXCEPTIONS as exc:
        klass = finding_class(exc)
        if klass == "SpecViolation":
            return f"spec-violation:{exc.kind}"
        return {"HypervisorPanic": "hyp-panic", "HostCrash": "host-crash"}[klass]
    checker = machine.checker
    violations = checker.violations if checker is not None else []
    return f"spec-violation:{violations[0].kind}" if violations else "clean"


def _run_scenario(bug: str | None, name: str) -> tuple[bool, str]:
    """Run one scenario; returns (detected, verdict)."""
    _kind, scenario, opts = SCENARIOS[name]

    def run() -> Machine:
        machine = Machine(bugs=Bugs.single(bug) if bug else Bugs(), **opts)
        scenario(HypProxy(machine))
        return machine

    verdict = oracle_verdict(run)
    return verdict != "clean", verdict


def run_detection_matrix() -> list[DetectionResult]:
    """Each bug: buggy run must be detected, fixed run must be clean."""
    results = []
    for name, (kind, _scenario, _opts) in SCENARIOS.items():
        detected, how = _run_scenario(name, name)
        clean, _ = _run_scenario(None, name)
        results.append(
            DetectionResult(
                bug=name,
                kind=kind,
                detected_when_buggy=detected,
                how=how,
                clean_when_fixed=not clean,
            )
        )
    return results


def format_matrix(results: list[DetectionResult]) -> str:
    lines = [f"{'bug':<28} {'kind':<10} {'detected':<10} {'how':<28} {'fixed-clean'}"]
    for r in results:
        lines.append(
            f"{r.bug:<28} {r.kind:<10} "
            f"{'YES' if r.detected_when_buggy else 'no':<10} "
            f"{r.how:<28} {'YES' if r.clean_when_fixed else 'no'}"
        )
    return "\n".join(lines)
