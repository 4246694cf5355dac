"""Canned multi-CPU scenarios for the dynamic lockset pass.

The lockset detector is only as good as the concurrency it observes, so
the CLI ships scenarios exercising the hypervisor's shared state from
several simulated CPUs through the systematic interleaving explorer:

- ``share-unshare`` (the default): two CPUs share and unshare distinct
  pages with pKVM concurrently. Every page-table access on these paths
  sits inside the ``host_mmu``/``pkvm_pgd`` lock window, so a clean
  detector run on it is the expected baseline — a report here means
  either a locking regression in ``repro.pkvm`` or a detector bug.
- ``unlocked-init-read``: one CPU shares/unshares a page (locked writes
  to pKVM's stage 1) while another issues ``init_vm``, whose
  ``_page_is_shared_with_hyp`` precondition check reads the same table
  *outside* any lock window. The candidate lockset for ``pgt:hyp_s1``
  goes empty and the detector reports it — the positive control proving
  the pass can see through the lock windows. (The repo treats that
  unlocked read as benign: it is a precondition check on host-racy input
  re-validated under the locks, the READ_ONCE pattern of paper §4.3 —
  which is exactly why it is not part of the default scenario.)
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.report import Finding
from repro.arch.defs import phys_to_pfn
from repro.machine import Machine
from repro.pkvm.defs import HypercallId
from repro.sim.explore import explore
from repro.sim.sched import Scheduler
from repro.testing.proxy import HypProxy


def build_share_unshare(sched: Scheduler) -> None:
    """Two CPUs share/unshare distinct pages: fully lock-protected."""
    machine = Machine(ghost=False)
    proxy = HypProxy(machine)
    pages = [proxy.alloc_page(), proxy.alloc_page()]

    def worker(cpu_index: int, phys: int) -> Callable[[], None]:
        def body() -> None:
            assert proxy.share_page(phys, cpu_index=cpu_index) == 0
            assert proxy.unshare_page(phys, cpu_index=cpu_index) == 0

        return body

    sched.spawn(worker(0, pages[0]), "cpu0")
    sched.spawn(worker(1, pages[1]), "cpu1")


def build_unlocked_init_read(sched: Scheduler) -> None:
    """share_hyp writes vs init_vm's lock-free precondition read.

    Both CPUs first do a locked share/unshare of their own page, so
    ``pgt:hyp_s1`` is already in the shared-modified state with candidate
    lockset ``{host_mmu, pkvm_pgd}`` when cpu1's ``init_vm`` performs the
    unlocked precondition read — which then empties the candidates and
    trips the detector on (nearly) every interleaving, rather than only
    on schedules that sequence the unlocked read between two writes.
    """
    machine = Machine(ghost=False)
    proxy = HypProxy(machine)
    pages = [proxy.alloc_page(), proxy.alloc_page()]
    params = proxy.alloc_page()
    pgd = proxy.alloc_page()
    proxy.write_words(params, [1, 1, phys_to_pfn(pgd)])
    assert proxy.share_page(params) == 0  # boot-time, outside the race

    def sharer() -> None:
        assert proxy.share_page(pages[0], cpu_index=0) == 0
        assert proxy.unshare_page(pages[0], cpu_index=0) == 0

    def initer() -> None:
        assert proxy.share_page(pages[1], cpu_index=1) == 0
        assert proxy.unshare_page(pages[1], cpu_index=1) == 0
        ret = proxy.hvc(HypercallId.INIT_VM, phys_to_pfn(params), cpu_index=1)
        assert ret > 0, f"init_vm failed: {ret}"

    sched.spawn(sharer, "cpu0")
    sched.spawn(initer, "cpu1")


SCENARIOS: dict[str, Callable[[Scheduler], None]] = {
    "share-unshare": build_share_unshare,
    "unlocked-init-read": build_unlocked_init_read,
}

DEFAULT_SCENARIO = "share-unshare"


def run_lockset_scenario(
    name: str = DEFAULT_SCENARIO, *, max_schedules: int = 32
) -> list[Finding]:
    """Explore one scenario with race detection; findings per unique race."""
    build = SCENARIOS[name]
    result = explore(build, max_schedules=max_schedules, detect_races=True)
    failures = result.failures()
    findings = [
        Finding(
            analysis="lockset",
            rule="empty-lockset",
            message=race,
            file=f"scenario:{name}",
        )
        for race in result.races()
    ]
    if failures:
        first = failures[0]
        findings.append(
            Finding(
                analysis="lockset",
                rule="schedule-failure",
                message=(
                    f"{len(failures)}/{result.schedules_run} schedules "
                    f"raised {type(first.error).__name__}: {first.error}"
                ),
                file=f"scenario:{name}",
            )
        )
    return findings


__all__ = [
    "DEFAULT_SCENARIO",
    "SCENARIOS",
    "run_lockset_scenario",
]
