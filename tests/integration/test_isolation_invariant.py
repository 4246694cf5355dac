"""Tests for the cross-component isolation invariant (§3.1's partition).

These corrupt pairings in the concrete state and check the invariant
trips; the un-corrupted flows in every other test double as its negative
control (it runs at every quiescent handler exit).
"""

import pytest

from repro.arch.defs import PAGE_SIZE, Perms
from repro.arch.pte import PageState
from repro.ghost.cache import ParanoidMismatchError
from repro.ghost.isolation import IsolationSweep
from repro.machine import Machine
from repro.pkvm.defs import HypercallId
from repro.pkvm.mem_protect import hyp_va
from repro.pkvm.pgtable import MapAttrs, map_range, set_owner_range, unmap_range
from repro.testing.proxy import HypProxy


def violations_of_kind(machine, kind):
    return [v for v in machine.checker.violations if v.kind == kind]


def sweeps(machine):
    return machine.obs.metrics.value("oracle_isolation_checks_run")


@pytest.fixture
def machine():
    m = Machine()
    m.checker.fail_fast = False
    return m


def poke(machine):
    """A hypercall that re-takes the host and pkvm locks, so the committed
    abstractions refresh and the quiescent-exit isolation check sees the
    corrupted concrete state."""
    page = machine.host.alloc_page()
    machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)


def share_with_no_borrower(machine):
    """Corrupt: the host stage 2 shares a page no one borrows."""
    page = machine.host.alloc_page()
    map_range(
        machine.pkvm.mp.host_mmu,
        page,
        PAGE_SIZE,
        page,
        MapAttrs(Perms.rwx(), page_state=PageState.SHARED_OWNED),
    )


class TestIsolationTrips:
    def test_share_with_no_borrower(self, machine):
        share_with_no_borrower(machine)
        poke(machine)
        assert violations_of_kind(machine, "isolation")

    def test_hyp_annotation_without_mapping(self, machine):
        proxy = HypProxy(machine)
        page = proxy.alloc_page()
        proxy.share_page(page)
        # corrupt: drop pKVM's borrowed mapping behind the locks' backs
        unmap_range(machine.pkvm.mp.pkvm_pgd, hyp_va(page), PAGE_SIZE)
        poke(machine)
        assert violations_of_kind(machine, "isolation")

    def test_guest_annotation_without_guest_mapping(self, machine):
        proxy = HypProxy(machine)
        handle, _ = proxy.create_running_guest(backed_gfns=[0x40])
        vm = machine.pkvm.vm_table.get(handle)
        # corrupt: the guest loses its page but the annotation stays
        unmap_range(vm.pgt, 0x40 * PAGE_SIZE, PAGE_SIZE)
        # re-take the vm lock (recommitting the guest abstraction)
        proxy.map_guest_page(0x41)
        assert violations_of_kind(machine, "isolation")

    def test_annot_and_shared_overlap_caught_somewhere(self, machine):
        """A page cannot be both annotated and shared in one stage 2 (one
        entry per page), so this overlap can only appear via a corrupted
        reference copy — which the non-interference check owns. The
        domain-overlap arm of the isolation check is defence-in-depth."""
        proxy = HypProxy(machine)
        page = proxy.alloc_page()
        proxy.share_page(page)
        from repro.ghost.maplets import MapletTarget

        # Committed snapshots are frozen, so in-place corruption is
        # structurally impossible; swap in a corrupted (thawed) copy.
        host = machine.checker.committed["host"].copy()
        host.annot.insert(page, 1, MapletTarget.annotated(1))
        machine.checker.committed["host"] = host
        poke(machine)
        kinds = {v.kind for v in machine.checker.violations}
        assert kinds & {"isolation", "non-interference"}

    def test_borrow_without_lender(self, machine):
        page = machine.host.alloc_page()
        map_range(
            machine.pkvm.mp.host_mmu,
            page,
            PAGE_SIZE,
            page,
            MapAttrs(Perms.rwx(), page_state=PageState.SHARED_BORROWED),
        )
        poke(machine)
        assert violations_of_kind(machine, "isolation")


class TestIsolationHolds:
    def test_clean_across_full_lifecycle(self):
        machine = Machine()  # fail-fast: any trip raises
        proxy = HypProxy(machine)
        page = proxy.alloc_page()
        proxy.share_page(page)
        handle, idx = proxy.create_running_guest(backed_gfns=[0x40])
        proxy.set_guest_script(
            handle, idx, [("share", 0x40 * PAGE_SIZE), ("halt",)]
        )
        proxy.vcpu_run()
        proxy.vcpu_put()
        proxy.teardown_vm(handle)
        proxy.reclaim_all()
        proxy.unshare_page(page)
        assert sweeps(machine) > 5
        assert not machine.checker.violations

    def test_counter_advances(self, machine):
        before = sweeps(machine)
        poke(machine)
        assert sweeps(machine) == before + 1

    def test_can_be_disabled(self, machine):
        machine.checker.check_isolation = False
        before = sweeps(machine)
        poke(machine)
        assert sweeps(machine) == before


class TestIncrementalSweep:
    """After a clean sweep only the dirty windows are re-checked; the
    full sweep runs after a sweep that reported and with the cache off."""

    def test_a_standing_violation_is_reported_at_every_sweep(self, machine):
        share_with_no_borrower(machine)
        counts = []
        for _ in range(4):
            poke(machine)
            counts.append(len(violations_of_kind(machine, "isolation")))
        assert counts == [1, 2, 3, 4]

    def test_paranoid_catches_a_window_that_misses_the_change(self, monkeypatch):
        machine = Machine(paranoid=True)
        machine.checker.fail_fast = False
        poke(machine)  # the first sweep is full, and clean
        monkeypatch.setattr(IsolationSweep, "dirty_windows", lambda self, *a: [])
        share_with_no_borrower(machine)
        with pytest.raises(ParanoidMismatchError, match="full sweep"):
            poke(machine)

    def test_cache_off_runs_the_full_sweep(self, monkeypatch):
        machine = Machine(oracle_cache=False)
        machine.checker.fail_fast = False
        poke(machine)
        asked = []
        monkeypatch.setattr(
            IsolationSweep, "dirty_windows", lambda self, *a: asked.append(a) or []
        )
        share_with_no_borrower(machine)
        poke(machine)
        assert asked == []
        assert violations_of_kind(machine, "isolation")
