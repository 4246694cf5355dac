"""Integration tests for non-protected VMs: host shares (lends) pages to
the guest and keeps its own access — versus donation for protected VMs."""

import pytest

from repro.arch.defs import PAGE_SIZE, phys_to_pfn
from repro.arch.exceptions import HostCrash
from repro.arch.pte import PageState
from repro.machine import Machine
from repro.pkvm.defs import EINVAL, ENOMEM, EPERM, HypercallId
from repro.testing.proxy import HypProxy


@pytest.fixture
def proxy():
    return HypProxy(Machine.boot())


def make_unprotected(proxy, memcache=6):
    handle = proxy.create_vm(nr_vcpus=1, protected=False)
    idx = proxy.init_vcpu(handle)
    assert proxy.vcpu_load(handle, idx) == 0
    assert proxy.topup_memcache(memcache) == 0
    return handle, idx


class TestShareGuest:
    def test_share_keeps_host_access(self, proxy):
        handle, idx = make_unprotected(proxy)
        page = proxy.alloc_page()
        proxy.machine.host.write64(page, 0xAB)
        ret = proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40)
        assert ret == 0
        # host still reads and writes the page — the share, not donate,
        # semantics
        assert proxy.machine.host.read64(page) == 0xAB
        proxy.machine.host.write64(page, 0xCD)

    def test_guest_sees_host_writes(self, proxy):
        handle, idx = make_unprotected(proxy)
        page = proxy.alloc_page()
        proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40)
        proxy.machine.host.write64(page, 0x5A5A)
        proxy.set_guest_script(
            handle, idx, [("read", 0x40 * PAGE_SIZE), ("halt",)]
        )
        code, _ = proxy.vcpu_run()
        assert code == 0

    def test_ghost_state_records_both_sides(self, proxy):
        handle, _ = make_unprotected(proxy)
        page = proxy.alloc_page()
        proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40)
        committed = proxy.machine.checker.committed
        shared = committed["host"].shared.lookup(page)
        assert shared.page_state is PageState.SHARED_OWNED
        borrowed = committed[f"vm_pgt:{handle}"].mapping.lookup(0x40 * PAGE_SIZE)
        assert borrowed.page_state is PageState.SHARED_BORROWED

    def test_protected_vm_rejects_share(self, proxy):
        proxy.create_running_guest()  # protected by default
        ret = proxy.hvc(
            HypercallId.HOST_SHARE_GUEST, phys_to_pfn(proxy.alloc_page()), 0x40
        )
        assert ret == -EPERM

    def test_share_without_loaded_vcpu(self, proxy):
        ret = proxy.hvc(
            HypercallId.HOST_SHARE_GUEST, phys_to_pfn(proxy.alloc_page()), 0x40
        )
        assert ret == -EINVAL

    def test_share_occupied_gfn_rejected(self, proxy):
        make_unprotected(proxy)
        page = proxy.alloc_page()
        assert proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40) == 0
        other = proxy.alloc_page()
        ret = proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(other), 0x40)
        assert ret == -EPERM

    def test_share_already_shared_page_rejected(self, proxy):
        make_unprotected(proxy)
        page = proxy.alloc_page()
        proxy.share_page(page)  # shared with pKVM
        ret = proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x41)
        assert ret == -EPERM

    def test_oom_rolls_back_cleanly(self, proxy):
        """ENOMEM mid-share must not leave a share with no borrower (the
        isolation invariant polices this on every following call)."""
        make_unprotected(proxy, memcache=0)
        page = proxy.alloc_page()
        ret = proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40)
        assert ret == -ENOMEM
        # host side untouched; further calls stay clean
        assert proxy.machine.checker.committed["host"].shared.lookup(page) is None
        proxy.share_page(proxy.alloc_page())
        assert proxy.machine.checker.violations == []


class TestUnshareGuest:
    def test_unshare_withdraws(self, proxy):
        handle, _ = make_unprotected(proxy)
        page = proxy.alloc_page()
        proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40)
        ret = proxy.hvc(HypercallId.HOST_UNSHARE_GUEST, phys_to_pfn(page), 0x40)
        assert ret == 0
        committed = proxy.machine.checker.committed
        assert committed["host"].shared.lookup(page) is None
        assert committed[f"vm_pgt:{handle}"].mapping.lookup(0x40 * PAGE_SIZE) is None

    def test_unshare_unshared_rejected(self, proxy):
        make_unprotected(proxy)
        page = proxy.alloc_page()
        ret = proxy.hvc(HypercallId.HOST_UNSHARE_GUEST, phys_to_pfn(page), 0x40)
        assert ret == -EPERM

    def test_unshare_wrong_gfn_rejected(self, proxy):
        make_unprotected(proxy)
        page = proxy.alloc_page()
        proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40)
        ret = proxy.hvc(HypercallId.HOST_UNSHARE_GUEST, phys_to_pfn(page), 0x41)
        assert ret == -EPERM

    def test_reshare_after_unshare(self, proxy):
        make_unprotected(proxy)
        page = proxy.alloc_page()
        for _round in range(3):
            assert proxy.hvc(
                HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), 0x40
            ) == 0
            assert proxy.hvc(
                HypercallId.HOST_UNSHARE_GUEST, phys_to_pfn(page), 0x40
            ) == 0


class TestTeardownWithOutstandingShares:
    def test_teardown_withdraws_lent_pages(self, proxy):
        handle, _ = make_unprotected(proxy)
        lent = proxy.alloc_page()
        proxy.machine.host.write64(lent, 0xFEED)
        proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(lent), 0x40)
        donated = proxy.alloc_page()
        proxy.hvc(HypercallId.HOST_MAP_GUEST, phys_to_pfn(donated), 0x41)
        proxy.vcpu_put()
        assert proxy.teardown_vm(handle) == 0
        assert proxy.reclaim_all() > 0
        # the lent page keeps its contents (it was always host-owned)...
        assert proxy.machine.host.read64(lent) == 0xFEED
        # ...the donated page comes back zeroed (it was guest-owned)
        assert proxy.machine.host.read64(donated) == 0
        assert proxy.machine.checker.violations == []

    def test_mixed_vm_fully_reclaimed(self, proxy):
        handle, _ = make_unprotected(proxy)
        for gfn in range(0x40, 0x44):
            page = proxy.alloc_page()
            assert proxy.hvc(
                HypercallId.HOST_SHARE_GUEST, phys_to_pfn(page), gfn
            ) == 0
        proxy.vcpu_put()
        proxy.teardown_vm(handle)
        proxy.reclaim_all()
        assert not proxy.machine.pkvm.vm_table.reclaimable
        committed = proxy.machine.checker.committed
        assert not committed["host"].shared
