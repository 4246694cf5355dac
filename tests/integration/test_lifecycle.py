"""Integration tests: full hypercall flows with the ghost oracle live.

Every assertion here is double-checked: the explicit asserts below, and
the oracle comparing each handler's recorded post-state against the
computed one (a violation raises and fails the test).
"""

import pytest

from repro.arch.defs import PAGE_SIZE
from repro.machine import Machine
from repro.pkvm.defs import EPERM, HypercallId
from repro.testing.proxy import HypProxy


@pytest.fixture
def proxy():
    return HypProxy(Machine.boot())


class TestShareLifecycle:
    def test_share_changes_ghost_state(self, proxy):
        machine = proxy.machine
        page = proxy.alloc_page()
        assert proxy.share_page(page) == 0
        committed = machine.checker.committed
        assert committed["host"].shared.lookup(page) is not None
        hyp_va = page + machine.checker.globals_.hyp_va_offset
        assert committed["pkvm"].pgt.mapping.lookup(hyp_va) is not None

    def test_unshare_restores_ghost_state(self, proxy):
        page = proxy.alloc_page()
        proxy.share_page(page)
        assert proxy.unshare_page(page) == 0
        committed = proxy.machine.checker.committed
        assert committed["host"].shared.lookup(page) is None

    def test_many_shares_coalesce_in_ghost(self, proxy):
        base = proxy.alloc_page()
        pages = [base] + [proxy.alloc_page() for _ in range(7)]
        for page in pages:
            assert proxy.share_page(page) == 0
        shared = proxy.machine.checker.committed["host"].shared
        assert shared.nr_pages() == 8
        assert len(shared) == 1  # contiguous allocator -> one maplet


class TestVmLifecycle:
    def test_full_vm_flow_all_checked(self, proxy):
        handle, idx = proxy.create_running_guest(
            memcache_pages=4, backed_gfns=[0x40, 0x41]
        )
        ipa = 0x40 * PAGE_SIZE
        proxy.set_guest_script(
            handle,
            idx,
            [
                ("write", ipa, 0xABCD),
                ("share", ipa),
                ("unshare", ipa),
                ("halt",),
            ],
        )
        # one guest event per run keeps every lock single-phase
        code, _ = proxy.vcpu_run()
        assert code == 0
        assert proxy.vcpu_put() == 0
        assert proxy.teardown_vm(handle) == 0
        assert proxy.reclaim_all() > 0
        assert proxy.machine.checker.violations == []
        assert proxy.machine.obs.metrics.value("oracle_checks_passed") > 10

    def test_vm_metadata_in_ghost(self, proxy):
        handle = proxy.create_vm(nr_vcpus=2, protected=True)
        proxy.init_vcpu(handle)
        vms = proxy.machine.checker.committed["vms"]
        vm = vms.vms[handle]
        assert vm.nr_vcpus == 2 and vm.protected
        assert len(vm.vcpus) == 1
        assert vm.vcpus[0].initialized

    def test_vcpu_load_moves_metadata_ownership(self, proxy):
        handle = proxy.create_vm()
        idx = proxy.init_vcpu(handle)
        proxy.topup_memcache  # noqa: B018 - no memcache yet, just load
        assert proxy.vcpu_load(handle, idx) == 0
        vms = proxy.machine.checker.committed["vms"]
        ref = vms.vms[handle].vcpus[idx]
        assert ref.loaded_on == 0
        assert ref.memcache_pages is None  # owned by the hardware thread
        assert proxy.vcpu_put() == 0
        vms = proxy.machine.checker.committed["vms"]
        assert vms.vms[handle].vcpus[idx].memcache_pages == ()

    def test_guest_mapping_visible_in_ghost(self, proxy):
        handle, _ = proxy.create_running_guest(backed_gfns=[0x40])
        pgt = proxy.machine.checker.committed[f"vm_pgt:{handle}"]
        assert pgt.mapping.lookup(0x40 * PAGE_SIZE) is not None

    def test_two_vms_are_isolated(self, proxy):
        h1, _ = proxy.create_running_guest(backed_gfns=[0x40])
        proxy.vcpu_put()
        h2 = proxy.create_vm()
        i2 = proxy.init_vcpu(h2)
        proxy.vcpu_load(h2, i2)
        proxy.topup_memcache(4)
        assert proxy.map_guest_page(0x40) == 0
        p1 = proxy.vms[h1].mapped[0x40]
        p2 = proxy.vms[h2].mapped[0x40]
        assert p1 != p2
        # both are annotated to their respective owners in the host
        annot = proxy.machine.checker.committed["host"].annot
        assert annot.lookup(p1).owner_id != annot.lookup(p2).owner_id

    def test_teardown_reclaim_returns_exact_page_set(self, proxy):
        handle, _ = proxy.create_running_guest(
            memcache_pages=4, backed_gfns=[0x40]
        )
        proxy.vcpu_put()
        assert proxy.teardown_vm(handle) == 0
        reclaimable = dict(proxy.machine.pkvm.vm_table.reclaimable)
        # guest page + pgd + vcpu page + 2 memcache + 3 table pages
        assert len(reclaimable) >= 5
        count = proxy.reclaim_all()
        assert count == len(reclaimable)
        # everything reclaimed is host-exclusive again
        annot = proxy.machine.checker.committed["host"].annot
        for phys in reclaimable:
            assert annot.lookup(phys) is None


class TestHostFaultFlow:
    def test_demand_faults_do_not_change_ghost(self, proxy):
        machine = proxy.machine
        before_annot = machine.checker.committed["host"].annot.copy()
        before_shared = machine.checker.committed["host"].shared.copy()
        for _ in range(8):
            machine.host.write64(proxy.alloc_page(), 7)
        after = machine.checker.committed["host"]
        assert after.annot == before_annot
        assert after.shared == before_shared

    def test_shared_page_usable_by_both_sides(self, proxy):
        machine = proxy.machine
        page = proxy.alloc_page()
        machine.host.write64(page, 0x1357)
        proxy.share_page(page)
        # host retains access after sharing
        assert machine.host.read64(page) == 0x1357
        machine.host.write64(page, 0x2468)
        assert machine.host.read64(page) == 0x2468

    def test_injected_fault_after_donation(self, proxy):
        from repro.arch.exceptions import HostCrash

        handle, _ = proxy.create_running_guest(backed_gfns=[0x40])
        donated = proxy.vms[handle].mapped[0x40]
        with pytest.raises(HostCrash):
            proxy.machine.host.read64(donated)


class TestReturnConvention:
    def test_success_zeroes_args(self, proxy):
        page = proxy.alloc_page()
        cpu = proxy.machine.cpu(0)
        proxy.share_page(page)
        assert cpu.read_gpr(0) == 0
        assert cpu.read_gpr(1) == 0

    def test_error_code_in_x1(self, proxy):
        page = proxy.alloc_page()
        proxy.share_page(page)
        ret = proxy.share_page(page)
        assert ret == -EPERM
