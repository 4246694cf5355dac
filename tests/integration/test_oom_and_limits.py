"""Integration tests for resource exhaustion and limit behaviour —
the paper's ENOMEM looseness in action, plus table limits."""

import pytest

from repro.machine import Machine
from repro.pkvm.allocator import OutOfMemory
from repro.pkvm.defs import ENOMEM, EINVAL, ENOENT
from repro.pkvm.defs import HypercallId
from repro.pkvm.vm import MAX_VMS
from repro.testing.proxy import HypProxy


def drain_pool(machine):
    try:
        while True:
            machine.pkvm.pool.alloc_page()
    except OutOfMemory:
        pass


class TestOomLooseness:
    def test_share_enomem_is_accepted_by_loose_spec(self):
        machine = Machine()
        drain_pool(machine)
        page = machine.pkvm.carveout.base - 64 * 1024 * 1024
        ret = machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        assert ret == -ENOMEM
        assert machine.checker.violations == []
        assert machine.obs.metrics.value("oracle_checks_skipped") == 1

    def test_machine_still_usable_after_enomem(self):
        machine = Machine()
        proxy = HypProxy(machine)
        drain_pool(machine)
        far = machine.pkvm.carveout.base - 64 * 1024 * 1024
        assert machine.host.hvc(HypercallId.HOST_SHARE_HYP, far >> 12) == -ENOMEM
        # previously-tabled regions still work
        page = proxy.alloc_page()
        machine.host.write64(page, 1)

    def test_map_guest_enomem_on_empty_memcache(self):
        machine = Machine()
        proxy = HypProxy(machine)
        proxy.create_running_guest(memcache_pages=0)
        ret = proxy.map_guest_page(0x40)
        assert ret == -ENOMEM
        assert machine.checker.violations == []


class TestTableLimits:
    def test_vm_table_fills_to_max(self):
        machine = Machine()
        proxy = HypProxy(machine)
        handles = [proxy.create_vm() for _ in range(MAX_VMS)]
        assert len(set(handles)) == MAX_VMS
        # one more: the donation succeeds but the insert fails
        params = proxy.alloc_page()
        pgd = proxy.alloc_page()
        proxy.write_words(params, [1, 1, pgd >> 12])
        proxy.share_page(params)
        ret = proxy.hvc(HypercallId.INIT_VM, params >> 12)
        assert ret == -ENOMEM
        assert machine.checker.violations == []

    def test_slot_reuse_after_teardown(self):
        machine = Machine()
        proxy = HypProxy(machine)
        handles = [proxy.create_vm() for _ in range(MAX_VMS)]
        proxy.teardown_vm(handles[3])
        proxy.reclaim_all()
        fresh = proxy.create_vm()
        assert fresh not in handles  # handle is new ...
        vm = machine.pkvm.vm_table.get(fresh)
        assert vm.index == 3  # ... but the slot is reused

    def test_memcache_capacity_limit(self):
        machine = Machine()
        proxy = HypProxy(machine)
        proxy.create_running_guest(memcache_pages=0)
        from repro.pkvm.defs import MEMCACHE_CAPACITY, MEMCACHE_TOPUP_MAX

        filled = 0
        ret = 0
        while filled < MEMCACHE_CAPACITY and ret == 0:
            ret = proxy.topup_memcache(MEMCACHE_TOPUP_MAX)
            if ret == 0:
                filled += MEMCACHE_TOPUP_MAX
        ret = proxy.topup_memcache(MEMCACHE_TOPUP_MAX)
        assert ret == -ENOMEM
        assert machine.checker.violations == []


class TestArgumentEdgeCases:
    @pytest.fixture
    def machine(self):
        return Machine()

    def test_huge_pfn(self, machine):
        ret = machine.host.hvc(HypercallId.HOST_SHARE_HYP, 1 << 52)
        assert ret == -EINVAL

    def test_zero_pfn(self, machine):
        ret = machine.host.hvc(HypercallId.HOST_SHARE_HYP, 0)
        assert ret == -EINVAL  # phys 0 is outside every region

    def test_handle_zero(self, machine):
        assert machine.host.hvc(HypercallId.TEARDOWN_VM, 0) == -ENOENT

    def test_all_hypercalls_with_garbage_args_stay_checked(self, machine):
        for call in HypercallId:
            machine.host.hvc(call, 0xDEAD, 0xBEEF, 0xF00D)
        assert machine.checker.violations == []
        assert machine.obs.metrics.value("oracle_checks_run") == len(HypercallId)
