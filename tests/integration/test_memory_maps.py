"""Machines with non-default memory maps: multiple DRAM banks, large
memory (the bug-5 geometry), and tiny machines."""

import pytest

from repro.arch.defs import MemType, PAGE_SIZE
from repro.arch.memory import MemoryRegion
from repro.ghost.checker import SpecViolation
from repro.machine import Machine
from repro.pkvm.bugs import Bugs
from repro.pkvm.defs import EINVAL, HypercallId
from repro.testing.proxy import HypProxy


def two_bank_map():
    return [
        MemoryRegion(0x0900_0000, 0x1000, MemType.DEVICE, "uart"),
        MemoryRegion(0x4000_0000, 64 * 1024 * 1024, MemType.NORMAL, "dram0"),
        MemoryRegion(0x8000_0000, 64 * 1024 * 1024, MemType.NORMAL, "dram1"),
    ]


class TestTwoBanks:
    def test_boot_and_share_in_high_bank(self):
        machine = Machine(memory_map=two_bank_map())
        proxy = HypProxy(machine)
        # the carveout sits in the last (highest) bank
        assert machine.pkvm.carveout.base >= 0x8000_0000
        page = proxy.alloc_page()
        assert proxy.share_page(page) == 0
        assert proxy.unshare_page(page) == 0

    def test_host_faults_in_both_banks(self):
        machine = Machine(memory_map=two_bank_map())
        machine.host.write64(0x4000_0000, 1)
        machine.host.write64(0x8000_0000, 2)
        assert machine.host.read64(0x4000_0000) == 1
        assert machine.host.read64(0x8000_0000) == 2
        assert machine.checker.violations == []

    def test_share_in_the_inter_bank_hole_rejected(self):
        machine = Machine(memory_map=two_bank_map())
        ret = machine.host.hvc(
            HypercallId.HOST_SHARE_HYP, 0x6000_0000 >> 12
        )
        assert ret == -EINVAL

    def test_range_share_cannot_span_banks(self):
        machine = Machine(memory_map=two_bank_map())
        proxy = HypProxy(machine)
        bank0_end = 0x4000_0000 + 64 * 1024 * 1024
        ret = proxy.share_range(bank0_end - 2 * PAGE_SIZE, 4)
        assert ret == -EINVAL

    def test_vm_lifecycle_across_banks(self):
        machine = Machine(memory_map=two_bank_map())
        proxy = HypProxy(machine)
        handle, _ = proxy.create_running_guest(backed_gfns=[0x40])
        proxy.vcpu_put()
        proxy.teardown_vm(handle)
        proxy.reclaim_all()
        assert machine.checker.violations == []


class TestBug5Geometry:
    BIG = 0xC040_0000 - 0x4000_0000  # DRAM end just past phys 3 GB

    def test_fixed_hypervisor_relocates_private_range(self):
        machine = Machine(dram_size=self.BIG)
        linear_end = (
            machine.pkvm.carveout.end + machine.checker.globals_.hyp_va_offset
        )
        assert machine.pkvm.uart_va >= linear_end

    def test_buggy_hypervisor_caught_at_boot(self):
        with pytest.raises(SpecViolation) as exc:
            Machine(bugs=Bugs.single("linear_map_overlap"), dram_size=self.BIG)
        assert exc.value.kind == "init-invariant"

    def test_small_memory_hides_the_bug(self):
        # the paper's point: the overlap needs "very large amounts of
        # physical memory" — small machines boot fine even when buggy
        machine = Machine(bugs=Bugs.single("linear_map_overlap"))
        assert machine.checker.violations == []


class TestTinyMachine:
    def test_one_cpu_16mb(self):
        machine = Machine(
            nr_cpus=1, dram_size=16 * 1024 * 1024, carveout_pages=512
        )
        proxy = HypProxy(machine)
        page = proxy.alloc_page()
        assert proxy.share_page(page) == 0
        handle, _ = proxy.create_running_guest(backed_gfns=[0x40])
        assert machine.checker.violations == []
