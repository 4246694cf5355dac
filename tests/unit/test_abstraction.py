"""Unit tests for the abstraction functions (concrete -> ghost)."""

import pytest

from repro.arch.defs import PAGE_SIZE, MemType, Perms, Stage
from repro.arch.memory import PhysicalMemory, default_memory_map
from repro.arch.pte import PageState
from repro.ghost.abstraction import (
    AbstractionError,
    host_view,
    interpret_pgtable,
    record_cpu_local,
    record_globals,
)
from repro.ghost.maplets import MapletTarget
from repro.machine import Machine
from repro.pkvm.allocator import HypPool
from repro.pkvm.defs import OwnerId
from repro.pkvm.mem_protect import MemProtect, hyp_va
from repro.pkvm.bugs import Bugs
from repro.pkvm.pgtable import (
    KvmPgtable,
    MapAttrs,
    PoolMmOps,
    map_range,
    set_owner_range,
)

BLOCK_2M = 2 * 1024 * 1024
RWX = MapAttrs(Perms.rwx())


@pytest.fixture
def pgt():
    mem = PhysicalMemory(default_memory_map())
    pool = HypPool(mem, 0x4800_0000, 512)
    return KvmPgtable(mem, Stage.STAGE2, PoolMmOps(pool), "t")


class TestInterpretPgtable:
    def test_empty_table(self, pgt):
        abs_pgt = interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)
        assert not abs_pgt.mapping
        assert abs_pgt.footprint == {pgt.root}

    def test_single_page(self, pgt):
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        abs_pgt = interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)
        assert abs_pgt.mapping.lookup(0x1000) == MapletTarget.mapped(
            0x4000_0000, Perms.rwx()
        )

    def test_contiguous_pages_coalesce(self, pgt):
        map_range(pgt, 0, 8 * PAGE_SIZE, 0x4000_0000, RWX)
        abs_pgt = interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)
        assert len(abs_pgt.mapping) == 1
        assert abs_pgt.mapping.nr_pages() == 8

    def test_block_equals_pages_extension(self, pgt):
        """A 2MB block and 512 individual pages have the same extension."""
        map_range(pgt, 0, BLOCK_2M, 0x4020_0000, RWX, try_block=True)
        as_block = interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2).mapping

        mem2 = PhysicalMemory(default_memory_map())
        pool2 = HypPool(mem2, 0x4800_0000, 512)
        pgt2 = KvmPgtable(mem2, Stage.STAGE2, PoolMmOps(pool2), "t2")
        map_range(pgt2, 0, BLOCK_2M, 0x4020_0000, RWX, try_block=False)
        as_pages = interpret_pgtable(mem2, pgt2.root, Stage.STAGE2).mapping
        assert as_block == as_pages

    def test_annotations_interpreted(self, pgt):
        set_owner_range(pgt, 0x3000, 2 * PAGE_SIZE, int(OwnerId.HYP))
        abs_pgt = interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)
        assert abs_pgt.mapping.lookup(0x3000) == MapletTarget.annotated(1)
        assert abs_pgt.mapping.nr_pages() == 2

    def test_footprint_collects_tables(self, pgt):
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        abs_pgt = interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)
        # root + L1 + L2 + L3 tables
        assert len(abs_pgt.footprint) == 4
        assert abs_pgt.footprint == frozenset(pgt.table_pages)

    def test_cyclic_table_detected(self, pgt):
        from repro.arch.pte import make_table_descriptor

        pgt.mem.write64(pgt.root, make_table_descriptor(pgt.root))
        with pytest.raises(AbstractionError):
            interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)

    def test_double_mapping_same_va_impossible_but_checked(self, pgt):
        # interpret happily handles distinct VAs to same PA (aliasing)
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        map_range(pgt, 0x9000, PAGE_SIZE, 0x4000_0000, RWX)
        abs_pgt = interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)
        assert abs_pgt.mapping.nr_pages() == 2


class TestHostAbstraction:
    def test_owned_mapped_pages_abstracted_away(self):
        """The looseness: demand-mapped exclusive pages are invisible."""
        mem = PhysicalMemory(default_memory_map())
        pool = HypPool(mem, 0x4800_0000, 512)
        mp = MemProtect(mem, pool, Bugs())
        mp.host_handle_mem_abort(0x4600_0000)  # demand map something
        ghost = host_view(interpret_pgtable(mem, mp.host_mmu.root, Stage.STAGE2))
        assert not ghost.annot
        assert not ghost.shared

    def test_shared_and_annot_split(self):
        mem = PhysicalMemory(default_memory_map())
        pool = HypPool(mem, 0x4800_0000, 512)
        mp = MemProtect(mem, pool, Bugs())
        mp.do_share_hyp(0x4100_0000)
        mp.do_donate_hyp(0x4200_0000)
        ghost = host_view(interpret_pgtable(mem, mp.host_mmu.root, Stage.STAGE2))
        assert ghost.shared.lookup(0x4100_0000).page_state is PageState.SHARED_OWNED
        assert ghost.annot.lookup(0x4200_0000).owner_id == int(OwnerId.HYP)
        assert ghost.shared.lookup(0x4200_0000) is None


class TestMachineLevelRecording:
    def test_pkvm_abstraction_contains_linear_map(self):
        m = Machine(ghost=False)
        pgt = interpret_pgtable(m.mem, m.pkvm.mp.pkvm_pgd.root, Stage.STAGE1)
        carve = m.pkvm.carveout
        target = pgt.mapping.lookup(hyp_va(carve.base))
        assert target is not None
        assert target.oa == carve.base

    def test_pkvm_abstraction_contains_uart(self):
        m = Machine(ghost=False)
        pgt = interpret_pgtable(m.mem, m.pkvm.mp.pkvm_pgd.root, Stage.STAGE1)
        target = pgt.mapping.lookup(m.pkvm.uart_va)
        assert target is not None
        assert target.memtype is MemType.DEVICE

    def test_cpu_local_recording(self):
        m = Machine(ghost=False)
        cpu = m.cpu(0)
        cpu.saved_el1.regs[1] = 77
        local = record_cpu_local(cpu)
        assert local.present
        assert local.regs[1] == 77
        assert local.loaded_vcpu is None

    def test_globals_recording(self):
        m = Machine(ghost=False)
        g = record_globals(m)
        assert g.nr_cpus == len(m.cpus)
        assert g.carveout == (m.pkvm.carveout.base, m.pkvm.carveout.end)
        assert g.addr_is_allowed_memory(0x4000_0000)
        assert g.addr_is_device(0x0900_0000)


class TestAbstractionErrors:
    """The error paths must raise AbstractionError with messages that
    localise the fault — these are oracle-infrastructure diagnostics the
    operator debugs from, not spec violations."""

    def test_cycle_message_names_the_page(self, pgt):
        from repro.arch.pte import make_table_descriptor

        pgt.mem.write64(pgt.root, make_table_descriptor(pgt.root))
        with pytest.raises(AbstractionError, match="reached twice") as exc:
            interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)
        assert f"{pgt.root:#x}" in str(exc.value)

    def test_shared_subtree_detected(self, pgt):
        """Two entries pointing at one table page: not a cycle, still a
        malformed tree (its pages would alias in the footprint)."""
        from repro.arch.pte import make_table_descriptor

        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        l1 = pgt.mem.read64(pgt.root)
        # second root entry pointing at the same L1 table
        pgt.mem.write64(pgt.root + 8, l1)
        with pytest.raises(AbstractionError, match="reached twice"):
            interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)

    def test_malformed_descriptor_reports_location(self, pgt):
        from repro.arch.pte import (
            PTE_VALID,
            PTE_TYPE,
            SW_PAGE_STATE_SHIFT,
        )

        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        # Walk to the L3 table and corrupt the descriptor's software
        # page-state bits to the unused 0b11 encoding.
        pa = pgt.root
        for _ in range(3):
            pa = pgt.mem.read64(pa + 8 * 0) & ((1 << 48) - 1) & ~0xFFF
        bad = PTE_VALID | PTE_TYPE | 0x4000_0000 | (3 << SW_PAGE_STATE_SHIFT)
        pgt.mem.write64(pa + 8 * 1, bad)
        with pytest.raises(AbstractionError, match="malformed descriptor") as exc:
            interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)
        message = str(exc.value)
        assert f"{pa:#x}[1]" in message  # table page + index
        assert "level 3" in message

    def test_root_outside_dram(self, pgt):
        with pytest.raises(AbstractionError, match="outside DRAM") as exc:
            interpret_pgtable(pgt.mem, 0x0900_0000, Stage.STAGE2)
        assert "root" in str(exc.value)

    def test_table_page_outside_dram(self, pgt):
        from repro.arch.pte import make_table_descriptor

        pgt.mem.write64(pgt.root, make_table_descriptor(0x0900_0000))
        with pytest.raises(AbstractionError, match="outside DRAM") as exc:
            interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)
        assert "table page" in str(exc.value)
