"""Unit tests for the generic page-table walker and standard walkers."""

import pytest

from repro.arch.defs import PAGE_SIZE, MemType, Perms, Stage
from repro.arch.memory import PhysicalMemory, default_memory_map
from repro.arch.pte import EntryKind, PageState
from repro.arch.translate import TranslationFault, walk
from repro.pkvm.allocator import HypPool
from repro.pkvm.defs import EEXIST, EINVAL, ENOMEM, EPERM, OwnerId
from repro.pkvm.pgtable import (
    FLAG_LEAF,
    FLAG_TABLE_POST,
    FLAG_TABLE_PRE,
    KvmPgtable,
    MapAttrs,
    PgtableWalker,
    PoolMmOps,
    check_page_state,
    iter_leaves,
    kvm_pgtable_walk,
    lookup,
    map_range,
    set_owner_range,
    unmap_range,
)

BLOCK_2M = 2 * 1024 * 1024


@pytest.fixture
def pgt():
    mem = PhysicalMemory(default_memory_map())
    pool = HypPool(mem, 0x4800_0000, 512)
    return KvmPgtable(mem, Stage.STAGE2, PoolMmOps(pool), "test")


RWX = MapAttrs(Perms.rwx())


class TestMapRange:
    def test_single_page_map_and_walk(self, pgt):
        assert map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX) == 0
        result = walk(pgt.mem, pgt.root, 0x1234, Stage.STAGE2)
        assert result.oa == 0x4000_0234

    def test_lookup_finds_leaf(self, pgt):
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        pte = lookup(pgt, 0x1000)
        assert pte.kind is EntryKind.PAGE
        assert pte.oa == 0x4000_0000

    def test_multi_page_map(self, pgt):
        assert map_range(pgt, 0x0, 8 * PAGE_SIZE, 0x4000_0000, RWX) == 0
        for i in range(8):
            result = walk(pgt.mem, pgt.root, i * PAGE_SIZE, Stage.STAGE2)
            assert result.oa == 0x4000_0000 + i * PAGE_SIZE

    def test_unaligned_rejected(self, pgt):
        assert map_range(pgt, 0x800, PAGE_SIZE, 0x4000_0000, RWX) == -EINVAL
        assert map_range(pgt, 0x1000, 77, 0x4000_0000, RWX) == -EINVAL
        assert map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0100, RWX) == -EINVAL

    def test_block_mapping_when_aligned(self, pgt):
        assert (
            map_range(pgt, 0, BLOCK_2M, 0x4020_0000, RWX, try_block=True) == 0
        )
        pte = lookup(pgt, 0)
        assert pte.kind is EntryKind.BLOCK
        assert pte.level == 2

    def test_no_block_when_misaligned_target(self, pgt):
        ret = map_range(
            pgt, 0, BLOCK_2M, 0x4000_1000, RWX, try_block=True
        )
        assert ret == 0
        assert lookup(pgt, 0).kind is EntryKind.PAGE

    def test_must_be_invalid_rejects_remap(self, pgt):
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        ret = map_range(
            pgt, 0x1000, PAGE_SIZE, 0x4000_1000, RWX, must_be_invalid=True
        )
        assert ret == -EEXIST

    def test_remap_changes_attributes(self, pgt):
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        shared = MapAttrs(Perms.rwx(), MemType.NORMAL, PageState.SHARED_OWNED)
        assert map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, shared) == 0
        assert lookup(pgt, 0x1000).page_state is PageState.SHARED_OWNED

    def test_oom_returns_enomem(self):
        mem = PhysicalMemory(default_memory_map())
        pool = HypPool(mem, 0x4800_0000, 2)  # root + one table only
        pgt = KvmPgtable(mem, Stage.STAGE2, PoolMmOps(pool), "tiny")
        assert map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX) == -ENOMEM


class TestBlockSplit:
    def test_mapping_inside_block_splits_it(self, pgt):
        map_range(pgt, 0, BLOCK_2M, 0x4020_0000, RWX, try_block=True)
        other = MapAttrs(Perms.rw(), MemType.NORMAL, PageState.SHARED_OWNED)
        assert map_range(pgt, 0x3000, PAGE_SIZE, 0x5000_0000, other) == 0
        # the changed page
        assert lookup(pgt, 0x3000).oa == 0x5000_0000
        # neighbours keep the original translation and attributes
        for va in (0, 0x2000, 0x4000, BLOCK_2M - PAGE_SIZE):
            pte = lookup(pgt, va)
            assert pte.kind is EntryKind.PAGE
            assert pte.oa == 0x4020_0000 + va
            assert pte.page_state is PageState.OWNED

    def test_split_preserves_extension(self, pgt):
        """A pure split never changes the extensional mapping."""
        from repro.ghost.abstraction import interpret_pgtable

        map_range(pgt, 0, BLOCK_2M, 0x4020_0000, RWX, try_block=True)
        before = interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2).mapping
        # re-map one page identically: forces a split but same extension
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4020_1000, RWX)
        after = interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2).mapping
        assert before == after


class TestSetOwner:
    def test_annotation_visible_to_lookup(self, pgt):
        assert set_owner_range(pgt, 0x1000, PAGE_SIZE, int(OwnerId.HYP)) == 0
        pte = lookup(pgt, 0x1000)
        assert pte.kind is EntryKind.INVALID_ANNOTATED
        assert pte.owner_id == int(OwnerId.HYP)

    def test_annotation_faults_hardware_walk(self, pgt):
        set_owner_range(pgt, 0x1000, PAGE_SIZE, int(OwnerId.HYP))
        with pytest.raises(TranslationFault):
            walk(pgt.mem, pgt.root, 0x1000, Stage.STAGE2)

    def test_host_owner_resets_to_zero(self, pgt):
        set_owner_range(pgt, 0x1000, PAGE_SIZE, int(OwnerId.HYP))
        set_owner_range(pgt, 0x1000, PAGE_SIZE, int(OwnerId.HOST))
        assert lookup(pgt, 0x1000).kind is EntryKind.INVALID

    def test_coarse_annotation_when_range_covers_entry(self, pgt):
        assert set_owner_range(pgt, 0, BLOCK_2M, int(OwnerId.HYP)) == 0
        pte = lookup(pgt, 0x100_000)
        assert pte.kind is EntryKind.INVALID_ANNOTATED
        assert pte.level == 2  # one coarse entry, not 512 fine ones

    def test_annotation_split_preserves_neighbours(self, pgt):
        set_owner_range(pgt, 0, BLOCK_2M, int(OwnerId.HYP))
        # mapping one page inside must not lose the others' annotations
        assert map_range(pgt, 0x5000, PAGE_SIZE, 0x4000_0000, RWX) == 0
        assert lookup(pgt, 0x5000).kind is EntryKind.PAGE
        neighbour = lookup(pgt, 0x6000)
        assert neighbour.kind is EntryKind.INVALID_ANNOTATED
        assert neighbour.owner_id == int(OwnerId.HYP)


class TestUnmap:
    def test_unmap_page(self, pgt):
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        assert unmap_range(pgt, 0x1000, PAGE_SIZE) == 0
        assert lookup(pgt, 0x1000).kind is EntryKind.INVALID

    def test_unmap_part_of_block_splits(self, pgt):
        map_range(pgt, 0, BLOCK_2M, 0x4020_0000, RWX, try_block=True)
        assert unmap_range(pgt, 0x1000, PAGE_SIZE) == 0
        assert lookup(pgt, 0x1000).kind is EntryKind.INVALID
        assert lookup(pgt, 0x2000).kind is EntryKind.PAGE

    def test_unmap_clears_annotations(self, pgt):
        set_owner_range(pgt, 0x1000, PAGE_SIZE, int(OwnerId.HYP))
        unmap_range(pgt, 0x1000, PAGE_SIZE)
        assert lookup(pgt, 0x1000).kind is EntryKind.INVALID

    def test_empty_tables_reclaimed(self, pgt):
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        tables_with_map = len(pgt.table_pages)
        unmap_range(pgt, 0x1000, PAGE_SIZE)
        assert len(pgt.table_pages) < tables_with_map
        assert pgt.root in pgt.table_pages


class TestCheckPageState:
    def test_expected_state_passes(self, pgt):
        shared = MapAttrs(Perms.rwx(), MemType.NORMAL, PageState.SHARED_OWNED)
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, shared)
        assert (
            check_page_state(pgt, 0x1000, PAGE_SIZE, PageState.SHARED_OWNED)
            == 0
        )

    def test_wrong_state_fails(self, pgt):
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        assert (
            check_page_state(pgt, 0x1000, PAGE_SIZE, PageState.SHARED_OWNED)
            == -EPERM
        )

    def test_invalid_default_host(self, pgt):
        assert check_page_state(pgt, 0x1000, PAGE_SIZE, PageState.OWNED) == -EPERM
        assert (
            check_page_state(
                pgt, 0x1000, PAGE_SIZE, PageState.OWNED, allow_default_host=True
            )
            == 0
        )

    def test_annotated_always_fails(self, pgt):
        set_owner_range(pgt, 0x1000, PAGE_SIZE, int(OwnerId.HYP))
        assert (
            check_page_state(
                pgt, 0x1000, PAGE_SIZE, PageState.OWNED, allow_default_host=True
            )
            == -EPERM
        )


class TestGenericWalker:
    def test_leaf_visits_cover_range(self, pgt):
        map_range(pgt, 0, 4 * PAGE_SIZE, 0x4000_0000, RWX)
        visited = []

        def cb(ctx):
            if ctx.pte.kind.is_leaf:
                visited.append(ctx.va)
            return 0

        kvm_pgtable_walk(pgt, 0, 4 * PAGE_SIZE, PgtableWalker(cb=cb))
        assert visited == [0, PAGE_SIZE, 2 * PAGE_SIZE, 3 * PAGE_SIZE]

    def test_table_pre_and_post_visits(self, pgt):
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        kinds = []

        def cb(ctx):
            kinds.append(ctx.visit.value)
            return 0

        kvm_pgtable_walk(
            pgt,
            0x1000,
            PAGE_SIZE,
            PgtableWalker(cb=cb, flags=FLAG_TABLE_PRE | FLAG_TABLE_POST),
        )
        # pre-order on the way down, post-order on the way back up
        assert kinds == ["table-pre"] * 3 + ["table-post"] * 3

    def test_error_aborts_walk(self, pgt):
        map_range(pgt, 0, 4 * PAGE_SIZE, 0x4000_0000, RWX)
        count = [0]

        def cb(ctx):
            count[0] += 1
            return -EPERM

        ret = kvm_pgtable_walk(
            pgt, 0, 4 * PAGE_SIZE, PgtableWalker(cb=cb, flags=FLAG_LEAF)
        )
        assert ret == -EPERM
        assert count[0] == 1

    def test_zero_size_rejected(self, pgt):
        ret = kvm_pgtable_walk(pgt, 0, 0, PgtableWalker(cb=lambda c: 0))
        assert ret == -EINVAL

    def test_footprint_writes_enforced(self, pgt):
        with pytest.raises(AssertionError):
            pgt.write_slot(0x4000_0000, 0, 1, 0)

    def test_footprint_fills_enforced(self, pgt):
        with pytest.raises(AssertionError):
            pgt.fill_table(0x4000_0000, [1] * 512)
        assert pgt.mem.page_words(0x4000_0000 >> 12) == [0] * 512


class TestIterLeaves:
    def test_iterates_pages_blocks_and_annotations(self, pgt):
        map_range(pgt, 0x1000, PAGE_SIZE, 0x4000_0000, RWX)
        map_range(pgt, BLOCK_2M, BLOCK_2M, 0x4020_0000, RWX, try_block=True)
        set_owner_range(pgt, 0x3000, PAGE_SIZE, int(OwnerId.HYP))
        leaves = dict(iter_leaves(pgt))
        assert leaves[0x1000].kind is EntryKind.PAGE
        assert leaves[BLOCK_2M].kind is EntryKind.BLOCK
        assert leaves[0x3000].kind is EntryKind.INVALID_ANNOTATED

    def test_empty_table_has_no_leaves(self, pgt):
        assert list(iter_leaves(pgt)) == []
