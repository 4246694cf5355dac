"""A split's child table, stored as one page, against the per-entry encoding.

``_split_block`` writes its 512 sub-entries as one arithmetic run (the
first sub-entry's word plus ``i`` sub-entry sizes) and ``_split_annotation``
as one repeated word. These tests pin both fills, over every input the
descriptor codec accepts, to the words a loop of ``_make_leaf`` calls
would have stored.
"""

import itertools

import pytest

from repro.arch.defs import PAGE_SIZE, MemType, Perms, Stage, level_block_size
from repro.arch.memory import PhysicalMemory, default_memory_map
from repro.arch.pte import PageState, decode_descriptor, make_invalid_annotated
from repro.pkvm.allocator import HypPool
from repro.pkvm.defs import OwnerId
from repro.pkvm.pgtable import (
    KvmPgtable,
    MapAttrs,
    PoolMmOps,
    VisitKind,
    WalkContext,
    _make_leaf,
    _split_annotation,
    _split_block,
)

BLOCK_LEVELS = (1, 2)
#: One past the highest output address a 48-bit descriptor can hold.
OA_LIMIT = 1 << 48
ALL_PERMS = [Perms(*rwx) for rwx in itertools.product((False, True), repeat=3)]


def _split_child_words(stage: Stage, level: int, raw: int, split) -> list[int]:
    """Place ``raw`` as a level-``level`` entry, split it, and return the
    512 words of the child table the split installed there."""
    mem = PhysicalMemory(default_memory_map())
    pgt = KvmPgtable(mem, stage, PoolMmOps(HypPool(mem, 0x4800_0000, 4)), "split")
    pgt.write_slot(pgt.root, 0, raw, 0)
    ctx = WalkContext(
        pgt=pgt,
        level=level,
        va=0,
        range_start=0,
        range_end=PAGE_SIZE,
        table_pa=pgt.root,
        index=0,
        pte=decode_descriptor(raw, level, stage),
        visit=VisitKind.LEAF,
    )
    assert split(ctx) == 0
    child = ctx.pte.oa  # the entry now points at the child table
    assert pgt.children_of(child) == 512
    return mem.page_words(child // PAGE_SIZE)


@pytest.mark.parametrize("level", BLOCK_LEVELS)
@pytest.mark.parametrize("stage", list(Stage))
def test_block_split_equals_per_entry_leaves(stage, level):
    sub_size = level_block_size(level + 1)
    checked = 0
    for oa in (0, OA_LIMIT - level_block_size(level)):
        for perms, memtype, state in itertools.product(
            ALL_PERMS, MemType, PageState
        ):
            attrs = MapAttrs(perms, memtype, state)
            try:
                raw = _make_leaf(stage, level, oa, attrs)
            except ValueError:
                continue  # the codec refuses it (stage 1 is always readable)
            expected = [
                _make_leaf(stage, level + 1, oa + i * sub_size, attrs)
                for i in range(512)
            ]
            assert _split_child_words(stage, level, raw, _split_block) == expected
            checked += 1
    readable = sum(p.r for p in ALL_PERMS)
    nr_perms = readable if stage is Stage.STAGE1 else len(ALL_PERMS)
    assert checked == 2 * nr_perms * len(MemType) * len(PageState)


@pytest.mark.parametrize("level", BLOCK_LEVELS)
@pytest.mark.parametrize("owner", [1, int(OwnerId.HYP), 0xFF])
def test_annotation_split_repeats_its_word(owner, level):
    raw = make_invalid_annotated(owner)
    words = _split_child_words(Stage.STAGE2, level, raw, _split_annotation)
    assert words == [raw] * 512
