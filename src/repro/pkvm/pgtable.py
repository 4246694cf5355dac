"""The generic, callback-driven page-table walker and the standard walkers
built on it (map, unmap, set-owner, check).

This mirrors the KVM ``kvm_pgtable`` machinery the paper describes in §4.1:
"highly optimized ... higher-order, taking pointers to callback functions
to call during the walk to perform the actual checks and updates". The walk
traverses the table tree for a given input-address range, following the
Arm translation-table-walk algorithm, invoking the callback at table
entries and/or leaves as requested by the walker's flags.

Walkers here support everything the hypercalls need:

- installing page and block mappings, creating intermediate tables on
  demand (allocated through pluggable ``mm_ops`` — the hyp pool for
  host/hyp tables, a vCPU memcache for guest tables);
- *splitting* an existing block when only part of its range must change
  (the source of the paper's host-abstraction looseness: mapping on demand
  "sometimes removing mappings (e.g. if it splits a block mapping)");
- annotating invalid entries with an owner id;
- read-only visitation for the ``check_share``-style pre-flight checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.arch.defs import (
    LEAF_LEVEL,
    PAGE_SHIFT,
    PTRS_PER_TABLE,
    START_LEVEL,
    MemType,
    Perms,
    Stage,
    level_block_size,
    level_index,
    level_supports_block,
)
from repro.arch.memory import PhysicalMemory
from repro.arch.pte import (
    DecodedPte,
    EntryKind,
    PageState,
    decode_descriptor,
    make_block_descriptor,
    make_invalid_annotated,
    make_page_descriptor,
    make_table_descriptor,
)
from repro.pkvm.allocator import OutOfMemory
from repro.pkvm.defs import EEXIST, EINVAL, ENOMEM, EPERM, OwnerId
from repro.sim.sched import shared_access, yield_point


class VisitKind(enum.Enum):
    LEAF = "leaf"
    TABLE_PRE = "table-pre"
    TABLE_POST = "table-post"


#: Walker flags, mirroring KVM_PGTABLE_WALK_{LEAF,TABLE_PRE,TABLE_POST}.
FLAG_LEAF = 1 << 0
FLAG_TABLE_PRE = 1 << 1
FLAG_TABLE_POST = 1 << 2


class MmOps:
    """Allocation interface handed to walkers that create tables.

    Real pKVM passes a ``kvm_pgtable_mm_ops`` of callbacks; the two
    implementations here correspond to its two instantiations.
    """

    def alloc_table(self) -> int:
        raise NotImplementedError

    def free_table(self, phys: int) -> None:
        raise NotImplementedError


class PoolMmOps(MmOps):
    """Table pages from the hyp buddy pool (hyp stage 1, host stage 2)."""

    def __init__(self, pool, cpu_index: int = 0):
        self.pool = pool
        self.cpu_index = cpu_index

    def alloc_table(self) -> int:
        return self.pool.alloc_page(self.cpu_index)

    def free_table(self, phys: int) -> None:
        self.pool.free_pages(phys, self.cpu_index)


class MemcacheMmOps(MmOps):
    """Table pages popped from a vCPU memcache (guest stage 2)."""

    def __init__(self, memcache, mem: PhysicalMemory):
        self.memcache = memcache
        self.mem = mem

    def alloc_table(self) -> int:
        phys = self.memcache.pop()
        self.mem.zero_page(phys >> 12)
        return phys

    def free_table(self, phys: int) -> None:
        self.memcache.push(phys)


class KvmPgtable:
    """One translation table managed by pKVM, plus its footprint.

    ``table_pages`` is the exact set of physical pages backing this table;
    the ghost machinery checks (§4.4) that footprints of distinct tables
    stay disjoint and that updates never stray outside them.
    """

    def __init__(
        self,
        mem: PhysicalMemory,
        stage: Stage,
        mm_ops: MmOps,
        name: str,
    ):
        self.mem = mem
        self.stage = stage
        self.mm_ops = mm_ops
        self.name = name
        # Race-detector location and scheduler yield tag, formatted once.
        self._location = f"pgt:{name}"
        self._pte_tag = f"pte:{name}"
        self.root = mm_ops.alloc_table()
        self.table_pages: set[int] = {self.root}
        #: Non-empty-entry counts per table page, for freeing empty tables.
        #: Annotated-invalid entries count: they carry ownership state.
        self._children: dict[int, int] = {self.root: 0}
        #: child table pa -> (parent table pa, slot index).
        self._parent: dict[int, tuple[int, int]] = {}
        #: Break-before-make invalidation counter (no TLB model here; the
        #: companion paper covers TLB discipline).
        self.tlb_invalidations = 0

    # -- raw slot access --------------------------------------------------

    def read_slot(self, table_pa: int, index: int) -> int:
        shared_access(self._location, write=False)
        return self.mem.read64(table_pa + 8 * index)

    def _check_footprint(self, table_pa: int) -> None:
        if table_pa not in self.table_pages:
            raise AssertionError(
                f"{self.name}: write outside table footprint at {table_pa:#x}"
            )

    def write_slot(self, table_pa: int, index: int, raw: int, old_raw: int) -> None:
        self._check_footprint(table_pa)
        shared_access(self._location, write=True)
        if old_raw & 1:
            # Break-before-make: invalidate, then (conceptually) TLBI.
            self.mem.write64(table_pa + 8 * index, 0)
            self.tlb_invalidations += 1
        self.mem.write64(table_pa + 8 * index, raw)
        yield_point(self._pte_tag)
        self._children[table_pa] = (
            self._children.get(table_pa, 0)
            - int(old_raw != 0)
            + int(raw != 0)
        )

    def fill_table(self, table_pa: int, words: list[int]) -> None:
        """Store all 512 entries of a fresh, all-zero table page as one
        page write: a split's child, which no other CPU can reach until
        its parent entry is installed.

        The scheduler and race detector still see what 512
        :meth:`write_slot` calls would show them: one shared write and
        one ``pte:`` yield point per entry, after the store.
        """
        self._check_footprint(table_pa)
        self.mem.write_page(table_pa >> PAGE_SHIFT, words)
        self._children[table_pa] = PTRS_PER_TABLE - words.count(0)
        for _ in range(PTRS_PER_TABLE):
            shared_access(self._location, write=True)
            yield_point(self._pte_tag)

    def adopt_table(
        self, phys: int, parent: tuple[int, int] | None = None
    ) -> None:
        self.table_pages.add(phys)
        self._children.setdefault(phys, 0)
        if parent is not None:
            self._parent[phys] = parent

    def disown_table(self, phys: int) -> None:
        self.table_pages.discard(phys)
        self._children.pop(phys, None)
        self._parent.pop(phys, None)

    def children_of(self, table_pa: int) -> int:
        return self._children.get(table_pa, 0)


@dataclass
class WalkContext:
    """Everything a walker callback sees at one visit (its ``ctx`` arg)."""

    pgt: KvmPgtable
    level: int
    #: Input address of the start of this entry's region.
    va: int
    #: Intersection of the walk range with this entry's region.
    range_start: int
    range_end: int
    table_pa: int
    index: int
    pte: DecodedPte
    visit: VisitKind
    arg: object = None

    def reload(self) -> None:
        raw = self.pgt.read_slot(self.table_pa, self.index)
        self.pte = decode_descriptor(raw, self.level, self.pgt.stage)

    def install(self, raw: int) -> None:
        """Replace this entry (break-before-make) and re-decode it."""
        self.pgt.write_slot(self.table_pa, self.index, raw, self.pte.raw)
        self.reload()

    def install_child_table(self) -> int:
        """Allocate a table page, link it at this entry, and return its PA."""
        child = self.pgt.mm_ops.alloc_table()
        self.pgt.adopt_table(child, parent=(self.table_pa, self.index))
        self.install(make_table_descriptor(child))
        return child


WalkerCb = Callable[[WalkContext], int]


@dataclass
class PgtableWalker:
    """The callback + flags bundle passed to :func:`kvm_pgtable_walk`."""

    cb: WalkerCb
    flags: int = FLAG_LEAF
    arg: object = None


def kvm_pgtable_walk(
    pgt: KvmPgtable, addr: int, size: int, walker: PgtableWalker
) -> int:
    """Walk ``[addr, addr+size)``, calling the walker per its flags.

    Returns 0, or the first nonzero callback return (a ``-errno``), at
    which point the walk stops — matching the kernel walker's contract.
    """
    if size <= 0:
        return -EINVAL
    return _walk_table(pgt, pgt.root, START_LEVEL, addr, addr + size, walker)


def _walk_table(
    pgt: KvmPgtable,
    table_pa: int,
    level: int,
    start: int,
    end: int,
    walker: PgtableWalker,
) -> int:
    entry_size = level_block_size(level)
    region_base = start & ~(((1 << 9) * entry_size) - 1) if level > 0 else 0
    first = level_index(start, level)
    last = level_index(end - 1, level)
    for index in range(first, last + 1):
        va = region_base + index * entry_size if level > 0 else index * entry_size
        ctx = WalkContext(
            pgt=pgt,
            level=level,
            va=va,
            range_start=max(start, va),
            range_end=min(end, va + entry_size),
            table_pa=table_pa,
            index=index,
            pte=decode_descriptor(
                pgt.read_slot(table_pa, index), level, pgt.stage
            ),
            visit=VisitKind.LEAF,
            arg=walker.arg,
        )
        ret = _visit_entry(pgt, ctx, walker)
        if ret:
            return ret
    return 0


def _visit_entry(pgt: KvmPgtable, ctx: WalkContext, walker: PgtableWalker) -> int:
    if ctx.pte.kind is EntryKind.TABLE:
        if walker.flags & FLAG_TABLE_PRE:
            ctx.visit = VisitKind.TABLE_PRE
            ret = walker.cb(ctx)
            if ret:
                return ret
            ctx.reload()
    else:
        if walker.flags & FLAG_LEAF:
            ctx.visit = VisitKind.LEAF
            ret = walker.cb(ctx)
            if ret:
                return ret
            ctx.reload()

    # The callback may have turned a leaf/invalid entry into a table (to
    # descend) or a table into a block (after a split the other way); act
    # on what the entry is *now*.
    if ctx.pte.kind is EntryKind.TABLE and ctx.level < LEAF_LEVEL:
        ret = _walk_table(
            pgt, ctx.pte.oa, ctx.level + 1, ctx.range_start, ctx.range_end, walker
        )
        if ret:
            return ret
        if walker.flags & FLAG_TABLE_POST:
            ctx.visit = VisitKind.TABLE_POST
            ctx.reload()
            ret = walker.cb(ctx)
            if ret:
                return ret
    return 0


# ---------------------------------------------------------------------------
# Standard walkers
# ---------------------------------------------------------------------------


@dataclass
class MapAttrs:
    """Leaf attributes for a map operation."""

    perms: Perms
    memtype: MemType = MemType.NORMAL
    page_state: PageState = PageState.OWNED


@dataclass
class _MapData:
    phys: int
    base_va: int
    attrs: MapAttrs
    try_block: bool
    #: When set, refuse to overwrite an existing *valid* leaf; otherwise
    #: changing an existing mapping (e.g. its page state) is permitted.
    must_be_invalid: bool = False


def _phys_for(data: _MapData, va: int) -> int:
    return data.phys + (va - data.base_va)


def _make_leaf(
    stage: Stage, level: int, phys: int, attrs: MapAttrs
) -> int:
    if level == LEAF_LEVEL:
        return make_page_descriptor(
            phys, stage, attrs.perms, attrs.memtype, attrs.page_state
        )
    return make_block_descriptor(
        phys, level, stage, attrs.perms, attrs.memtype, attrs.page_state
    )


def _split_block(ctx: WalkContext) -> int:
    """Dissolve a block entry into a table of next-level leaves.

    Preserves the block's target and attributes for each sub-entry, so the
    extensional mapping is unchanged — the ghost abstraction of the table
    before and after a pure split is identical (a property test pins this).
    """
    block = ctx.pte
    assert block.kind is EntryKind.BLOCK
    sub_level = ctx.level + 1
    sub_size = level_block_size(sub_level)
    attrs = MapAttrs(block.perms, block.memtype, block.page_state)
    first = _make_leaf(ctx.pgt.stage, sub_level, block.oa, attrs)
    # The sub-entries differ only in their output address, whose field
    # lies above every attribute bit and cannot carry out of bit 47
    # inside an aligned block: entry i is the first plus i sub-entries.
    end = first + PTRS_PER_TABLE * sub_size
    return _split_into(ctx, list(range(first, end, sub_size)))


def _split_annotation(ctx: WalkContext) -> int:
    """Dissolve a coarse owner annotation into a table of page-level
    annotations, preserving the ownership information for the pages not
    being changed (the annotated analogue of a block split)."""
    assert ctx.pte.kind is EntryKind.INVALID_ANNOTATED
    return _split_into(
        ctx, [make_invalid_annotated(ctx.pte.owner_id)] * PTRS_PER_TABLE
    )


def _split_into(ctx: WalkContext, words: list[int]) -> int:
    """Replace ``ctx``'s entry by a fresh table holding ``words``."""
    try:
        child = ctx.pgt.mm_ops.alloc_table()
    except OutOfMemory:
        return -ENOMEM
    ctx.pgt.adopt_table(child, parent=(ctx.table_pa, ctx.index))
    ctx.pgt.fill_table(child, words)
    ctx.install(make_table_descriptor(child))
    return 0


def _map_walker_cb(ctx: WalkContext) -> int:
    data: _MapData = ctx.arg  # type: ignore[assignment]
    covers_entry = (
        ctx.range_start == ctx.va
        and ctx.range_end == ctx.va + level_block_size(ctx.level)
    )
    phys = _phys_for(data, ctx.range_start)

    if ctx.pte.kind is EntryKind.BLOCK and not covers_entry:
        # Changing part of a block: split it and let the walk descend.
        return _split_block(ctx)
    if ctx.pte.kind is EntryKind.INVALID_ANNOTATED and not covers_entry:
        return _split_annotation(ctx)

    if ctx.level < LEAF_LEVEL:
        aligned = covers_entry and phys % level_block_size(ctx.level) == 0
        if (
            data.try_block
            and aligned
            and level_supports_block(ctx.level)
            and ctx.pte.kind in (EntryKind.INVALID, EntryKind.BLOCK)
        ):
            if ctx.pte.kind is EntryKind.BLOCK and data.must_be_invalid:
                return -EEXIST
            ctx.install(_make_leaf(ctx.pgt.stage, ctx.level, phys, data.attrs))
            return 0
        if ctx.pte.kind is not EntryKind.TABLE:
            try:
                ctx.install_child_table()
            except OutOfMemory:
                return -ENOMEM
        return 0

    # Level 3: install the page.
    if ctx.pte.kind is EntryKind.PAGE and data.must_be_invalid:
        return -EEXIST
    ctx.install(_make_leaf(ctx.pgt.stage, LEAF_LEVEL, phys, data.attrs))
    return 0


def map_range(
    pgt: KvmPgtable,
    va: int,
    size: int,
    phys: int,
    attrs: MapAttrs,
    *,
    try_block: bool = False,
    must_be_invalid: bool = False,
) -> int:
    """Map ``[va, va+size)`` to ``[phys, ...)`` with the given attributes.

    This is the ``stage2_map_walker`` / ``hyp_map_walker`` analogue: both
    of ``do_share``'s update walks (paper Fig. 4) come through here.
    """
    if va % 4096 or size % 4096 or phys % 4096:
        return -EINVAL
    walker = PgtableWalker(
        cb=_map_walker_cb,
        flags=FLAG_LEAF,
        arg=_MapData(phys, va, attrs, try_block, must_be_invalid),
    )
    return kvm_pgtable_walk(pgt, va, size, walker)


@dataclass
class _OwnerData:
    owner: int
    base_va: int


def _set_owner_cb(ctx: WalkContext) -> int:
    data: _OwnerData = ctx.arg  # type: ignore[assignment]
    covers_entry = (
        ctx.range_start == ctx.va
        and ctx.range_end == ctx.va + level_block_size(ctx.level)
    )
    if ctx.pte.kind is EntryKind.BLOCK and not covers_entry:
        return _split_block(ctx)
    if ctx.pte.kind is EntryKind.INVALID_ANNOTATED and not covers_entry:
        return _split_annotation(ctx)
    if ctx.level < LEAF_LEVEL:
        if covers_entry and ctx.pte.kind is not EntryKind.TABLE:
            ctx.install(_annotation_raw(data.owner))
            return 0
        if ctx.pte.kind is not EntryKind.TABLE:
            try:
                ctx.install_child_table()
            except OutOfMemory:
                return -ENOMEM
        return 0
    ctx.install(_annotation_raw(data.owner))
    return 0


def _annotation_raw(owner: int) -> int:
    if owner == int(OwnerId.HOST):
        return 0  # host ownership is the all-zero default
    return make_invalid_annotated(int(owner))


def set_owner_range(pgt: KvmPgtable, va: int, size: int, owner: int) -> int:
    """Annotate ``[va, va+size)`` as owned by ``owner`` (invalid entries).

    This is how pKVM records, in the host stage 2 itself, that pages
    belong to pKVM or a guest — so the lazy map-on-demand path refuses
    them (``kvm_pgtable_stage2_set_owner``).
    """
    if va % 4096 or size % 4096:
        return -EINVAL
    walker = PgtableWalker(
        cb=_set_owner_cb, flags=FLAG_LEAF, arg=_OwnerData(owner, va)
    )
    return kvm_pgtable_walk(pgt, va, size, walker)


def _unmap_cb(ctx: WalkContext) -> int:
    covers_entry = (
        ctx.range_start == ctx.va
        and ctx.range_end == ctx.va + level_block_size(ctx.level)
    )
    if ctx.pte.kind is EntryKind.BLOCK and not covers_entry:
        return _split_block(ctx)
    if ctx.pte.kind is EntryKind.INVALID_ANNOTATED and not covers_entry:
        return _split_annotation(ctx)
    if ctx.pte.kind.is_leaf or ctx.pte.kind is EntryKind.INVALID_ANNOTATED:
        ctx.install(0)
    return 0


def unmap_range(pgt: KvmPgtable, va: int, size: int) -> int:
    """Remove all mappings (and annotations) in ``[va, va+size)``."""
    if va % 4096 or size % 4096:
        return -EINVAL
    ret = kvm_pgtable_walk(
        pgt, va, size, PgtableWalker(cb=_unmap_cb, flags=FLAG_LEAF)
    )
    if ret:
        return ret
    _reclaim_empty_tables(pgt)
    return 0


def _reclaim_empty_tables(pgt: KvmPgtable) -> None:
    """Free child tables that no longer contain any valid entry.

    Real pKVM does this with per-page refcounts during the unmap walk; a
    post-pass keeps the walker simpler while preserving the observable
    effect (footprint shrinks, mapping unchanged).
    """
    changed = True
    while changed:
        changed = False
        for table_pa in list(pgt.table_pages):
            if table_pa == pgt.root or pgt.children_of(table_pa):
                continue
            parent = pgt._parent.get(table_pa)
            if parent is None:
                continue
            parent_pa, index = parent
            old_raw = pgt.read_slot(parent_pa, index)
            pgt.write_slot(parent_pa, index, 0, old_raw)
            pgt.disown_table(table_pa)
            pgt.mm_ops.free_table(table_pa)
            changed = True


@dataclass
class _CheckData:
    expected_state: PageState | None
    #: Treat invalid-unannotated entries as acceptable (default host
    #: ownership, not yet mapped on demand).
    allow_default_host: bool = False


def _check_state_cb(ctx: WalkContext) -> int:
    data: _CheckData = ctx.arg  # type: ignore[assignment]
    pte = ctx.pte
    if pte.kind is EntryKind.INVALID:
        return 0 if data.allow_default_host else -EPERM
    if pte.kind is EntryKind.INVALID_ANNOTATED:
        return -EPERM
    if pte.kind is EntryKind.TABLE:
        return 0
    if data.expected_state is not None and pte.page_state is not data.expected_state:
        return -EPERM
    return 0


def check_page_state(
    pgt: KvmPgtable,
    va: int,
    size: int,
    expected: PageState | None,
    *,
    allow_default_host: bool = False,
) -> int:
    """The ``__check_page_state_visitor`` walk: pre-flight a transition.

    Returns ``-EPERM`` if any page in the range is not in the expected
    state — the single check that, as the paper notes, "captures all the
    complex logic of the check_share walk".
    """
    walker = PgtableWalker(
        cb=_check_state_cb,
        flags=FLAG_LEAF,
        arg=_CheckData(expected, allow_default_host),
    )
    return kvm_pgtable_walk(pgt, va, size, walker)


def iter_leaves(pgt: KvmPgtable):
    """Yield ``(va, DecodedPte)`` for every non-empty terminal entry.

    Complete traversal of the tree (unlike the hardware walk, which
    resolves one address) — the same traversal shape the ghost abstraction
    function uses, exposed here for implementation-side bookkeeping like
    teardown reclaim.
    """
    yield from _iter_leaves(pgt, pgt.root, START_LEVEL, 0)


def _iter_leaves(pgt: KvmPgtable, table_pa: int, level: int, base_va: int):
    # Module-level, not nested in iter_leaves: a nested recursive
    # generator closes over itself, a reference cycle on every call.
    entry_size = level_block_size(level)
    for index in range(512):
        raw = pgt.read_slot(table_pa, index)
        if raw == 0:
            continue
        va = base_va + index * entry_size
        pte = decode_descriptor(raw, level, pgt.stage)
        if pte.kind is EntryKind.TABLE:
            yield from _iter_leaves(pgt, pte.oa, level + 1, va)
        else:
            yield va, pte


def lookup(pgt: KvmPgtable, va: int) -> DecodedPte:
    """Software walk for one address, returning the terminal entry."""
    table = pgt.root
    for level in range(START_LEVEL, LEAF_LEVEL + 1):
        raw = pgt.read_slot(table, level_index(va, level))
        pte = decode_descriptor(raw, level, pgt.stage)
        if pte.kind is EntryKind.TABLE:
            table = pte.oa
            continue
        return pte
    raise AssertionError("lookup fell off the table levels")
