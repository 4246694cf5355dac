"""Abstraction functions: concrete pKVM state -> ghost state.

The central one interprets an in-memory Arm page table as a finite map
(the paper's Fig. 2 ``_interpret_pgtable``): a complete traversal of the
table tree — in contrast to the hardware walk, which resolves one address
— incrementally extending a coalescing mapping, and simultaneously
collecting the *footprint* (the set of physical pages backing the table)
for the §4.4 separation checks.

The per-lock recording functions below each compute the abstraction of
exactly the state their lock protects, mirroring the implementation
ownership structure. A page-table lock's component is the interpreted
table itself, recorded through :class:`repro.ghost.cache.AbstractionCache`
(the host's through :func:`host_view`). They read concrete
implementation state (that is their job); the specification functions in
:mod:`repro.ghost.spec` never do.
"""

from __future__ import annotations

import functools

from repro.arch.defs import (
    PAGE_SHIFT,
    PAGE_SIZE,
    START_LEVEL,
    Stage,
    level_block_size,
)
from repro.arch.memory import PhysicalMemory
from repro.arch.pte import OA_MASK, EntryKind, PageState, decode_descriptor
from repro.arch.cpu import Cpu
from repro.ghost.maplets import Maplet, Mapping, MapletTarget, extend_run
from repro.obs.metrics import Counter
from repro.ghost.state import (
    AbstractPgtable,
    GhostCpuLocal,
    GhostGlobals,
    GhostHost,
    GhostLoadedVcpu,
    GhostVcpuRef,
    GhostVm,
    GhostVms,
)


class AbstractionError(Exception):
    """The concrete state violates an invariant the abstraction assumes
    (e.g. a double mapping, or a malformed table)."""


class Memo(dict):
    """The incremental traversal's memo for one tree.

    A dict of :class:`_MemoEntry` records keyed by ``(table_pa, level,
    va_partial)``, owned by :class:`repro.ghost.cache.AbstractionCache`.
    ``decodes`` is the metrics counter each traversal charges its
    descriptor decodes to, once per traversal. ``changed`` is what the
    last traversal through this memo re-decoded: the input-address
    ``(va, end)`` spans outside which its mapping equals the one the
    traversal before it returned, or None when it walked the tree afresh.
    """

    __slots__ = ("decodes", "changed")

    def __init__(self, decodes: Counter | None = None):
        super().__init__()
        self.decodes = decodes
        self.changed: list[tuple[int, int]] | None = None


class _MemoEntry:
    """Per-subtree memoisation record for the incremental traversal.

    Besides the subtree's result (``maplets``/``phys``), it keeps the raw
    *word snapshot* of the table page and the index->child map, so a
    revisit after a write can diff the 512 words against the snapshot and
    re-decode only the entries that actually changed — the page-table
    analogue of an incremental parser reusing its old parse tree.

    Entries are self-validating: ``epoch`` is the last memory epoch at
    which the whole subtree was known clean, and a revisit consults the
    write journal for anything newer. A stale entry is never *wrong*,
    only out of date — its snapshot records real past contents, so the
    word diff brings it forward regardless of how long it sat unused.
    """

    __slots__ = ("maplets", "phys", "pfns", "words", "children", "epoch")

    def __init__(self, maplets, phys, pfns, words, children, epoch):
        self.maplets: tuple = maplets
        self.phys: frozenset[int] = phys
        self.pfns: frozenset[int] = pfns
        self.words: list[int] = words
        self.children: dict[int, int] = children
        self.epoch: int = epoch


class _Walk:
    """What every table visit of one traversal shares: the inputs, the
    tables on the current path (a table reached again is a cycle), the
    journal lookups already made, the descriptors decoded so far, and
    the input-address spans re-decoded so far."""

    __slots__ = ("mem", "stage", "memo", "path", "dirty", "decodes", "changed")

    def __init__(self, mem: PhysicalMemory, stage: Stage, memo: dict | None):
        self.mem = mem
        self.stage = stage
        self.memo = memo
        self.path: set[int] = set()
        #: epoch -> pages written since, shared by every subtree check.
        self.dirty: dict[int, frozenset[int]] = {}
        self.decodes = 0
        self.changed: list[tuple[int, int]] = []


def interpret_pgtable(
    mem: PhysicalMemory, root: int, stage: Stage, *, memo: dict | None = None
) -> AbstractPgtable:
    """Interpret the table rooted at ``root`` as (mapping, footprint).

    ``memo`` is the incremental-oracle hook: a :class:`Memo` (owned by
    the :class:`repro.ghost.cache.AbstractionCache`) of
    :class:`_MemoEntry` records. A re-traversal skips subtrees the write
    journal proves clean, word-diffs dirty table pages against their
    stored snapshots so only changed entries are re-decoded, and decodes
    only the first word of each run of entries that coalesce. With
    ``memo=None`` this is the paper's plain Fig. 2 full traversal,
    decoding every entry: the reference that paranoid mode checks the
    incremental traversal against. Both read a word's meaning through
    the one word memo, :func:`_meaning`. A memoised traversal leaves the spans
    it re-decoded in ``memo.changed``.
    """
    walk = _Walk(mem, stage, memo)
    fresh = memo is None or (root, START_LEVEL, 0) not in memo
    try:
        maplets, phys = _interpret_table(walk, root, START_LEVEL, 0)
    finally:
        decodes = getattr(walk.memo, "decodes", None)
        if decodes is not None:
            decodes.inc(walk.decodes)
    if memo is not None:
        memo.changed = None if fresh else walk.changed
    return AbstractPgtable(Mapping(list(maplets)), phys)


def _subtree_clean(walk: _Walk, entry: _MemoEntry) -> bool:
    """Whether no journaled write touched ``entry``'s subtree since it was
    last validated. Clean entries are freshened to the current epoch, so
    the next check bisects a shorter journal suffix."""
    mem = walk.mem
    if entry.epoch >= mem.epoch:
        return True
    dirty = walk.dirty.get(entry.epoch)
    if dirty is None:
        dirty = walk.dirty[entry.epoch] = mem.writes_since(entry.epoch)
    if dirty & entry.pfns:
        return False
    entry.epoch = mem.epoch
    return True


def _interpret_table(
    walk: _Walk, table_pa: int, level: int, va_partial: int
) -> tuple[tuple, frozenset[int]]:
    """The Fig. 2 traversal of one table page and its subtree.

    Returns this subtree's (maplet segment, physical footprint). The
    segment is built independently of any surrounding context, so a
    memoized segment can be spliced into any later traversal; runs that
    span a subtree boundary re-coalesce at splice time.
    """
    if table_pa in walk.path:
        raise AbstractionError(f"table page {table_pa:#x} reached twice")
    memo = walk.memo
    entry = None
    if memo is not None:
        entry = memo.get((table_pa, level, va_partial))
        if entry is not None and _subtree_clean(walk, entry):
            return entry.maplets, entry.phys
    mem = walk.mem
    if not mem.is_memory(table_pa):
        what = "root" if level == START_LEVEL else "table page"
        raise AbstractionError(
            f"{what} {table_pa:#x} (level {level}) is outside DRAM: the "
            "walker would read device memory or a bus hole"
        )
    if entry is not None:
        return _rescan_table(walk, table_pa, level, va_partial, entry)
    words = mem.page_words_view(table_pa >> PAGE_SHIFT)
    phys = {table_pa}
    children: dict[int, int] = {}
    walk.path.add(table_pa)
    if memo is None:
        segment = _decode_each(walk, words, table_pa, level, va_partial, phys)
    else:
        segment = _decode_runs(
            walk, words, 0, 512, table_pa, level, va_partial, phys, children
        )
    walk.path.discard(table_pa)
    result = (tuple(segment), frozenset(phys))
    if memo is not None:
        memo[(table_pa, level, va_partial)] = _MemoEntry(
            result[0],
            result[1],
            frozenset(pa >> PAGE_SHIFT for pa in result[1]),
            list(words),
            children,
            mem.epoch,
        )
    return result


def _decode_each(
    walk: _Walk,
    words: list[int],
    table_pa: int,
    level: int,
    va_partial: int,
    phys: set[int],
) -> Mapping:
    """The reference: iterate the 512 entries, decode every non-zero one,
    case-split on its kind, and extend the segment entry by entry."""
    segment = Mapping()
    entry_size = level_block_size(level)
    nr_pages = entry_size // PAGE_SIZE
    for idx in range(512):
        raw = words[idx]
        if raw == 0:
            continue
        va = va_partial | (idx * entry_size)
        kind, oa, target = _decode(raw, table_pa, idx, level, walk.stage)
        if kind is EntryKind.TABLE:
            child_maplets, child_phys = _interpret_table(walk, oa, level + 1, va)
            _add_footprint(phys, child_phys)
            for m in child_maplets:
                segment.extend_coalesce(m.va, m.nr_pages, m.target)
            continue
        if target is not None:
            # the traversal is in ascending VA order: O(1) extension
            segment.extend_coalesce(va, nr_pages, target)
    return segment


def _decode_runs(
    walk: _Walk,
    words: list[int],
    lo: int,
    hi: int,
    table_pa: int,
    level: int,
    va_partial: int,
    phys: set[int],
    children: dict[int, int],
) -> list[Maplet]:
    """Entries ``[lo, hi)`` of one table page as an in-order maplet run,
    decoding only the first word of each run of entries that coalesce.

    A leaf word equal to the previous one plus the entry size, or an
    annotation word equal to the previous one, extends the open run
    undecoded. ``top`` is the largest word with the run head's non-OA
    bits: a word past it carried out of the OA field, which changes its
    non-OA bits, so it is decoded afresh. A continuation word therefore
    has its head's attributes, and cannot be malformed where the head
    was not: every :class:`AbstractionError` is raised at the same entry
    as in :func:`_decode_each`. Runs that meet without continuing word
    by word (an AF bit flips, say) still coalesce at the seam.
    """
    stage = walk.stage
    entry_size = level_block_size(level)
    nr_pages = entry_size >> PAGE_SHIFT
    run: list[Maplet] = []
    head = nxt = -1
    step = top = 0
    target = None
    decodes = 0
    for idx in range(lo, hi):
        raw = words[idx]
        if raw == nxt and raw <= top:
            nxt += step
            continue
        if head >= 0:
            va = va_partial + head * entry_size
            extend_run(run, (Maplet(va, (idx - head) * nr_pages, target),))
            head = nxt = -1
        if not raw:
            continue
        decodes += 1
        kind, oa, target = _decode(raw, table_pa, idx, level, stage)
        if kind is EntryKind.TABLE:
            children[idx] = oa
            child_maplets, child_phys = _interpret_table(
                walk, oa, level + 1, va_partial + idx * entry_size
            )
            _add_footprint(phys, child_phys)
            extend_run(run, child_maplets)
            continue
        if target is None:
            continue
        head = idx
        if kind is EntryKind.INVALID_ANNOTATED:
            step = 0
            nxt = top = raw
        else:
            step = entry_size
            nxt = raw + step
            top = raw | OA_MASK
    if head >= 0:
        va = va_partial + head * entry_size
        extend_run(run, (Maplet(va, (hi - head) * nr_pages, target),))
    walk.decodes += decodes
    return run


#: Bound on the descriptor meanings :func:`_meaning` keeps. Tables repeat
#: few distinct words: a perfbench analysis pass decodes 217k words, 1,182
#: of them distinct, and a 3,000-step cache-off machine 2,396.
MEANING_MEMO_CAP = 4096


def _decode(
    raw: int, table_pa: int, idx: int, level: int, stage: Stage
) -> tuple[EntryKind, int, MapletTarget | None]:
    """The ``(kind, oa, target)`` of the word at ``table_pa[idx]``. A
    malformed word is an :class:`AbstractionError` naming the table page
    and index; it is raised afresh on every visit, as the memo keeps
    only words that decode."""
    try:
        return _meaning(raw, level, stage)
    except ValueError as exc:
        raise AbstractionError(
            f"malformed descriptor {raw:#x} at {table_pa:#x}[{idx}] "
            f"(level {level}, {stage.name}): {exc}"
        ) from exc


@functools.lru_cache(maxsize=MEANING_MEMO_CAP)
def _meaning(
    raw: int, level: int, stage: Stage
) -> tuple[EntryKind, int, MapletTarget | None]:
    """What one descriptor word means to a traversal: its kind, its
    output address and what it contributes as a non-table entry.

    A pure function of the word, memoised because a table tree repeats
    the same words across pages and checks. Both traversals, the
    per-entry reference and the run decoder, read words through it; the
    implementation's own walkers (``pkvm/pgtable.py``,
    ``arch/translate.py``) call :func:`decode_descriptor` directly, so
    the oracle shares no memo with what it checks."""
    pte = decode_descriptor(raw, level, stage)
    return pte.kind, pte.oa, _leaf_target(pte)


def _leaf_target(pte) -> MapletTarget | None:
    """What a non-table entry contributes: an owner annotation, a mapped
    leaf, or nothing (a plain invalid entry)."""
    if pte.kind is EntryKind.INVALID_ANNOTATED:
        return MapletTarget.annotated(pte.owner_id)
    if pte.kind.is_leaf:
        return MapletTarget.mapped(pte.oa, pte.perms, pte.memtype, pte.page_state)
    return None


def _add_footprint(phys: set[int], child_phys: frozenset[int]) -> None:
    dup = phys & child_phys
    if dup:
        raise AbstractionError(f"table page {sorted(dup)[0]:#x} reached twice")
    phys.update(child_phys)


#: Words compared per slice when diffing a table page against its snapshot.
_DIFF_CHUNK = 64


def _changed_stretches(words: list[int], old: list[int]) -> list[tuple[int, int]]:
    """The ascending ``(lo, hi)`` index ranges where ``words`` differs
    from ``old``. Equal chunks are skipped by one slice comparison each,
    so a page with a few changed words costs a few Python steps, not 512."""
    stretches: list[tuple[int, int]] = []
    for base in range(0, 512, _DIFF_CHUNK):
        end = base + _DIFF_CHUNK
        if words[base:end] == old[base:end]:
            continue
        for idx in range(base, end):
            if words[idx] != old[idx]:
                if stretches and stretches[-1][1] == idx:
                    stretches[-1] = (stretches[-1][0], idx + 1)
                else:
                    stretches.append((idx, idx + 1))
    return stretches


def _rescan_table(
    walk: _Walk,
    table_pa: int,
    level: int,
    va_partial: int,
    entry: _MemoEntry,
) -> tuple[tuple, frozenset[int]]:
    """Bring a stale memo entry forward by diffing word snapshots.

    Only two kinds of entry are visited, in ascending index order: each
    stretch of changed words, re-decoded as runs, and each unchanged
    table entry, whose child is kept when the journal shows its subtree
    clean and re-traversed otherwise. A re-decoded stretch or a
    re-traversed child replaces its input-address span with one
    :meth:`Mapping.splice`: O(log n + k) for a segment of n maplets and
    a run of k. So in the common case, where the page itself is
    untouched and only a descendant moved, a rescan costs one splice per
    dirty child and no decodes at all. Each re-decoded stretch, and each
    child walked afresh (one with no memo entry), is a span in
    ``walk.changed``; a child rescanned in place adds its own.
    """
    words = walk.mem.page_words_view(table_pa >> PAGE_SHIFT)
    memo = walk.memo
    entry_size = level_block_size(level)
    children = dict(entry.children)
    stretches = _changed_stretches(words, entry.words) if words != entry.words else []
    for lo, hi in stretches:
        for idx in range(lo, hi):
            children.pop(idx, None)
    # (idx, idx) is an unchanged table entry, (lo, hi) a changed stretch.
    visits = sorted([*((idx, idx) for idx in children), *stretches])
    phys = {table_pa}
    seg = None
    walk.path.add(table_pa)
    for lo, hi in visits:
        va = va_partial + lo * entry_size
        if lo == hi:
            child_pa = children[lo]
            child = memo.get((child_pa, level + 1, va))
            if child is not None and _subtree_clean(walk, child):
                _add_footprint(phys, child.phys)
                continue
            run, child_phys = _interpret_table(walk, child_pa, level + 1, va)
            _add_footprint(phys, child_phys)
            end = va + entry_size
            if child is None:
                walk.changed.append((va, end))
        else:
            run = _decode_runs(
                walk, words, lo, hi, table_pa, level, va_partial, phys, children
            )
            end = va_partial + hi * entry_size
            walk.changed.append((va, end))
        if seg is None:
            seg = Mapping(list(entry.maplets))
        seg.splice(va, end, run)
    walk.path.discard(table_pa)
    # Update the entry in place only once the whole subtree succeeded: an
    # AbstractionError above leaves the old (still self-consistent)
    # snapshot behind, and the cache clears the memo on any failure.
    if seg is not None:
        entry.maplets = tuple(seg)
    if stretches:
        entry.words = list(words)
    entry.phys = frozenset(phys)
    entry.pfns = frozenset(pa >> PAGE_SHIFT for pa in entry.phys)
    entry.children = children
    entry.epoch = walk.mem.epoch
    return entry.maplets, entry.phys


# ---------------------------------------------------------------------------
# Per-lock recording functions
# ---------------------------------------------------------------------------


def host_view(pgt: AbstractPgtable, loose: bool = True) -> GhostHost:
    """The host component of the host stage 2 ``pgt`` (the state the
    host_mmu lock protects).

    Two mappings (paper §3.1): ``annot`` — pages owned by pKVM or a guest;
    ``shared`` — pages owned-and-shared by the host, or borrowed by it.
    Pages the host owns exclusively are dropped whether mapped (on demand)
    or not: that is the looseness that makes demand mapping unobservable.

    ``loose=False`` is the ablation: record host-exclusive mapped pages
    into ``shared`` too (i.e. abstract the *whole* host mapping). With
    that over-fitted abstraction every demand fault and block split
    becomes a visible state change the specification cannot predict —
    demonstrating why the paper's host abstraction must be loose.
    """
    # Both lists keep the table's own maplets. Two maplets that meet in
    # either list met in the table too (nothing fits between them), and
    # the table's mapping is maximally coalesced, so neither list needs
    # re-coalescing, and an unchanged maplet stays the same object.
    annot = []
    shared = []
    for maplet in pgt.mapping:
        if maplet.target.kind == "annotated":
            annot.append(maplet)
        elif not loose or maplet.target.page_state in (
            PageState.SHARED_OWNED,
            PageState.SHARED_BORROWED,
        ):
            shared.append(maplet)
    return GhostHost(
        present=True,
        annot=Mapping(annot),
        shared=Mapping(shared),
        footprint=pgt.footprint,
    )


def record_abstraction_vms(vm_table) -> GhostVms:
    """Abstraction of the state the vm_table lock protects.

    VM *metadata* only: each VM's stage 2 extension is protected by its
    own lock and recorded separately. A loaded vCPU's mutable metadata is
    owned by the loading hardware thread, so only its loading state is
    visible here.
    """
    vms: dict[int, GhostVm] = {}
    for vm in vm_table.live_vms():
        refs = []
        for vcpu in vm.vcpus:
            loaded = vcpu.loaded_on is not None
            if loaded or vcpu.memcache is None:
                memcache: tuple[int, ...] | None = None
            else:
                memcache = tuple(vcpu.memcache.pages)
            refs.append(
                GhostVcpuRef(
                    index=vcpu.index,
                    initialized=vcpu.initialized,
                    loaded_on=vcpu.loaded_on,
                    memcache_pages=memcache,
                )
            )
        vms[vm.handle] = GhostVm(
            handle=vm.handle,
            index=vm.index,
            protected=vm.protected,
            nr_vcpus=vm.nr_vcpus,
            vcpus=tuple(refs),
            donated_pages=tuple(vm.donated_pages),
        )
    reclaimable: dict[int, tuple] = {}
    for phys, entry in vm_table.reclaimable.items():
        if entry[0] == "guest":
            _, vm, ipa = entry
            reclaimable[phys] = ("guest", int(vm.owner_id), ipa, vm.handle)
        elif entry[0] == "hostshare":
            _, vm, ipa = entry
            reclaimable[phys] = ("hostshare", ipa, vm.handle)
        elif entry[0] == "pgt":
            _, vm, _phys = entry
            reclaimable[phys] = ("pgt", vm.handle)
        else:
            reclaimable[phys] = ("hyp",)
    return GhostVms(
        present=True,
        vms=vms,
        reclaimable=reclaimable,
        nr_created=vm_table._nr_created,
    )


def record_cpu_local(cpu: Cpu, host_stage2_root: int = 0) -> GhostCpuLocal:
    """Abstraction of one hardware thread's local state."""
    vcpu = cpu.loaded_vcpu
    loaded = None
    if vcpu is not None:
        loaded = GhostLoadedVcpu(
            vm_handle=vcpu.vm.handle,
            index=vcpu.index,
            memcache_pages=(
                tuple(vcpu.memcache.pages) if vcpu.memcache is not None else ()
            ),
        )
    return GhostCpuLocal(
        present=True,
        regs=tuple(cpu.saved_el1.regs),
        loaded_vcpu=loaded,
        stage2_is_host=(
            host_stage2_root == 0
            or cpu.sysregs.stage2_root == host_stage2_root
        ),
    )


def record_globals(machine) -> GhostGlobals:
    """Copy the init-time constants into the ghost state (done once)."""
    from repro.pkvm.defs import HYP_VA_OFFSET

    from repro.arch.defs import MemType

    return GhostGlobals(
        nr_cpus=len(machine.cpus),
        hyp_va_offset=HYP_VA_OFFSET,
        dram_ranges=tuple(
            (r.base, r.end) for r in machine.mem.dram_regions()
        ),
        device_ranges=tuple(
            (r.base, r.end)
            for r in machine.mem.regions
            if r.kind is MemType.DEVICE
        ),
        carveout=(machine.pkvm.carveout.base, machine.pkvm.carveout.end),
        uart_va=machine.pkvm.uart_va,
    )
