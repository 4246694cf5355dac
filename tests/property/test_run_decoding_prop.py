"""Conformance of the run-decoding traversal with the per-entry reference.

With a memo, :func:`interpret_pgtable` decodes only the first word of
each run of entries that coalesce, and rescans a dirty table page by
re-decoding its stretches of changed words. With ``memo=None`` it
decodes every entry: the reference paranoid mode checks against. On any
table the two must agree on the mapping and the footprint, or raise the
same :class:`AbstractionError` text.

The tables are raw words written straight into memory, drawn so that
runs cross subtree boundaries (leaf runs share one VA-to-OA offset),
run into the top of the OA field and carry out of bit 47, set the RES0
bits 20:12 of block descriptors, change owner mid-annotation, and are
broken by non-zero invalid words, table entries and malformed
page-state words.

Both traversals read each word's meaning through one memo
(``abstraction._meaning``). It holds only words that decode, so the
agreement is checked with the memo cold and warm, and a malformed word
is reported afresh wherever a traversal meets it.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.defs import (
    LEAF_LEVEL,
    PAGE_SIZE,
    MemType,
    Perms,
    Stage,
    level_block_size,
)
from repro.arch.memory import PhysicalMemory, default_memory_map
from repro.arch.pte import (
    PTE_AF,
    PTE_VALID,
    SW_PAGE_STATE_SHIFT,
    PageState,
    make_block_descriptor,
    make_page_descriptor,
    make_table_descriptor,
)
from repro.ghost import abstraction
from repro.ghost.abstraction import AbstractionError, Memo, interpret_pgtable
from repro.ghost.maplets import changed_spans

#: Table pages are carved from DRAM upwards from here.
TABLE_BASE = 0x4100_0000
#: A table pointer to the UART: outside DRAM.
DEVICE_PAGE = 0x0900_0000
MAX_TABLES = 8
OA_LIMIT = 1 << 48

PIECES = ("leaf", "leaf", "annot", "invalid", "table", "alias", "bad", "zero", "nudge")

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def outcome(mem, root, stage, memo):
    """(mapping, footprint) of one traversal, or its error text."""
    try:
        pgt = interpret_pgtable(mem, root, stage, memo=memo)
    except AbstractionError as exc:
        return ("error", str(exc))
    return ("ok", pgt.mapping, pgt.footprint)


class Tables:
    """A random tree of raw translation tables, written word by word."""

    def __init__(self, draw):
        self.draw = draw
        self.stage = draw(st.sampled_from([Stage.STAGE1, Stage.STAGE2]))
        self.mem = PhysicalMemory(default_memory_map())
        #: (pa, level, va) of every table page built.
        self.pages: list[tuple[int, int, int]] = []
        #: The VA-to-OA offset and attributes most leaf runs share, so
        #: that runs in neighbouring pieces and subtrees continue each
        #: other.
        self.delta = draw(st.sampled_from([0, 1 << 30, 0x1234 << 30]))
        self.attrs = self.leaf_attrs()

    def new_table(self, level: int, va: int) -> int:
        pa = TABLE_BASE + len(self.pages) * PAGE_SIZE
        self.pages.append((pa, level, va))
        for _ in range(self.draw(st.integers(0, 4))):
            self.piece(pa, level, va)
        return pa

    def mutate(self) -> None:
        pa, level, va = self.draw(st.sampled_from(self.pages))
        self.piece(pa, level, va)

    def piece(self, pa: int, level: int, va: int) -> None:
        """Write one run of related words into table ``pa``."""
        draw = self.draw
        size = level_block_size(level)
        # Pieces crowd the two ends of a page, so they overlap each other
        # and meet the neighbouring subtrees' runs.
        start = draw(
            st.one_of(st.integers(0, 31), st.integers(480, 511), st.integers(0, 511))
        )
        end = min(512, start + draw(st.integers(1, 24)))
        kind = draw(st.sampled_from(PIECES))
        if kind == "table":
            if level == LEAF_LEVEL or len(self.pages) >= MAX_TABLES:
                return
            for idx in range(start, min(end, start + 2)):
                child = self.new_table(level + 1, va + idx * size)
                self.write(pa, idx, make_table_descriptor(child))
        elif kind == "alias":
            target = draw(
                st.sampled_from([DEVICE_PAGE] + [p for p, _, _ in self.pages])
            )
            self.write(pa, start, make_table_descriptor(target))
        elif kind == "leaf" and level > 0:
            head = self.leaf_word(level, va + start * size)
            for k, idx in enumerate(range(start, end)):
                self.write(pa, idx, head + k * size)
        elif kind == "annot":
            word = draw(st.integers(1, 3)) << 2 | draw(
                st.sampled_from([0, PTE_AF, 1 << 60])
            )
            for idx in range(start, end):
                self.write(pa, idx, word)
        elif kind == "invalid":
            # Plain invalid words that are not zero: stray bits, or a
            # block encoding where the level allows none.
            word = draw(st.sampled_from([PTE_AF, 1 << 59, PTE_VALID | 0x4000_0000]))
            for idx in range(start, end):
                self.write(pa, idx, word)
        elif kind == "bad" and level > 0:
            word = self.read(pa, start) or self.leaf_word(level, va + start * size)
            self.write(pa, start, word | 0b11 << SW_PAGE_STATE_SHIFT)
        elif kind == "zero":
            for idx in range(start, end):
                self.write(pa, idx, 0)
        elif kind == "nudge":
            bit = draw(st.sampled_from([10, 12, 21, 47, 54]))
            self.write(pa, start, self.read(pa, start) ^ (1 << bit))

    def leaf_word(self, level: int, va: int) -> int:
        """A block or page descriptor for the entry at ``va``."""
        draw = self.draw
        size = level_block_size(level)
        where = draw(st.sampled_from(["linear", "linear", "top", "anywhere"]))
        if where == "linear":
            oa = (va + self.delta) % OA_LIMIT
        elif where == "top":
            # a run from here carries out of bit 47 within a few entries
            oa = OA_LIMIT - size * draw(st.integers(1, 4))
        else:
            oa = draw(st.integers(0, OA_LIMIT // size - 1)) * size
        perms, memtype, state = (
            self.attrs if draw(st.integers(0, 3)) else self.leaf_attrs()
        )
        if level == LEAF_LEVEL:
            return make_page_descriptor(oa, self.stage, perms, memtype, state)
        word = make_block_descriptor(oa, level, self.stage, perms, memtype, state)
        # RES0 bits between the page and the block OA (20:12 at level 2)
        return word | draw(st.sampled_from([0, 1, size // PAGE_SIZE - 1])) * PAGE_SIZE

    def leaf_attrs(self) -> tuple[Perms, MemType, PageState]:
        draw = self.draw
        perms = Perms(
            self.stage is Stage.STAGE1 or draw(st.booleans()),
            draw(st.booleans()),
            draw(st.booleans()),
        )
        return (
            perms,
            draw(st.sampled_from(list(MemType))),
            draw(st.sampled_from(list(PageState))),
        )

    def read(self, pa: int, idx: int) -> int:
        return self.mem.read64(pa + 8 * idx)

    def write(self, pa: int, idx: int, word: int) -> None:
        self.mem.write64(pa + 8 * idx, word)


@given(st.data())
@SETTINGS
def test_run_decoding_matches_per_entry_reference(data):
    tables = Tables(data.draw)
    root = tables.new_table(0, 0)
    reference = outcome(tables.mem, root, tables.stage, None)
    assert outcome(tables.mem, root, tables.stage, Memo()) == reference


@given(st.data())
@SETTINGS
def test_walks_agree_with_the_word_memo_cold_and_warm(data):
    tables = Tables(data.draw)
    root = tables.new_table(0, 0)

    def reference():
        return outcome(tables.mem, root, tables.stage, None)

    def run_decoded():
        return outcome(tables.mem, root, tables.stage, Memo())

    walks = []
    for first, second in ((reference, run_decoded), (run_decoded, reference)):
        abstraction._meaning.cache_clear()
        # the first walk decodes cold; the next two find every word warm
        walks += [first(), second(), first()]
    assert all(walk == walks[0] for walk in walks)


def test_a_malformed_word_is_reported_where_each_walk_meets_it():
    """The same malformed word, written at two places in turn: every
    traversal (the reference, a fresh run decode, a rescan) raises the
    text naming the table page and index where it met the word."""
    stage = Stage.STAGE2
    mem = PhysicalMemory(default_memory_map())
    tables = [TABLE_BASE + i * PAGE_SIZE for i in range(4)]
    for parent, child in zip(tables, tables[1:]):
        mem.write64(parent, make_table_descriptor(child))
    leaf_table = tables[-1]
    good = make_page_descriptor(0x8000_0000, stage, Perms.rwx())
    mem.write64(leaf_table, good)
    bad = good | 0b11 << SW_PAGE_STATE_SHIFT
    memo = Memo()
    assert outcome(mem, tables[0], stage, memo)[0] == "ok"
    for idx in (7, 9):
        mem.write64(leaf_table + 8 * idx, bad)
        where = f"malformed descriptor {bad:#x} at {leaf_table:#x}[{idx}] (level 3,"
        for walk_memo in (None, Memo(), memo):
            kind, text = outcome(mem, tables[0], stage, walk_memo)
            assert kind == "error"
            assert text.startswith(where)
        mem.write64(leaf_table + 8 * idx, 0)
    assert outcome(mem, tables[0], stage, memo) == outcome(mem, tables[0], stage, None)


@given(st.data())
@SETTINGS
def test_rescan_after_random_writes_matches_reference(data):
    tables = Tables(data.draw)
    root = tables.new_table(0, 0)
    memo = Memo()
    first = outcome(tables.mem, root, tables.stage, memo)
    assert first == outcome(tables.mem, root, tables.stage, None)
    if first[0] == "error":
        return
    for _ in range(data.draw(st.integers(1, 3))):
        for _ in range(data.draw(st.integers(1, 6))):
            tables.mutate()
        rescanned = outcome(tables.mem, root, tables.stage, memo)
        assert rescanned == outcome(tables.mem, root, tables.stage, None)
        if rescanned[0] == "error":
            # the cache drops its memo after a failed traversal
            return


def covers(spans, changed) -> bool:
    """Whether every ``changed`` span lies inside the union of ``spans``."""
    merged = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return all(
        any(lo <= c_lo and c_hi <= hi for lo, hi in merged) for c_lo, c_hi in changed
    )


@given(st.data())
@SETTINGS
def test_rescan_reports_every_changed_span(data):
    """``memo.changed`` after a rescan covers every page whose mapping
    moved since the traversal before it (None only for a fresh walk):
    the spans the isolation sweep takes its dirty windows from."""
    tables = Tables(data.draw)
    root = tables.new_table(0, 0)
    memo = Memo()
    before = outcome(tables.mem, root, tables.stage, memo)
    assert memo.changed is None
    if before[0] == "error":
        return
    for _ in range(data.draw(st.integers(1, 3))):
        for _ in range(data.draw(st.integers(1, 6))):
            tables.mutate()
        after = outcome(tables.mem, root, tables.stage, memo)
        if after[0] == "error":
            return
        assert covers(memo.changed, changed_spans(before[1], after[1]))
        before = after
