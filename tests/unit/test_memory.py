"""Unit tests for the sparse physical memory and the memory map."""

import pytest

from repro.arch.defs import MemType
from repro.arch.memory import (
    BadAddress,
    MemoryRegion,
    PhysicalMemory,
    default_memory_map,
)

DRAM = 0x4000_0000


@pytest.fixture
def mem():
    return PhysicalMemory(default_memory_map())


class TestMemoryMap:
    def test_default_map_has_dram_and_devices(self, mem):
        kinds = {r.kind for r in mem.regions}
        assert MemType.NORMAL in kinds and MemType.DEVICE in kinds

    def test_region_of(self, mem):
        assert mem.region_of(DRAM).name == "dram"
        assert mem.region_of(0x0900_0000).name == "uart"
        assert mem.region_of(0x2000_0000) is None

    def test_is_memory(self, mem):
        assert mem.is_memory(DRAM)
        assert not mem.is_memory(0x0900_0000)
        assert not mem.is_memory(0x7FFF_FFFF_F000)

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(
                [
                    MemoryRegion(0x1000, 0x2000, MemType.NORMAL, "a"),
                    MemoryRegion(0x2000, 0x2000, MemType.NORMAL, "b"),
                ]
            )

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory([])

    def test_region_helpers(self):
        r = MemoryRegion(0x1000, 0x1000, MemType.NORMAL)
        assert r.end == 0x2000
        assert r.contains(0x1FFF)
        assert not r.contains(0x2000)


class TestWordAccess:
    def test_fresh_memory_reads_zero(self, mem):
        assert mem.read64(DRAM) == 0

    def test_write_read_roundtrip(self, mem):
        mem.write64(DRAM + 8, 0xDEADBEEF)
        assert mem.read64(DRAM + 8) == 0xDEADBEEF

    def test_write_truncates_to_64_bits(self, mem):
        mem.write64(DRAM, (1 << 64) | 5)
        assert mem.read64(DRAM) == 5

    def test_unaligned_access_rejected(self, mem):
        with pytest.raises(BadAddress):
            mem.read64(DRAM + 4)
        with pytest.raises(BadAddress):
            mem.write64(DRAM + 1, 0)

    def test_access_outside_map_rejected(self, mem):
        with pytest.raises(BadAddress):
            mem.read64(0x2000_0000)
        with pytest.raises(BadAddress):
            mem.write64(0x2000_0000, 1)

    def test_device_access_counted(self, mem):
        before = mem.device_accesses
        mem.write64(0x0900_0000, ord("x"))
        assert mem.device_accesses == before + 1

    def test_writes_to_distinct_pages_are_independent(self, mem):
        mem.write64(DRAM, 1)
        mem.write64(DRAM + 4096, 2)
        assert mem.read64(DRAM) == 1
        assert mem.read64(DRAM + 4096) == 2


class TestPageOps:
    def test_zero_page(self, mem):
        mem.write64(DRAM, 77)
        mem.zero_page(DRAM >> 12)
        assert mem.read64(DRAM) == 0

    def test_zero_range_within_page(self, mem):
        mem.write64(DRAM, 1)
        mem.write64(DRAM + 64, 2)
        mem.zero_range(DRAM, 72)
        assert mem.read64(DRAM) == 0
        assert mem.read64(DRAM + 64) == 0

    def test_zero_range_straddles_pages(self, mem):
        """The corruption paper bug 1 exploits: an unaligned page-sized
        zero hits two physical pages."""
        mem.write64(DRAM + 4096, 0xAA)
        mem.zero_range(DRAM + 64, 4096)
        assert mem.read64(DRAM + 4096) == 0

    def test_zero_range_rejects_unaligned(self, mem):
        with pytest.raises(BadAddress):
            mem.zero_range(DRAM + 1, 8)

    def test_zero_range_clears_whole_pages_one_record_each(self, mem):
        pfn = DRAM >> 12
        for page in (0, 1):
            for i in range(0, 512, 7):
                mem.write64(DRAM + page * 4096 + 8 * i, i + 1)
        mem.write64(DRAM + 2 * 4096, 5)
        mem.write64(DRAM + 2 * 4096, 0)  # written, but all zero again
        mem.write64(DRAM + 9 * 4096, 1)  # the journal's tail is elsewhere
        e0, n0 = mem.epoch, mem.journal_length
        pages0 = mem.materialised_pages()
        mem.zero_range(DRAM, 4 * 4096)  # page 3 was never written
        assert mem.epoch == e0 + 2
        assert mem.journal_length == n0 + 2
        assert mem.writes_since(e0) == {pfn, pfn + 1}
        assert mem.materialised_pages() == pages0
        for page in range(4):
            assert mem.page_words(pfn + page) == [0] * 512

    def test_zero_range_straddle_matches_word_stores(self, mem):
        """Bug 1's unaligned zeroing takes the word-by-word path: memory,
        journal and device counts end exactly as with ``write64`` calls."""
        reference = PhysicalMemory(default_memory_map())
        for m in (mem, reference):
            for i in range(1024):
                m.write64(DRAM + 8 * i, (i * 0x9E3779B1) & 0xFFFF or 1)
        e0 = mem.epoch
        mem.zero_range(DRAM + 64, 4096)
        for off in range(0, 4096, 8):
            reference.write64(DRAM + 64 + off, 0)
        for pfn in (DRAM >> 12, (DRAM >> 12) + 1):
            assert mem.page_words(pfn) == reference.page_words(pfn)
        assert mem.epoch == reference.epoch
        assert mem.writes_since(e0) == reference.writes_since(e0)
        assert mem.device_accesses == reference.device_accesses == 0

    def test_zero_range_on_device_page_counts_every_word(self, mem):
        mem.zero_range(0x0900_0000, 4096)
        assert mem.device_accesses == 512

    def test_zero_range_off_the_end_of_dram_raises(self, mem):
        end = DRAM + 256 * 1024 * 1024
        with pytest.raises(BadAddress):
            mem.zero_range(end - 4096, 2 * 4096)

    def test_page_store_is_one_record_and_one_bump(self, mem):
        pfn = DRAM >> 12
        mem.write64(DRAM, 1)  # materialised, one word already equal
        mem.write64(DRAM + 9 * 4096, 1)  # the journal's tail is elsewhere
        e0, n0 = mem.epoch, mem.journal_length
        words = list(range(1, 513))
        mem.write_page(pfn, words)
        assert mem.epoch == e0 + 1
        assert mem.journal_length == n0 + 1
        assert mem.writes_since(e0) == {pfn}
        assert mem.page_words(pfn) == words
        words[0] = 7  # the page keeps its own copy
        assert mem.read64(DRAM) == 1

    def test_page_store_of_equal_words_skips_journal(self, mem):
        mem.write_page(DRAM >> 12, [5] * 512)
        e0, n0 = mem.epoch, mem.journal_length
        mem.write_page(DRAM >> 12, [5] * 512)
        assert (mem.epoch, mem.journal_length) == (e0, n0)

    def test_zero_page_store_to_untouched_page_materialises_nothing(self, mem):
        e0, pages0 = mem.epoch, mem.materialised_pages()
        mem.write_page((DRAM >> 12) + 17, [0] * 512)
        assert mem.epoch == e0
        assert mem.materialised_pages() == pages0

    def test_page_store_refuses_pages_outside_dram(self, mem):
        for phys in (0x0900_0000, 0x2000_0000):  # a device page, a hole
            with pytest.raises(BadAddress):
                mem.write_page(phys >> 12, [1] * 512)
            with pytest.raises(BadAddress):
                mem.zero_page(phys >> 12)
        assert mem.device_accesses == 0

    def test_page_words(self, mem):
        mem.write64(DRAM + 16, 9)
        words = mem.page_words(DRAM >> 12)
        assert len(words) == 512
        assert words[2] == 9

    def test_materialised_pages_counts_writes_only(self, mem):
        base = mem.materialised_pages()
        mem.read64(DRAM + 8 * 4096)
        assert mem.materialised_pages() == base
        mem.write64(DRAM + 8 * 4096, 1)
        assert mem.materialised_pages() == base + 1


class TestWriteJournal:
    def test_epoch_bumps_on_effective_write(self, mem):
        e0 = mem.epoch
        mem.write64(DRAM, 1)
        assert mem.epoch == e0 + 1

    def test_idempotent_store_skips_journal(self, mem):
        mem.write64(DRAM, 7)
        e0 = mem.epoch
        mem.write64(DRAM, 7)  # same value: architecturally invisible
        assert mem.epoch == e0
        assert mem.writes_since(e0) == frozenset()

    def test_zero_store_to_fresh_page_skips_journal(self, mem):
        e0 = mem.epoch
        pages0 = mem.materialised_pages()
        mem.write64(DRAM + 17 * 4096, 0)
        assert mem.epoch == e0
        assert mem.materialised_pages() == pages0

    def test_zero_page_of_clean_page_skips_journal(self, mem):
        mem.write64(DRAM, 5)
        mem.write64(DRAM, 0)
        e0 = mem.epoch
        mem.zero_page(DRAM >> 12)  # page already all zeros
        assert mem.epoch == e0

    def test_writes_since_reports_dirty_pfns(self, mem):
        e0 = mem.epoch
        mem.write64(DRAM, 1)
        mem.write64(DRAM + 3 * 4096, 2)
        assert mem.writes_since(e0) == {DRAM >> 12, (DRAM >> 12) + 3}
        assert mem.writes_since(mem.epoch) == frozenset()

    def test_writes_since_intermediate_epoch(self, mem):
        mem.write64(DRAM, 1)
        mid = mem.epoch
        mem.write64(DRAM + 5 * 4096, 2)
        assert mem.writes_since(mid) == {(DRAM >> 12) + 5}

    def test_journal_tail_coalesces_same_page(self, mem):
        mem.write64(DRAM, 1)
        n0 = mem.journal_length
        for i in range(1, 20):
            mem.write64(DRAM + 8 * i, i)
        assert mem.journal_length == n0  # one entry, epoch moved forward
        assert mem.epoch >= 20

    def test_trim_journal_falls_back_to_page_epochs(self, mem):
        e0 = mem.epoch
        mem.write64(DRAM, 1)
        mem.write64(DRAM + 4096, 2)
        mid = mem.epoch
        mem.write64(DRAM + 2 * 4096, 3)
        assert mem.trim_journal(mid)  # the floor moved
        assert not mem.trim_journal(mid)  # already there: nothing to do
        assert mem.journal_length == 1
        # asking about a pre-trim epoch still gives the exact answer
        assert mem.writes_since(e0) == {
            DRAM >> 12, (DRAM >> 12) + 1, (DRAM >> 12) + 2,
        }
        assert mem.writes_since(mid) == {(DRAM >> 12) + 2}
