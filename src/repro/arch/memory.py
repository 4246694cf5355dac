"""Sparse physical memory.

Memory is stored page-granular: a dictionary from page frame number to a
512-entry list of 64-bit words. Translation tables live in this memory in
their architectural format, so both the hardware walk and the ghost
abstraction function read the same bytes.

The machine also knows its *memory map*: which physical ranges are DRAM and
which are devices (MMIO). pKVM consults this (the paper's
``ghost_addr_is_allowed_memory``) when computing mapping attributes, and the
linear-map initialisation bug (paper bug 5) is about these ranges
overlapping.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.arch.defs import (
    PAGE_SIZE,
    PTRS_PER_TABLE,
    MemType,
    U64_MASK,
    phys_to_pfn,
)


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous physical range with a memory type."""

    base: int
    size: int
    kind: MemType
    name: str = ""

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, phys: int) -> bool:
        return self.base <= phys < self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        return self.base < other.end and other.base < self.end


class BadAddress(Exception):
    """An access outside any known memory region."""


class PhysicalMemory:
    """Page-granular sparse physical memory with a memory map.

    Pages are materialised (zero-filled) on first write; reads of
    unmaterialised DRAM return zero, matching the simulator convention that
    fresh memory is zeroed. Accesses outside every region raise
    :class:`BadAddress` — the simulation analogue of a bus abort, which is
    exactly what paper bug 5 (linear map overlapping IO) would provoke.
    """

    def __init__(self, regions: list[MemoryRegion]):
        if not regions:
            raise ValueError("memory map must contain at least one region")
        self._regions = sorted(regions, key=lambda r: r.base)
        for a, b in zip(self._regions, self._regions[1:]):
            if a.overlaps(b):
                raise ValueError(f"memory map regions overlap: {a} / {b}")
        self._bases = [r.base for r in self._regions]
        self._ends = [r.end for r in self._regions]
        self._is_dram = [r.kind is MemType.NORMAL for r in self._regions]
        self._pages: dict[int, list[int]] = {}
        #: Number of reads/writes of device memory, for fault diagnosis.
        self.device_accesses = 0
        #: Monotonic write epoch: every *effective* store (one that changes
        #: a word) bumps it. Consumers (the ghost abstraction cache) take a
        #: snapshot of ``epoch`` and later ask :meth:`writes_since` which
        #: pages were touched in between.
        self.epoch = 0
        # Page-granular write journal: parallel sorted-by-epoch lists of
        # (epoch, pfn), tail-coalesced so a run of stores to one page costs
        # one entry. ``_page_epochs`` keeps the last write epoch per page as
        # the fallback once the journal has been trimmed.
        self._journal_epochs: list[int] = []
        self._journal_pfns: list[int] = []
        self._journal_floor = 0
        self._page_epochs: dict[int, int] = {}

    # -- memory map ------------------------------------------------------

    @property
    def regions(self) -> list[MemoryRegion]:
        return list(self._regions)

    def region_of(self, phys: int) -> MemoryRegion | None:
        i = bisect_right(self._bases, phys) - 1
        if i >= 0 and phys < self._ends[i]:
            return self._regions[i]
        return None

    def is_memory(self, phys: int) -> bool:
        """True when ``phys`` lies in normal DRAM (not device, not a hole)."""
        i = bisect_right(self._bases, phys) - 1
        return i >= 0 and phys < self._ends[i] and self._is_dram[i]

    def dram_regions(self) -> list[MemoryRegion]:
        return [r for r in self._regions if r.kind is MemType.NORMAL]

    # -- write journal ---------------------------------------------------

    def _record_write(self, pfn: int) -> None:
        self.epoch += 1
        self._page_epochs[pfn] = self.epoch
        if self._journal_pfns and self._journal_pfns[-1] == pfn:
            # Consecutive stores to the same page coalesce in place; the
            # list stays sorted because only the newest epoch grows.
            self._journal_epochs[-1] = self.epoch
        else:
            self._journal_epochs.append(self.epoch)
            self._journal_pfns.append(pfn)

    def writes_since(self, since: int) -> frozenset[int]:
        """PFNs of pages written after epoch ``since``.

        Cheap for recent epochs (bisect into the journal). If the journal
        has been trimmed past ``since``, falls back to scanning the
        per-page last-write epochs — still exact, just O(pages written
        ever) instead of O(writes since).
        """
        if since >= self.epoch:
            return frozenset()
        if since < self._journal_floor:
            return frozenset(
                pfn for pfn, e in self._page_epochs.items() if e > since
            )
        i = bisect_right(self._journal_epochs, since)
        return frozenset(self._journal_pfns[i:])

    def trim_journal(self, min_epoch: int) -> bool:
        """Forget journal entries at or before ``min_epoch``; returns
        whether the floor moved (False when it already sat there).

        Callers promise never to ask ``writes_since(e)`` for ``e <
        min_epoch`` again — or to accept the slower per-page fallback if
        they do. The abstraction cache trims to the oldest epoch it still
        holds, bounding journal growth over long campaigns.
        """
        if min_epoch <= self._journal_floor:
            return False
        i = bisect_right(self._journal_epochs, min_epoch)
        del self._journal_epochs[:i]
        del self._journal_pfns[:i]
        self._journal_floor = min_epoch
        return True

    @property
    def journal_length(self) -> int:
        """Current journal entry count (observability / trim heuristics)."""
        return len(self._journal_epochs)

    # -- word access -----------------------------------------------------

    def read64(self, phys: int) -> int:
        """Read the naturally aligned 64-bit word at ``phys``."""
        if phys % 8:
            raise BadAddress(f"unaligned 64-bit read at {phys:#x}")
        region = self.region_of(phys)
        if region is None:
            raise BadAddress(f"physical access outside memory map: {phys:#x}")
        if region.kind is MemType.DEVICE:
            self.device_accesses += 1
        page = self._pages.get(phys_to_pfn(phys))
        if page is None:
            return 0
        return page[(phys & (PAGE_SIZE - 1)) >> 3]

    def write64(self, phys: int, value: int) -> None:
        """Write the naturally aligned 64-bit word at ``phys``.

        Idempotent stores (the word already holds ``value``, or a zero
        store to a never-materialised page) neither materialise a page nor
        touch the journal — they are architecturally invisible, so they
        must not invalidate cached abstractions.
        """
        if phys % 8:
            raise BadAddress(f"unaligned 64-bit write at {phys:#x}")
        region = self.region_of(phys)
        if region is None:
            raise BadAddress(f"physical access outside memory map: {phys:#x}")
        if region.kind is MemType.DEVICE:
            self.device_accesses += 1
        value &= U64_MASK
        pfn = phys_to_pfn(phys)
        idx = (phys & (PAGE_SIZE - 1)) >> 3
        page = self._pages.get(pfn)
        if page is None:
            if value == 0:
                return
            page = [0] * PTRS_PER_TABLE
            self._pages[pfn] = page
        elif page[idx] == value:
            return
        page[idx] = value
        self._record_write(pfn)

    def write_page(self, pfn: int, words: list[int]) -> None:
        """Store all 512 words of DRAM page ``pfn`` as one write: one
        journal record and one epoch bump.

        The skip rule is :meth:`write64`'s: a store that changes no word
        (every word already equal, or an all-zero store to a page never
        materialised) touches neither the page map nor the journal.
        """
        if not self.is_memory(pfn * PAGE_SIZE):
            raise BadAddress(f"page store outside DRAM: pfn {pfn:#x}")
        # An untouched page reads as the shared zero page, so zeroing one
        # is an identity test, not a 512-word scan.
        page = self._pages.get(pfn, self._EMPTY_PAGE)
        if page is words or page == words:
            return
        if page is self._EMPTY_PAGE:
            self._pages[pfn] = list(words)
        else:
            page[:] = words
        self._record_write(pfn)

    def zero_page(self, pfn: int) -> None:
        """Zero a whole page, as pKVM does when reclaiming/donating pages."""
        self.write_page(pfn, self._EMPTY_PAGE)

    def zero_range(self, phys: int, size: int) -> None:
        """Zero ``size`` bytes starting at ``phys``: a page at a time where
        the range is whole, aligned pages inside one DRAM region, word by
        word otherwise.

        Unlike :meth:`zero_page` this takes a byte address, not a frame:
        pKVM's memcache topup zeroes "the page at addr", and the missing
        alignment check (paper bug 1) means a malicious host could make
        that zeroing straddle a page boundary. The simulation must be able
        to express that corruption faithfully.
        """
        if phys % 8 or size % 8:
            raise BadAddress(f"unaligned zero_range({phys:#x}, {size:#x})")
        region = self.region_of(phys)
        if (
            not (phys | size) & (PAGE_SIZE - 1)
            and region is not None
            and region.kind is MemType.NORMAL
            and phys + size <= region.end
        ):
            # Whole, aligned DRAM pages: one slice assignment and one
            # journal record per page that holds anything.
            for pfn in range(phys_to_pfn(phys), phys_to_pfn(phys + size)):
                self.zero_page(pfn)
            return
        for off in range(0, size, 8):
            self.write64(phys + off, 0)

    def page_words(self, pfn: int) -> list[int]:
        """A copy of the 512 words of page ``pfn`` (zeros if untouched)."""
        page = self._pages.get(pfn)
        return list(page) if page is not None else [0] * PTRS_PER_TABLE

    _EMPTY_PAGE: list[int] = [0] * PTRS_PER_TABLE

    def page_words_view(self, pfn: int) -> list[int]:
        """A read-only view of page ``pfn``'s words — the bulk-read fast
        path the abstraction traversal uses (one lookup per table instead
        of 512 ``read64`` calls). Callers must not mutate the result."""
        return self._pages.get(pfn, self._EMPTY_PAGE)

    def materialised_pages(self) -> int:
        """How many pages have been written, for memory accounting."""
        return len(self._pages)


def default_memory_map(
    dram_size: int = 256 * 1024 * 1024,
    dram_base: int = 0x4000_0000,
) -> list[MemoryRegion]:
    """A QEMU-virt-like memory map: low MMIO, then DRAM.

    The UART and GIC regions stand in for the device memory that the pKVM
    linear-map initialisation must avoid (paper bug 5).
    """
    return [
        MemoryRegion(0x0900_0000, 0x0000_1000, MemType.DEVICE, "uart"),
        MemoryRegion(0x0800_0000, 0x0002_0000, MemType.DEVICE, "gic"),
        MemoryRegion(dram_base, dram_size, MemType.NORMAL, "dram"),
    ]
