"""pKVM's EL2 memory management: the hyp_pool buddy allocator and the
per-vCPU memcaches.

``HypPool`` manages the carveout of physical memory the host donates to
pKVM at initialisation; page-table pages for the hyp stage 1 and the host
stage 2 come from here. It is a genuine binary buddy allocator (orders,
splitting, coalescing) because the separation/footprint invariant the
ghost machinery checks (§4.4) is only meaningful against a real allocator.

``Memcache`` models the per-vCPU stack of host-donated pages from which
guest stage 2 table pages are allocated while running a vCPU. Its *topup*
path is where paper bugs 1 (missing alignment check) and 2 (missing size
check / signed overflow) live; the checks that fix them are guarded by the
bug-injection flags so the oracle can demonstrably catch both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.defs import PAGE_SIZE, pfn_to_phys, phys_to_pfn
from repro.arch.memory import PhysicalMemory
from repro.pkvm.spinlock import HypSpinLock

#: Highest buddy order supported (order 9 = one 2MB block of 4KB pages).
MAX_ORDER = 9


class OutOfMemory(Exception):
    """The pool cannot satisfy an allocation; callers turn this into -ENOMEM."""


class HypPool:
    """Binary buddy allocator over a contiguous physical carveout."""

    def __init__(self, mem: PhysicalMemory, base: int, nr_pages: int):
        if base % PAGE_SIZE:
            raise ValueError("pool base must be page aligned")
        self.mem = mem
        self.base_pfn = phys_to_pfn(base)
        self.nr_pages = nr_pages
        self.lock = HypSpinLock("hyp_pool")
        # Per-page metadata, one list per field: the order of the run a
        # page heads, whether that run is free, and its refcount.
        self._order = [0] * nr_pages
        self._free = [False] * nr_pages
        self._refcount = [0] * nr_pages
        self._free_lists: list[list[int]] = [[] for _ in range(MAX_ORDER + 1)]
        self._seed_free_lists()
        #: Pages currently handed out, for the memory-impact accounting.
        self.allocated_pages = 0

    def _seed_free_lists(self) -> None:
        """Carve the range into maximal aligned power-of-two runs."""
        idx = 0
        while idx < self.nr_pages:
            order = MAX_ORDER
            while order > 0 and (
                idx % (1 << order) or idx + (1 << order) > self.nr_pages
            ):
                order -= 1
            self._order[idx] = order
            self._free[idx] = True
            self._free_lists[order].append(idx)
            idx += 1 << order

    # -- helpers ---------------------------------------------------------

    def contains(self, phys: int) -> bool:
        pfn = phys_to_pfn(phys)
        return self.base_pfn <= pfn < self.base_pfn + self.nr_pages

    def _index_of(self, phys: int) -> int:
        if not self.contains(phys):
            raise ValueError(f"{phys:#x} not in hyp pool")
        return phys_to_pfn(phys) - self.base_pfn

    def _buddy_of(self, idx: int, order: int) -> int:
        return idx ^ (1 << order)

    # -- allocation ------------------------------------------------------

    def alloc_pages(self, order: int, cpu_index: int = 0) -> int:
        """Allocate ``2**order`` zeroed, contiguous, aligned pages.

        Returns the physical address of the first page.
        """
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"bad order {order}")
        self.lock.acquire(cpu_index)
        try:
            for avail in range(order, MAX_ORDER + 1):
                if self._free_lists[avail]:
                    break
            else:
                raise OutOfMemory(f"no free run of order {order}")
            idx = self._free_lists[avail].pop()
            # Split down to the requested order, returning buddies.
            while avail > order:
                avail -= 1
                buddy = idx + (1 << avail)
                self._order[buddy] = avail
                self._free[buddy] = True
                self._free_lists[avail].append(buddy)
            self._order[idx] = order
            self._free[idx] = False
            self._refcount[idx] = 1
            self.allocated_pages += 1 << order
        finally:
            self.lock.release(cpu_index)
        phys = pfn_to_phys(self.base_pfn + idx)
        for i in range(1 << order):
            self.mem.zero_page(self.base_pfn + idx + i)
        return phys

    def alloc_page(self, cpu_index: int = 0) -> int:
        return self.alloc_pages(0, cpu_index)

    def free_pages(self, phys: int, cpu_index: int = 0) -> None:
        """Free a previously allocated run, coalescing with free buddies."""
        idx = self._index_of(phys)
        self.lock.acquire(cpu_index)
        try:
            if self._free[idx]:
                raise ValueError(f"double free of {phys:#x}")
            if self._refcount[idx] != 1:
                raise ValueError(
                    f"freeing {phys:#x} with refcount {self._refcount[idx]}"
                )
            order = self._order[idx]
            self.allocated_pages -= 1 << order
            self._refcount[idx] = 0
            while order < MAX_ORDER:
                buddy = self._buddy_of(idx, order)
                if (
                    buddy >= self.nr_pages
                    or not self._free[buddy]
                    or self._order[buddy] != order
                ):
                    break
                self._free_lists[order].remove(buddy)
                self._free[buddy] = False
                idx = min(idx, buddy)
                order += 1
            self._order[idx] = order
            self._free[idx] = True
            self._free_lists[order].append(idx)
        finally:
            self.lock.release(cpu_index)

    # -- introspection (for tests and the footprint invariant) -----------

    def free_page_count(self) -> int:
        return sum(
            len(lst) << order for order, lst in enumerate(self._free_lists)
        )

    def check_invariants(self) -> None:
        """Buddy invariants: free runs aligned, disjoint, inside the pool."""
        seen: set[int] = set()
        for order, lst in enumerate(self._free_lists):
            for idx in lst:
                if idx % (1 << order):
                    raise AssertionError(
                        f"free run at {idx} misaligned for order {order}"
                    )
                run = set(range(idx, idx + (1 << order)))
                if run & seen:
                    raise AssertionError(f"overlapping free runs at {idx}")
                if idx + (1 << order) > self.nr_pages:
                    raise AssertionError(f"free run at {idx} escapes the pool")
                seen |= run
        if len(seen) + self.allocated_pages != self.nr_pages:
            raise AssertionError(
                f"page accounting broken: {len(seen)} free + "
                f"{self.allocated_pages} allocated != {self.nr_pages}"
            )


@dataclass
class Memcache:
    """A per-vCPU stack of host-donated pages for guest stage 2 tables."""

    pages: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pages)

    def push(self, phys: int) -> None:
        self.pages.append(phys)

    def pop(self) -> int:
        if not self.pages:
            raise OutOfMemory("memcache empty")
        return self.pages.pop()
