"""The §3.1 memory-isolation sweep, re-checked where the committed state moved.

"A partition of physical memory pages, where each partition has a single
owner ... but might also be shared with another entity" (paper §3.1). Over
the committed state, pairings between components must be consistent:

- a page the host has shared-and-owns is borrowed by pKVM, a guest or a
  device (or its borrower was just torn down and it awaits reclaim);
- a page the host borrows is shared-and-owned by some guest (or awaits
  reclaim);
- a page annotated away to pKVM is mapped (owned) at its hyp VA;
- a page annotated to a guest is in that guest's stage 2 (owned) or
  awaiting reclaim after its VM's teardown;
- the host's annotation and sharing domains are disjoint;
- every page a DMA domain's shadow stage 2 can reach is borrowed
  (SHARED_BORROWED) from a host page that is shared-and-owned and not
  annotated away: no device reaches a page the host donated.

One routine checks them over a list of *windows*, physical ranges; the
full sweep is that routine over one window covering all memory. After a
clean sweep, only a page where some sweep input changed can break a
pairing, so :class:`IsolationSweep` re-checks only the *dirty windows*:
the pages where ``host.annot`` or ``host.shared``, the hyp stage 1 (at
``phys + hyp_va_offset``), a live guest's stage 2 or a DMA domain's (by
output address), or membership in ``vms.reclaimable`` moved. The
abstraction cache says which input addresses each table's walks
re-decoded (:meth:`AbstractionCache.changes`), so finding them costs what
changed; a table it cannot vouch for is diffed range by range.

The body works on ranges: no per-page lookup and no per-sweep page dicts.
Guests and devices are found by output address through
:class:`_ByOutput`, a reverse index the sweep keeps up to date from the
same spans. Violations come out in the full sweep's order, with its
texts: the overlap, the DMA domains in domain then IOVA order, then the
host's sharing relation and its annotations in address order. A
pKVM-annotation maplet that touches a window is re-checked whole, since
its message names the whole maplet.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter, itemgetter
from typing import NamedTuple

from repro.arch.defs import PAGE_SIZE
from repro.arch.pte import PageState
from repro.ghost.maplets import Mapping, Maplet, changed_spans
from repro.ghost.state import vm_pgt_key
from repro.pkvm.defs import OwnerId

#: The full sweep's one window: all of physical memory.
ALL = ((0, 1 << 64),)

_HYP = int(OwnerId.HYP)
_GUEST = int(OwnerId.GUEST)
_OWNED = PageState.OWNED
_LENT = PageState.SHARED_OWNED
_BORROWED = PageState.SHARED_BORROWED

#: One isolation violation: (kind, detail, component).
Found = tuple[str, str, str]


def _no_lineage(_key, _old, _new):
    return None


class _Out(NamedTuple):
    """One mapped maplet of a guest or DMA stage 2, keyed by output
    address: sorts by (oa, table, input address), unique per index. The
    table is a VM handle or a DMA domain id."""

    oa: int
    key: int
    va: int
    nr_pages: int
    state: PageState

    @property
    def end(self) -> int:
        return self.oa + self.nr_pages * PAGE_SIZE


class _ByOutput:
    """The mapped maplets of several stage 2s, ordered by output address:
    which guest (or device) maps a physical range, without a page dict.

    Entries may overlap (two tables can map one page), so a query looks
    back by the longest entry ever added."""

    __slots__ = ("entries", "longest")

    def __init__(self, tables=()):
        self.entries = sorted(
            _out(key, m) for key, mapping in tables for m in mapping if _mapped(m)
        )
        self.longest = max((e.end - e.oa for e in self.entries), default=0)

    def add(self, key: int, maplet: Maplet) -> None:
        entry = _out(key, maplet)
        insort(self.entries, entry)
        self.longest = max(self.longest, entry.end - entry.oa)

    def remove(self, key: int, maplet: Maplet) -> None:
        entry = _out(key, maplet)
        idx = bisect_left(self.entries, entry)
        assert self.entries[idx] == entry, f"{entry} not indexed"
        del self.entries[idx]

    def over(self, lo: int, hi: int) -> list[_Out]:
        """The entries that map some page of ``[lo, hi)``."""
        entries = self.entries
        found = []
        for idx in range(bisect_left(entries, (lo - self.longest,)), len(entries)):
            entry = entries[idx]
            if entry.oa >= hi:
                break
            if entry.end > lo:
                found.append(entry)
        return found


def _out(key: int, m: Maplet) -> _Out:
    return _Out(m.target.oa, key, m.va, m.nr_pages, m.target.page_state)


def _mapped(m: Maplet) -> bool:
    return m.target.kind == "mapped"


class _Inputs(NamedTuple):
    """What one sweep reads of the committed state."""

    host: object
    pkvm: object
    vms: object
    #: VM handle -> (stage 2, owner id) for each live VM. Live VMs hold
    #: distinct VM-table slots, so an owner id names one VM, for life.
    guests: dict
    #: Domain id -> DMA domain, in domain order.
    dma: dict

    @staticmethod
    def of(committed: dict) -> "_Inputs | None":
        host, pkvm, vms = (committed.get(k) for k in ("host", "pkvm", "vms"))
        if host is None or pkvm is None or vms is None:
            return None
        guests = {}
        for vm in vms.vms.values():
            pgt = committed.get(vm_pgt_key(vm.handle))
            if pgt is not None:
                guests[vm.handle] = (pgt, _GUEST + vm.index)
        iommu = committed.get("iommu")
        return _Inputs(host, pkvm, vms, guests, {} if iommu is None else iommu.domains)


class IsolationSweep:
    """The §3.1 sweep of one checker, and what it needs between sweeps:
    the inputs of the last clean sweep and the reverse indexes built for
    them.

    :meth:`run` sweeps everything on the first sweep and after a sweep
    that reported (so a standing violation is reported again); otherwise
    only the dirty windows.
    """

    def __init__(self):
        self._last: _Inputs | None = None
        self._guests = _ByOutput()
        self._dma = _ByOutput()

    def run(
        self, committed: dict, offset: int, changes=_no_lineage
    ) -> tuple[list[Found], list[tuple[int, int]] | None]:
        """Check the pairings over ``committed``; returns the violations
        and the windows swept (None for the full sweep).

        ``offset`` is the hyp VA offset; ``changes(key, old, new)`` says
        which input-address spans of a table moved between two recorded
        values, or None when it cannot tell."""
        last, self._last = self._last, None
        inputs = _Inputs.of(committed)
        windows = None
        if inputs is not None and last is not None:
            windows = self.dirty_windows(last, inputs, offset, changes)
        if inputs is None:
            return [], windows
        if windows is None:
            self._guests = _ByOutput(
                (key, pgt.mapping) for key, (pgt, _owner) in inputs.guests.items()
            )
            self._dma = _ByOutput(
                (domain_id, domain.pgt.mapping)
                for domain_id, domain in inputs.dma.items()
            )
        found = self._sweep(inputs, ALL if windows is None else windows, offset)
        if not found:
            self._last = inputs
        return found, windows

    # -- dirty windows -----------------------------------------------------

    def dirty_windows(
        self, last: _Inputs, new: _Inputs, offset: int, changes
    ) -> list[tuple[int, int]]:
        """The physical pages where a sweep input moved from ``last`` to
        ``new``, as ascending merged windows; brings the reverse indexes
        from ``last`` to ``new`` on the way."""
        spans: list[tuple[int, int]] = []
        if new.host is not last.host:
            moved = changes("host", last.host, new.host)
            if moved is None:
                moved = changed_spans(last.host.annot, new.host.annot)
                moved += changed_spans(last.host.shared, new.host.shared)
            spans += moved
        if new.pkvm is not last.pkvm:
            moved = changes("pkvm", last.pkvm, new.pkvm)
            if moved is None:
                moved = changed_spans(last.pkvm.pgt.mapping, new.pkvm.pgt.mapping)
            spans += [(lo - offset, hi - offset) for lo, hi in moved]
        if new.vms is not last.vms:
            before = last.vms.reclaimable.keys()
            after = new.vms.reclaimable.keys()
            if before != after:
                spans += [(p, p + PAGE_SIZE) for p in before ^ after]
        _advance(
            self._guests,
            last.guests,
            new.guests,
            changes,
            spans,
            vm_pgt_key,
            itemgetter(0),
        )
        _advance(
            self._dma,
            last.dma,
            new.dma,
            changes,
            spans,
            "iommu:{}".format,
            attrgetter("pgt"),
        )
        return _merge(
            (max(0, lo - lo % PAGE_SIZE), hi + -hi % PAGE_SIZE)
            for lo, hi in spans
            if hi > 0
        )

    # -- the sweep ---------------------------------------------------------

    def _sweep(self, inp: _Inputs, windows, offset: int) -> list[Found]:
        """The six pairings over the pages of ``windows`` (ascending and
        disjoint), in the full sweep's order, with the reverse indexes
        brought up to ``inp``."""
        found: list[Found] = []
        annot, shared = inp.host.annot, inp.host.shared
        hyp = inp.pkvm.pgt.mapping
        reclaimable = inp.vms.reclaimable

        if any(
            shared.maplets_in(max(lo, m.va), min(hi, m.end))
            for lo, hi in windows
            for m in annot.maplets_in(lo, hi)
        ):
            found.append(
                (
                    "isolation",
                    "a page is both annotated away from the host and in a "
                    "host sharing relation",
                    "host",
                )
            )

        hits = [(lo, hi, e) for lo, hi in windows for e in self._dma.over(lo, hi)]
        if hits:
            rank = {key: pos for pos, key in enumerate(inp.dma)}
            hits.sort(key=lambda hit: (rank[hit[2].key], hit[2].va, hit[0]))
        for lo, hi, e in hits:
            a, b = max(lo, e.oa), min(hi, e.end)
            lent = []
            if e.state is _BORROWED:
                lent = _minus(_pieces(shared, a, b, _is_lent), _pieces(annot, a, b))
            for phys in _pages(_minus([(a, b)], lent)):
                found.append(
                    (
                        "isolation",
                        f"device in iommu domain {e.key} can DMA to "
                        f"{phys:#x}, which the host does not share-and-own",
                        "iommu",
                    )
                )

        for lo, hi in windows:
            for m in shared.maplets_in(lo, hi):
                a, b = max(lo, m.va), min(hi, m.end)
                if m.target.page_state is _LENT:
                    # Someone must be borrowing it: pKVM (share_hyp), a
                    # non-protected guest (share_guest) or a device, or
                    # the borrower was torn down and withdrawal is pending.
                    rest = _minus(
                        [(a, b)],
                        _pieces(hyp, a + offset, b + offset, _is_borrowed, -offset),
                    )
                    if rest:
                        rest = _minus(rest, self._guest_pieces(inp, a, b, _BORROWED))
                    if rest:
                        rest = _minus(rest, self._dma_pieces(a, b))
                    for phys in _pages(rest):
                        if phys not in reclaimable:
                            found.append(
                                (
                                    "isolation",
                                    f"host shares {phys:#x} but no one borrows it",
                                    "host",
                                )
                            )
                elif m.target.page_state is _BORROWED:
                    rest = _minus([(a, b)], self._guest_pieces(inp, a, b, _LENT))
                    for phys in _pages(rest):
                        if phys not in reclaimable:
                            found.append(
                                (
                                    "isolation",
                                    f"host borrows {phys:#x} but no guest shares it",
                                    "host",
                                )
                            )

        checked_hyp = None
        for lo, hi in windows:
            for m in annot.maplets_in(lo, hi):
                owner = m.target.owner_id
                if owner == _HYP:
                    # The whole annotated run must be mapped OWNED at its
                    # hyp VA: one piece per overlapping hyp maplet.
                    if m is checked_hyp:
                        continue
                    checked_hyp = m
                    covered = sum(
                        end - start
                        for start, end in _pieces(
                            hyp, m.va + offset, m.end + offset, _is_hyp_owned
                        )
                    )
                    if covered != m.nr_pages * PAGE_SIZE:
                        found.append(
                            (
                                "isolation",
                                f"pages annotated to pKVM at {m.va:#x} "
                                f"(+{m.nr_pages}p) are not all owned in its "
                                "stage 1",
                                "pkvm",
                            )
                        )
                elif owner >= _GUEST:
                    a, b = max(lo, m.va), min(hi, m.end)
                    rest = _minus(
                        [(a, b)], self._guest_pieces(inp, a, b, _OWNED, owner)
                    )
                    for phys in _pages(rest):
                        if phys not in reclaimable:
                            found.append(
                                (
                                    "isolation",
                                    f"{phys:#x} is annotated to guest owner "
                                    f"{owner} but not in that guest's stage 2 "
                                    "(and not awaiting reclaim)",
                                    "vms",
                                )
                            )
        return found

    def _guest_pieces(self, inp: _Inputs, a: int, b: int, state, owner=None):
        """The pages of ``[a, b)`` some live guest (the one of ``owner``,
        if given) maps in ``state``. A guest mapping a page at two IPAs
        gives it the state of the higher one."""
        by_guest: dict[int, list] = {}
        for e in self._guests.over(a, b):
            if owner is None or inp.guests[e.key][1] == owner:
                by_guest.setdefault(e.key, []).append((e.va, e))
        pieces = []
        for entries in by_guest.values():
            claimed: list[tuple[int, int]] = []
            for _va, e in sorted(entries, reverse=True):
                piece = [(max(a, e.oa), min(b, e.end))]
                if e.state is state:
                    pieces += _minus(piece, claimed)
                claimed = _merge(claimed + piece)
        return _merge(pieces)

    def _dma_pieces(self, a: int, b: int):
        """The pages of ``[a, b)`` some device borrows."""
        return _merge(
            (max(a, e.oa), min(b, e.end))
            for e in self._dma.over(a, b)
            if e.state is _BORROWED
        )


def _advance(
    index: _ByOutput, old: dict, new: dict, changes, spans, cache_key, pgt_of
) -> None:
    """Bring ``index`` from the guest or DMA tables ``old`` to ``new``
    (VM handle or domain id -> a value whose stage 2 is ``pgt_of`` it),
    adding the physical pages that moved to ``spans``; ``cache_key``
    names a table to ``changes``."""
    if old is new or (
        old.keys() == new.keys()
        and [*map(pgt_of, old.values())] == [*map(pgt_of, new.values())]
    ):
        return
    for key in old.keys() | new.keys():
        old_pgt = pgt_of(old[key]) if key in old else None
        new_pgt = pgt_of(new[key]) if key in new else None
        if old_pgt is new_pgt:
            continue
        moved = ALL
        if old_pgt is not None and new_pgt is not None:
            moved = changes(cache_key(key), old_pgt, new_pgt)
            if moved is None:
                moved = changed_spans(old_pgt.mapping, new_pgt.mapping)
        before = None if old_pgt is None else old_pgt.mapping
        after = None if new_pgt is None else new_pgt.mapping
        _move(index, key, before, after, moved, spans)


def _move(index: _ByOutput, key: int, before, after, moved, spans) -> None:
    """Re-index ``key``'s maplets near the input spans ``moved`` and add
    the output pages they map, ``before`` and ``after`` (either mapping
    None when the table is new or gone), to ``spans``."""
    gone: dict[int, Maplet] = {}
    come: dict[int, Maplet] = {}
    for lo, hi in moved:
        for mapping, reindexed in ((before, gone), (after, come)):
            if mapping is None:
                continue
            # One page either side: a maplet there may have grown into
            # or shrunk out of the span, so its index entry changes too.
            for m in mapping.maplets_in(lo - PAGE_SIZE, hi + PAGE_SIZE):
                if not _mapped(m):
                    continue
                reindexed[m.va] = m
                a, b = max(lo, m.va), min(hi, m.end)
                if a < b:
                    spans.append((m.target.oa + a - m.va, m.target.oa + b - m.va))
    for va, m in gone.items():
        if come.get(va) is m:
            del come[va]
        else:
            index.remove(key, m)
    for m in come.values():
        index.add(key, m)


# -- ranges -----------------------------------------------------------------


def _is_lent(target) -> bool:
    return target.page_state is _LENT


def _is_borrowed(target) -> bool:
    return target.page_state is _BORROWED


def _is_hyp_owned(target) -> bool:
    return target.kind == "mapped" and target.page_state is _OWNED


def _pieces(mapping: Mapping, a: int, b: int, keep=None, shift: int = 0):
    """The merged pieces of ``[a, b)`` that ``mapping`` maps to a target
    ``keep`` accepts (any target without one), moved by ``shift``."""
    return _merge(
        (max(a, m.va) + shift, min(b, m.end) + shift)
        for m in mapping.maplets_in(a, b)
        if keep is None or keep(m.target)
    )


def _merge(ranges) -> list[tuple[int, int]]:
    """Ascending ``[lo, hi)`` ranges, overlapping and touching ones joined."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _minus(ranges, holes) -> list[tuple[int, int]]:
    """The parts of the ascending disjoint ``ranges`` outside the
    ascending merged ``holes``."""
    left: list[tuple[int, int]] = []
    first = 0
    for lo, hi in ranges:
        while first < len(holes) and holes[first][1] <= lo:
            first += 1
        for hole_lo, hole_hi in holes[first:]:
            if hole_lo >= hi:
                break
            if hole_lo > lo:
                left.append((lo, hole_lo))
            lo = max(lo, hole_hi)
        if lo < hi:
            left.append((lo, hi))
    return left


def _pages(ranges):
    for lo, hi in ranges:
        yield from range(lo, hi, PAGE_SIZE)
