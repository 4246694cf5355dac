"""Finite range maps: the extensional meaning of a page table.

"What is relevant is the finite partial mapping from 4KB-page input
addresses to tuples of their output address, permissions, and
software-defined attributes: the extension of the Arm-A page-table walk
function" (paper §3.1). The representation is the paper's: an ordered list
of *maximally coalesced maplets*, each capturing a contiguous run of pages
whose targets continue each other.

A maplet target is either *mapped* (output address + attributes) or an
*annotation* (owner id carried by invalid entries); both appear in the
host's stage 2 and both matter to the specification.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterator, Sequence

from repro.arch.defs import PAGE_SIZE, MemType, Perms
from repro.arch.pte import PageState
from repro.ghost.arena import arena


class MappingError(Exception):
    """An ill-formed mapping operation (overlap, missing range, ...).

    In the runtime oracle these surface as specification-infrastructure
    failures: either the spec is wrong or the implementation produced a
    state the abstraction declares impossible (e.g. a double mapping).
    """


@dataclass(frozen=True)
class MapletTarget:
    """Where a run of pages goes: a mapped range or an owner annotation."""

    kind: str  # "mapped" | "annotated"
    oa: int = 0
    perms: Perms = Perms.none()
    memtype: MemType = MemType.NORMAL
    page_state: PageState = PageState.OWNED
    owner_id: int = 0

    @staticmethod
    def mapped(
        oa: int,
        perms: Perms,
        memtype: MemType = MemType.NORMAL,
        page_state: PageState = PageState.OWNED,
    ) -> "MapletTarget":
        return MapletTarget(
            "mapped", oa=oa, perms=perms, memtype=memtype, page_state=page_state
        )

    @staticmethod
    def annotated(owner_id: int) -> "MapletTarget":
        return MapletTarget("annotated", owner_id=owner_id)

    def at_offset(self, offset: int) -> "MapletTarget":
        """The target ``offset`` bytes into a run starting with this one."""
        if self.kind == "mapped":
            return replace(self, oa=self.oa + offset)
        return self

    def continues(self, earlier: "MapletTarget", offset: int) -> bool:
        """Whether this target extends ``earlier`` at byte ``offset``:
        ``self == earlier.at_offset(offset)``, compared field by field."""
        if self.kind != "mapped":
            return self == earlier
        return (
            earlier.kind == "mapped"
            and self.oa == earlier.oa + offset
            and self.perms == earlier.perms
            and self.memtype == earlier.memtype
            and self.page_state == earlier.page_state
            and self.owner_id == earlier.owner_id
        )

    def describe(self) -> str:
        if self.kind == "annotated":
            return f"owner:{self.owner_id}"
        return (
            f"phys:{self.oa:x} {self.page_state} {self.perms} {self.memtype}"
        )


@dataclass(frozen=True)
class Maplet:
    """A maximally coalesced run: ``nr_pages`` pages from ``va``.

    Page ``va + i*4K`` maps to ``target.at_offset(i*4K)``.
    """

    va: int
    nr_pages: int
    target: MapletTarget

    @property
    def end(self) -> int:
        return self.va + self.nr_pages * PAGE_SIZE

    def target_at(self, va: int) -> MapletTarget:
        if not self.va <= va < self.end:
            raise MappingError(f"{va:#x} outside maplet")
        return self.target.at_offset(va - self.va)

    def describe(self) -> str:
        return f"ipa:{self.va:x}+{self.nr_pages}p -> {self.target.describe()}"


class Mapping:
    """An ordered list of disjoint, maximally coalesced maplets.

    Supports the finite-map operations the specifications use: empty,
    insert, remove, lookup, union-compatibility, equality, diff. Every
    mutation but the traversal's in-order ``extend_coalesce`` is one
    :meth:`splice`. All operations preserve the normal form (sorted,
    disjoint, coalesced), which the property-based tests pin down as the
    class invariant.
    """

    __slots__ = ("_maplets", "_hash", "_frozen", "_shared", "__weakref__")

    def __init__(self, maplets: list[Maplet] | None = None):
        self._maplets: list[Maplet] = maplets if maplets is not None else []
        self._hash: int | None = None
        self._frozen = False
        self._shared = False
        arena.account_mapping(self)

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty() -> "Mapping":
        return Mapping()

    @staticmethod
    def singleton(va: int, nr_pages: int, target: MapletTarget) -> "Mapping":
        m = Mapping()
        m.insert(va, nr_pages, target)
        return m

    def copy(self) -> "Mapping":
        """O(1) copy-on-write copy: the maplet list is shared until either
        side mutates (structural sharing — the persistent-value half of the
        incremental oracle; unchanged components stay pointer-comparable)."""
        self._shared = True
        new = Mapping.__new__(Mapping)
        new._maplets = self._maplets
        new._hash = self._hash
        new._frozen = False
        new._shared = True
        arena.account_mapping(new)
        return new

    def freeze(self) -> "Mapping":
        """Mark immutable: any later mutation raises :class:`MappingError`.

        Cached abstraction snapshots are frozen so a buggy spec cannot
        silently corrupt the committed reference copies they share
        structure with."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _ensure_private(self) -> None:
        if self._frozen:
            raise MappingError("mutation of frozen mapping")
        if self._shared:
            self._maplets = list(self._maplets)
            self._shared = False
        self._hash = None

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._maplets)

    def __iter__(self) -> Iterator[Maplet]:
        return iter(self._maplets)

    def __bool__(self) -> bool:
        return bool(self._maplets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        if self is other or self._maplets is other._maplets:
            return True
        if (
            self._hash is not None
            and other._hash is not None
            and self._hash != other._hash
        ):
            return False
        return self._maplets == other._maplets

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(tuple(self._maplets))
        return h

    def __repr__(self) -> str:
        inner = ", ".join(m.describe() for m in self._maplets)
        return f"Mapping[{inner}]"

    def nr_pages(self) -> int:
        """Total pages in the domain."""
        return sum(m.nr_pages for m in self._maplets)

    def lookup(self, va: int) -> MapletTarget | None:
        """The target of the page containing ``va``, or None."""
        va &= ~(PAGE_SIZE - 1)
        idx = self._find(va)
        if idx is None:
            return None
        return self._maplets[idx].target_at(va)

    def __contains__(self, va: int) -> bool:
        return self.lookup(va) is not None

    def contains_range(self, va: int, nr_pages: int) -> bool:
        covered = sum(n for _va, n, _t in self.runs_in(va, nr_pages))
        return covered == nr_pages

    def runs_in(self, va: int, nr_pages: int):
        """Yield ``(run_va, run_nr_pages, target_at_run_va)`` for the
        maplet fragments overlapping ``[va, va + nr_pages*4K)``.

        O(log n + overlapping maplets) — the range-query primitive the
        cross-component invariant checks use instead of per-page lookups.
        """
        end = va + nr_pages * PAGE_SIZE
        for maplet in self.maplets_in(va, end):
            run_start = max(va, maplet.va)
            run_end = min(end, maplet.end)
            yield (
                run_start,
                (run_end - run_start) // PAGE_SIZE,
                maplet.target_at(run_start),
            )

    def maplets_in(self, va: int, end: int) -> list[Maplet]:
        """The maplets overlapping ``[va, end)``, whole (not clipped to
        the range): O(log n) plus a slice of the overlapping ones."""
        maplets = self._maplets
        lo = self._first_ending_after(va)
        return maplets[lo : bisect_left(maplets, end, lo, key=_START)]

    def _find(self, va: int) -> int | None:
        idx = self._first_ending_after(va)
        if idx < len(self._maplets) and self._maplets[idx].va <= va:
            return idx
        return None

    def _first_ending_after(self, va: int) -> int:
        """Index of the first maplet whose end is above ``va``."""
        maplets = self._maplets
        idx = bisect_right(maplets, va, key=_START)
        if idx and maplets[idx - 1].end > va:
            idx -= 1
        return idx

    # -- mutation -----------------------------------------------------------

    def insert(
        self, va: int, nr_pages: int, target: MapletTarget, *, overwrite: bool = False
    ) -> None:
        """Add ``nr_pages`` pages at ``va``, coalescing with neighbours.

        Overlap with existing content is a :class:`MappingError` unless
        ``overwrite`` — the specs insert into vacated ranges, so a
        collision means either a spec bug or an implementation double-map,
        and must be loud.
        """
        if va % PAGE_SIZE:
            raise MappingError(f"unaligned insert at {va:#x}")
        if nr_pages <= 0:
            raise MappingError(f"empty insert at {va:#x}")
        end = va + nr_pages * PAGE_SIZE
        if not overwrite:
            maplets = self._maplets
            idx = self._first_ending_after(va)
            if idx < len(maplets) and maplets[idx].va < end:
                raise MappingError(
                    f"insert [{va:#x}, {end:#x}) overlaps "
                    f"{maplets[idx].describe()}"
                )
        self.splice(va, end, (Maplet(va, nr_pages, target),))

    def extend_coalesce(self, va: int, nr_pages: int, target: MapletTarget) -> None:
        """Append an in-order run, coalescing with the last maplet.

        The paper's ``extend_mapping_coalesce`` (Fig. 2): the abstraction
        traversal visits entries in ascending input-address order, so
        extension is O(1) instead of a general insert.
        """
        if va % PAGE_SIZE:
            raise MappingError(f"unaligned extend at {va:#x}")
        self._ensure_private()
        if self._maplets and va < self._maplets[-1].end:
            raise MappingError(f"extend at {va:#x} not in ascending order")
        extend_run(self._maplets, (Maplet(va, nr_pages, target),))
        arena.account_mapping(self)

    def remove(self, va: int, nr_pages: int) -> None:
        """Remove exactly ``nr_pages`` pages at ``va``; all must be present."""
        if not self.contains_range(va, nr_pages):
            raise MappingError(
                f"remove [{va:#x}, +{nr_pages}p) not fully mapped"
            )
        self.remove_if_present(va, nr_pages)

    def remove_if_present(self, va: int, nr_pages: int) -> None:
        """Remove any pages of ``[va, va+nr_pages*4K)`` that are present."""
        if va % PAGE_SIZE:
            raise MappingError(f"unaligned remove at {va:#x}")
        self.splice(va, va + nr_pages * PAGE_SIZE, ())

    def splice(self, va: int, end: int, maplets: Sequence[Maplet]) -> None:
        """Replace the contents of ``[va, end)`` with ``maplets``.

        The general mutation: insert and remove are splices. ``maplets``
        must be an ascending, disjoint, coalesced run inside ``[va, end)``
        — a traversal segment, a single new maplet, or nothing. Maplets
        straddling either edge are split, the run is coalesced with its
        neighbours at the two seams only, and the result is written back
        with one slice assignment: O(log n + k) Python work for a run of
        k maplets, plus a memmove.
        """
        if va % PAGE_SIZE or end % PAGE_SIZE or end < va:
            raise MappingError(f"bad splice range [{va:#x}, {end:#x})")
        if maplets and (maplets[0].va < va or maplets[-1].end > end):
            raise MappingError(
                f"splice run {maplets[0].describe()} .. "
                f"{maplets[-1].describe()} leaves [{va:#x}, {end:#x})"
            )
        self._ensure_private()
        current = self._maplets
        lo = self._first_ending_after(va)
        hi = bisect_left(current, end, lo, key=_START)
        # current[lo:hi] overlap [va, end). The run's neighbours are the
        # outer fragments of the maplets straddling an edge, else the
        # untouched maplets on either side, pulled into the window so
        # the seams can coalesce.
        before = after = None
        if lo < hi and current[hi - 1].end > end:
            m = current[hi - 1]
            after = Maplet(
                end, (m.end - end) // PAGE_SIZE, m.target.at_offset(end - m.va)
            )
        elif hi < len(current):
            after = current[hi]
            hi += 1
        if lo < hi and current[lo].va < va:
            m = current[lo]
            before = Maplet(m.va, (va - m.va) // PAGE_SIZE, m.target)
        elif lo:
            lo -= 1
            before = current[lo]
        run = list(maplets)
        if before is not None:
            if run and _joins(before, run[0]):
                run[0] = Maplet(
                    before.va, before.nr_pages + run[0].nr_pages, before.target
                )
            else:
                run.insert(0, before)
        if after is not None:
            if run and _joins(run[-1], after):
                last = run[-1]
                run[-1] = Maplet(
                    last.va, last.nr_pages + after.nr_pages, last.target
                )
            else:
                run.append(after)
        current[lo:hi] = run
        arena.account_mapping(self)

    # -- set-like operations --------------------------------------------------

    def domain_overlaps(self, other: "Mapping") -> bool:
        """Whether any page is in both domains."""
        for m in self._maplets:
            if next(other.runs_in(m.va, m.nr_pages), None) is not None:
                return True
        return False

    def diff(self, other: "Mapping") -> tuple[list[Maplet], list[Maplet]]:
        """(removed, added) page runs going from ``self`` to ``other``.

        Used by the error-reporting diff printer (paper §4.2.2).
        """
        removed = _page_difference(self, other)
        added = _page_difference(other, self)
        return removed, added


_START = attrgetter("va")


def _joins(a: Maplet, b: Maplet) -> bool:
    """Whether ``b`` starts where ``a`` ends and continues its target."""
    return a.end == b.va and b.target.continues(a.target, b.va - a.va)


def extend_run(run: list[Maplet], maplets: Sequence[Maplet]) -> None:
    """Append the in-order, coalesced ``maplets`` to the list ``run``,
    coalescing at the seam. :meth:`Mapping.extend_coalesce` appends with
    it, and the abstraction traversal builds its segments as plain lists
    with it."""
    if not maplets:
        return
    last, first = run[-1] if run else None, maplets[0]
    if last is not None and _joins(last, first):
        run[-1] = Maplet(last.va, last.nr_pages + first.nr_pages, last.target)
        run.extend(maplets[1:])
    else:
        run.extend(maplets)


def changed_spans(a: Mapping, b: Mapping) -> list[tuple[int, int]]:
    """The ascending, merged ``[va, end)`` spans on which ``a`` and ``b``
    map some page differently (or only one of them maps it).

    Range-wise: the maplet edges of both cut the address space into
    pieces that each mapping covers wholly or not at all, so one lookup
    per piece and side decides the whole piece. O((n + m) log n); the
    isolation sweep's fallback when the abstraction cache cannot say
    what moved.
    """
    if a == b:
        return []
    cuts = sorted({e for m in (*a, *b) for e in (m.va, m.end)})
    spans: list[tuple[int, int]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        if a.lookup(lo) != b.lookup(lo):
            if spans and spans[-1][1] == lo:
                spans[-1] = (spans[-1][0], hi)
            else:
                spans.append((lo, hi))
    return spans


def _page_difference(a: Mapping, b: Mapping) -> list[Maplet]:
    """Pages of ``a`` whose target in ``b`` differs (or is absent),
    re-coalesced into maplets.

    Range-wise, as :func:`changed_spans`: the maplet edges of ``b`` cut
    each maplet of ``a`` into pieces on which neither side changes
    maplet, so one lookup decides a whole piece, and the differing
    pieces coalesce in address order with :func:`extend_run`.
    O((n + m) log m), not one lookup per page."""
    run: list[Maplet] = []
    for m in a:
        cuts = {m.va, m.end}
        for other in b.maplets_in(m.va, m.end):
            cuts.update(e for e in (other.va, other.end) if m.va < e < m.end)
        cuts = sorted(cuts)
        for lo, hi in zip(cuts, cuts[1:]):
            target = m.target_at(lo)
            if b.lookup(lo) != target:
                extend_run(run, (Maplet(lo, (hi - lo) // PAGE_SIZE, target),))
    return run
