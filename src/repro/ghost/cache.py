"""Incremental abstraction cache: re-traverse only what changed.

The oracle's cost is dominated by re-running :func:`interpret_pgtable`
over whole in-memory page-table trees at every lock acquire/release. But
the abstraction of a tree is a pure function of (a) the root register and
(b) the contents of the table pages the traversal reads — exactly the
*footprint* the traversal already collects for the §4.4 separation
checks. So a cached result stays valid until either the root changes or
the memory write journal (:meth:`PhysicalMemory.writes_since`) shows a
store intersecting that footprint: the footprint doubles as the
invalidation set.

Correctness bar: ``paranoid`` mode recomputes every hit from scratch and
asserts the cached value is extensionally identical, failing loudly
(:class:`ParanoidMismatchError`) if the invalidation logic ever under-
approximates the read set.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

from repro.arch.defs import PAGE_SHIFT, Stage
from repro.arch.memory import PhysicalMemory
from repro.ghost.abstraction import Memo, interpret_pgtable
from repro.ghost.state import AbstractPgtable
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER


class ParanoidMismatchError(Exception):
    """Paranoid recomputation disagreed with the cached abstraction.

    This is an oracle-infrastructure bug (journal or invalidation logic
    missed a write), never a hypervisor bug — it must abort the run, not
    be reported as a specification violation.
    """


@dataclass
class _Entry:
    root: int
    epoch: int
    pfns: frozenset[int]
    value: object
    footprint: frozenset[int]
    #: Per-subtree memoisation for :func:`interpret_pgtable`, keyed by
    #: (table_pa, level, va_partial) -> ``_MemoEntry``. Entries are
    #: self-validating (each carries its own epoch and word snapshot), so
    #: the traversal word-diffs stale ones forward instead of rescanning.
    memo: Memo
    #: How ``value`` came to be, newest first: ``(weak reference to a
    #: value this entry held, the spans its walk re-decoded)``, the spans
    #: None where that walk started afresh. See :meth:`AbstractionCache.changes`.
    history: tuple = ()


class AbstractionCache:
    """Per-machine cache of per-root abstraction results.

    ``record(key, root, stage, view)`` either returns the cached value
    for ``key`` (when the root matches and no journaled write intersects
    the recorded footprint) or interprets the table at ``root``, derives
    the value as ``view(pgt)`` (the table itself when ``view`` is None),
    freezes it, and caches it with the table's footprint. The cache keeps
    each tree's per-subtree traversal memo between recomputes: entries
    are self-validating against the write journal and word-diffed
    forward, so an invalidated tree re-decodes only the table entries
    that actually changed. Cached values are shared objects: they are
    frozen so the sharing is safe, and the committed reference copies the
    checker keeps become pointer-identical on hits, making
    non-interference checks O(1).

    Every table walk runs under an ``interpret_pgtable`` span, and every
    journal trim that moves the floor emits a ``journal-trim`` instant,
    on the tracer of the machine's bundle (none without a bundle).
    """

    #: Journal length beyond which we trim to the oldest cached epoch.
    TRIM_THRESHOLD = 4096
    #: Memo entries per tree beyond which we start over (each entry keeps
    #: a 512-word snapshot; a tree this big means pathological churn).
    MEMO_CAP = 4096
    #: Recomputes per entry whose re-decoded spans :meth:`changes` keeps.
    HISTORY = 16

    def __init__(
        self,
        mem: PhysicalMemory,
        *,
        enabled: bool = True,
        paranoid: bool = False,
        obs=None,
    ):
        self.mem = mem
        self.enabled = enabled
        self.paranoid = paranoid
        #: The machine's :class:`repro.obs.Observability` bundle (flight
        #: recorder + tracer); a direct-constructed cache gets metrics of
        #: its own and no flight recorder.
        self.obs = obs
        self.tracer = obs.tracer if obs is not None else NULL_TRACER
        metrics = obs.metrics if obs is not None else MetricsRegistry()
        self.metrics = metrics
        # Every counter lives in the metrics registry and nowhere else:
        # read one with ``cache.metrics.value("oracle_cache_hits")``.
        self._hits = metrics.counter("oracle_cache_hits")
        self._misses = metrics.counter("oracle_cache_misses")
        self._invalidations = metrics.counter("oracle_cache_invalidations")
        self._root_changes = metrics.counter("oracle_cache_root_changes")
        self._paranoid_recomputes = metrics.counter(
            "oracle_cache_paranoid_recomputes"
        )
        self._journal_trims = metrics.counter("oracle_cache_journal_trims")
        #: Descriptors the incremental traversal decoded: one per run of
        #: entries that coalesce (and per table entry), not one per entry.
        self._decodes = metrics.counter("oracle_descriptor_decodes")
        self._entries_gauge = metrics.gauge("oracle_cache_entries")
        self._entries: dict[str, _Entry] = {}

    def record(
        self,
        key: str,
        root: int,
        stage: Stage,
        view: Callable[[AbstractPgtable], object] | None = None,
    ):
        """The abstraction of the table at ``root`` recorded under ``key``:
        the interpreted table, or ``view`` of it (the host's annot/shared
        split, the pkvm component)."""
        if not self.enabled:
            value, _footprint = self._compute(root, stage, view, None)
            return value
        epoch = self.mem.epoch
        memo = Memo(self._decodes)
        history = ()
        entry = self._entries.get(key)
        if entry is not None:
            if entry.root != root:
                # A new tree: the memo is keyed by physical placement, so
                # a reused table page would alias. Start over.
                self._root_changes.inc()
                if self.obs is not None:
                    self.obs.flight.record(
                        "cache-root-change", component=key, root=hex(root)
                    )
                del self._entries[key]
            else:
                dirty = self.mem.writes_since(entry.epoch)
                if not (dirty & entry.pfns):
                    # Hit. The writes since entry.epoch missed the
                    # footprint, so they can be skipped forever: freshen
                    # the epoch (memo entries carry their own epochs and
                    # re-validate themselves when next traversed).
                    entry.epoch = epoch
                    self._hits.inc()
                    if self.paranoid:
                        self._paranoid_check(key, entry, stage, view)
                    return entry.value
                self._invalidations.inc()
                if self.obs is not None:
                    self.obs.flight.record(
                        "cache-invalidation",
                        component=key,
                        dirty_pages=len(dirty & entry.pfns),
                    )
                memo = entry.memo
                history = entry.history[: self.HISTORY - 1]
                del self._entries[key]
        self._misses.inc()
        if len(memo) > self.MEMO_CAP:
            memo.clear()
        # A failed walk must leave no entry behind (the cache is never
        # poisoned by AbstractionError — the stale entry was already
        # dropped above) and no half-updated memo either: an abort can
        # strike between a child snapshot's update and its parent's, and
        # a later traversal would splice the mismatched pair.
        try:
            value, footprint = self._compute(root, stage, view, memo)
        except BaseException:
            memo.clear()
            raise
        frozen = value.freeze() if hasattr(value, "freeze") else value
        if memo.changed is None:
            history = ()
        entry = _Entry(
            root=root,
            epoch=epoch,
            pfns=frozenset(pa >> PAGE_SHIFT for pa in footprint),
            value=frozen,
            footprint=footprint,
            memo=memo,
            history=((weakref.ref(frozen), memo.changed), *history),
        )
        if self.paranoid:
            self._paranoid_check(key, entry, stage, view)
        self._entries[key] = entry
        self._entries_gauge.set(len(self._entries))
        self._maybe_trim()
        return frozen

    def changes(self, key: str, old, new) -> list[tuple[int, int]] | None:
        """Input-address ``(va, end)`` spans outside which ``old`` and
        ``new``, two values recorded under ``key`` (``old`` the earlier),
        map every page alike: the spans the walks between them re-decoded.

        None when the cache cannot tell: ``new`` and ``old`` are not both
        among the entry's last :attr:`HISTORY` values, or a walk between
        them started afresh (the first one, a root change, a cleared
        memo). O(history) for however many pages the tables hold.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        spans = None
        for ref, delta in entry.history:
            value = ref()
            if spans is not None and value is old:
                return spans
            if value is new:
                spans = []
            if spans is not None:
                if delta is None:
                    return None
                spans.extend(delta)
        return None

    def footprint_of(self, key: str) -> frozenset[int] | None:
        """The cached footprint (physical table-page addresses) for a key."""
        entry = self._entries.get(key)
        return entry.footprint if entry is not None else None

    def drop(self, key: str) -> None:
        """Forget one entry (e.g. a torn-down VM's stage 2)."""
        self._entries.pop(key, None)
        self._entries_gauge.set(len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self._entries_gauge.set(0)

    def _compute(self, root: int, stage: Stage, view, memo: Memo | None):
        """Interpret the table at ``root`` (incrementally through ``memo``,
        or the full reference traversal when it is None) and derive the
        value; returns (value, footprint)."""
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span(
                "interpret_pgtable",
                "oracle",
                root=hex(root),
                stage=stage.name,
                incremental=memo is not None,
            ):
                pgt = interpret_pgtable(self.mem, root, stage, memo=memo)
        else:
            pgt = interpret_pgtable(self.mem, root, stage, memo=memo)
        return (pgt if view is None else view(pgt)), pgt.footprint

    def _paranoid_check(self, key, entry, stage, view) -> None:
        # Recompute with no memo at all: a full from-scratch traversal,
        # checking both the hit/invalidation logic and the memoised
        # incremental re-interpretation.
        self._paranoid_recomputes.inc()
        fresh_value, fresh_footprint = self._compute(
            entry.root, stage, view, None
        )
        if fresh_value != entry.value:
            self._flight_dump_paranoid(key, entry, "stale value")
            raise ParanoidMismatchError(
                f"cache entry {key!r} (root {entry.root:#x}) is stale: "
                f"recomputed abstraction differs from the cached one.\n"
                f"cached:     {entry.value!r}\n"
                f"recomputed: {fresh_value!r}"
            )
        if fresh_footprint != entry.footprint:
            self._flight_dump_paranoid(key, entry, "footprint changed")
            raise ParanoidMismatchError(
                f"cache entry {key!r} (root {entry.root:#x}): footprint "
                f"changed without an intersecting journaled write: "
                f"cached {sorted(entry.footprint)} != "
                f"recomputed {sorted(fresh_footprint)}"
            )

    def _flight_dump_paranoid(self, key, entry, what: str) -> None:
        """A paranoid mismatch aborts the run; leave the event history."""
        if self.obs is None:
            return
        self.obs.flight.record(
            "paranoid-mismatch", component=key, root=hex(entry.root), what=what
        )
        self.obs.flight.dump(
            "paranoid-mismatch", extra={"component": key, "what": what}
        )

    def _maybe_trim(self) -> None:
        length = self.mem.journal_length
        if length <= self.TRIM_THRESHOLD:
            return
        if self._entries:
            floor = min(e.epoch for e in self._entries.values())
        else:
            floor = self.mem.epoch
        if self.mem.trim_journal(floor) and self.tracer.enabled:
            remaining = self.mem.journal_length
            self.tracer.instant(
                "journal-trim",
                "memory",
                entries=length - remaining,
                floor=floor,
                remaining=remaining,
            )
        self._journal_trims.inc()
