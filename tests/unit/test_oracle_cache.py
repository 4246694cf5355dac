"""Unit tests for the incremental abstraction cache.

The cache's contract: ``record()`` always returns the same abstraction a
from-scratch ``interpret_pgtable`` would, while re-reading only what the
write journal proves could have changed. Every test here compares the
cached/incremental result against a fresh full traversal — the same
oracle-vs-oracle discipline paranoid mode applies at runtime.
"""

import pytest

from repro.arch.defs import PAGE_SIZE, Perms, Stage
from repro.arch.memory import PhysicalMemory, default_memory_map
from repro.ghost.abstraction import AbstractionError, interpret_pgtable
from repro.ghost.cache import AbstractionCache, ParanoidMismatchError
from repro.obs import Observability
from repro.pkvm.allocator import HypPool
from repro.pkvm.pgtable import (
    KvmPgtable,
    MapAttrs,
    PoolMmOps,
    map_range,
    set_owner_range,
    unmap_range,
)

RWX = MapAttrs(Perms.rwx())
DRAM = 0x4000_0000


@pytest.fixture
def pgt():
    mem = PhysicalMemory(default_memory_map())
    pool = HypPool(mem, 0x4800_0000, 512)
    return KvmPgtable(mem, Stage.STAGE2, PoolMmOps(pool), "t")


def fresh(pgt):
    return interpret_pgtable(pgt.mem, pgt.root, Stage.STAGE2)


class TestHitAndInvalidation:
    def test_second_record_is_a_pointer_identical_hit(self, pgt):
        cache = AbstractionCache(pgt.mem)
        map_range(pgt, 0x1000, PAGE_SIZE, DRAM, RWX)
        first = cache.record("t", pgt.root, Stage.STAGE2)
        second = cache.record("t", pgt.root, Stage.STAGE2)
        assert second is first
        assert cache.metrics.value("oracle_cache_hits") == 1
        assert cache.metrics.value("oracle_cache_misses") == 1

    def test_write_inside_footprint_invalidates(self, pgt):
        cache = AbstractionCache(pgt.mem)
        map_range(pgt, 0x1000, PAGE_SIZE, DRAM, RWX)
        cache.record("t", pgt.root, Stage.STAGE2)
        map_range(pgt, 0x2000, PAGE_SIZE, DRAM + PAGE_SIZE, RWX)
        value = cache.record("t", pgt.root, Stage.STAGE2)
        assert cache.metrics.value("oracle_cache_invalidations") == 1
        assert value == fresh(pgt)
        assert value.mapping.lookup(0x2000) is not None

    def test_write_outside_footprint_still_hits(self, pgt):
        cache = AbstractionCache(pgt.mem)
        map_range(pgt, 0x1000, PAGE_SIZE, DRAM, RWX)
        first = cache.record("t", pgt.root, Stage.STAGE2)
        pgt.mem.write64(0x4700_0000, 0xDEAD)  # nowhere near the tables
        second = cache.record("t", pgt.root, Stage.STAGE2)
        assert second is first
        assert cache.metrics.value("oracle_cache_hits") == 1
        assert cache.metrics.value("oracle_cache_invalidations") == 0

    def test_root_change_recomputes(self, pgt):
        cache = AbstractionCache(pgt.mem)
        cache.record("t", pgt.root, Stage.STAGE2)
        other = KvmPgtable(
            pgt.mem, Stage.STAGE2, pgt.mm_ops, "other"
        )
        map_range(other, 0x1000, PAGE_SIZE, DRAM, RWX)
        value = cache.record("t", other.root, Stage.STAGE2)
        assert cache.metrics.value("oracle_cache_root_changes") == 1
        assert value == interpret_pgtable(pgt.mem, other.root, Stage.STAGE2)

    def test_cached_value_is_frozen(self, pgt):
        from repro.ghost.maplets import MapletTarget, MappingError

        cache = AbstractionCache(pgt.mem)
        value = cache.record("t", pgt.root, Stage.STAGE2)
        with pytest.raises(MappingError, match="frozen"):
            value.mapping.insert(0, 1, MapletTarget.annotated(1))

    def test_disabled_cache_always_recomputes(self, pgt):
        cache = AbstractionCache(pgt.mem, enabled=False)
        first = cache.record("t", pgt.root, Stage.STAGE2)
        second = cache.record("t", pgt.root, Stage.STAGE2)
        assert first is not second
        assert first == second
        assert cache.metrics.value("oracle_cache_hits") == 0


class TestIncrementalEquivalence:
    def test_mutation_sequence_tracks_fresh_interpretation(self, pgt):
        """A workload of maps/unmaps/annotations with interleaved record()
        calls: the incremental result must equal a full traversal at
        every step (word-diff, subtree skip, and splice all exercised)."""
        cache = AbstractionCache(pgt.mem)
        steps = [
            lambda: map_range(pgt, 0x0, 8 * PAGE_SIZE, DRAM, RWX),
            lambda: map_range(pgt, 0x20_0000, PAGE_SIZE, DRAM + 0x1000, RWX),
            lambda: set_owner_range(pgt, 0x40_0000, 2 * PAGE_SIZE, 1),
            lambda: unmap_range(pgt, 0x2000, 2 * PAGE_SIZE),
            lambda: pgt.mem.write64(0x4700_0000, 1),  # off-tree write
            lambda: map_range(
                pgt, 0x4000_0000, 4 * PAGE_SIZE, DRAM + 0x10000, RWX
            ),
            lambda: unmap_range(pgt, 0x20_0000, PAGE_SIZE),
            lambda: set_owner_range(pgt, 0x0, PAGE_SIZE, 2),
        ]
        for step in steps:
            step()
            value = cache.record("t", pgt.root, Stage.STAGE2)
            assert value == fresh(pgt)
            assert value.footprint == fresh(pgt).footprint

    def test_records_between_every_step_and_at_the_end(self, pgt):
        """Same workload, but only one record at the end: a large dirty
        set against an old snapshot must also converge."""
        cache = AbstractionCache(pgt.mem)
        cache.record("t", pgt.root, Stage.STAGE2)
        map_range(pgt, 0x0, 64 * PAGE_SIZE, DRAM, RWX)
        set_owner_range(pgt, 0x80_0000, 8 * PAGE_SIZE, 1)
        unmap_range(pgt, 0x1000, 4 * PAGE_SIZE)
        value = cache.record("t", pgt.root, Stage.STAGE2)
        assert value == fresh(pgt)


class TestChanges:
    """``changes(key, old, new)``: the input spans the walks between two
    recorded values re-decoded, or None when the cache cannot tell."""

    def test_spans_between_two_values_cover_the_edits(self, pgt):
        cache = AbstractionCache(pgt.mem)
        map_range(pgt, 0x1000, PAGE_SIZE, DRAM, RWX)
        v0 = cache.record("t", pgt.root, Stage.STAGE2)
        map_range(pgt, 0x5000, PAGE_SIZE, DRAM + PAGE_SIZE, RWX)
        v1 = cache.record("t", pgt.root, Stage.STAGE2)
        unmap_range(pgt, 0x1000, PAGE_SIZE)
        v2 = cache.record("t", pgt.root, Stage.STAGE2)
        assert cache.changes("t", v1, v2) == [(0x1000, 0x2000)]
        assert sorted(cache.changes("t", v0, v2)) == [
            (0x1000, 0x2000),
            (0x5000, 0x6000),
        ]
        assert cache.changes("t", v0, v1) == [(0x5000, 0x6000)]

    def test_none_when_it_cannot_tell(self, pgt):
        cache = AbstractionCache(pgt.mem)
        v0 = cache.record("t", pgt.root, Stage.STAGE2)
        map_range(pgt, 0x1000, PAGE_SIZE, DRAM, RWX)
        v1 = cache.record("t", pgt.root, Stage.STAGE2)
        assert cache.changes("t", fresh(pgt), v1) is None  # never recorded
        assert cache.changes("other", v0, v1) is None  # no such entry
        cache.drop("t")
        assert cache.changes("t", v0, v1) is None
        v2 = cache.record("t", pgt.root, Stage.STAGE2)  # walked afresh
        assert cache.changes("t", v1, v2) is None

    def test_history_is_bounded(self, pgt):
        cache = AbstractionCache(pgt.mem)
        first = cache.record("t", pgt.root, Stage.STAGE2)
        for n in range(cache.HISTORY):
            map_range(pgt, (n + 1) * PAGE_SIZE, PAGE_SIZE, DRAM + n * PAGE_SIZE, RWX)
            last = cache.record("t", pgt.root, Stage.STAGE2)
        assert cache.changes("t", first, last) is None


class TestErrorPaths:
    def test_abstraction_error_does_not_poison_the_cache(self, pgt):
        from repro.arch.pte import PTE_TYPE, PTE_VALID, SW_PAGE_STATE_SHIFT

        cache = AbstractionCache(pgt.mem)
        map_range(pgt, 0x1000, PAGE_SIZE, DRAM, RWX)
        cache.record("t", pgt.root, Stage.STAGE2)
        # Find the L3 table and corrupt the live descriptor.
        pa = pgt.root
        for _ in range(3):
            pa = pgt.mem.read64(pa) & ((1 << 48) - 1) & ~0xFFF
        good = pgt.mem.read64(pa + 8)
        bad = PTE_VALID | PTE_TYPE | DRAM | (3 << SW_PAGE_STATE_SHIFT)
        pgt.mem.write64(pa + 8, bad)
        with pytest.raises(AbstractionError, match="malformed descriptor"):
            cache.record("t", pgt.root, Stage.STAGE2)
        # Repair and re-record: the failed walk left nothing stale.
        pgt.mem.write64(pa + 8, good)
        value = cache.record("t", pgt.root, Stage.STAGE2)
        assert value == fresh(pgt)
        assert value.mapping.lookup(0x1000) is not None

    def test_paranoid_catches_untracked_writes(self, pgt):
        """A store that bypasses write64 (no journal entry) is exactly
        the bug class paranoid mode exists to catch."""
        cache = AbstractionCache(pgt.mem, paranoid=True)
        map_range(pgt, 0x1000, PAGE_SIZE, DRAM, RWX)
        cache.record("t", pgt.root, Stage.STAGE2)
        pa = pgt.root
        for _ in range(3):
            pa = pgt.mem.read64(pa) & ((1 << 48) - 1) & ~0xFFF
        # Mutate the L3 descriptor behind the journal's back.
        pgt.mem._pages[pa >> 12][1] = 0
        with pytest.raises(ParanoidMismatchError):
            cache.record("t", pgt.root, Stage.STAGE2)

    def test_paranoid_passes_on_honest_traffic(self, pgt):
        cache = AbstractionCache(pgt.mem, paranoid=True)
        map_range(pgt, 0x1000, PAGE_SIZE, DRAM, RWX)
        cache.record("t", pgt.root, Stage.STAGE2)
        map_range(pgt, 0x2000, PAGE_SIZE, DRAM + PAGE_SIZE, RWX)
        cache.record("t", pgt.root, Stage.STAGE2)
        cache.record("t", pgt.root, Stage.STAGE2)
        assert cache.metrics.value("oracle_cache_paranoid_recomputes") == 3


class TestObservability:
    def test_stats_counters(self, pgt):
        cache = AbstractionCache(pgt.mem)
        cache.record("t", pgt.root, Stage.STAGE2)
        cache.record("t", pgt.root, Stage.STAGE2)
        assert cache.metrics.value("oracle_cache_hits") == 1
        assert cache.metrics.value("oracle_cache_misses") == 1
        assert cache.metrics.value("oracle_cache_entries") == 1

    def test_footprint_of_and_drop(self, pgt):
        cache = AbstractionCache(pgt.mem)
        map_range(pgt, 0x1000, PAGE_SIZE, DRAM, RWX)
        cache.record("t", pgt.root, Stage.STAGE2)
        assert cache.footprint_of("t") == fresh(pgt).footprint
        cache.drop("t")
        assert cache.footprint_of("t") is None

    def test_journal_trim_keeps_answers_exact(self, pgt):
        cache = AbstractionCache(pgt.mem)
        cache.TRIM_THRESHOLD = 8  # force trims during the workload
        for i in range(32):
            map_range(pgt, i * 0x1000, PAGE_SIZE, DRAM + i * PAGE_SIZE, RWX)
            # distinct off-tree pages defeat the journal's tail
            # coalescing, so the journal actually grows past the cap
            pgt.mem.write64(0x4700_0000 + i * PAGE_SIZE, 1)
            value = cache.record("t", pgt.root, Stage.STAGE2)
            assert value == fresh(pgt)
        assert cache.metrics.value("oracle_cache_journal_trims") > 0

    def test_traced_trim_emits_one_journal_trim_instant(self, pgt):
        obs = Observability(tracing=True)
        cache = AbstractionCache(pgt.mem, obs=obs)
        cache.TRIM_THRESHOLD = 8
        for i in range(9):
            pgt.mem.write64(0x4700_0000 + i * PAGE_SIZE, 1)
        length = pgt.mem.journal_length
        cache.record("t", pgt.root, Stage.STAGE2)  # a miss: trims
        cache.record("t", pgt.root, Stage.STAGE2)  # a hit: does not
        trims = [s for s in obs.tracer.spans if s.name == "journal-trim"]
        assert len(trims) == 1
        assert trims[0].dur_us is None
        remaining = pgt.mem.journal_length
        assert trims[0].args == {
            "entries": length - remaining,
            "floor": pgt.mem.epoch,
            "remaining": remaining,
        }
        assert cache.metrics.value("oracle_cache_journal_trims") == 1

    def test_traced_walks_carry_root_stage_and_mode(self, pgt):
        obs = Observability(tracing=True)
        cache = AbstractionCache(pgt.mem, obs=obs, paranoid=True)
        cache.record("t", pgt.root, Stage.STAGE2)
        walks = [s.args for s in obs.tracer.spans if s.name == "interpret_pgtable"]
        # The incremental walk, then the paranoid reference walk.
        assert walks == [
            {"root": hex(pgt.root), "stage": "STAGE2", "incremental": inc}
            for inc in (True, False)
        ]

    def test_cache_without_a_bundle_traces_nothing(self, pgt):
        cache = AbstractionCache(pgt.mem)
        cache.TRIM_THRESHOLD = 8
        for i in range(9):
            pgt.mem.write64(0x4700_0000 + i * PAGE_SIZE, 1)
        cache.record("t", pgt.root, Stage.STAGE2)
        assert not cache.tracer.enabled
        assert cache.tracer.spans == []
        assert cache.metrics.value("oracle_cache_journal_trims") == 1
