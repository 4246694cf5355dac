"""Unit tests for the coalescing finite range maps (the ghost ADTs)."""

import pytest

from repro.arch.defs import PAGE_SIZE, MemType, Perms
from repro.arch.pte import PageState
from repro.ghost.maplets import Maplet, Mapping, MapletTarget, MappingError


def mapped(oa, state=PageState.OWNED, perms=Perms.rwx()):
    return MapletTarget.mapped(oa, perms, MemType.NORMAL, state)


PA = 0x4000_0000
PB = 0x8000_0000


class TestTargets:
    def test_offset_of_mapped(self):
        t = mapped(PA)
        assert t.at_offset(PAGE_SIZE).oa == PA + PAGE_SIZE

    def test_offset_of_annotation_is_identity(self):
        t = MapletTarget.annotated(5)
        assert t.at_offset(PAGE_SIZE) == t

    def test_continues(self):
        t = mapped(PA)
        assert mapped(PA + PAGE_SIZE).continues(t, PAGE_SIZE)
        assert not mapped(PA + 5 * PAGE_SIZE).continues(t, PAGE_SIZE)

    def test_describe(self):
        assert "S0" in mapped(PA).describe()
        assert "owner:5" in MapletTarget.annotated(5).describe()


class TestInsertLookup:
    def test_empty_mapping(self):
        m = Mapping.empty()
        assert len(m) == 0 and not m
        assert m.lookup(0) is None

    def test_singleton(self):
        m = Mapping.singleton(0x1000, 1, mapped(PA))
        assert m.lookup(0x1000) == mapped(PA)
        assert 0x1000 in m
        assert 0x2000 not in m

    def test_lookup_interior_of_run(self):
        m = Mapping.singleton(0x1000, 4, mapped(PA))
        assert m.lookup(0x3000) == mapped(PA + 0x2000)

    def test_lookup_masks_offset(self):
        m = Mapping.singleton(0x1000, 1, mapped(PA))
        assert m.lookup(0x1ABC) == mapped(PA)

    def test_unaligned_insert_rejected(self):
        with pytest.raises(MappingError):
            Mapping.empty().insert(0x1001, 1, mapped(PA))

    def test_empty_insert_rejected(self):
        with pytest.raises(MappingError):
            Mapping.empty().insert(0x1000, 0, mapped(PA))

    def test_overlapping_insert_rejected(self):
        m = Mapping.singleton(0x1000, 2, mapped(PA))
        with pytest.raises(MappingError):
            m.insert(0x2000, 1, mapped(PA + 0x9000))

    def test_overwrite_replaces(self):
        m = Mapping.singleton(0x1000, 1, mapped(PA))
        m.insert(0x1000, 1, mapped(PA + 0x5000), overwrite=True)
        assert m.lookup(0x1000) == mapped(PA + 0x5000)


class TestCoalescing:
    def test_adjacent_compatible_runs_merge(self):
        m = Mapping.empty()
        m.insert(0x1000, 1, mapped(PA))
        m.insert(0x2000, 1, mapped(PA + PAGE_SIZE))
        assert len(m) == 1
        assert m.nr_pages() == 2

    def test_adjacent_incompatible_targets_do_not_merge(self):
        m = Mapping.empty()
        m.insert(0x1000, 1, mapped(PA))
        m.insert(0x2000, 1, mapped(PA + 0x9000))
        assert len(m) == 2

    def test_different_states_do_not_merge(self):
        m = Mapping.empty()
        m.insert(0x1000, 1, mapped(PA))
        m.insert(0x2000, 1, mapped(PA + PAGE_SIZE, PageState.SHARED_OWNED))
        assert len(m) == 2

    def test_annotations_merge_regardless_of_position(self):
        m = Mapping.empty()
        m.insert(0x1000, 1, MapletTarget.annotated(1))
        m.insert(0x2000, 1, MapletTarget.annotated(1))
        assert len(m) == 1

    def test_gap_prevents_merge(self):
        m = Mapping.empty()
        m.insert(0x1000, 1, mapped(PA))
        m.insert(0x3000, 1, mapped(PA + 2 * PAGE_SIZE))
        assert len(m) == 2

    def test_filling_gap_merges_three(self):
        m = Mapping.empty()
        m.insert(0x1000, 1, mapped(PA))
        m.insert(0x3000, 1, mapped(PA + 2 * PAGE_SIZE))
        m.insert(0x2000, 1, mapped(PA + PAGE_SIZE))
        assert len(m) == 1
        assert m.nr_pages() == 3


class TestRemove:
    def test_remove_whole_run(self):
        m = Mapping.singleton(0x1000, 2, mapped(PA))
        m.remove(0x1000, 2)
        assert not m

    def test_remove_start_of_run(self):
        m = Mapping.singleton(0x1000, 3, mapped(PA))
        m.remove(0x1000, 1)
        assert m.lookup(0x1000) is None
        assert m.lookup(0x2000) == mapped(PA + PAGE_SIZE)

    def test_remove_middle_splits(self):
        m = Mapping.singleton(0x1000, 3, mapped(PA))
        m.remove(0x2000, 1)
        assert len(m) == 2
        assert m.lookup(0x1000) == mapped(PA)
        assert m.lookup(0x3000) == mapped(PA + 2 * PAGE_SIZE)

    def test_remove_missing_rejected(self):
        m = Mapping.singleton(0x1000, 1, mapped(PA))
        with pytest.raises(MappingError):
            m.remove(0x5000, 1)

    def test_remove_partially_missing_rejected(self):
        m = Mapping.singleton(0x1000, 1, mapped(PA))
        with pytest.raises(MappingError):
            m.remove(0x1000, 2)

    def test_remove_if_present_tolerates_gaps(self):
        m = Mapping.singleton(0x1000, 1, mapped(PA))
        m.remove_if_present(0x0, 16)
        assert not m


class TestSplice:
    def test_straddling_maplets_keep_their_outer_fragments(self):
        m = Mapping.empty()
        m.insert(0x1000, 4, mapped(PA))
        m.insert(0x6000, 4, mapped(PB))
        m.splice(0x3000, 0x8000, (Maplet(0x4000, 1, MapletTarget.annotated(3)),))
        assert [(x.va, x.nr_pages, x.target) for x in m] == [
            (0x1000, 2, mapped(PA)),
            (0x4000, 1, MapletTarget.annotated(3)),
            (0x8000, 2, mapped(PB + 2 * PAGE_SIZE)),
        ]

    def test_run_coalesces_with_straddled_fragments_on_both_seams(self):
        m = Mapping.singleton(0x1000, 6, mapped(PA))
        m.splice(0x3000, 0x5000, (Maplet(0x3000, 2, mapped(PA + 0x2000)),))
        assert list(m) == [Maplet(0x1000, 6, mapped(PA))]

    def test_run_coalesces_with_untouched_neighbours_on_both_seams(self):
        m = Mapping.empty()
        m.insert(0x1000, 1, mapped(PA))
        m.insert(0x4000, 1, mapped(PA + 0x3000))
        m.splice(0x2000, 0x4000, (Maplet(0x2000, 2, mapped(PA + 0x1000)),))
        assert list(m) == [Maplet(0x1000, 4, mapped(PA))]

    def test_one_seam_coalesces_and_the_other_does_not(self):
        m = Mapping.singleton(0x1000, 4, mapped(PA))
        run = (
            Maplet(0x2000, 1, mapped(PA + 0x1000)),
            Maplet(0x3000, 1, mapped(PB)),
        )
        m.splice(0x2000, 0x4000, run)
        assert list(m) == [
            Maplet(0x1000, 2, mapped(PA)),
            Maplet(0x3000, 1, mapped(PB)),
            Maplet(0x4000, 1, mapped(PA + 0x3000)),
        ]

    def test_empty_splice_cuts_through_one_maplet(self):
        m = Mapping.singleton(0x1000, 4, mapped(PA))
        m.splice(0x2000, 0x3000, ())
        assert list(m) == [
            Maplet(0x1000, 1, mapped(PA)),
            Maplet(0x3000, 2, mapped(PA + 0x2000)),
        ]

    def test_zero_width_empty_splice_leaves_the_maplet_whole(self):
        m = Mapping.singleton(0x1000, 4, mapped(PA))
        m.splice(0x2000, 0x2000, ())
        assert list(m) == [Maplet(0x1000, 4, mapped(PA))]

    def test_splice_replaces_many_maplets(self):
        m = Mapping.empty()
        for i in range(8):
            m.insert(0x1000 + i * 0x2000, 1, MapletTarget.annotated(i + 1))
        m.splice(0x2000, 0xE000, (Maplet(0x5000, 2, mapped(PB)),))
        assert list(m) == [
            Maplet(0x1000, 1, MapletTarget.annotated(1)),
            Maplet(0x5000, 2, mapped(PB)),
            Maplet(0xF000, 1, MapletTarget.annotated(8)),
        ]

    def test_run_outside_the_range_rejected(self):
        m = Mapping.empty()
        with pytest.raises(MappingError):
            m.splice(0x2000, 0x3000, (Maplet(0x1000, 2, mapped(PA)),))
        with pytest.raises(MappingError):
            m.splice(0x2000, 0x3000, (Maplet(0x2000, 2, mapped(PA)),))
        with pytest.raises(MappingError):
            m.splice(0x2001, 0x3000, ())

    def test_cost_is_independent_of_mapping_size(self, monkeypatch):
        """Splicing a run of k maplets calls ``continues`` at most k+2
        times however large the mapping: no scan, no re-sort."""
        m = Mapping(
            [Maplet(i * 0x2000, 1, MapletTarget.annotated(1)) for i in range(10_000)]
        )
        calls = []
        original = MapletTarget.continues

        def counting(self, earlier, offset):
            calls.append(offset)
            return original(self, earlier, offset)

        monkeypatch.setattr(MapletTarget, "continues", counting)
        m.insert(5_000 * 0x2000 + 0x1000, 1, mapped(PA))
        assert len(calls) <= 3
        calls.clear()
        m.splice(0x1000, 0x2000, (Maplet(0x1000, 1, MapletTarget.annotated(1)),))
        assert len(calls) <= 3
        assert len(m) == 10_000  # coalesced with both neighbours


class TestEqualityAndDiff:
    def test_equality_is_extensional(self):
        a = Mapping.empty()
        a.insert(0x1000, 1, mapped(PA))
        a.insert(0x2000, 1, mapped(PA + PAGE_SIZE))
        b = Mapping.singleton(0x1000, 2, mapped(PA))
        assert a == b

    def test_inequality(self):
        a = Mapping.singleton(0x1000, 1, mapped(PA))
        b = Mapping.singleton(0x1000, 1, mapped(PA, PageState.SHARED_OWNED))
        assert a != b

    def test_copy_is_independent(self):
        a = Mapping.singleton(0x1000, 1, mapped(PA))
        b = a.copy()
        b.remove(0x1000, 1)
        assert 0x1000 in a

    def test_diff_reports_added_and_removed(self):
        a = Mapping.singleton(0x1000, 2, mapped(PA))
        b = Mapping.singleton(0x2000, 2, mapped(PA + PAGE_SIZE))
        removed, added = a.diff(b)
        assert [m.va for m in removed] == [0x1000]
        assert [m.va for m in added] == [0x3000]

    def test_diff_of_equal_is_empty(self):
        a = Mapping.singleton(0x1000, 2, mapped(PA))
        removed, added = a.diff(a.copy())
        assert removed == [] and added == []

    def test_domain_overlaps(self):
        a = Mapping.singleton(0x1000, 2, mapped(PA))
        b = Mapping.singleton(0x2000, 2, mapped(0x9000_0000))
        c = Mapping.singleton(0x9000, 1, mapped(PA))
        assert a.domain_overlaps(b)
        assert not a.domain_overlaps(c)

    def test_contains_range(self):
        m = Mapping.singleton(0x1000, 3, mapped(PA))
        assert m.contains_range(0x1000, 3)
        assert not m.contains_range(0x1000, 4)


class TestCopyOnWriteAndFreeze:
    def test_copy_shares_storage_until_mutation(self):
        a = Mapping.singleton(0x1000, 4, mapped(PA))
        b = a.copy()
        assert b._maplets is a._maplets  # O(1) structural sharing
        b.insert(0x9000, 1, mapped(PA + 0x8000))
        assert b._maplets is not a._maplets
        assert 0x9000 not in a and 0x9000 in b

    def test_mutating_the_original_detaches_too(self):
        a = Mapping.singleton(0x1000, 4, mapped(PA))
        b = a.copy()
        a.remove(0x1000, 1)
        assert 0x1000 not in a
        assert 0x1000 in b

    def test_frozen_mapping_rejects_all_mutation(self):
        m = Mapping.singleton(0x1000, 2, mapped(PA)).freeze()
        assert m.frozen
        with pytest.raises(MappingError, match="frozen"):
            m.insert(0x9000, 1, mapped(PA))
        with pytest.raises(MappingError, match="frozen"):
            m.remove_if_present(0x1000, 1)
        with pytest.raises(MappingError, match="frozen"):
            m.extend_coalesce(0x3000, 1, mapped(PA + 0x2000))
        with pytest.raises(MappingError, match="frozen"):
            m.splice(0x1000, 0x2000, ())
        assert m.lookup(0x1000) == mapped(PA)  # reads unaffected

    def test_copy_of_frozen_is_mutable(self):
        frozen = Mapping.singleton(0x1000, 2, mapped(PA)).freeze()
        thawed = frozen.copy()
        assert not thawed.frozen
        thawed.remove(0x1000, 1)
        assert 0x1000 in frozen  # the frozen original is untouched

    def test_hash_is_cached_and_extensional(self):
        a = Mapping.singleton(0x1000, 2, mapped(PA))
        b = Mapping()
        b.insert(0x1000, 1, mapped(PA))
        b.insert(0x2000, 1, mapped(PA + PAGE_SIZE))  # coalesces with the first
        assert a == b
        assert hash(a) == hash(b)
        c = a.copy()
        assert hash(c) == hash(a)  # the cached hash travels with the copy
