"""Integration tests for multi-page (range) share/unshare, oracle on."""

import pytest

from repro.arch.defs import PAGE_SIZE
from repro.machine import Machine
from repro.pkvm.defs import EBUSY, EINVAL, EPERM
from repro.testing.proxy import HypProxy


@pytest.fixture
def proxy():
    return HypProxy(Machine.boot())


class TestRangeShare:
    def test_share_range_checked(self, proxy):
        base = proxy.alloc_pages(8)
        assert proxy.share_range(base, 8) == 0
        shared = proxy.machine.checker.committed["host"].shared
        assert shared.contains_range(base, 8)
        assert len(shared) == 1  # one coalesced maplet

    def test_unshare_range_checked(self, proxy):
        base = proxy.alloc_pages(8)
        proxy.share_range(base, 8)
        assert proxy.unshare_range(base, 8) == 0
        assert not proxy.machine.checker.committed["host"].shared

    def test_partial_unshare_splits_ghost_maplet(self, proxy):
        base = proxy.alloc_pages(8)
        proxy.share_range(base, 8)
        assert proxy.unshare_range(base + 2 * PAGE_SIZE, 2) == 0
        shared = proxy.machine.checker.committed["host"].shared
        assert shared.nr_pages() == 6
        assert len(shared) == 2  # split around the hole

    def test_share_range_is_all_or_nothing(self, proxy):
        base = proxy.alloc_pages(8)
        proxy.share_page(base + 4 * PAGE_SIZE)  # poison the middle
        ret = proxy.share_range(base, 8)
        assert ret == -EPERM
        shared = proxy.machine.checker.committed["host"].shared
        assert shared.nr_pages() == 1  # only the pre-existing share

    def test_share_range_overlapping_mmio_rejected(self, proxy):
        # a range straddling the end of DRAM hits non-memory
        dram = proxy.machine.mem.dram_regions()[-1]
        ret = proxy.share_range(dram.end - 2 * PAGE_SIZE, 8)
        # carveout pages are annotated -> -EPERM, or past-end -> -EINVAL;
        # either way it must fail atomically with no state change
        assert ret in (-EPERM, -EINVAL)

    def test_unshare_range_partially_shared_rejected(self, proxy):
        base = proxy.alloc_pages(4)
        proxy.share_range(base, 2)
        assert proxy.unshare_range(base, 4) == -EPERM
        shared = proxy.machine.checker.committed["host"].shared
        assert shared.nr_pages() == 2  # untouched

    def test_zero_nr_defaults_to_one(self, proxy):
        page = proxy.alloc_page()
        assert proxy.share_range(page, 0) == 0
        shared = proxy.machine.checker.committed["host"].shared
        assert shared.nr_pages() == 1

    def test_all_checked_with_no_violations(self, proxy):
        base = proxy.alloc_pages(16)
        proxy.share_range(base, 16)
        proxy.unshare_range(base + 8 * PAGE_SIZE, 8)
        proxy.unshare_range(base, 8)
        proxy.share_range(base, 4)
        metrics = proxy.machine.obs.metrics
        assert proxy.machine.checker.violations == []
        assert metrics.value("oracle_checks_passed") == metrics.value(
            "oracle_checks_run"
        )
