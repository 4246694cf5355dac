"""Unit tests for the runtime oracle's checking logic (ternary compare,
non-interference, frame rule, separation)."""

import pytest

from repro.ghost.checker import GhostChecker, SpecViolation, Violation
from repro.machine import Machine
from repro.obs import Observability
from repro.pkvm.defs import HypercallId


@pytest.fixture
def machine():
    return Machine()


class TestAttachment:
    def test_machine_boots_with_checker(self, machine):
        assert machine.checker is not None
        assert machine.pkvm.ghost is machine.checker

    def test_baseline_committed(self, machine):
        assert set(machine.checker.committed) >= {"host", "pkvm", "vms"}

    def test_stats_initial(self, machine):
        assert machine.obs.metrics.value("oracle_checks_run") == 0
        assert machine.checker.violations == []


class TestCheckAccounting:
    def test_every_trap_checked(self, machine):
        page = machine.host.alloc_page()
        machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        machine.host.hvc(HypercallId.HOST_UNSHARE_HYP, page >> 12)
        assert machine.obs.metrics.value("oracle_checks_run") == 2
        assert machine.obs.metrics.value("oracle_checks_passed") == 2

    def test_error_paths_also_checked(self, machine):
        machine.host.hvc(HypercallId.HOST_UNSHARE_HYP, 0x9999)
        assert machine.obs.metrics.value("oracle_checks_passed") == 1

    def test_mem_abort_checked(self, machine):
        machine.host.read64(machine.host.alloc_page())
        assert machine.obs.metrics.value("oracle_checks_passed") == 1

    def test_stats_project_the_metrics_registry(self, machine):
        """The checker and its cache count into the machine's metrics
        registry, their counters' only home."""
        page = machine.host.alloc_page()
        machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        machine.host.hvc(HypercallId.HOST_UNSHARE_HYP, page >> 12)
        reg = machine.obs.metrics
        assert machine.checker.cache.metrics is reg
        assert reg.value("oracle_checks_run") == 2
        assert reg.value("oracle_checks_passed") == 2
        assert reg.value("oracle_cache_hits") + reg.value("oracle_cache_misses") > 0
        latency = reg.get("oracle_check_latency_us")
        assert latency is not None and latency.count == 2


class TestNonInterference:
    def test_out_of_band_pagetable_write_detected(self, machine):
        """Mutating the host stage 2 without taking its lock is exactly
        what the non-interference check exists to catch."""
        from repro.arch.defs import Perms
        from repro.pkvm.pgtable import MapAttrs, map_range
        from repro.arch.pte import PageState

        page = machine.host.alloc_page()
        # Out-of-band state change: as if a corrupted writer flipped a
        # page to shared behind the lock's back.
        map_range(
            machine.pkvm.mp.host_mmu,
            page,
            4096,
            page,
            MapAttrs(Perms.rwx(), page_state=PageState.SHARED_OWNED),
        )
        with pytest.raises(SpecViolation) as exc:
            machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        assert exc.value.kind == "non-interference"

    def test_collecting_mode_records_instead_of_raising(self, machine):
        machine.checker.fail_fast = False
        from repro.arch.defs import Perms
        from repro.pkvm.pgtable import MapAttrs, map_range
        from repro.arch.pte import PageState

        page = machine.host.alloc_page()
        map_range(
            machine.pkvm.mp.host_mmu,
            page,
            4096,
            page,
            MapAttrs(Perms.rwx(), page_state=PageState.SHARED_OWNED),
        )
        machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        kinds = {v.kind for v in machine.checker.violations}
        assert "non-interference" in kinds


class TestSeparation:
    def test_footprint_overlap_detected(self, machine):
        machine.checker.fail_fast = False
        # Corrupt the concrete state: graft a host stage 2 table page into
        # pKVM's own stage 1 tree, so the two footprints really overlap.
        from repro.arch.pte import make_table_descriptor

        victim = sorted(
            machine.pkvm.mp.host_mmu.table_pages
            - {machine.pkvm.mp.host_mmu.root}
        )[0]
        root = machine.pkvm.mp.pkvm_pgd.root
        # slot 5 of the hyp root is unused in the default layout
        assert machine.mem.read64(root + 8 * 5) == 0
        machine.mem.write64(root + 8 * 5, make_table_descriptor(victim))
        page = machine.host.alloc_page()
        machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        kinds = {v.kind for v in machine.checker.violations}
        assert "separation" in kinds


class TestViolationReporting:
    def test_violation_str(self):
        v = Violation(kind="post-mismatch", detail="x", component="host")
        assert "post-mismatch" in str(v) and "host" in str(v)

    def test_spec_violation_exception(self):
        exc = SpecViolation("k", "d")
        assert exc.kind == "k" and exc.detail == "d"

    def test_skip_accounting_for_enomem(self):
        """Drain the hyp pool so a share fails with -ENOMEM: the loose
        spec path records a skip, not a violation."""
        from repro.pkvm.allocator import OutOfMemory
        from repro.pkvm.defs import ENOMEM

        machine = Machine()
        pool = machine.pkvm.pool
        try:
            while True:
                pool.alloc_page()
        except OutOfMemory:
            pass
        # A share in an untouched 2MB region needs fresh table pages.
        page = machine.pkvm.carveout.base - 64 * 1024 * 1024
        ret = machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        assert ret == -ENOMEM
        reg = machine.obs.metrics
        skipped = reg.value("oracle_checks_skipped")
        assert skipped >= 1
        by_reason = [m for m in reg if m.name == "oracle_checks_skipped_by_reason"]
        assert sum(m.value for m in by_reason) == skipped
        assert machine.checker.violations == []


class TestEffectivePre:
    def test_spec_uses_committed_for_unlocked_components(self, machine):
        """map_guest never takes the vm_table lock, yet its spec needs VM
        metadata — supplied from the committed copy."""
        from repro.testing.proxy import HypProxy

        proxy = HypProxy(machine)
        proxy.create_running_guest(backed_gfns=[0x40])
        assert machine.checker.violations == []

    def test_records_cleared_after_handler(self, machine):
        page = machine.host.alloc_page()
        machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        assert machine.checker._records == {}


class TestTracing:
    def test_each_machine_traces_into_its_own_bundle(self):
        """The oracle's table walks trace on their machine's bundle: a
        share and unshare on a default machine add nothing to another
        machine's traced bundle, while a share on that machine records
        its trap and its walks there."""
        obs = Observability(tracing=True)
        traced = Machine(obs=obs)
        default = Machine()
        before = len(obs.tracer.spans)
        page = default.host.alloc_page()
        default.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        default.host.hvc(HypercallId.HOST_UNSHARE_HYP, page >> 12)
        assert len(obs.tracer.spans) == before
        page = traced.host.alloc_page()
        traced.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        names = {span.name for span in obs.tracer.spans[before:]}
        assert {"trap:host_share_hyp", "interpret_pgtable"} <= names
