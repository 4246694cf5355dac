"""Unit tests for the campaign engine's parts: seed derivation, oracle
coverage classes, budget scheduling, finding signatures/dedup, and
checkpoint files."""

import pytest

from repro.ghost.checker import FrameObservation
from repro.pkvm.defs import EPERM
from repro.testing.campaign.checkpoint import (
    VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.testing.campaign.engine import CampaignConfig
from repro.testing.campaign.findings import (
    DedupIndex,
    RawFinding,
    diff_signature,
    faulting_call_name,
)
from repro.testing.campaign.scheduler import BudgetScheduler
from repro.testing.campaign.worker import (
    BatchTask,
    batch_seed,
    oracle_class,
    run_batch,
)
from repro.testing.trace import Trace


class TestBatchSeeds:
    def test_distinct_across_lanes_and_batches(self):
        seeds = {
            batch_seed(0, worker, batch)
            for worker in range(8)
            for batch in range(64)
        }
        assert len(seeds) == 8 * 64

    def test_campaign_seed_shifts_every_batch(self):
        a = {batch_seed(1, w, b) for w in range(4) for b in range(16)}
        b = {batch_seed(2, w, b) for w in range(4) for b in range(16)}
        assert not (a & b)


def _observation(spec_name: str, changed, ret: int = 0) -> FrameObservation:
    return FrameObservation(
        spec_name=spec_name,
        changed=frozenset(changed),
        touched=frozenset(changed),
        multiphase=frozenset(),
        ret=ret,
    )


class TestOracleClass:
    def test_handles_share_one_class(self):
        first = _observation("init_vm", {"vms", "vm_pgt:4096"}, ret=0x1000)
        second = _observation("init_vm", {"vms", "vm_pgt:4097"}, ret=0x1001)
        assert oracle_class(first) == oracle_class(second)

    def test_component_keys_collapse_to_kinds(self):
        seen = _observation("share", {"vm_pgt:0x1003", "local:2", "host"})
        assert oracle_class(seen) == "share:0:host,local,vm_pgt"

    def test_return_code_separates_classes(self):
        ok = _observation("share", {"local:0"}, ret=0)
        denied = _observation("share", {"local:0"}, ret=-EPERM)
        assert oracle_class(ok) != oracle_class(denied)

    def test_spec_name_separates_classes(self):
        share = _observation("share", {"host", "local:0"})
        unshare = _observation("unshare", {"host", "local:0"})
        assert oracle_class(share) != oracle_class(unshare)

    def test_random_batch_collects_oracle_classes(self):
        config = CampaignConfig()
        result = run_batch(
            config.machine_config(),
            BatchTask(worker_id=0, batch_index=0, seed=1, steps=100),
            **config.batch_options(),
        )
        assert set(result.coverage.points) == {"oracle"}
        assert result.coverage.count() > 10


class TestBudgetScheduler:
    def test_novelty_doubles_up_to_cap(self):
        sched = BudgetScheduler(base_steps=100)
        for _ in range(5):
            sched.feedback(0, new_lines=7)
        assert sched.budget(0) == 400  # capped at base * MAX_FACTOR

    def test_no_novelty_decays_to_base(self):
        sched = BudgetScheduler(base_steps=100)
        sched.feedback(0, new_lines=3)
        sched.feedback(0, new_lines=9)
        assert sched.budget(0) == 400
        sched.feedback(0, new_lines=0)
        sched.feedback(0, new_lines=0)
        sched.feedback(0, new_lines=0)
        assert sched.budget(0) == 100

    def test_lanes_are_independent(self):
        sched = BudgetScheduler(base_steps=100)
        sched.feedback(0, new_lines=5)
        assert sched.budget(0) == 200
        assert sched.budget(1) == 100

    def test_jsonable_round_trip(self):
        sched = BudgetScheduler(base_steps=100)
        sched.feedback(0, new_lines=5)
        sched.feedback(3, new_lines=0)
        back = BudgetScheduler.from_jsonable(sched.to_jsonable())
        assert back == sched


class TestSignatures:
    def test_diff_signature_strips_addresses(self):
        detail_a = (
            "host: recorded post differs from computed post (impl ret 0):\n"
            "host.share +ipa :101b18000+1p phys:101b18000 S0 RWX M"
        )
        detail_b = (
            "host: recorded post differs from computed post (impl ret 0):\n"
            "host.share +ipa :2345000+1p phys:2345000 S0 RWX M"
        )
        assert diff_signature(detail_a) == diff_signature(detail_b)

    def test_diff_signature_normalises_handles_and_locks(self):
        a = diff_signature("vm_pgt:3: changed\nvms[0x7] -GhostVm(...)")
        b = diff_signature("vm_pgt:5: changed\nvms[0x2] -GhostVm(...)")
        assert a == b

    def test_diff_signature_distinguishes_shapes(self):
        share = diff_signature("host: differs:\nhost.share +ipa :1000+1p")
        annot = diff_signature("host: differs:\nhost.annot +ipa :1000+1p")
        assert share != annot

    def test_non_interference_detail_keys_on_lock(self):
        sig = diff_signature(
            "state protected by vm_pgt:2 changed outside its lock:\n"
            "vm_pgt:2 -ipa :40000+1p phys:4104000 S0 RWX M"
        )
        assert "vm_pgt" in sig

    def test_faulting_call_name(self):
        from repro.pkvm.defs import HypercallId

        trace = Trace()
        trace.record_hvc(0, HypercallId.HOST_SHARE_HYP, 0x40000)
        assert faulting_call_name(trace) == "HOST_SHARE_HYP"
        trace.record_write(0x5000, 1)
        assert faulting_call_name(trace) == "host-touch"
        trace.record_hvc(0, 0xDEAD_BEEF)
        assert faulting_call_name(trace) == "GARBAGE_HVC"
        assert faulting_call_name(Trace()) == "boot"


class TestDedup:
    def _finding(self, signature) -> RawFinding:
        return RawFinding(
            klass="SpecViolation",
            kind="post-mismatch",
            detail="d",
            call_name="HOST_SHARE_HYP",
            signature=signature,
            trace_text=Trace().dumps(),
        )

    def test_same_signature_collapses(self):
        index = DedupIndex()
        assert index.add(self._finding(("a", "b")))
        assert not index.add(self._finding(("a", "b")))
        assert not index.add(self._finding(("a", "b")))
        assert len(index) == 1
        assert index.findings()[0].duplicates == 2

    def test_different_signatures_kept(self):
        index = DedupIndex()
        index.add(self._finding(("a",)))
        index.add(self._finding(("b",)))
        assert len(index) == 2

    def test_finding_jsonable_round_trip(self):
        finding = self._finding(("a", "b"))
        finding.duplicates = 3
        back = RawFinding.from_jsonable(finding.to_jsonable())
        assert back == finding


class TestCheckpointFile:
    def test_round_trip_and_atomicity(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        state = {"version": VERSION, "complete": False, "batches": [1, 2]}
        save_checkpoint(path, state)
        assert load_checkpoint(path) == state
        assert not (tmp_path / "campaign.json.tmp").exists()

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_checkpoint(path, {"version": 999})
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_version_one_refused(self, tmp_path):
        # Version 1 kept line and function sets under "coverage"; such a
        # file is refused, not half-read.
        path = str(tmp_path / "campaign.json")
        save_checkpoint(path, {"version": 1, "coverage": {"lines": {}}})
        with pytest.raises(ValueError, match="version 1"):
            load_checkpoint(path)

    def test_version_two_refused(self, tmp_path):
        # Version 2 configs carried nr_cpus, dram_size, pct_cpus and
        # oracle_cache, which CampaignConfig no longer has.
        path = str(tmp_path / "campaign.json")
        config = {**CampaignConfig().to_jsonable(), "nr_cpus": 4, "pct_cpus": 0}
        save_checkpoint(path, {"version": 2, "config": config})
        with pytest.raises(ValueError, match="version 2"):
            load_checkpoint(path)
