"""Integration tests of the campaign engine: determinism, checkpoint
round-trips, and the CLI front end.

All campaigns here run inline (sequential, deterministic batch order) so
reports can be compared for equality; the multiprocess pool path is
exercised separately by the benchmark and the CI smoke job.
"""

import json

from repro.arch.defs import phys_to_pfn
from repro.pkvm.defs import HypercallId
from repro.testing.campaign.cli import main
from repro.testing.campaign.concurrency import DRAM_BASE
from repro.testing.campaign.engine import (
    CampaignConfig,
    CampaignEngine,
    run_campaign,
)
from repro.testing.trace import Trace


def _config(**overrides) -> CampaignConfig:
    base = dict(
        workers=2,
        budget=400,
        batch_steps=80,
        seed=5,
        inline=True,
        shrink=False,
        coverage="oracle",
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestDeterminism:
    def test_same_config_identical_report(self):
        a = run_campaign(_config())
        b = run_campaign(_config())
        assert a.comparable() == b.comparable()

    def test_different_seed_different_stream(self):
        # Compared per batch: campaign-wide totals can collide across
        # seeds by coincidence, the batch-by-batch stream cannot.
        a = CampaignEngine(_config(seed=5, coverage="off"))
        b = CampaignEngine(_config(seed=6, coverage="off"))
        a.run()
        b.run()
        assert [r["hypercalls"] for r in a.batch_records] != [
            r["hypercalls"] for r in b.batch_records
        ]

    def test_budget_respected(self):
        report = run_campaign(_config(coverage="off"))
        assert report.total_steps == 400
        assert report.batches == 5  # 80-step batches, no novelty growth


class TestCheckpointResume:
    def test_interrupted_resume_matches_uninterrupted(self, tmp_path):
        straight = run_campaign(_config(), out=str(tmp_path / "full.json"))

        partial_path = str(tmp_path / "partial.json")
        CampaignEngine(_config(max_batches=2), out=partial_path).run()
        state = json.load(open(partial_path))
        assert len(state["batches"]) == 2

        # lift the interrupt before resuming, as a real resume would
        state["config"]["max_batches"] = None
        json.dump(state, open(partial_path, "w"))
        resumed = CampaignEngine.from_checkpoint(partial_path).run()

        assert resumed.resumed
        assert resumed.comparable() == straight.comparable()

    def test_resumed_seed_corpus_is_not_replayed(self, tmp_path):
        # One corpus trace: share then unshare a host page, which the
        # injected unshare leak turns into a finding.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        trace = Trace()
        page = phys_to_pfn(DRAM_BASE + 0x20_0000)
        trace.record_hvc(0, HypercallId.HOST_SHARE_HYP, page)
        trace.record_hvc(0, HypercallId.HOST_UNSHARE_HYP, page)
        (corpus / "unshare.trace").write_text(trace.dumps())
        config = dict(
            budget=400,
            batch_steps=100,
            seed=3,
            bug_names=("synth_unshare_leak",),
            seed_corpus=str(corpus),
        )
        straight = run_campaign(_config(**config))

        path = str(tmp_path / "partial.json")
        CampaignEngine(_config(max_batches=1, **config), out=path).run()
        state = json.load(open(path))
        state["config"]["max_batches"] = None
        json.dump(state, open(path, "w"))
        resumed = CampaignEngine.from_checkpoint(path).run()

        assert straight.corpus_traces == 1
        assert resumed.comparable() == straight.comparable()

    def test_checkpoint_written_after_every_batch(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        CampaignEngine(_config(max_batches=1, coverage="off"), out=path).run()
        state = json.load(open(path))
        assert state["complete"]  # final write marks completion
        assert len(state["batches"]) == 1
        assert state["batches"][0]["steps_budgeted"] == 80

    def test_resume_does_not_repeat_batches(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        CampaignEngine(_config(max_batches=3, coverage="off"), out=path).run()
        state = json.load(open(path))
        state["config"]["max_batches"] = None
        json.dump(state, open(path, "w"))
        resumed = CampaignEngine.from_checkpoint(path).run()
        seeds = [b["seed"] for b in json.load(open(path))["batches"]]
        assert len(seeds) == len(set(seeds)) == resumed.batches


class TestNoBugCampaign:
    def test_fixed_hypervisor_campaign_reports_zero_findings(self):
        report = run_campaign(
            _config(budget=600, batch_steps=200, coverage="off")
        )
        assert report.findings == []
        assert report.total_hypercalls > 300


class TestCli:
    def test_cli_runs_and_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "campaign.json")
        code = main(
            [
                "--inline",
                "--workers",
                "2",
                "--budget",
                "200",
                "--batch-steps",
                "100",
                "--coverage",
                "off",
                "--out",
                out,
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "distinct findings: 0" in printed
        state = json.load(open(out))
        assert state["complete"]
        assert state["summary"]["total_steps"] == 200

    def test_every_field_is_the_flag_of_its_name(self):
        """Each campaign option is declared once: every CampaignConfig
        field (bug_names is ``--bugs``) is the dest of a flag, no flag
        given means CampaignConfig(), and a given flag sets its field."""
        from dataclasses import fields

        from repro.testing.campaign import cli

        parser = cli.build_parser()
        dests = {action.dest for action in parser._actions}
        missing = {f.name for f in fields(CampaignConfig)} - dests
        assert missing <= {"bug_names"}, f"no flag for {sorted(missing)}"
        assert cli.config_from_args(parser.parse_args([])) == CampaignConfig()
        args = parser.parse_args(
            ["--batch-steps", "7", "--no-shrink", "--bugs", "synth_unshare_leak"]
        )
        assert cli.config_from_args(args) == CampaignConfig(
            batch_steps=7, shrink=False, bug_names=("synth_unshare_leak",)
        )

    def test_cli_rejects_unknown_bug(self):
        import pytest

        with pytest.raises(SystemExit, match="unknown bug"):
            main(["--bugs", "no_such_bug"])

    def test_cli_resume(self, tmp_path, capsys):
        out = str(tmp_path / "campaign.json")
        main(
            [
                "--inline",
                "--budget",
                "300",
                "--batch-steps",
                "100",
                "--coverage",
                "off",
                "--max-batches",
                "1",
                "--out",
                out,
            ]
        )
        state = json.load(open(out))
        state["config"]["max_batches"] = None
        json.dump(state, open(out, "w"))
        code = main(["--resume", out])
        assert code == 0
        assert "(resumed)" in capsys.readouterr().out
        assert json.load(open(out))["summary"]["total_steps"] == 300


class TestIommuMode:
    def test_seeded_refcount_bug_is_found_and_shrunk(self):
        report = run_campaign(
            _config(
                mode="iommu",
                budget=600,
                batch_steps=200,
                shrink=True,
                bug_names=("synth_iommu_refcount_init",),
                max_findings=1,
            )
        )
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.klass == "SpecViolation"
        assert finding.call_name == "IOMMU_ALLOC_DOMAIN"
        # The minimal reproducer is the single alloc_domain call.
        assert finding.shrunk_len == 1

    def test_shrunk_finding_replays(self):
        from repro.ghost.checker import SpecViolation
        from repro.pkvm.bugs import Bugs
        from repro.testing.trace import Trace

        report = run_campaign(
            _config(
                mode="iommu",
                budget=600,
                batch_steps=200,
                shrink=True,
                bug_names=("synth_iommu_refcount_init",),
                max_findings=1,
            )
        )
        trace = Trace.loads(report.findings[0].trace_text)
        try:
            trace.replay(
                ghost=True, bugs=Bugs.single("synth_iommu_refcount_init")
            )
        except SpecViolation as exc:
            assert exc.kind == "post-mismatch"
        else:
            raise AssertionError("shrunk trace did not reproduce")

    def test_clean_tree_iommu_campaign_is_spotless(self):
        report = run_campaign(_config(mode="iommu", budget=400))
        assert report.findings == []
        assert report.total_hypercalls > 0
