"""The live telemetry plane, end to end.

A campaign engine serving ``/metrics``/``/campaign`` while it runs, the
cross-worker correlated Perfetto timeline, the merged fleet profile, and
the ``<checkpoint>.telemetry.jsonl`` heartbeat artifact — the integration
surface the CI ``telemetry-smoke`` job exercises against the real CLI.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

from repro.obs.profile import IDLE, NO_SPAN
from repro.obs.trace import make_trace_id
from repro.testing.campaign.engine import CampaignConfig, CampaignEngine


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read()


def _obs_threads() -> list[str]:
    return [
        t.name
        for t in threading.enumerate()
        if t.name in ("obs-telemetry", "obs-profiler")
    ]


def _run_in_thread(engine):
    box = {}

    def target():
        box["report"] = engine.run()

    thread = threading.Thread(target=target)
    thread.start()
    return thread, box


class TestLiveCampaignTelemetry:
    def test_endpoints_live_during_run_and_torn_down_after(self, tmp_path):
        config = CampaignConfig(
            workers=1,
            budget=600,
            batch_steps=100,
            inline=True,
            shrink=False,
            serve_telemetry="127.0.0.1:0",
            profile_hz=100,
        )
        engine = CampaignEngine(config, out=str(tmp_path / "campaign.json"))
        thread, box = _run_in_thread(engine)
        try:
            deadline = time.time() + 30
            while engine._server is None and time.time() < deadline:
                time.sleep(0.01)
            assert engine._server is not None, "server never came up"
            url = engine._server.url
            while not engine.batch_records and thread.is_alive():
                time.sleep(0.02)

            assert _get(url + "/healthz") == b"ok\n"
            metrics = _get(url + "/metrics").decode()
            assert "oracle_checks_run" in metrics
            status = json.loads(_get(url + "/campaign"))
            assert status["batches"] >= 1
            assert status["hypercalls"] > 0
            assert status["trace_id"] == make_trace_id(config.seed)
            # Per-worker liveness, from the merged worker_last_batch_ts.
            assert status["workers"]["0"]["last_batch_age"] >= 0
            ring = status["telemetry"]
            assert 1 <= ring["samples_kept"] <= ring["samples_taken"]
            assert ring["recent"][-1]["kind"] == "heartbeat"
        finally:
            thread.join(timeout=120)
        assert box["report"].total_steps == 600
        # Server and profiler both came down with the engine.
        assert _obs_threads() == []
        # The heartbeat ring landed beside the checkpoint, named after it.
        telemetry = tmp_path / "campaign.telemetry.jsonl"
        assert telemetry.exists()
        samples = [
            json.loads(line)
            for line in telemetry.read_text().splitlines()
        ]
        assert len(samples) >= box["report"].batches
        assert samples[-1]["steps"] == 600
        fields = {
            "ts", "elapsed", "batches", "steps", "hypercalls",
            "hypercalls_per_hour", "coverage", "cache_hit_rate",
            "findings", "profile_samples", "seq", "ts_us", "kind",
        }
        assert all(set(sample) == fields for sample in samples)
        assert len({sample["seq"] for sample in samples}) == len(samples)

    def test_campaign_gauges_refresh_mid_run(self):
        config = CampaignConfig(
            workers=1,
            budget=400,
            batch_steps=100,
            inline=True,
            shrink=False,
            serve_telemetry="127.0.0.1:0",
        )
        engine = CampaignEngine(config)
        thread, box = _run_in_thread(engine)
        try:
            while engine._server is None and thread.is_alive():
                time.sleep(0.01)
            while not engine.batch_records and thread.is_alive():
                time.sleep(0.02)
            # The scrape itself brings the campaign_* gauges up to date,
            # so a mid-run scrape sees non-zero progress.
            metrics = _get(engine._server.url + "/metrics").decode()
            line = next(
                l for l in metrics.splitlines()
                if l.startswith("campaign_steps_total")
            )
            assert float(line.split()[-1]) > 0
        finally:
            thread.join(timeout=120)
        assert _obs_threads() == []

    def test_campaigns_sharing_a_directory_keep_their_own_telemetry(
        self, tmp_path
    ):
        steps = {}
        for name, budget in (("a", 300), ("b", 200)):
            config = CampaignConfig(
                workers=1,
                budget=budget,
                batch_steps=100,
                inline=True,
                shrink=False,
            )
            out = str(tmp_path / f"{name}.json")
            steps[name] = CampaignEngine(config, out=out).run().total_steps
        assert steps == {"a": 300, "b": 200}
        for name, total in steps.items():
            lines = (tmp_path / f"{name}.telemetry.jsonl").read_text()
            assert json.loads(lines.splitlines()[-1])["steps"] == total
        assert not (tmp_path / "telemetry.jsonl").exists()


class TestCrossWorkerCorrelation:
    def test_merged_trace_stitches_worker_rows(self, tmp_path):
        trace_out = tmp_path / "trace.json"
        config = CampaignConfig(
            workers=2,
            budget=400,
            batch_steps=100,
            inline=True,  # both lanes still run; pids come from tasks
            shrink=False,
            trace_out=str(trace_out),
        )
        CampaignEngine(config).run()
        doc = json.loads(trace_out.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in spans} == {0, 1}
        assert {(e["pid"], e["args"]["name"]) for e in meta} == {
            (0, "worker 0"),
            (1, "worker 1"),
        }
        # One campaign, one trace id, stamped on every span.
        expected = make_trace_id(config.seed)
        assert doc["otherData"]["trace_id"] == expected
        assert {e["args"]["trace_id"] for e in spans} == {expected}
        # Parent links survived the worker -> engine round-trip.
        assert any(e["args"].get("parent_id") for e in spans)

    def test_trace_id_stable_across_resume(self, tmp_path):
        out = str(tmp_path / "campaign.json")
        config = CampaignConfig(
            workers=1,
            budget=300,
            batch_steps=100,
            inline=True,
            shrink=False,
            max_batches=1,
        )
        first = CampaignEngine(config, out=out)
        first.run()
        resumed = CampaignEngine.from_checkpoint(out)
        assert resumed.trace_id == first.trace_id


class TestFleetProfile:
    def test_profile_merges_and_attributes_oracle_phase(self, tmp_path):
        profile_out = tmp_path / "profile.collapsed"
        config = CampaignConfig(
            workers=2,
            budget=2000,
            batch_steps=500,
            inline=True,
            shrink=False,
            profile_hz=400,
            profile_out=str(profile_out),
        )
        engine = CampaignEngine(config)
        engine.run()
        profile = engine.profile
        assert profile.total > 0, "profiler recorded no samples"
        # The acceptance bar: >=80% of oracle-phase samples carry a
        # span name (trap:*, oracle:*, machine:boot, ...).
        att = profile.attribution()
        assert att["oracle_phase_samples"] > 0
        assert att["attributed_fraction"] >= 0.8, att
        buckets = profile.by_bucket()
        named = set(buckets) - {NO_SPAN, IDLE}
        assert named, buckets
        # The collapsed artifact parses: "bucket;frames count" lines.
        text = profile_out.read_text()
        assert text
        for line in text.splitlines():
            key, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert key

    def test_profile_out_alone_implies_sampling(self, tmp_path):
        config = CampaignConfig(profile_out=str(tmp_path / "p.txt"))
        assert config.effective_profile_hz == 100
        assert CampaignConfig().effective_profile_hz == 0
        assert CampaignConfig(profile_hz=37).effective_profile_hz == 37
