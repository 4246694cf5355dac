"""The campaign engine: fan the random tester across worker processes.

The paper runs its model-guided tester for hours against QEMU; the
reproduction's analogue of that scale is a *campaign*: the step budget is
cut into batches, batches are distributed over N workers (each a fresh
machine + tester, deterministically seeded), and the engine merges the
streams back together — coverage into one map, findings through the
deduplicator, and every merged batch into an on-disk checkpoint so an
interrupted campaign resumes without repeating work.

Two execution modes share all of that logic:

- **inline** — batches run sequentially in-process in a deterministic
  order (the worker with the fewest issued batches goes next), so two
  campaigns with the same config produce byte-identical reports; this is
  the mode the determinism and checkpoint tests pin down.
- **process pool** — batches run on a ``concurrent.futures`` process
  pool. Batch *seeds* are still deterministic (they derive from the
  campaign seed and the batch's lane, not from which OS process ran it);
  only the coverage-feedback ordering can vary with completion order. A
  batch that raises, or a worker process that dies, ends the campaign
  with that exception (``BrokenProcessPool`` for a dead worker).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profile
from repro.obs.server import TelemetryServer, parse_hostport
from repro.obs.trace import (
    Span,
    chrome_trace,
    make_trace_id,
    write_chrome_trace,
)
from repro.sim.coverage import CoverageMap
from repro.testing.campaign import checkpoint as ckpt
from repro.testing.campaign.findings import DedupIndex, RawFinding
from repro.testing.campaign.scheduler import BudgetScheduler
from repro.testing.campaign.shrink import shrink_schedule, shrink_trace
from repro.testing.campaign.worker import (
    BatchResult,
    BatchTask,
    batch_seed,
    run_batch,
)


@dataclass
class CampaignConfig:
    """Everything that determines a campaign, and nothing that doesn't.

    Each field is one campaign option, declared once: the CLI flag of
    the same name sets it, an absent flag leaves the default here, and a
    checkpoint saves the whole record.
    """

    workers: int = 2
    #: Total step budget across all workers. In concurrency mode a
    #: "step" is one PCT schedule of the scenario.
    budget: int = 2000
    #: Base steps per batch (the scheduler scales this per worker).
    batch_steps: int = 250
    seed: int = 0
    bug_names: tuple[str, ...] = ()
    inline: bool = False
    shrink: bool = True
    #: "random" (the model-guided tester), "iommu" (the tester under its
    #: IOMMU-focused action profile), or "concurrency" (PCT schedule
    #: fuzzing of a fixed multi-CPU scenario).
    mode: str = "random"
    #: Concurrency mode: which scenario trace to fuzz, and the PCT depth
    #: bound (d priority-change points explore depth-d bugs).
    scenario: str = "mixed"
    pct_depth: int = 3
    #: The novelty signal in random and IOMMU mode: "oracle" (the
    #: checked traps' oracle classes, default) or "off". Concurrency
    #: mode always covers interleaving windows.
    coverage: str = "oracle"
    #: Stop issuing batches once this many distinct findings exist.
    max_findings: int | None = None
    #: Stop after this many batches (the checkpoint tests' interrupt hook).
    max_batches: int | None = None
    #: Wall-clock cap in seconds.
    time_limit: float | None = None
    #: Recompute every oracle cache hit from scratch and assert it.
    paranoid: bool = False
    #: Observability: a merged Chrome trace_event file (workers render as
    #: parallel pid tracks), a merged metrics JSON, and the per-worker
    #: flight-recorder ring (0 = off; dumps land in ``flight_dir``).
    trace_out: str | None = None
    metrics_out: str | None = None
    flight_buffer: int = 0
    flight_dir: str = "."
    #: Directory of ``*.trace`` seed files (e.g. the refinement pass's
    #: concretized counterexamples, ``--refinement-corpus``) replayed
    #: through the oracle before any random batches run.
    seed_corpus: str | None = None
    #: Live telemetry: ``"host:port"`` stands up the HTTP endpoint for
    #: the duration of the run (port 0 = kernel-assigned; the engine
    #: prints the bound URL to stderr).
    serve_telemetry: str | None = None
    #: Sampling profiler rate inside each worker (0 = off). Snapshots
    #: merge in the engine into one fleet-wide profile.
    profile_hz: int = 0
    #: Where the merged collapsed-stack profile lands (implies a
    #: default ``profile_hz`` of 100 when unset).
    profile_out: str | None = None

    @property
    def tracing(self) -> bool:
        return self.trace_out is not None

    @property
    def effective_profile_hz(self) -> int:
        """Asking for a profile artifact turns the profiler on."""
        if self.profile_hz:
            return self.profile_hz
        return 100 if self.profile_out is not None else 0

    def machine_config(self) -> dict:
        """How every batch's machine differs from ``Machine()``: the
        injected bugs and the oracle's paranoid mode. Random and IOMMU
        batches boot it with the oracle on; concurrency scenarios run it
        with the oracle off (the schedule, not the oracle, is the test
        subject there)."""
        return {"bug_names": tuple(self.bug_names), "paranoid": self.paranoid}

    def batch_options(self) -> dict:
        """The keyword arguments of every ``run_batch`` call."""
        return {
            "coverage": self.coverage,
            "tracing": self.tracing,
            "flight_buffer": self.flight_buffer,
            "flight_dir": self.flight_dir,
            "mode": self.mode,
            "scenario": self.scenario,
            "pct_depth": self.pct_depth,
            "profile_hz": self.effective_profile_hz,
        }

    def to_jsonable(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_jsonable(data: dict) -> "CampaignConfig":
        data = dict(data)
        data["bug_names"] = tuple(data.get("bug_names", ()))
        return CampaignConfig(**data)


@dataclass
class CampaignReport:
    config: CampaignConfig
    batches: int
    total_steps: int
    total_hypercalls: int
    total_rejected: int
    findings: list[RawFinding]
    #: Points in the merged coverage map.
    coverage: int
    seconds: float
    resumed: bool = False
    #: Seed-corpus traces replayed before the random batches.
    corpus_traces: int = 0

    @property
    def hypercalls_per_hour(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.total_hypercalls * 3600.0 / self.seconds

    def comparable(self) -> dict:
        """The timing-free view two equivalent campaigns must agree on."""
        return {
            "batches": self.batches,
            "total_steps": self.total_steps,
            "total_hypercalls": self.total_hypercalls,
            "total_rejected": self.total_rejected,
            "coverage": self.coverage,
            "corpus_traces": self.corpus_traces,
            "findings": [f.to_jsonable() for f in self.findings],
        }

    def to_jsonable(self) -> dict:
        return {
            **self.comparable(),
            "seconds": self.seconds,
            "hypercalls_per_hour": self.hypercalls_per_hour,
        }


class CampaignEngine:
    """Drives one campaign; construct fresh or via :meth:`from_checkpoint`."""

    def __init__(self, config: CampaignConfig, *, out: str | None = None):
        self.config = config
        self.out = out
        self.scheduler = BudgetScheduler(base_steps=config.batch_steps)
        self.coverage = CoverageMap()
        #: Concurrency mode: the racy yield-tag pool (lockset feedback
        #: steering later PCT batches' priority-change points).
        self.racy_tags: set[str] = set()
        self.dedup = DedupIndex()
        #: Parent metrics registry: every worker snapshot merges in here
        #: (counters and histogram buckets add, gauges take the max), so
        #: the campaign-wide view is one registry regardless of mode.
        self.metrics = MetricsRegistry()
        #: Worker spans; each carries its worker id as pid.
        self.spans: list[Span] = []
        self.flight_dumps: list[str] = []
        self.batch_records: list[dict] = []
        self.next_batch_index: dict[int, int] = {}
        self.issued_steps = 0
        self.total_steps = 0
        self.total_hypercalls = 0
        self.total_rejected = 0
        self.resumed = False
        self._started = 0.0
        self._corpus_traces = 0
        #: Campaign correlation id, derived from the seed so a resumed
        #: campaign keeps stitching into the same cross-worker timeline.
        self.trace_id = make_trace_id(config.seed)
        #: Fleet-wide profile: every worker's sampling-profiler snapshot
        #: merges in here (same algebra as the metrics registry).
        self.profile = Profile()
        #: Bounded ring of heartbeat samples behind ``/campaign`` and the
        #: ``telemetry.jsonl`` artifact.
        self.telemetry = FlightRecorder(512)
        self._server: TelemetryServer | None = None
        self._heartbeat: threading.Thread | None = None
        self._heartbeat_stop = threading.Event()

    # -- resume ----------------------------------------------------------

    @classmethod
    def from_checkpoint(cls, path: str) -> "CampaignEngine":
        state = ckpt.load_checkpoint(path)
        engine = cls(CampaignConfig.from_jsonable(state["config"]), out=path)
        engine.scheduler = BudgetScheduler.from_jsonable(state["scheduler"])
        engine.coverage = CoverageMap.from_jsonable(state["coverage"])
        engine.racy_tags = set(state["racy_tags"])
        engine._corpus_traces = state["corpus_traces"]
        for data in state["findings"]:
            finding = RawFinding.from_jsonable(data)
            engine.dedup.by_signature[finding.signature] = finding
        engine.batch_records = list(state["batches"])
        for record in engine.batch_records:
            worker = record["worker_id"]
            engine.next_batch_index[worker] = max(
                engine.next_batch_index.get(worker, 0),
                record["batch_index"] + 1,
            )
            engine.issued_steps += record["steps_budgeted"]
            engine.total_steps += record["steps_run"]
            engine.total_hypercalls += record["hypercalls"]
            engine.total_rejected += record["rejected"]
        engine.resumed = True
        return engine

    # -- issue/absorb ------------------------------------------------------

    def _should_issue(self) -> bool:
        config = self.config
        if self.issued_steps >= config.budget:
            return False
        if (
            config.max_batches is not None
            and len(self.batch_records) >= config.max_batches
        ):
            return False
        if (
            config.max_findings is not None
            and len(self.dedup) >= config.max_findings
        ):
            return False
        if (
            config.time_limit is not None
            and time.perf_counter() - self._started > config.time_limit
        ):
            return False
        return True

    def _next_task(self) -> BatchTask:
        # The lane with the fewest issued batches goes next (lowest id on
        # ties): deterministic, and stable across checkpoint/resume.
        worker = min(
            range(self.config.workers),
            key=lambda w: (self.next_batch_index.get(w, 0), w),
        )
        index = self.next_batch_index.get(worker, 0)
        self.next_batch_index[worker] = index + 1
        steps = min(
            self.scheduler.budget(worker),
            max(1, self.config.budget - self.issued_steps),
        )
        self.issued_steps += steps
        return BatchTask(
            worker_id=worker,
            batch_index=index,
            seed=batch_seed(self.config.seed, worker, index),
            steps=steps,
            # Racy-pair feedback: sorted for determinism across runs.
            priority_tags=tuple(sorted(self.racy_tags)),
            trace_id=self.trace_id,
        )

    def _absorb(self, result: BatchResult) -> None:
        self.scheduler.feedback(
            result.worker_id, self.coverage.merge(result.coverage)
        )
        self.racy_tags.update(result.racy_tags)
        if result.metrics:
            self.metrics.merge(result.metrics)
        self.spans.extend(result.spans)
        if result.profile:
            self.profile.merge(result.profile)
        self.flight_dumps.extend(result.flight_dumps)
        if result.finding is not None:
            self.dedup.add(result.finding)
        self.batch_records.append(result.to_jsonable())
        self.total_steps += result.steps_run
        self.total_hypercalls += result.hypercalls
        self.total_rejected += result.rejected
        # One ring sample per merged batch (the heartbeat thread adds
        # its ~1 Hz cadence on top when the server is up), so
        # ``telemetry.jsonl`` exists even for unserved runs.
        self._record_heartbeat()
        if self.out is not None:
            self._save(complete=False)

    # -- execution ---------------------------------------------------------

    def run(self) -> CampaignReport:
        self._started = time.perf_counter()
        if self.config.serve_telemetry is not None:
            self._start_telemetry(self.config.serve_telemetry)
        try:
            # A resumed engine restored the replay's findings and count
            # from its checkpoint, and every checkpoint postdates it.
            if self.config.seed_corpus is not None and not self.resumed:
                self._replay_corpus()
            if self.config.inline or self.config.workers <= 1:
                self._run_inline()
            else:
                self._run_pool()
            return self._finalize()
        finally:
            self._stop_telemetry()

    # -- live telemetry ----------------------------------------------------

    def _start_telemetry(self, spec: str) -> None:
        """Stand up ``/metrics`` etc. over the engine's *merged* state.

        The providers read engine fields that ``_absorb`` and the
        heartbeat update; everything they touch is a single attribute
        read or an append-only structure, so serving concurrently with
        the merge loop needs no locking.
        """
        host, port = parse_hostport(spec)
        self._server = TelemetryServer(
            host,
            port,
            metrics=self.metrics.to_prometheus,
            spans=lambda: chrome_trace(
                list(self.spans),
                process_names=self._process_names(),
                trace_id=self.trace_id,
            ),
            flight=lambda: {"dumps": list(self.flight_dumps)},
            profile=self.profile.collapsed,
            campaign=self._campaign_status,
        ).start()
        print(f"telemetry: {self._server.url}", file=sys.stderr)
        self._heartbeat_stop.clear()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="obs-heartbeat", daemon=True
        )
        self._heartbeat.start()

    def _stop_telemetry(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat_stop.set()
            self._heartbeat.join(timeout=5)
            self._heartbeat = None
        if self._server is not None:
            self._server.close()
            self._server = None

    def _heartbeat_loop(self) -> None:
        """~1 Hz: refresh the campaign gauges and append a ring sample,
        so a mid-run ``/metrics`` scrape and ``/campaign`` poll see live
        numbers instead of end-of-run ones."""
        while not self._heartbeat_stop.wait(1.0):
            self._refresh_campaign_gauges()
            self._record_heartbeat()

    def _process_names(self) -> dict[int, str]:
        return {
            w: f"worker {w}"
            for w in sorted({s.pid for s in self.spans} | {0})
        }

    def _elapsed(self) -> float:
        return time.perf_counter() - self._started

    def _cache_hit_rate(self) -> float:
        hits = self.metrics.counter("oracle_cache_hits").value
        misses = self.metrics.counter("oracle_cache_misses").value
        return hits / (hits + misses) if hits + misses else 0.0

    def _heartbeat_sample(self) -> dict:
        elapsed = self._elapsed()
        return {
            "elapsed": round(elapsed, 3),
            "batches": len(self.batch_records),
            "steps": self.total_steps,
            "hypercalls": self.total_hypercalls,
            "hypercalls_per_hour": round(
                self.total_hypercalls * 3600.0 / elapsed if elapsed else 0.0,
                1,
            ),
            "coverage": self.coverage.count(),
            "cache_hit_rate": round(self._cache_hit_rate(), 4),
            "findings": len(self.dedup),
            "profile_samples": self.profile.total,
        }

    def _record_heartbeat(self) -> None:
        self.telemetry.record(
            "heartbeat", ts=round(time.time(), 3), **self._heartbeat_sample()
        )

    def _campaign_status(self) -> dict:
        """The ``/campaign`` heartbeat document."""
        now = time.time()
        workers = {}
        for w in sorted(self.next_batch_index):
            # Set by the worker at the end of every batch it ran.
            last = self.metrics.get("worker_last_batch_ts", {"worker": str(w)})
            if last is not None:
                workers[str(w)] = {
                    "last_batch_age": round(now - last.value, 3),
                    "batches": self.next_batch_index[w],
                }
        return {
            "trace_id": self.trace_id,
            "config": self.config.to_jsonable(),
            "resumed": self.resumed,
            **self._heartbeat_sample(),
            "issued_steps": self.issued_steps,
            "budget": self.config.budget,
            "flight_dumps": len(self.flight_dumps),
            "workers": workers,
            "telemetry": {
                "samples_kept": len(self.telemetry),
                "samples_taken": self.telemetry.seq,
                "recent": self.telemetry.snapshot()[-30:],
            },
        }

    def _replay_corpus(self) -> None:
        """Replay every ``*.trace`` seed through the campaign's oracle.

        Seeds come from the refinement pass's concretized counterexamples
        (``--refinement-corpus``) or any saved finding trace; each runs
        ghost-on against the campaign's *configured* hypervisor (the
        campaign's bug flags, not the ones recorded in the trace), so a
        clean-tree campaign with a seeded-run corpus stays clean, while a
        seeded campaign turns each static counterexample into a finding
        before a single random batch runs. Detections dedupe through the
        same index as random findings.
        """
        from pathlib import Path

        from repro.pkvm.bugs import Bugs
        from repro.testing.campaign.findings import FINDING_EXCEPTIONS, make_finding
        from repro.testing.trace import Trace

        bugs = Bugs(**{name: True for name in self.config.bug_names})
        for path in sorted(Path(self.config.seed_corpus).glob("*.trace")):
            trace = Trace.loads(path.read_text())
            trace.bug_names = tuple(self.config.bug_names)
            self._corpus_traces += 1
            try:
                trace.replay(ghost=True, bugs=bugs)
            except FINDING_EXCEPTIONS as exc:
                self.dedup.add(make_finding(exc, trace))

    def _run_inline(self) -> None:
        machine_config = self.config.machine_config()
        options = self.config.batch_options()
        while self._should_issue():
            self._absorb(run_batch(machine_config, self._next_task(), **options))

    def _run_pool(self) -> None:
        """Keep up to ``workers`` batches in flight and absorb each as it
        completes. A batch that raised re-raises its exception here, and
        a worker that died raises ``BrokenProcessPool``; either ends the
        campaign with every batch absorbed so far in the checkpoint."""
        # Imported here: inline campaigns never load multiprocessing.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        machine_config = self.config.machine_config()
        options = self.config.batch_options()
        with ProcessPoolExecutor(self.config.workers) as pool:
            in_flight = set()
            while True:
                while len(in_flight) < self.config.workers and self._should_issue():
                    in_flight.add(
                        pool.submit(
                            run_batch, machine_config, self._next_task(), **options
                        )
                    )
                if not in_flight:
                    break
                done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    self._absorb(future.result())

    # -- reporting ----------------------------------------------------------

    def _finalize(self) -> CampaignReport:
        findings = self.dedup.findings()
        if self.config.shrink:
            for finding in findings:
                if self.config.mode == "concurrency":
                    # Schedule findings shrink along both axes: the
                    # decision script and the per-CPU step programs.
                    # Concurrent replays cost ~10x a sequential one, so
                    # the probe budget is tighter than random mode's.
                    result = shrink_schedule(
                        finding.trace(),
                        finding.klass,
                        finding.kind,
                        max_probes=300,
                    )
                    finding.shrunk_sched_len = len(
                        result.trace.meta.get("schedule", [])
                    )
                else:
                    result = shrink_trace(
                        finding.trace(), finding.klass, finding.kind
                    )
                finding.shrunk_len = len(result.trace)
                finding.trace_text = result.trace.dumps()
        report = CampaignReport(
            config=self.config,
            batches=len(self.batch_records),
            total_steps=self.total_steps,
            total_hypercalls=self.total_hypercalls,
            total_rejected=self.total_rejected,
            findings=findings,
            coverage=self.coverage.count(),
            corpus_traces=self._corpus_traces,
            seconds=time.perf_counter() - self._started,
            resumed=self.resumed,
        )
        self._export_observability(report)
        if self.out is not None:
            self._save(complete=True, report=report)
        return report

    def _refresh_campaign_gauges(self) -> None:
        """Point the ``campaign_*`` gauges at the current merged state.

        Throughput and totals carry ``mode="sum"`` — two campaign shards'
        metric files merge into fleet totals, where the old max-merge
        silently reported the bigger shard. Coverage/findings gauges stay
        high-water (``max``): shards overlap, so adding them overcounts.
        """
        m = self.metrics
        elapsed = self._elapsed()
        rate = self.total_hypercalls * 3600.0 / elapsed if elapsed else 0.0
        m.gauge("campaign_hypercalls_per_hour", mode="sum").set(round(rate, 1))
        m.gauge("campaign_coverage").set(self.coverage.count())
        m.gauge("campaign_corpus_traces", mode="sum").set(self._corpus_traces)
        m.gauge("campaign_batches", mode="sum").set(len(self.batch_records))
        m.gauge("campaign_steps_total", mode="sum").set(self.total_steps)
        m.gauge("campaign_hypercalls_total", mode="sum").set(
            self.total_hypercalls
        )
        m.gauge("campaign_findings_distinct").set(len(self.dedup))
        m.gauge("campaign_flight_dumps", mode="sum").set(
            len(self.flight_dumps)
        )
        m.gauge("campaign_cache_hit_rate", mode="last").set(
            round(self._cache_hit_rate(), 4)
        )

    def _export_observability(self, report: CampaignReport) -> None:
        """Campaign-level gauges, plus the merged artifact files."""
        self._refresh_campaign_gauges()
        m = self.metrics
        # _refresh uses live elapsed time; the report's final rate is the
        # authoritative one.
        m.gauge("campaign_hypercalls_per_hour", mode="sum").set(
            round(report.hypercalls_per_hour, 1)
        )
        if self.profile.total:
            self.profile.to_metrics(m)
        if self.config.trace_out is not None:
            write_chrome_trace(
                self.config.trace_out,
                self.spans,
                process_names=self._process_names(),
                trace_id=self.trace_id,
            )
        if self.config.metrics_out is not None:
            m.write_json(self.config.metrics_out)
        if self.config.profile_out is not None:
            self.profile.write_collapsed(self.config.profile_out)
        if self.out is not None and self.telemetry.seq:
            self._record_heartbeat()
            with open(ckpt.telemetry_path(self.out), "w") as fh:
                for event in self.telemetry.snapshot():
                    fh.write(json.dumps(event, sort_keys=True) + "\n")

    def _save(
        self, *, complete: bool, report: CampaignReport | None = None
    ) -> None:
        state = {
            "version": ckpt.VERSION,
            "complete": complete,
            "config": self.config.to_jsonable(),
            "scheduler": self.scheduler.to_jsonable(),
            "batches": self.batch_records,
            "coverage": self.coverage.to_jsonable(),
            "racy_tags": sorted(self.racy_tags),
            "corpus_traces": self._corpus_traces,
            "findings": [f.to_jsonable() for f in self.dedup.findings()],
        }
        if report is not None:
            state["summary"] = report.to_jsonable()
        ckpt.save_checkpoint(self.out, state)


def run_campaign(
    config: CampaignConfig, *, out: str | None = None
) -> CampaignReport:
    """Convenience front door: run one campaign to completion."""
    return CampaignEngine(config, out=out).run()
