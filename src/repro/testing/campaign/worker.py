"""The campaign worker: run one batch of model-guided random testing.

A batch is self-contained: a fresh machine booted from the campaign's
machine config, a tester seeded from ``(campaign seed, worker id, batch
index)``, and a trace recording every interaction from boot. The batch
ends at its step budget — or early, at the first finding, so the
recorded trace replays from a clean boot straight into the finding.

The same ``run_batch`` runs inline (deterministic single-process mode)
and as a task on the engine's process pool, which pickles its arguments
and the :class:`BatchResult` it returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.machine import Machine
from repro.obs import Observability
from repro.pkvm.bugs import Bugs
from repro.sim.coverage import CoverageMap
from repro.testing.campaign.findings import FINDING_EXCEPTIONS, RawFinding, make_finding
from repro.testing.random_tester import RandomTester
from repro.testing.trace import Trace

#: Multiplier chain deriving per-batch seeds; a large prime keeps worker
#: and batch streams from colliding for any realistic campaign size.
SEED_STRIDE = 1_000_003


def batch_seed(campaign_seed: int, worker_id: int, batch_index: int) -> int:
    return (campaign_seed * SEED_STRIDE + worker_id) * SEED_STRIDE + batch_index


@dataclass
class BatchTask:
    worker_id: int
    batch_index: int
    seed: int
    #: Step budget: tester steps in random mode, schedules in
    #: concurrency mode.
    steps: int
    #: Concurrency mode only: yield-tag fragments (from racy-pair
    #: feedback) the PCT scheduler treats as extra candidate
    #: priority-change points.
    priority_tags: tuple = ()
    #: Campaign-level correlation id: every span this batch records
    #: carries it, so the engine stitches per-worker spans into one
    #: cross-worker Perfetto timeline.
    trace_id: str = ""


@dataclass
class BatchResult:
    """What a worker ships back after one batch.

    :func:`run_batch` creates it and fills the observability fields; the
    mode's loop fills the work fields and any finding.
    """

    worker_id: int
    batch_index: int
    seed: int
    steps_run: int = 0
    steps_budgeted: int = 0
    hypercalls: int = 0
    rejected: int = 0
    finding: RawFinding | None = None
    #: The batch's novelty points: oracle trap classes or (concurrency
    #: mode) interleaving-class windows.
    coverage: CoverageMap = field(default_factory=CoverageMap)
    #: Concurrency mode: racy-location yield tags from the lockset
    #: detector.
    racy_tags: tuple = ()
    seconds: float = 0.0
    #: Observability payload (the spans are :class:`~repro.obs.trace.Span`
    #: objects), deliberately NOT in :meth:`to_jsonable` — the checkpoint
    #: stays slim; traces/metrics are run artifacts.
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    flight_dumps: list = field(default_factory=list)
    #: Sampling-profiler snapshot (span-attributed collapsed stacks);
    #: the engine merges these into one fleet-wide profile.
    profile: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "batch_index": self.batch_index,
            "seed": self.seed,
            "steps_run": self.steps_run,
            "steps_budgeted": self.steps_budgeted,
            "hypercalls": self.hypercalls,
            "rejected": self.rejected,
            "finding_signature": (
                list(self.finding.signature) if self.finding else None
            ),
        }


def oracle_class(observation) -> str:
    """One checked trap's coverage point: the spec that ran, its return
    value (every positive value shares one bucket), and the kinds of
    ghost component it changed (``vm_pgt:<handle>`` and ``local:<cpu>``
    lose their suffix), so handles and CPU numbers mint no classes."""
    kinds = sorted({key.split(":", 1)[0] for key in observation.changed})
    ret = min(observation.ret, 1)
    return f"{observation.spec_name}:{ret}:{','.join(kinds)}"


def run_batch(
    machine_config: dict,
    task: BatchTask,
    *,
    coverage: str = "oracle",
    tracing: bool = False,
    flight_buffer: int = 0,
    flight_dir: str = ".",
    mode: str = "random",
    scenario: str = "mixed",
    pct_depth: int = 3,
    profile_hz: int = 0,
) -> BatchResult:
    """Run one batch; never raises on findings — they come back as data.

    ``coverage``: "oracle" (the checked traps' oracle classes, see
    :func:`oracle_class`; the campaign default) or "off".

    ``mode="concurrency"`` runs the schedule fuzzer instead:
    ``task.steps`` PCT schedules of ``scenario`` rather than random
    tester steps (see :mod:`repro.testing.campaign.concurrency`; its
    schedules run ghost-off, and their coverage points are always
    interleaving-class windows).

    ``mode="iommu"`` is random mode under the tester's IOMMU-focused
    action profile: the DMA-domain boundary gets the bulk of the step
    budget, with enough host share/unshare traffic to exercise the
    cross-boundary error paths.

    Every mode runs under the batch's own :class:`Observability` bundle
    (pid = worker id, so a merged trace renders workers as parallel
    tracks; every span stamped with the campaign ``trace_id``) and ships
    spans, a metrics snapshot, and any flight-dump paths back in the
    result. ``profile_hz > 0`` additionally runs the sampling profiler
    over the batch and ships its span-attributed snapshot; the engine
    merges workers' snapshots into one fleet flamegraph.
    """
    started = time.perf_counter()
    obs = Observability(
        tracing=tracing,
        trace_id=task.trace_id,
        flight_buffer=flight_buffer,
        flight_dir=flight_dir,
        profile_hz=profile_hz,
        worker_id=task.worker_id,
    ).install()
    result = BatchResult(
        worker_id=task.worker_id,
        batch_index=task.batch_index,
        seed=task.seed,
        steps_budgeted=task.steps,
    )
    if obs.profiler is not None:
        obs.profiler.start()
    try:
        if mode == "concurrency":
            # Imported lazily: concurrency mode pulls in the scheduler and
            # lockset machinery that random batches never touch.
            from repro.testing.campaign.concurrency import run_concurrency_batch

            run_concurrency_batch(
                machine_config,
                task,
                result,
                obs,
                scenario=scenario,
                pct_depth=pct_depth,
            )
        else:
            _run_steps(
                machine_config,
                task,
                result,
                obs,
                coverage=coverage,
                profile="iommu" if mode == "iommu" else "all",
            )
    finally:
        if obs.profiler is not None:
            obs.profiler.stop()
    finding = result.finding
    if finding is not None and obs.flight.enabled:
        # Spec violations were already dumped by the checker at the
        # point of mismatch; panics and host crashes bypass the checker,
        # so dump here.
        path = (
            obs.flight.dumps[-1]
            if obs.flight.dumps
            else obs.flight.dump(
                f"finding-{finding.klass}", extra={"call": finding.call_name}
            )
        )
        finding.flight = str(path)
    # "last" mode: the fleet-level value is each worker's most recent
    # heartbeat, which is what per-worker liveness means.
    obs.metrics.gauge(
        "worker_last_batch_ts", {"worker": str(task.worker_id)}, mode="last"
    ).set(round(time.time(), 3))
    result.seconds = time.perf_counter() - started
    result.spans = list(obs.tracer.spans)
    result.metrics = obs.metrics.snapshot()
    result.flight_dumps = [str(p) for p in obs.flight.dumps]
    if obs.profiler is not None:
        result.profile = obs.profiler.snapshot()
    return result


def _run_steps(
    machine_config: dict,
    task: BatchTask,
    result: BatchResult,
    obs: Observability,
    *,
    coverage: str,
    profile: str,
) -> None:
    """Random mode: up to ``task.steps`` tester steps on a fresh machine,
    stopping at the first finding."""
    bug_names = machine_config["bug_names"]
    machine = Machine(
        bugs=Bugs(**dict.fromkeys(bug_names, True)),
        paranoid=machine_config["paranoid"],
        obs=obs,
    )
    # A Trace's machine shape defaults to Machine()'s: 4 CPUs, 256 MiB.
    trace = Trace(
        bug_names=bug_names,
        meta={
            "worker_id": task.worker_id,
            "batch_index": task.batch_index,
            "seed": task.seed,
        },
    )
    tester = RandomTester(machine, seed=task.seed, trace=trace, profile=profile)
    if coverage == "oracle":
        machine.checker.frame_hook = lambda observation: result.coverage.add(
            "oracle", {oracle_class(observation)}
        )
    elif coverage != "off":
        raise ValueError(f"unknown coverage mode {coverage!r}")
    for i in range(task.steps):
        result.steps_run = i + 1
        try:
            tester.step()
        except FINDING_EXCEPTIONS as exc:
            result.finding = make_finding(
                exc,
                trace,
                worker_id=task.worker_id,
                batch_index=task.batch_index,
                seed=task.seed,
                step_index=i,
            )
            break
    result.hypercalls = tester.stats.hypercalls
    result.rejected = tester.stats.rejected_crashy
