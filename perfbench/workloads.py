"""The four workloads and the hooks the benchmark puts into the program.

Every workload is closed-loop batch work from one process and one
client, inline, with one campaign worker: each test, step or pass starts
when the previous one returns. A *pass* is one run over the workload's
fixed input set, and every pass checks each verdict against its known
answer through a :class:`~layers.Verdicts`.

- ``suite``: the 55-test checked handwritten suite, a fresh machine per
  test; the seed orders the tests.
- ``soak``: one campaign machine living 600 random steps, coverage off.
- ``hunt``: a campaign at the CLI defaults (function coverage, 250-step
  base batches, shrink on, a checkpoint file) with ``max_findings=1``,
  once per synthetic bug; the seed orders the bugs.
- ``analysis``: the seven analysis passes, with a fresh AST cache and
  the frame pass's dynamic half, then the ownership, refinement and
  IOMMU differential harnesses.

Every random choice inside the program keeps the CLI default seed 0 (the
campaign seed of the soak and the hunt, the frame pass's campaign seed)
whatever the benchmark seed, which only orders the suite's tests and the
hunt's bugs. The program's cost is chaotic in those seeds: over seeds 2,
7 and 8 a 600-step soak machine made 55k, 62k and 49k ``Mapping.insert``
calls and took 10.0 s, 8.6 s and 6.1 s; the frame pass's dynamic half took
8.5 s with frame seed 1 and 12.1 s with seed 3; and time to a finding is
geometric in the campaign seed. A seeded run would measure which seed it
drew rather than the program.

No ``repro`` import happens at module level: ``run.py`` puts the
checkout's ``src`` on the path first.
"""

from __future__ import annotations

import contextlib
import random
import time
from pathlib import Path

#: Random steps each soak machine lives (E3's and ``bench_oracle.py``'s).
SOAK_STEPS = 600
#: The CLI's default seed for campaigns and the frame pass's campaign.
PROGRAM_SEED = 0
#: Length of the frame pass's random campaign (the CLI default).
FRAME_RANDOM_STEPS = 200


def setup() -> None:
    """Import what every workload uses and boot one checked machine."""
    import repro.analysis.differential  # noqa: F401
    import repro.analysis.frame  # noqa: F401
    import repro.testing.campaign.engine  # noqa: F401
    import repro.testing.handwritten  # noqa: F401
    from repro.machine import Machine

    Machine()


# -- probes -------------------------------------------------------------------


class Probe:
    """Light timers that stay on in untraced runs: checked trap latency
    and hypercalls issued. ``tick`` runs before each trap, outside its
    timing (the host-speed sampler)."""

    def __init__(self, patches, tick):
        from repro.arch.exceptions import EsrEc
        from repro.pkvm.hyp import PKvm

        #: When each trap started, and how long it took.
        self.trap_start: list[int] = []
        self.trap_ns: list[int] = []
        self.hypercalls = 0
        clock = time.perf_counter_ns
        trap_start = self.trap_start
        trap_ns = self.trap_ns
        hvc = EsrEc.HVC64

        def wrap_trap(fn):
            def handle_trap(pkvm, cpu, syndrome):
                tick()
                if syndrome.ec is hvc:
                    self.hypercalls += 1
                t0 = clock()
                try:
                    return fn(pkvm, cpu, syndrome)
                finally:
                    trap_start.append(t0)
                    trap_ns.append(clock() - t0)

            return handle_trap

        patches.wrap(PKvm, "handle_trap", wrap_trap)

    @property
    def traps(self) -> int:
        return len(self.trap_ns)


def install_tracing(recorder, patches) -> None:
    """Route the program's spans and the benchmark's timers into
    ``recorder`` until ``patches.undo()``."""
    from repro.ghost import checker
    from repro.ghost.maplets import Mapping
    from repro.machine import Machine
    from repro.obs import Observability
    from repro.testing.campaign import checkpoint, engine
    from repro.testing.random_tester import RandomTester
    from repro.testing.trace import Trace

    patches.wrap(Observability, "__init__", recorder.bundle_init)
    patches.wrap(
        Machine, "__init__", lambda fn: recorder.timer("machine.boot", fn, "machine.boots")
    )
    patches.wrap(
        Mapping,
        "insert",
        lambda fn: recorder.timer("ghost.maplet_insert", fn, "ghost.maplet_inserts"),
    )
    patches.wrap(
        checker, "compute_post_trap", lambda fn: recorder.timer("ghost.compute_post", fn)
    )
    patches.wrap(RandomTester, "step", recorder.step_timer)
    patches.wrap(
        Trace, "replay", lambda fn: recorder.timer("testing.replay", fn, "testing.replays")
    )
    patches.wrap(checkpoint, "save_checkpoint", lambda fn: recorder.timer("campaign.checkpoint", fn))

    def wrap_batch(fn):
        timed = recorder.timer("campaign.batch", fn, "campaign.batches")

        def run_batch(machine_config, task, **kwargs):
            recorder.batches.append((machine_config, task, kwargs))
            return timed(machine_config, task, **kwargs)

        return run_batch

    def wrap_shrink(fn):
        timed = recorder.timer("campaign.shrink", fn)

        def shrink_trace(*args, **kwargs):
            result = timed(*args, **kwargs)
            recorder.counts["campaign.shrink_probes"] += result.probes
            return result

        return shrink_trace

    patches.wrap(engine, "run_batch", wrap_batch)
    patches.wrap(engine, "shrink_trace", wrap_shrink)


def uninstall_tracing(patches) -> None:
    """Undo :func:`install_tracing` and drop the process-active tracer
    the traced bundles installed."""
    from repro.obs.trace import set_active_tracer

    patches.undo()
    set_active_tracer(None)


# -- workloads ------------------------------------------------------------------


class Suite:
    name = "suite"

    def __init__(self, seed: int, workdir: Path):
        from repro.testing.handwritten import ALL_TESTS

        self.tests = list(ALL_TESTS)
        random.Random(seed).shuffle(self.tests)

    def run_pass(self, verdicts, recorder=None, *, paranoid=False):
        """One checked pass; returns the verdicts as a comparable value."""
        from repro.testing.harness import run_tests

        results = run_tests(self.tests, paranoid=paranoid)
        for result in results:
            verdicts.check(
                result.ok, f"suite {result.name}: {result.outcome.value} {result.detail}"
            )
        return sorted((r.name, r.outcome.value) for r in results)


class Soak:
    name = "soak"

    def __init__(self, seed: int, workdir: Path):
        pass

    def run_pass(self, verdicts, recorder=None, *, paranoid=False):
        """One machine for ``SOAK_STEPS`` steps; the known answer is no
        finding and no unexpected exception."""
        from repro.testing.campaign.engine import CampaignConfig, CampaignEngine

        config = CampaignConfig(
            workers=1,
            inline=True,
            budget=SOAK_STEPS,
            batch_steps=SOAK_STEPS,
            seed=PROGRAM_SEED,
            coverage="off",
            paranoid=paranoid,
        )
        try:
            report = CampaignEngine(config).run()
        except Exception as exc:  # noqa: BLE001 - a crash is a wrong verdict
            verdicts.check(False, f"soak: {type(exc).__name__}: {exc}")
            return None
        verdicts.check(
            not report.findings and report.total_steps == SOAK_STEPS,
            f"soak: {len(report.findings)} findings after "
            f"{report.total_steps}/{SOAK_STEPS} steps",
        )
        return (report.total_steps, report.total_hypercalls, report.total_rejected,
                [f.to_jsonable() for f in report.findings])


class Hunt:
    name = "hunt"

    def __init__(self, seed: int, workdir: Path):
        from repro.pkvm.bugs import Bugs

        self.bugs = list(Bugs.synthetic_bug_names())
        random.Random(seed).shuffle(self.bugs)
        self.workdir = workdir

    def run_pass(self, verdicts, recorder=None):
        """Hunt every bug to a minimized trace; the known answer is one
        finding per bug whose shrunk trace replays into it."""
        from repro.testing.campaign.engine import CampaignConfig, CampaignEngine
        from repro.testing.campaign.shrink import reproduces_finding

        shrunk_steps = 0
        for bug in self.bugs:
            out = self.workdir / f"hunt-{bug}.json"
            out.unlink(missing_ok=True)
            config = CampaignConfig(
                workers=1,
                inline=True,
                seed=PROGRAM_SEED,
                bug_names=(bug,),
                max_findings=1,
            )
            try:
                report = CampaignEngine(config, out=str(out)).run()
            except Exception as exc:  # noqa: BLE001 - a crash is a wrong verdict
                verdicts.check(False, f"hunt {bug}: {type(exc).__name__}: {exc}")
                continue
            finding = report.findings[0] if report.findings else None
            replays = finding is not None and reproduces_finding(
                finding.trace(), finding.klass, finding.kind
            )
            verdicts.check(
                replays,
                f"hunt {bug}: "
                + ("no finding" if finding is None else "shrunk trace does not replay"),
            )
            if finding is not None:
                shrunk_steps += finding.shrunk_len
        if recorder is not None:
            recorder.counts["shrunk_steps"] += shrunk_steps
        return shrunk_steps


class Analysis:
    name = "analysis"

    def __init__(self, seed: int, workdir: Path):
        pass

    def run_pass(self, verdicts, recorder=None):
        """The seven passes (no finding, no crash), then the three
        differential harnesses (each ok)."""
        from repro.analysis import differential as diff
        from repro.analysis.astutil import ast_cache_stats, clear_ast_cache
        from repro.analysis.bitfields import check_pte_codec
        from repro.analysis.frame import (
            check_cache_equivalence,
            check_frames,
            cross_validate_frames,
        )
        from repro.analysis.lockorder import check_lock_discipline
        from repro.analysis.ownership import check_ownership
        from repro.analysis.purity import check_spec_purity
        from repro.analysis.refinement import check_refinement
        from repro.analysis.scenarios import DEFAULT_SCENARIO, run_lockset_scenario

        refinement_stats: dict = {}

        def frame_dynamic():
            return cross_validate_frames(
                random_steps=FRAME_RANDOM_STEPS, seed=PROGRAM_SEED
            ) + check_cache_equivalence(random_steps=FRAME_RANDOM_STEPS, seed=PROGRAM_SEED)

        passes = (
            ("purity", (("purity", check_spec_purity),)),
            ("lockorder", (("lockorder", check_lock_discipline),)),
            ("lockset", (("lockset", lambda: run_lockset_scenario(
                DEFAULT_SCENARIO, max_schedules=32)),)),
            ("frame", (("frame_static", check_frames), ("frame_dynamic", frame_dynamic))),
            ("bitfields", (("bitfields", check_pte_codec),)),
            ("ownership", (("ownership", check_ownership),)),
            ("refinement", (("refinement", lambda: check_refinement(
                stats=refinement_stats)),)),
        )
        clear_ast_cache()
        for name, parts in passes:
            findings: list = []
            try:
                for layer, run in parts:
                    with _section(recorder, f"analysis.{layer}"):
                        findings.extend(run())
            except Exception as exc:  # noqa: BLE001 - a crash is a wrong verdict
                verdicts.check(False, f"analysis {name} crashed: {type(exc).__name__}: {exc}")
                continue
            verdicts.check(
                not findings,
                f"analysis {name}: {len(findings)} findings, first: "
                + (str(findings[0]) if findings else ""),
            )
        if recorder is not None:
            stats = ast_cache_stats()
            recorder.counts["analysis.ast_parses"] += stats["parses"]
            recorder.counts["analysis.ast_hits"] += stats["hits"]
            recorder.counts["analysis.refinement_paths"] += refinement_stats.get(
                "paths_explored", 0
            )
        harnesses = (
            ("ownership_diff", diff.run_differential, diff.differential_ok),
            ("refinement_diff", diff.run_refinement_differential,
             diff.refinement_differential_ok),
            ("iommu_diff", diff.run_iommu_differential, diff.iommu_differential_ok),
        )
        for layer, run, ok in harnesses:
            try:
                with _section(recorder, f"analysis.{layer}"):
                    verdicts.check(ok(run()), f"analysis {layer}: not ok")
            except Exception as exc:  # noqa: BLE001 - a crash is a wrong verdict
                verdicts.check(False, f"analysis {layer} crashed: {type(exc).__name__}: {exc}")
        return None


def _section(recorder, layer: str):
    return recorder.section(layer) if recorder is not None else contextlib.nullcontext()


WORKLOADS = {w.name: w for w in (Suite, Soak, Hunt, Analysis)}


# -- measurements outside the timed passes ---------------------------------------


def coverage_cost(batches) -> float:
    """Seconds the coverage tracker added to ``batches``: each recorded
    ``run_batch`` call rerun as recorded and with ``coverage="off"``."""
    from repro.testing.campaign.worker import run_batch

    with_coverage = without = 0.0
    for machine_config, task, kwargs in batches:
        if kwargs.get("coverage", "functions") == "off":
            continue
        t0 = time.perf_counter()
        run_batch(machine_config, task, **kwargs)
        t1 = time.perf_counter()
        run_batch(machine_config, task, **{**kwargs, "coverage": "off"})
        t2 = time.perf_counter()
        with_coverage += t1 - t0
        without += t2 - t1
    return with_coverage - without
