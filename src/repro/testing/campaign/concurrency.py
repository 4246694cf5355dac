"""Concurrency-campaign batches: PCT schedule fuzzing of multi-CPU traces.

The random campaign fuzzes *inputs* (hypercall sequences) against one
CPU; this module fuzzes *schedules*. A scenario is a fixed multi-CPU
trace — per-CPU hypercall/memory programs with no hand-written
synchronisation — and each batch step runs it under a fresh PCT priority
schedule (Burckhardt et al., ASPLOS 2010): distinct random thread
priorities plus ``pct_depth - 1`` seeded priority-change points. A
schedule that makes the scenario panic or crash becomes a finding whose
trace carries the scheduler's full decision script in
``meta["schedule"]``, so :meth:`repro.testing.trace.Trace.replay_schedule`
reproduces the exact interleaving bit-for-bit. Every schedule, the
calibration run included, goes through
:func:`repro.sim.explore.run_schedule` with
:meth:`~repro.testing.trace.Trace.spawn` as its build.

Two feedback signals close the loop:

- each run's interleaving-class windows land, keyed by scenario, in the
  batch's :class:`repro.sim.coverage.CoverageMap` (novelty feeds the
  budget scheduler exactly like new oracle classes in random mode);
- the lockset detector's racy locations are mapped to yield-tag
  fragments and shipped back as *priority tags* — later batches' PCT
  schedulers treat yield points at those tags as extra candidate
  priority-change points, steering schedules toward the code the race
  detector already distrusts.
"""

from __future__ import annotations

from collections import Counter

from repro.arch.defs import PAGE_SIZE, phys_to_pfn
from repro.pkvm.defs import HypercallId
from repro.sim.explore import run_schedule
from repro.sim.sched import Scheduler
from repro.testing.campaign.findings import FINDING_EXCEPTIONS, make_finding
from repro.testing.trace import Trace

#: DRAM base of the simulated machine (see ``repro.arch.memory``); the
#: scenarios place their pages at fixed offsets above it so traces are
#: pure data — no allocator calls, no recorded return values.
DRAM_BASE = 0x4000_0000

#: First VM handle the hypervisor hands out (``VmTable`` is
#: deterministic), so a pre-recorded trace can name the VM its own
#: ``INIT_VM`` step will create without reading the return value.
FIRST_HANDLE = 0x1000


def _page(index: int) -> int:
    """Fixed scenario page addresses: 2 MiB above DRAM base, one page
    per index — far from the boot-time carveout and the host's bump
    allocator, and demand-faulted into the host stage 2 on first use."""
    return DRAM_BASE + 0x20_0000 + index * PAGE_SIZE


def vcpu_race_trace(nr_cpus: int = 2) -> Trace:
    """The paper's vcpu load/init race surface (bug 3), unsynchronised.

    CPU 0 performs a well-formed ``INIT_VM`` + ``INIT_VCPU``; CPU 1
    hammers ``VCPU_LOAD``/``VCPU_RUN`` against the handle CPU 0 will
    create. No schedule-independent ordering makes this fail — only a
    schedule that lands CPU 1's load inside the publish-before-init
    window (with ``vcpu_load_race`` injected) runs an uninitialised
    vCPU.
    """
    trace = Trace(nr_cpus=max(2, nr_cpus))
    params, pgd, donated = _page(0), _page(1), _page(2)
    # CPU 0: params page (1 vcpu, protected, pgd pfn), share, init, vcpu.
    trace.record_write(params, 1, 0)
    trace.record_write(params + 8, 1, 0)
    trace.record_write(params + 16, phys_to_pfn(pgd), 0)
    trace.record_hvc(0, HypercallId.HOST_SHARE_HYP, phys_to_pfn(params))
    trace.record_hvc(0, HypercallId.INIT_VM, phys_to_pfn(params))
    trace.record_hvc(0, HypercallId.INIT_VCPU, FIRST_HANDLE, phys_to_pfn(donated))
    # CPU 1: racing load+run attempts. Early attempts lose harmlessly
    # (-ENOENT before the VM exists); one may land in the window. A
    # failed attempt costs only ~2 yield points, so CPU 1 needs a deep
    # pool of them to still be running when CPU 0 — whose INIT_VM walks
    # hundreds of page-table yields — finally opens the window; the pool
    # also stretches the calibrated k, pushing uniform change points
    # past CPU 0's long pre-window prefix.
    for _ in range(240):
        trace.record_hvc(1, HypercallId.VCPU_LOAD, FIRST_HANDLE, 0)
        trace.record_hvc(1, HypercallId.VCPU_RUN)
    return trace


def host_fault_trace(nr_cpus: int = 2) -> Trace:
    """The paper's concurrent host-pagefault surface (bug 4).

    Every CPU touches the *same* unmapped page (plus a private page for
    schedule diversity); with ``host_fault_fragile`` injected, two fault
    handlers interleaving on the shared page panic on the second,
    already-mapped mapping attempt.
    """
    nr_cpus = max(2, nr_cpus)
    trace = Trace(nr_cpus=nr_cpus)
    shared = _page(8)
    for cpu in range(nr_cpus):
        trace.record_read(shared, cpu)
        trace.record_write(_page(9 + cpu), 0xC0FFEE00 + cpu, cpu)
        trace.record_read(shared, cpu)
    return trace


def mixed_trace(nr_cpus: int = 2) -> Trace:
    """Both surfaces in one trace: the vcpu-race programs on CPUs 0-1
    plus the shared-pagefault touches on every CPU.

    Every CPU also share/unshares a private page first. That drives
    ``pgt:hyp_s1`` into the Eraser shared-modified state, so
    ``INIT_VM``'s lock-free precondition read trips the lockset
    detector — exercising the racy-pair feedback channel (reported
    locations become later batches' PCT priority tags) on the stock
    scenario."""
    nr_cpus = max(2, nr_cpus)
    trace = vcpu_race_trace(nr_cpus)
    prelude = Trace(nr_cpus=nr_cpus)
    for cpu in range(nr_cpus):
        private = phys_to_pfn(_page(16 + cpu))
        prelude.record_hvc(cpu, HypercallId.HOST_SHARE_HYP, private)
        prelude.record_hvc(cpu, HypercallId.HOST_UNSHARE_HYP, private)
    trace.steps[:0] = prelude.steps
    shared = _page(8)
    for cpu in range(nr_cpus):
        trace.record_read(shared, cpu)
        trace.record_write(_page(9 + cpu), 0xC0FFEE00 + cpu, cpu)
    return trace


#: A campaign builds every scenario for its machine's CPU count, a
#: trace's default (4); the builders' own default of 2 serves direct use.
CAMPAIGN_CPUS = Trace.nr_cpus

#: Scenario registry: name -> trace builder taking ``nr_cpus``.
CONCURRENCY_SCENARIOS = {
    "vcpu-race": vcpu_race_trace,
    "host-fault": host_fault_trace,
    "mixed": mixed_trace,
}

#: A yield tag seen at most this often in a calibration run is "rare":
#: almost certainly a hand-annotated ordering window or a one-shot
#: publication point rather than a bulk page-table walk, and therefore a
#: prime candidate priority-change point.
RARE_TAG_MAX = 2


def calibrate(trace: Trace) -> tuple[int, tuple[str, ...]]:
    """One round-robin run of the scenario: measure the schedule length
    (the PCT ``k`` parameter — change points drawn past the run's end
    are wasted) and collect its rare yield tags.

    Uniform change points almost never land in a 2-tick race window out
    of several hundred; rare tags mark exactly those windows, so feeding
    them to the PCT scheduler as priority tags turns a ~1/k chance per
    change point into a coin flip per window passage. Tolerates the
    calibration run itself failing (round-robin trivially strikes some
    races): the partial decision count and tags are still usable.
    """
    scheduler = Scheduler(policy="rr")
    outcome = run_schedule(trace.spawn, scheduler)
    if outcome.failed and not isinstance(outcome.error, FINDING_EXCEPTIONS):
        raise outcome.error  # a harness bug, not a race
    counts = Counter(tag for _tick, _name, tag in scheduler.trace if tag)
    rare = tuple(
        sorted(tag for tag, n in counts.items() if n <= RARE_TAG_MAX)
    )
    return max(1, outcome.decisions), rare


def racy_tags_from_races(race_strings: tuple[str, ...]) -> set[str]:
    """Map lockset race locations to yield-tag fragments.

    Race reports name shared *locations* (``pgt:host_s2``,
    ``vcpu:0:0``, ``vm_table``); PCT priority tags match scheduler
    *yield tags* by substring. The translation: page-table locations
    yield at ``pte:<name>``, vCPU metadata yields at ``vcpu_*`` tags,
    and lock-protected structures yield at ``lock:<name>``/
    ``unlock:<name>`` (substring match covers both).
    """
    tags: set[str] = set()
    for race in race_strings:
        location = race.split(": ", 1)[0]
        if location.startswith("pgt:"):
            tags.add("pte:" + location[len("pgt:") :])
        elif location.startswith("vcpu:"):
            tags.add("vcpu")
        else:
            tags.add(location)
    return tags


def run_concurrency_batch(
    machine_config: dict,
    task,
    result,
    obs,
    *,
    scenario: str = "mixed",
    pct_depth: int = 3,
) -> None:
    """Concurrency mode's loop inside
    :func:`repro.testing.campaign.worker.run_batch`: ``task.steps`` PCT
    schedules of one scenario, filling ``result`` (a ``BatchResult``)
    under the batch's ``obs`` bundle. Same first-finding-ends-the-batch
    contract as random mode, but the search dimension is the schedule,
    not the input.

    Schedule ``i`` is seeded ``task.seed + i``, so any finding names its
    schedule seed *and* carries the recorded decision script; replay
    needs only the script. Each schedule runs under one ``schedule`` span
    (carrying that seed) on the batch's tracer; the scenario machines
    trace into bundles of their own.
    """
    if scenario not in CONCURRENCY_SCENARIOS:
        raise ValueError(f"unknown concurrency scenario {scenario!r}")
    build = CONCURRENCY_SCENARIOS[scenario]
    bug_names = machine_config["bug_names"]
    racy: set[str] = set()
    # Calibrate once per batch: the PCT step bound k and the scenario's
    # rare-tag windows, merged with the engine's racy-pair feedback.
    cal_trace = build(CAMPAIGN_CPUS)
    cal_trace.bug_names = bug_names
    pct_steps, rare_tags = calibrate(cal_trace)
    priority_tags = tuple(sorted(set(task.priority_tags) | set(rare_tags)))

    for i in range(task.steps):
        sched_seed = task.seed + i
        trace = build(CAMPAIGN_CPUS)
        trace.bug_names = bug_names
        trace.meta.update(
            worker_id=task.worker_id,
            batch_index=task.batch_index,
            seed=task.seed,
            sched_seed=sched_seed,
            scenario=scenario,
        )
        scheduler = Scheduler(
            policy="pct",
            seed=sched_seed,
            pct_depth=pct_depth,
            pct_steps=pct_steps,
            priority_tags=priority_tags,
            obs=obs,
        )
        with obs.tracer.span("schedule", "campaign", seed=sched_seed):
            outcome = run_schedule(
                trace.spawn,
                scheduler,
                detect_races=True,
                scenario_key=scenario,
                coverage=result.coverage,
            )
        racy |= racy_tags_from_races(outcome.races)
        if outcome.failed and not isinstance(outcome.error, FINDING_EXCEPTIONS):
            raise outcome.error
        result.steps_run = i + 1
        result.hypercalls += sum(1 for s in trace.steps if s[0] == "hvc")
        if outcome.failed:
            trace.meta["schedule"] = list(scheduler.schedule_script())
            result.finding = make_finding(
                outcome.error,
                trace,
                worker_id=task.worker_id,
                batch_index=task.batch_index,
                seed=sched_seed,
                step_index=i,
                call_name=f"scenario:{scenario}",
            )
            result.finding.sched_len = len(trace.meta["schedule"])
            break
    result.racy_tags = tuple(sorted(racy))
