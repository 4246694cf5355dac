"""PCT schedule fuzzing *discovers* both paper races — no hand-pinned
synchronisation.

The hand-written regression tests in ``test_concurrency.py`` pin each
racy window with explicit cross-CPU synchronisation; these tests instead
hand PCT a plain multi-CPU hypercall trace (no ordering constraints
beyond per-CPU program order) and a schedule budget, and require that
randomized priority schedules find the window from a pinned seed:

- the vCPU load/init race (``vcpu_load_race``, paper bug 3): a vCPU is
  published before its metadata is initialised, and a racing
  ``vcpu_load`` on another CPU wins the window;
- the concurrent host page-fault race (``host_fault_fragile``, paper
  bug 4): two CPUs demand-fault the same unmapped page and the second
  fault aborts on the already-mapped IPA.

Each finding's recorded decision script must then replay bit-identically
to the same failure under the ``"script"`` policy — the determinism
contract campaign findings depend on.
"""

import pytest

from repro.arch.exceptions import HypervisorPanic
from repro.sim.explore import run_schedule
from repro.sim.sched import Scheduler
from repro.testing.campaign.concurrency import CONCURRENCY_SCENARIOS, calibrate

#: (scenario, injected bug, pinned base seed, schedule budget, panic text)
RACES = [
    pytest.param(
        "vcpu-race",
        "vcpu_load_race",
        0,
        16,
        "uninitialised vCPU metadata",
        id="vcpu-load-init",
    ),
    pytest.param(
        "host-fault",
        "host_fault_fragile",
        0,
        4,
        "already-mapped IPA",
        id="concurrent-host-pagefault",
    ),
]


def _fresh(scenario, bug):
    trace = CONCURRENCY_SCENARIOS[scenario]()
    trace.bug_names = (bug,)
    return trace


def _discover(scenario, bug, base_seed, budget):
    """Run PCT schedules until the race strikes; return (seed, scheduler,
    exception) or fail."""
    k, rare_tags = calibrate(_fresh(scenario, bug))
    for seed in range(base_seed, base_seed + budget):
        scheduler = Scheduler(
            policy="pct",
            seed=seed,
            pct_depth=3,
            pct_steps=k,
            priority_tags=rare_tags,
        )
        error = run_schedule(_fresh(scenario, bug).spawn, scheduler).error
        if isinstance(error, HypervisorPanic):
            return seed, scheduler, error
        if error is not None:
            raise error
    pytest.fail(
        f"{scenario}: PCT did not find the race in {budget} schedules "
        f"from seed {base_seed}"
    )


@pytest.mark.parametrize("scenario,bug,base_seed,budget,panic_text", RACES)
def test_pct_discovers_paper_race(scenario, bug, base_seed, budget, panic_text):
    _seed, _scheduler, exc = _discover(scenario, bug, base_seed, budget)
    assert panic_text in str(exc)


@pytest.mark.parametrize("scenario,bug,base_seed,budget,panic_text", RACES)
def test_discovered_schedule_replays_to_same_failure(
    scenario, bug, base_seed, budget, panic_text
):
    _seed, scheduler, exc = _discover(scenario, bug, base_seed, budget)
    script = scheduler.schedule_script()
    for _ in range(2):  # twice: replay must itself be deterministic
        replay = Scheduler(policy="script", script=list(script))
        error = run_schedule(_fresh(scenario, bug).spawn, replay).error
        assert isinstance(error, HypervisorPanic)
        assert panic_text in str(error)
        # Same interleaving, not merely the same failure class.
        assert [(n, t) for _, n, t in replay.trace] == [
            (n, t) for _, n, t in scheduler.trace
        ]


def test_scenario_traces_carry_no_synchronisation():
    # The whole point: discovery works on plain per-CPU programs. The
    # scenario traces contain only hypercall/memory steps — none of the
    # cross-CPU sync script steps the hand-written tests rely on.
    for name, build in CONCURRENCY_SCENARIOS.items():
        trace = build()
        kinds = {step[0] for step in trace.steps}
        assert kinds <= {"hvc", "write", "read"}, name


def test_clean_tree_survives_the_same_budgets():
    # With no bug injected, the very schedules that break the buggy
    # hypervisor pass cleanly — the finding is the bug's, not the
    # harness's.
    for scenario, bug, base_seed, budget, _text in (
        p.values for p in RACES
    ):
        trace = CONCURRENCY_SCENARIOS[scenario]()
        k, rare_tags = calibrate(trace)
        for seed in range(base_seed, base_seed + budget):
            clean = CONCURRENCY_SCENARIOS[scenario]()
            scheduler = Scheduler(
                policy="pct",
                seed=seed,
                pct_depth=3,
                pct_steps=k,
                priority_tags=rare_tags,
            )
            assert run_schedule(clean.spawn, scheduler).error is None
