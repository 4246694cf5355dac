"""Deterministic simulation of concurrent hardware threads.

pKVM is "highly concurrent": multiple hardware threads can be executing at
EL2 at once, interleaved at the granularity of individual memory accesses
and lock operations. The real paper exercises this on hardware threads in
QEMU; we substitute a cooperative scheduler that admits exactly one
simulated CPU at a time and switches between them at instrumented *yield
points* (spinlock operations and page-table memory writes), under a seeded
or scripted policy. This makes the races the paper found (the vcpu
load/init race, the concurrent host-pagefault panic) reproducible
deterministically.
"""

from repro.sim.coverage import (
    CoverageMap,
    schedule_class,
    schedule_windows,
    windows_of_scheduler,
)
from repro.sim.explore import (
    ExploreResult,
    ScheduleOutcome,
    explore,
    run_schedule,
)
from repro.sim.sched import (
    DeadlockError,
    Scheduler,
    SimThread,
    current_scheduler,
    yield_point,
)

__all__ = [
    "CoverageMap",
    "DeadlockError",
    "ExploreResult",
    "ScheduleOutcome",
    "Scheduler",
    "SimThread",
    "current_scheduler",
    "explore",
    "run_schedule",
    "schedule_class",
    "schedule_windows",
    "windows_of_scheduler",
    "yield_point",
]
