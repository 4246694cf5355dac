"""One schedule runner, and systematic interleaving exploration over it.

The paper's closest prior work (Bornholt et al., S3) pairs its executable
specification with stateless model checking of interleavings. This module
adds the same capability over the deterministic scheduler:

- :func:`run_schedule` — the one execution core. It builds a fresh
  scenario on a scheduler, runs it under whatever policy that scheduler
  carries (optionally with the lockset race detector riding it), classifies
  the outcome and hashes its interleaving-class windows. This module's
  DFS, the concurrency campaign's calibration and PCT batches
  (:mod:`repro.testing.campaign.concurrency`) and the E15 bench all run
  their schedules through it; a plain replay of a recorded script is
  :meth:`repro.testing.trace.Trace.replay_schedule`.
- :func:`explore` — exhaustive depth-first enumeration of schedules by
  branching over the scheduler's decision points. Complete but
  exponential: it cannot scale past toy scenarios; the campaign's PCT
  sampling is the form that scales.

A scenario is re-executed from scratch per schedule (executions are
deterministic given the decision script), so any outcome — found by DFS
or by a random priority schedule — replays bit-identically by running its
:attr:`ScheduleOutcome.script` under the ``"script"`` policy.

Unlike the hand-written race tests — which pin the problematic window
with explicit synchronisation — DFS and PCT sampling find such windows
mechanically: useful exactly when one cannot anticipate where the race
is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sim.coverage import CoverageMap, windows_class, windows_of_scheduler
from repro.sim.sched import Scheduler


@dataclass
class ScheduleOutcome:
    """One explored schedule and how it ended."""

    script: tuple[str, ...]
    #: None for a clean run, else the exception raised.
    error: Exception | None
    decisions: int
    #: Lockset race reports for this schedule (``detect_races=True``):
    #: stable sorted strings, so outcomes compare equal across runs.
    races: tuple[str, ...] = ()
    #: Stable interleaving-class signature of the run (see
    #: :func:`repro.sim.coverage.windows_class`); 0 when not computed.
    interleaving_class: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def error_name(self) -> str:
        return type(self.error).__name__ if self.error is not None else ""

    def comparable(self) -> tuple:
        """The projection two runs of the same script must agree on —
        the determinism contract replay and shrinking depend on.
        (Exceptions compare by identity, hence the class name.)"""
        return (
            self.script,
            self.error_name,
            self.decisions,
            self.races,
            self.interleaving_class,
        )


@dataclass
class ExploreResult:
    outcomes: list[ScheduleOutcome] = field(default_factory=list)
    truncated: bool = False
    #: Merged interleaving-class coverage across all schedules run.
    coverage: CoverageMap = field(default_factory=CoverageMap)

    @property
    def schedules_run(self) -> int:
        return len(self.outcomes)

    def failures(self) -> list[ScheduleOutcome]:
        return [o for o in self.outcomes if o.failed]

    def first_failure(self) -> ScheduleOutcome | None:
        for outcome in self.outcomes:
            if outcome.failed:
                return outcome
        return None

    def races(self) -> tuple[str, ...]:
        """Union of race reports across all schedules, deduplicated."""
        return tuple(sorted({r for o in self.outcomes for r in o.races}))


def run_schedule(
    build: Callable[[Scheduler], object],
    scheduler: Scheduler,
    *,
    detect_races: bool = False,
    scenario_key: str = "",
    coverage: CoverageMap | None = None,
) -> ScheduleOutcome:
    """Build a fresh scenario on ``scheduler``, run it, classify it.

    ``build(scheduler)`` spawns the scenario's threads; what it returns
    is ignored, so :meth:`repro.testing.trace.Trace.spawn` is a build.
    An exception from the run becomes the outcome's ``error``; one from
    ``build`` is a harness bug and propagates. With ``detect_races``, an
    Eraser-style lockset tracker (:mod:`repro.analysis.lockset`) rides
    the scheduler as its ``lockset`` and its reports land in
    :attr:`ScheduleOutcome.races`. With ``coverage``, the run's windows
    are added under ``scenario_key``.
    """
    if detect_races:
        # Imported lazily: the analysis package depends on this module.
        from repro.analysis.lockset import LocksetTracker

        scheduler.lockset = LocksetTracker()
    build(scheduler)
    error: Exception | None = None
    try:
        scheduler.run()
    except Exception as exc:  # noqa: BLE001 - outcome classification
        error = exc
    windows = windows_of_scheduler(scheduler)
    if coverage is not None:
        coverage.add(scenario_key or "scenario", windows)
    tracker = scheduler.lockset
    return ScheduleOutcome(
        script=tuple(name for name, _alts in scheduler.decision_log),
        error=error,
        decisions=len(scheduler.decision_log),
        races=tracker.race_strings() if tracker is not None else (),
        interleaving_class=windows_class(windows),
    )


def explore(
    build: Callable[[Scheduler], object],
    *,
    max_schedules: int = 64,
    max_depth: int = 200,
    detect_races: bool = False,
) -> ExploreResult:
    """Enumerate interleavings of a scenario depth-first.

    ``build(scheduler)`` must construct a *fresh* scenario (machine,
    threads) and spawn its threads on the given scheduler; it is called
    once per schedule. Exploration branches on every scheduler decision
    within the first ``max_depth`` whose runnable set had more than one
    thread, re-running with each alternative prefix until
    ``max_schedules`` executions. Each outcome's script is the run's full
    decision log, so it replays the run exactly.

    With ``detect_races=True``, each schedule runs under the lockset
    tracker (see :func:`run_schedule`) — the explorer then flags racy
    locking even on schedules where the race does not strike.
    """
    result = ExploreResult()
    # Worklist of decision prefixes still to execute (DFS).
    pending: list[tuple[str, ...]] = [()]
    seen: set[tuple[str, ...]] = set()

    while pending:
        if result.schedules_run >= max_schedules:
            result.truncated = True
            break
        prefix = pending.pop()
        if prefix in seen:
            continue
        seen.add(prefix)

        scheduler = Scheduler(policy="script", script=list(prefix))
        outcome = run_schedule(
            build,
            scheduler,
            detect_races=detect_races,
            coverage=result.coverage,
        )
        result.outcomes.append(outcome)

        # Branch: at each decision from the forced prefix up to
        # max_depth, queue the alternatives not taken.
        for depth in range(len(prefix), min(outcome.decisions, max_depth)):
            chosen, runnable = scheduler.decision_log[depth]
            for alternative in runnable:
                if alternative == chosen:
                    continue
                branch = outcome.script[:depth] + (alternative,)
                if branch not in seen:
                    pending.append(branch)
    return result
