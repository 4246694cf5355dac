"""Eraser-style dynamic lockset race detection over the simulator.

Savage et al.'s lockset algorithm, specialised to the repro's cooperative
scheduler: every shared location ``v`` carries a candidate lockset
``C(v)`` — the set of locks held on *every* access so far — refined by
intersection with the accessing thread's current lockset. When ``C(v)``
goes empty for a location that is written by multiple threads, no single
lock protects it and the access is reported as a race.

The per-location state machine limits false positives from initialisation
and read-sharing, as in the original paper:

- **virgin** — never accessed; first access makes it exclusive.
- **exclusive** — only one thread has touched it so far; no refinement
  (initialisation is typically lock-free and benign).
- **shared** — read by multiple threads, never written after becoming
  shared; ``C(v)`` is refined but empty ``C(v)`` is not reported.
- **shared-modified** — written by multiple threads; empty ``C(v)``
  is a race.

Wiring: a tracker rides one :class:`repro.sim.sched.Scheduler` (its
``lockset`` attribute, set by ``run_schedule(detect_races=True)``) and
reads only what that scheduler hands it. :meth:`LocksetTracker.on_yield`
sees every yield point; the ``lock:<name>`` tag a ``HypSpinLock`` yields
before taking a lock adds it to the thread's held set, and the
``unlock:<name>`` tag it yields after dropping one removes it, so per-VM
locks created mid-run are covered. Between such a yield and the take or
drop the thread only spins, so every access sees the held set of the
lock operations around it. :meth:`LocksetTracker.on_access` sees every
``repro.sim.sched.shared_access`` call the scheduler's threads make.
Events from other schedulers and from OS threads outside any scheduler —
machine boot, ordinary single-CPU tests — never reach it: the detector
reasons about one run's simulated hardware threads only. The cooperative
scheduler runs exactly one sim thread at a time, so the tracker itself
needs no synchronisation.

The repro deliberately leaves one location unprotected by design:
``vcpu_run`` accesses vCPU metadata with no lock because ``vcpu_load``
transferred ownership to the physical CPU (the paper's §3 "additional
subtlety"). Those post-transfer accesses are not instrumented; the
load/put transfer points themselves are, and remain lock-protected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class LocationState(enum.Enum):
    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared-modified"


@dataclass(frozen=True)
class RaceReport:
    """One empty-lockset access: no lock consistently protects ``location``."""

    location: str
    thread: str
    write: bool

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        return (
            f"{self.location}: {kind} by {self.thread} with empty candidate "
            "lockset (no lock consistently protects this location)"
        )


@dataclass
class _Location:
    state: LocationState = LocationState.VIRGIN
    owner: str | None = None
    #: Candidate lockset; None until first refinement (meaningless while
    #: exclusive — set from the held-set at the sharing transition).
    candidates: frozenset[str] | None = None
    reported: bool = False


@dataclass
class LocksetTracker:
    """Lockset state for one scheduled run."""

    #: Thread name -> set of lock names currently held.
    held: dict[str, set[str]] = field(default_factory=dict)
    locations: dict[str, _Location] = field(default_factory=dict)
    races: list[RaceReport] = field(default_factory=list)

    # -- core algorithm (directly testable without the simulator) --------

    def record_access(
        self, location: str, *, thread: str, held: frozenset[str], write: bool
    ) -> None:
        loc = self.locations.setdefault(location, _Location())
        if loc.state is LocationState.VIRGIN:
            loc.state = LocationState.EXCLUSIVE
            loc.owner = thread
            return
        if loc.state is LocationState.EXCLUSIVE:
            if thread == loc.owner:
                return
            # Second thread arrives: start refinement from its lockset.
            loc.candidates = held
            loc.state = (
                LocationState.SHARED_MODIFIED if write else LocationState.SHARED
            )
        else:
            assert loc.candidates is not None
            loc.candidates = loc.candidates & held
            if write:
                loc.state = LocationState.SHARED_MODIFIED
        if (
            loc.state is LocationState.SHARED_MODIFIED
            and not loc.candidates
            and not loc.reported
        ):
            loc.reported = True
            self.races.append(RaceReport(location, thread, write))

    def record_acquire(self, thread: str, lock: str) -> None:
        self.held.setdefault(thread, set()).add(lock)

    def record_release(self, thread: str, lock: str) -> None:
        self.held.setdefault(thread, set()).discard(lock)

    # -- the scheduler's feed ---------------------------------------------

    def on_yield(self, thread: str, tag: str) -> None:
        kind, _, lock = tag.partition(":")
        if kind == "lock":
            self.record_acquire(thread, lock)
        elif kind == "unlock":
            self.record_release(thread, lock)

    def on_access(self, thread: str, location: str, write: bool) -> None:
        held = frozenset(self.held.get(thread, ()))
        self.record_access(location, thread=thread, held=held, write=write)

    # -- results ----------------------------------------------------------

    def race_strings(self) -> tuple[str, ...]:
        """Stable, deduplicated race descriptions for this run."""
        return tuple(sorted({r.describe() for r in self.races}))
