"""Schedule coverage: a mergeable map of explored interleaving classes.

Line coverage is a poor novelty signal for concurrency fuzzing — two
schedules can execute the same lines in different orders, and it is the
*order* that hides races. This module's analogue of the campaign's
:class:`repro.testing.coverage.CoverageMap` abstracts a scheduler run
into its **interleaving class**: the set of hashed sliding windows over
the scheduler trace's (thread, tag) pairs. Two schedules in the same
class context-switched at the same instrumented operations in the same
local orders; a schedule contributing new windows ordered something no
earlier schedule did.

Hashes are content-stable (BLAKE2, not Python's randomized ``hash``), so
maps built in different worker processes merge exactly like coverage
bitmaps: set union per scenario, associative, commutative, idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b

#: Sliding-window length over the (thread, tag) event stream. Window
#: hashes at w=1 collapse to "which operations ran" (plain coverage);
#: larger windows distinguish ever-finer orderings. 4 keeps the map
#: small while still separating e.g. lock-acquire orders across threads.
DEFAULT_WINDOW = 4


def _hash_window(window: tuple[tuple[str, str], ...]) -> int:
    digest = blake2b(repr(window).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def schedule_windows(events: list[tuple[str, str]]) -> set[int]:
    """The window-hash set of one run's (thread, tag) event stream.

    Consecutive events from the *same* thread are collapsed first: a
    thread taking 50 uninterrupted yield points is the same interleaving
    decision as taking 2, and collapsing keeps spin loops from minting
    unbounded fake novelty.
    """
    collapsed: list[tuple[str, str]] = []
    for thread, tag in events:
        if collapsed and collapsed[-1][0] == thread:
            continue
        collapsed.append((thread, tag))
    if not collapsed:
        return set()
    if len(collapsed) < DEFAULT_WINDOW:
        return {_hash_window(tuple(collapsed))}
    return {
        _hash_window(tuple(collapsed[i : i + DEFAULT_WINDOW]))
        for i in range(len(collapsed) - DEFAULT_WINDOW + 1)
    }


def windows_class(windows: set[int]) -> int:
    """A single stable signature for an interleaving class — the
    order-insensitive hash of its window set (schedule dedup key)."""
    acc = 0
    for h in windows:
        acc ^= h
    return acc


def schedule_class(events: list[tuple[str, str]]) -> int:
    """The interleaving-class signature of one run's event stream."""
    return windows_class(schedule_windows(events))


def windows_of_scheduler(sched) -> set[int]:
    """Windows from a finished :class:`repro.sim.sched.Scheduler` trace."""
    return schedule_windows([(name, tag) for _tick, name, tag in sched.trace])


@dataclass
class ScheduleCoverageMap:
    """Mergeable interleaving-class coverage, keyed per scenario.

    The concurrency campaign's novelty signal: each worker batch snapshots
    the window hashes its schedules produced, ships the map over the
    result queue, and the engine merges it — :meth:`merge` returns how
    many windows were new, which the budget scheduler feeds on exactly as
    it feeds on new covered lines in random mode.
    """

    windows: dict[str, set[int]] = field(default_factory=dict)

    def add(self, scenario: str, windows: set[int]) -> int:
        """Fold one run's windows in; returns how many were new."""
        mine = self.windows.setdefault(scenario, set())
        before = len(mine)
        mine |= windows
        return len(mine) - before

    def merge(self, other: "ScheduleCoverageMap") -> int:
        """Fold ``other`` in; returns how many *new* windows it
        contributed (the schedule-novelty signal)."""
        new = 0
        for scenario, windows in other.windows.items():
            new += self.add(scenario, windows)
        return new

    def __or__(self, other: "ScheduleCoverageMap") -> "ScheduleCoverageMap":
        merged = self.copy()
        merged.merge(other)
        return merged

    def copy(self) -> "ScheduleCoverageMap":
        return ScheduleCoverageMap(
            windows={k: set(v) for k, v in self.windows.items()}
        )

    def window_count(self) -> int:
        return sum(len(v) for v in self.windows.values())

    def seen(self, scenario: str, windows: set[int]) -> bool:
        """Whether every window of a run is already covered — i.e. the
        run's interleaving class brings nothing new."""
        mine = self.windows.get(scenario, set())
        return windows <= mine

    def to_jsonable(self) -> dict:
        return {
            "windows": {
                k: sorted(v) for k, v in sorted(self.windows.items())
            }
        }

    @staticmethod
    def from_jsonable(data: dict) -> "ScheduleCoverageMap":
        return ScheduleCoverageMap(
            windows={
                k: set(v) for k, v in data.get("windows", {}).items()
            }
        )
