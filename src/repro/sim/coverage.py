"""The campaign's one coverage map, and interleaving-class windows.

:class:`CoverageMap` holds a set of points per key. Its points are the
oracle's trap classes in random and IOMMU campaigns and
interleaving-class windows in concurrency mode. It lives here, in the substrate, because the schedule
runner (:mod:`repro.sim.explore`) fills it and cannot import
:mod:`repro.testing`.

Line coverage is a poor novelty signal for concurrency fuzzing — two
schedules can execute the same lines in different orders, and it is the
*order* that hides races. A scheduler run is abstracted into its
**interleaving class**: the set of hashed sliding windows over the
scheduler trace's (thread, tag) pairs. Two schedules in the same class
context-switched at the same instrumented operations in the same local
orders; a schedule contributing new windows ordered something no earlier
schedule did.

Hashes are content-stable (BLAKE2, not Python's randomized ``hash``), so
maps built in different worker processes merge exactly: set union per
key, associative, commutative, idempotent.
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
class CoverageMap:
    """A campaign's mergeable novelty map: a set of points per key.

    Each worker batch ships one back with its result and the engine
    merges it; :meth:`merge` returns how many points were new, which is
    the budget scheduler's novelty signal in every mode.
    """

    points: dict[str, set] = field(default_factory=dict)

    def add(self, key: str, points: set) -> int:
        """Fold ``points`` in under ``key``; returns how many were new."""
        mine = self.points.setdefault(key, set())
        before = len(mine)
        mine |= points
        return len(mine) - before

    def merge(self, other: "CoverageMap") -> int:
        """Fold ``other`` in; returns how many *new* points it contributed."""
        return sum(
            self.add(key, points) for key, points in other.points.items()
        )

    def __or__(self, other: "CoverageMap") -> "CoverageMap":
        merged = self.copy()
        merged.merge(other)
        return merged

    def copy(self) -> "CoverageMap":
        return CoverageMap({key: set(v) for key, v in self.points.items()})

    def count(self) -> int:
        return sum(len(v) for v in self.points.values())

    def seen(self, key: str, points: set) -> bool:
        """Whether every one of ``points`` is already covered under
        ``key`` — i.e. they bring nothing new."""
        return points <= self.points.get(key, set())

    def to_jsonable(self) -> dict:
        return {key: sorted(v) for key, v in sorted(self.points.items())}

    @staticmethod
    def from_jsonable(data: dict) -> "CoverageMap":
        return CoverageMap({key: set(v) for key, v in data.items()})
