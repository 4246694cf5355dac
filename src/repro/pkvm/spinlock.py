"""hyp_spin_lock with instrumentation hooks.

pKVM protects each page table with its own lock rather than a big lock;
the ghost machinery attaches to exactly these lock operations to record
abstractions at the points where the implementation owns the state (paper
§3.2: "on taking or releasing any of the locks protecting the pagetables,
to record their abstract mappings").

Hooks fire *after* acquisition and *before* release, i.e. while the lock is
held, so the recording itself is race-free — the same place the paper's
``host_lock_component`` instrumentation sits.

Under the simulation scheduler a lock also yields ``lock:<name>`` before
it is taken and ``unlock:<name>`` after it is dropped. Those tags are all
a race detector needs: the lockset tracker riding the scheduler
(:mod:`repro.analysis.lockset`) reads its held sets from them.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.sched import current_scheduler, yield_point

AcquireHook = Callable[["HypSpinLock", int], None]
ReleaseHook = Callable[["HypSpinLock", int], None]


class LockError(Exception):
    """A locking discipline violation (double acquire, foreign release)."""


class HypSpinLock:
    """A spinlock as pKVM uses at EL2.

    Under the simulation scheduler, contended acquisition spins with yield
    points, so interleavings explore the same races real hardware threads
    would. Outside the scheduler (single-CPU tests) contention is a
    discipline error and raises immediately.
    """

    def __init__(self, name: str):
        self.name = name
        # Scheduler yield tags, formatted once.
        self._lock_tag = f"lock:{name}"
        self._unlock_tag = f"unlock:{name}"
        self._holder: int | None = None
        #: Cumulative acquisition count, for test assertions.
        self.acquisitions = 0
        self.on_acquire: list[AcquireHook] = []
        self.on_release: list[ReleaseHook] = []

    @property
    def held(self) -> bool:
        return self._holder is not None

    def held_by(self, cpu_index: int) -> bool:
        return self._holder == cpu_index

    def acquire(self, cpu_index: int) -> None:
        if self._holder == cpu_index:
            raise LockError(f"cpu{cpu_index} re-acquiring {self.name}")
        sched = current_scheduler()
        if sched is not None:
            # A scheduling point before the test-and-set, then spin until
            # free. block_until returns with the turn held and the
            # predicate true, and no yield happens between that check and
            # taking the lock, so the take is atomic.
            yield_point(self._lock_tag)
            while self._holder is not None:
                sched.block_until(lambda: self._holder is None, self.name)
        elif self._holder is not None:
            raise LockError(
                f"cpu{cpu_index} would deadlock on {self.name} "
                f"(held by cpu{self._holder}, no scheduler)"
            )
        self._holder = cpu_index
        self.acquisitions += 1
        for hook in self.on_acquire:
            hook(self, cpu_index)

    def release(self, cpu_index: int) -> None:
        if self._holder is None:
            raise LockError(
                f"cpu{cpu_index} releasing {self.name}, which is not held"
            )
        if self._holder != cpu_index:
            raise LockError(
                f"cpu{cpu_index} releasing {self.name} held by "
                f"cpu{self._holder}"
            )
        # Hooks observe the lock as still held (their recording must be
        # race-free), but a hook that raises must not leave it held — the
        # exception already aborts the critical section, and a stuck lock
        # would turn one failure into a cascade of phantom deadlocks.
        try:
            for hook in self.on_release:
                hook(self, cpu_index)
        finally:
            self._holder = None
        yield_point(self._unlock_tag)

    def __repr__(self) -> str:
        state = f"held by cpu{self._holder}" if self.held else "free"
        return f"HypSpinLock({self.name}, {state})"
