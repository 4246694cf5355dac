"""Tests for the Eraser-style lockset tracker (repro.analysis.lockset)."""

from repro.analysis.lockset import LocationState, LocksetTracker
from repro.pkvm.spinlock import HypSpinLock
from repro.sim.sched import Scheduler, shared_access, yield_point


def access(tracker, loc, thread, held=(), write=False):
    tracker.record_access(
        loc, thread=thread, held=frozenset(held), write=write
    )


class TestStateMachine:
    def test_single_thread_never_reports(self):
        """Initialisation without locks is the normal, benign case."""
        t = LocksetTracker()
        for _ in range(3):
            access(t, "v", "a", write=True)
        assert t.locations["v"].state is LocationState.EXCLUSIVE
        assert t.races == []

    def test_consistently_locked_sharing_is_clean(self):
        t = LocksetTracker()
        access(t, "v", "a", held={"L"}, write=True)
        access(t, "v", "b", held={"L", "M"}, write=True)
        access(t, "v", "a", held={"L"}, write=True)
        assert t.locations["v"].candidates == {"L"}
        assert t.races == []

    def test_read_only_sharing_not_reported(self):
        """Shared (never written after sharing) tolerates an empty C(v)."""
        t = LocksetTracker()
        access(t, "v", "a")
        access(t, "v", "b")
        assert t.locations["v"].state is LocationState.SHARED
        assert t.races == []

    def test_unlocked_write_sharing_reported(self):
        t = LocksetTracker()
        access(t, "v", "a", held={"L"}, write=True)
        access(t, "v", "b", write=True)
        assert [r.location for r in t.races] == ["v"]
        assert t.races[0].thread == "b"
        assert t.races[0].write

    def test_inconsistent_locks_reported(self):
        """Each access is locked, but by different locks: still a race.

        Per Eraser, refinement only starts at the sharing transition (the
        first thread's lockset is deliberately forgotten, or lock-free
        initialisation would flood the report), so the race surfaces on
        the third access, when the candidate set {M} meets {L}.
        """
        t = LocksetTracker()
        access(t, "v", "a", held={"L"}, write=True)
        access(t, "v", "b", held={"M"}, write=True)
        assert t.races == []  # C(v) = {M}: not yet provably unprotected
        access(t, "v", "a", held={"L"}, write=True)
        assert len(t.races) == 1

    def test_unlocked_read_after_shared_modified_reported(self):
        t = LocksetTracker()
        access(t, "v", "a", held={"L"}, write=True)
        access(t, "v", "b", held={"L"}, write=True)
        access(t, "v", "b", held=set())
        assert len(t.races) == 1
        assert not t.races[0].write

    def test_reported_once_per_location(self):
        t = LocksetTracker()
        access(t, "v", "a", held={"L"}, write=True)
        for _ in range(5):
            access(t, "v", "b", write=True)
        assert len(t.races) == 1

    def test_race_strings_sorted_and_deduped(self):
        t = LocksetTracker()
        for loc in ("z", "y"):
            access(t, loc, "a", held={"L"}, write=True)
            access(t, loc, "b", write=True)
        assert t.race_strings() == tuple(sorted(t.race_strings()))
        assert len(t.race_strings()) == 2


def run_racy_writers(sched):
    """Run two threads writing "v" on ``sched``: "a" under a lock, "b"
    without one."""
    lock = HypSpinLock("l")

    def locked_writer():
        for _ in range(3):
            lock.acquire(0)
            shared_access("v", write=True)
            lock.release(0)

    def unlocked_writer():
        # Repeated accesses with yield points in between: whatever the
        # interleaving, at least one unlocked write lands after the
        # location is already shared between the threads.
        for _ in range(3):
            shared_access("v", write=True)
            yield_point("unlocked")

    sched.spawn(locked_writer, "a")
    sched.spawn(unlocked_writer, "b")
    sched.run()


class TestSchedulerWiring:
    def test_non_sim_threads_ignored(self):
        """Accesses outside the scheduler (boot, plain tests) don't count."""
        sched = Scheduler(policy="rr")
        sched.lockset = t = LocksetTracker()
        lock = HypSpinLock("l")
        lock.acquire(0)
        shared_access("v", write=True)
        lock.release(0)
        assert t.locations == {}
        assert t.held == {}

    def test_sim_threads_tracked_through_real_locks(self):
        sched = Scheduler(policy="rr")
        sched.lockset = t = LocksetTracker()
        run_racy_writers(sched)
        assert len(t.races) == 1
        report = t.races[0].describe()
        assert "v" in report and "empty candidate lockset" in report
        assert t.held == {"a": set()}  # every unlock: tag was heard

    def test_tracker_hears_only_its_own_scheduler(self):
        """A run on one scheduler never reaches another's tracker."""
        idle = Scheduler(policy="rr")
        idle.lockset = bystander = LocksetTracker()
        racy = Scheduler(policy="rr")
        racy.lockset = own = LocksetTracker()
        run_racy_writers(racy)
        assert len(own.races) == 1
        assert bystander.locations == {} and bystander.held == {}
        assert bystander.races == []
