"""Cooperative scheduler for simulated hardware threads.

Each simulated CPU runs on a real Python thread, but the scheduler admits
exactly one at a time: a thread only executes between two yield points
while it holds the turn. Instrumented code (spinlocks, page-table memory
writes) calls :func:`yield_point`, at which the scheduler may hand the turn
to another runnable thread according to its policy:

- ``"rr"`` — round robin at every yield point;
- ``"random"`` — seeded pseudo-random choice, for stress interleaving;
- ``"pct"`` — PCT-style randomized priority schedules (Burckhardt et
  al., ASPLOS 2010): each thread gets a random distinct priority and the
  highest-priority runnable thread always runs, except at ``d - 1``
  priority-change points placed deterministically from the seed, where
  the running thread is demoted below everyone else. PCT finds any bug
  of depth ``d`` with probability ``>= 1/(n * k^(d-1))`` per schedule —
  a *guided* needle-in-haystack search where ``"random"`` is a blind
  one;
- ``"script"`` — an explicit list of thread names consumed one per yield
  point, for replaying a specific race.

The turn is a baton. Every :class:`SimThread` owns a lock, taken when the
thread is built, and runs only once it has acquired it. A switch releases
just the chosen thread's baton and blocks on the yielding thread's own, so
each hand-off wakes exactly one OS thread. A finishing thread passes the
baton to the first runnable thread; the last one sets the all-done event
:meth:`Scheduler.run` waits on.

Every policy records its full decision sequence, so any run — however it
was scheduled — replays bit-identically by feeding
:meth:`Scheduler.schedule_script` back in under the ``"script"`` policy.

A scheduler may carry a race detector in :attr:`Scheduler.lockset` (an
Eraser lockset tracker from :mod:`repro.analysis.lockset`). It sees
exactly what the scheduler sees: every yield point's thread and tag,
whose ``lock:``/``unlock:`` tags come from the spinlocks, and every
:func:`shared_access` the scheduler's own threads make.

Threads outside any scheduler (the common single-CPU case) see
:func:`yield_point` and :func:`shared_access` as no-ops, so the
hypervisor code is identical whether or not a concurrency test is
running. The calling thread's :class:`SimThread` lives in a thread-local
that only simulated threads set, so that check takes no lock. A
:class:`SimThread` refers to its scheduler weakly: a finished scheduler,
its threads, their closures and the scenario's machine are all freed by
reference counting.
"""

from __future__ import annotations

import random
import threading
import weakref
from typing import Any, Callable


class _Current(threading.local):
    #: The :class:`SimThread` the calling OS thread simulates, if any.
    thread: "SimThread | None" = None


_CURRENT = _Current()


class DeadlockError(Exception):
    """Every live simulated thread is blocked (e.g. spinning on locks)."""


class SimThread:
    """One simulated hardware thread managed by a :class:`Scheduler`."""

    def __init__(self, scheduler: "Scheduler", name: str, fn: Callable[[], Any]):
        self._scheduler = weakref.ref(scheduler)
        self.name = name
        self.fn = fn
        self.result: Any = None
        self.exception: BaseException | None = None
        self.done = False
        #: Set while the thread is spinning on a contended lock; used for
        #: deadlock detection.
        self.blocked_on: str | None = None
        #: The turn: released by whoever hands it over, acquired by this
        #: thread before it runs.
        self.baton = threading.Lock()
        self.baton.acquire()
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)

    @property
    def scheduler(self) -> "Scheduler":
        return self._scheduler()

    def _run(self) -> None:
        scheduler = self.scheduler
        _CURRENT.thread = self
        try:
            scheduler._wait_for_baton(self)
            self.result = self.fn()
        except BaseException as exc:  # noqa: BLE001 - reported to the harness
            self.exception = exc
        finally:
            _CURRENT.thread = None
            scheduler._thread_finished(self)


class Scheduler:
    """Admits one simulated thread at a time, switching at yield points."""

    #: Caps on the per-run trace and decision log. Long campaigns would
    #: otherwise grow them without bound; hitting a cap sets the matching
    #: ``*_truncated`` flag instead of silently dropping entries.
    TRACE_LIMIT = 100_000
    DECISION_LIMIT = 100_000

    def __init__(
        self,
        policy: str = "rr",
        seed: int = 0,
        script: list[str] | None = None,
        *,
        pct_depth: int = 3,
        pct_steps: int = 1000,
        priority_tags: tuple[str, ...] = (),
        obs=None,
    ):
        if policy not in ("rr", "random", "pct", "script"):
            raise ValueError(f"unknown scheduling policy {policy!r}")
        if policy == "script" and script is None:
            raise ValueError("script policy requires a script")
        if pct_depth < 1:
            raise ValueError("pct_depth must be at least 1")
        self.policy = policy
        self._rng = random.Random(seed)
        self._script = list(script or [])
        self._script_pos = 0
        self._threads: list[SimThread] = []
        self._current: SimThread | None = None
        self._all_done = threading.Event()
        self._started = False
        #: Total number of yield points taken; a cheap logical clock.
        self.ticks = 0
        #: Trace of (tick, thread name, tag) for debugging interleavings.
        self.trace: list[tuple[int, str, str]] = []
        #: Set once ``trace`` hits :data:`TRACE_LIMIT` and entries drop.
        self.trace_truncated = False
        #: Per-decision (chosen thread, runnable thread names) — the raw
        #: material the systematic interleaving explorer branches on and
        #: the decision script :meth:`schedule_script` replays from.
        self.decision_log: list[tuple[str, tuple[str, ...]]] = []
        self.decision_log_truncated = False
        #: Optional :class:`repro.obs.Observability` bundle; truncation
        #: events count into its metrics registry when attached.
        self.obs = obs
        #: Optional race detector fed this run's yields and shared
        #: accesses (``run_schedule(detect_races=True)`` sets one).
        self.lockset = None
        # -- PCT state ---------------------------------------------------
        #: Yield-point tag fragments to prioritise: a tag matching any of
        #: these becomes an extra candidate priority-change point (the
        #: feedback channel for the lockset detector's racy pairs).
        self.priority_tags = tuple(priority_tags)
        self.pct_depth = pct_depth
        self.pct_steps = max(1, pct_steps)
        #: Thread name -> current priority (higher runs first). Assigned
        #: at ``run()`` once the thread set is final.
        self._prios: dict[str, int] = {}
        self._change_points: list[int] = []
        #: Next demotion priority: strictly decreasing, always below
        #: every initial priority, so later demotions sink deeper.
        self._next_low = -1

    # -- public API ------------------------------------------------------

    def spawn(self, fn: Callable[[], Any], name: str | None = None) -> SimThread:
        if self._started:
            raise RuntimeError("cannot spawn after run() started")
        name = name or f"cpu{len(self._threads)}"
        if any(t.name == name for t in self._threads):
            raise ValueError(f"duplicate thread name {name!r}")
        thread = SimThread(self, name, fn)
        self._threads.append(thread)
        return thread

    def run(self) -> dict[str, Any]:
        """Run all spawned threads to completion; return name -> result.

        Re-raises the first simulated-thread exception after all threads
        have stopped, so a panic in one CPU surfaces in the harness.
        """
        if not self._threads:
            return {}
        self._started = True
        if self.policy == "pct":
            self._init_pct()
        for t in self._threads:
            t.thread.start()
        self._current = self._threads[0]
        self._current.baton.release()
        while not self._all_done.wait(timeout=30):
            alive = any(t.thread.is_alive() for t in self._threads)
            if not alive and not self._all_done.is_set():
                raise DeadlockError("simulated threads died without finishing")
        # The last thread sets the event before its OS thread exits; join
        # so none still holds its closures when run() returns.
        for t in self._threads:
            t.thread.join()
        for t in self._threads:
            if t.exception is not None:
                raise t.exception
        return {t.name: t.result for t in self._threads}

    def yield_point(self, tag: str = "") -> None:
        """Possibly hand the turn to another runnable thread."""
        me = self._current
        assert me is not None
        self.ticks += 1
        if len(self.trace) < self.TRACE_LIMIT:
            self.trace.append((self.ticks, me.name, tag))
        elif not self.trace_truncated:
            self.trace_truncated = True
            self._count_truncation("trace")
        if self.lockset is not None:
            self.lockset.on_yield(me.name, tag)
        nxt = self._pick_next(me, tag)
        if nxt is not me:
            self._current = nxt
            nxt.baton.release()
            self._wait_for_baton(me)

    def schedule_script(self) -> tuple[str, ...]:
        """The full decision sequence of this run, as a ``"script"``
        policy script: replaying it on an identical scenario reproduces
        the exact interleaving, whatever policy produced it.

        Raises if the decision log overflowed — a truncated script would
        silently replay a *different* schedule past the cut.
        """
        if self.decision_log_truncated:
            raise RuntimeError(
                "decision log truncated at "
                f"{self.DECISION_LIMIT} entries; the schedule cannot be "
                "replayed faithfully"
            )
        return tuple(name for name, _alts in self.decision_log)

    def block_until(self, predicate: Callable[[], bool], tag: str) -> None:
        """Spin (yielding) until ``predicate`` holds — the spinlock loop.

        Detects deadlock: if every live thread is blocked, no predicate can
        ever become true again.
        """
        me = self._current
        assert me is not None
        me.blocked_on = tag
        try:
            spins = 0
            while not predicate():
                live = [t for t in self._threads if not t.done]
                if all(t.blocked_on is not None for t in live):
                    raise DeadlockError(
                        "all live threads blocked: "
                        + ", ".join(f"{t.name} on {t.blocked_on}" for t in live)
                    )
                self.yield_point(f"spin:{tag}")
                spins += 1
                if spins > 1_000_000:
                    raise DeadlockError(f"livelock spinning on {tag}")
        finally:
            me.blocked_on = None

    # -- internals -------------------------------------------------------

    def _count_truncation(self, which: str) -> None:
        if self.obs is not None:
            self.obs.metrics.counter(f"sched_{which}_truncated_total").inc()

    def _pick_next(self, me: SimThread, tag: str = "") -> SimThread:
        runnable = [t for t in self._threads if not t.done]
        if not runnable:
            return me
        chosen = self._choose(me, runnable, tag)
        if len(self.decision_log) < self.DECISION_LIMIT:
            self.decision_log.append(
                (chosen.name, tuple(t.name for t in runnable))
            )
        elif not self.decision_log_truncated:
            self.decision_log_truncated = True
            self._count_truncation("decision_log")
        return chosen

    def _choose(
        self, me: SimThread, runnable: list[SimThread], tag: str = ""
    ) -> SimThread:
        if self.policy == "script" and self._script_pos < len(self._script):
            wanted = self._script[self._script_pos]
            self._script_pos += 1
            for t in runnable:
                if t.name == wanted:
                    return t
            return me if me in runnable else runnable[0]
        if self.policy == "random":
            return self._rng.choice(runnable)
        if self.policy == "pct":
            return self._choose_pct(me, runnable, tag)
        # round robin (also the script fallback once the script runs out)
        idx = runnable.index(me) if me in runnable else -1
        return runnable[(idx + 1) % len(runnable)]

    # -- PCT -------------------------------------------------------------

    def _init_pct(self) -> None:
        """Assign distinct random initial priorities and place the
        ``pct_depth - 1`` priority-change points, all from the seed."""
        order = list(self._threads)
        self._rng.shuffle(order)
        self._prios = {t.name: i + 1 for i, t in enumerate(order)}
        nr_points = min(self.pct_depth - 1, self.pct_steps)
        self._change_points = sorted(
            self._rng.sample(range(1, self.pct_steps + 1), nr_points)
        )

    def _choose_pct(
        self, me: SimThread, runnable: list[SimThread], tag: str
    ) -> SimThread:
        # A scheduled change point demotes the running thread below all
        # others; so does a prioritised yield tag (a location the lockset
        # detector reported racy), with seeded probability so repeated
        # hits explore both sides of the racy window.
        hit_point = False
        while self._change_points and self.ticks >= self._change_points[0]:
            self._change_points.pop(0)
            hit_point = True
        if not hit_point and tag and self.priority_tags:
            if any(frag in tag for frag in self.priority_tags):
                hit_point = self._rng.random() < 0.5
        if hit_point:
            self._prios[me.name] = self._next_low
            self._next_low -= 1
        # Threads spinning on a contended lock cannot make progress until
        # the holder runs; scheduling strictly by priority would livelock
        # on priority inversion, so blocked threads always rank below
        # unblocked ones (the scheduler-assisted yield real PCT
        # implementations perform at blocking operations).
        return max(
            runnable,
            key=lambda t: (t.blocked_on is None, self._prios.get(t.name, 0)),
        )

    def _wait_for_baton(self, me: SimThread) -> None:
        while not me.baton.acquire(timeout=30):
            peers = [t for t in self._threads if t is not me]
            if not any(t.thread.is_alive() for t in peers) and not all(
                t.done for t in peers
            ):
                raise DeadlockError("scheduler lost all peer threads")

    def _thread_finished(self, thread: SimThread) -> None:
        thread.done = True
        if self._current is thread:
            self._current = next((t for t in self._threads if not t.done), None)
            if self._current is None:
                self._all_done.set()
            else:
                self._current.baton.release()


def current_scheduler() -> Scheduler | None:
    """The scheduler managing the calling thread, if any."""
    thread = _CURRENT.thread
    return thread.scheduler if thread is not None else None


def yield_point(tag: str = "") -> None:
    """Yield to the scheduler if the caller is a simulated thread."""
    sched = current_scheduler()
    if sched is not None:
        sched.yield_point(tag)


def shared_access(location: str, write: bool = False) -> None:
    """Report one access to a shared location (``"pgt:host_s2"``, ...)
    to the race detector of the calling simulated thread's scheduler."""
    thread = _CURRENT.thread
    if thread is not None:
        lockset = thread.scheduler.lockset
        if lockset is not None:
            lockset.on_access(thread.name, location, write)
