"""Per-layer accounting: span recording, self time, and run statistics.

The traced run attributes every nanosecond of a pass to exactly one
layer. Intervals come from two sources on one clock:

- the spans the program already emits (``machine:boot``, ``trap:*``,
  ``oracle:record:*``, ``interpret_pgtable``, ``oracle:check``,
  ``oracle:isolation-sweep``), captured by giving every observability
  bundle built during the traced pass a sink that forwards into a
  :class:`Recorder`;
- timers the benchmark wraps around public entry points
  (``Machine.__init__``, ``Mapping.insert``, ``compute_post_trap``,
  ``RandomTester.step``, ``Trace.replay``, ``run_batch``,
  ``shrink_trace``, ``save_checkpoint``) and around each analysis pass.

:func:`self_times` turns the intervals into a partition of the pass's
wall time: each instant belongs to the innermost open interval (the one
that started last), or to ``other`` when none is open. The per-layer
self times plus ``other`` therefore add up to the traced wall time by
construction, and :func:`layer_sum_problems` checks that they do and
that ``other`` stays under :data:`OTHER_TOLERANCE`.

Nothing here imports ``repro`` at module level: the unit tests exercise
the arithmetic without the program.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import sys
import time
from collections import Counter

OTHER = "other"

#: ``other_s`` may hold at most this share of a traced pass's wall time;
#: a larger share means time went to code no layer covers.
OTHER_TOLERANCE = 0.10

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Every layer of the partition, in report order. The metric for layer
#: ``x`` is ``x_s``.
LAYERS = (
    "machine.boot",
    "pkvm.trap_self",
    "ghost.record",
    "ghost.interpret",
    "ghost.maplet_insert",
    "ghost.compute_post",
    "ghost.check",
    "ghost.isolation",
    "testing.tester",
    "testing.replay",
    "campaign.batch",
    "campaign.shrink",
    "campaign.checkpoint",
    "analysis.purity",
    "analysis.lockorder",
    "analysis.lockset",
    "analysis.frame_static",
    "analysis.frame_dynamic",
    "analysis.bitfields",
    "analysis.ownership",
    "analysis.refinement",
    "analysis.ownership_diff",
    "analysis.refinement_diff",
    "analysis.iommu_diff",
    OTHER,
)


def span_layer(name: str) -> str | None:
    """The layer a program span belongs to, or None for spans the
    partition ignores (their time stays with the enclosing layer)."""
    if name.startswith("trap:"):
        return "pkvm.trap_self"
    if name.startswith("oracle:record:"):
        return "ghost.record"
    return _SPAN_LAYERS.get(name)


_SPAN_LAYERS = {
    "machine:boot": "machine.boot",
    "interpret_pgtable": "ghost.interpret",
    "oracle:check": "ghost.check",
    "oracle:isolation-sweep": "ghost.isolation",
}

#: Program spans whose occurrences are work counts.
_SPAN_COUNTS = {"pkvm.trap_self": "pkvm.traps", "ghost.interpret": "ghost.interpret_calls"}


# -- the partition -----------------------------------------------------------


def self_times(events, start: int, end: int) -> dict[str, int]:
    """Exclusive time per layer over ``[start, end]``.

    ``events`` are ``(start, end, layer)`` intervals. Each instant goes
    to the latest-started interval still open at it, or to
    :data:`OTHER`; for properly nested intervals that is the usual
    "duration minus the part covered by children". Intervals that
    overlap without nesting (simulated CPUs interleaving) still yield a
    partition, so the totals always sum to ``end - start``.
    """
    totals: dict[str, int] = {}
    stack: list[tuple[int, str]] = []
    cursor = start
    for s, e, layer in sorted(events, key=lambda ev: (ev[0], -ev[1])):
        s = max(s, start)
        e = min(e, end)
        if e <= s:
            continue
        cursor = _unwind(stack, s, cursor, totals)
        owner = stack[-1][1] if stack else OTHER
        totals[owner] = totals.get(owner, 0) + (s - cursor)
        cursor = s
        stack.append((e, layer))
    cursor = _unwind(stack, end, cursor, totals)
    totals[OTHER] = totals.get(OTHER, 0) + (end - cursor)
    return totals


def _unwind(stack, t, cursor, totals):
    """Close every interval on top of the stack that ended by ``t``."""
    while stack and stack[-1][0] <= t:
        e, layer = stack.pop()
        if e > cursor:
            totals[layer] = totals.get(layer, 0) + (e - cursor)
            cursor = e
    return cursor


def layer_sum_problems(
    layer_s: dict[str, float], wall_s: float, tolerance: float = OTHER_TOLERANCE
) -> list[str]:
    """Why a traced pass's layer table does not add up, if it does not."""
    problems = []
    total = sum(layer_s.values())
    if abs(total - wall_s) > 1e-6 * max(1.0, wall_s):
        problems.append(
            f"layer self times sum to {total:.6f}s, traced wall is {wall_s:.6f}s"
        )
    other = layer_s.get(OTHER, 0.0)
    if wall_s > 0 and other > tolerance * wall_s:
        problems.append(
            f"other_s is {other / wall_s:.1%} of traced wall "
            f"(tolerance {tolerance:.0%})"
        )
    return problems


# -- statistics ----------------------------------------------------------------


def tail_percentile(n: int, ladder=PERCENTILE_LADDER) -> float | None:
    """The highest percentile in ``ladder`` with at least ten of ``n``
    samples beyond it, or None when even the lowest has fewer."""
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: What :func:`_reference_loop` takes on an uncontended 2 GHz core. Only
#: the ratio to it matters, so it must never change between commits
#: that are compared.
REFERENCE_NS = 1_200_000
#: Least time between two host-speed samples inside a pass.
SAMPLE_INTERVAL_NS = 100_000_000


class _Run:
    __slots__ = ("start", "pages")

    def __init__(self, start, pages):
        self.start = start
        self.pages = pages

    @property
    def end(self):
        return self.start + self.pages


def _reference_loop() -> int:
    """Fixed interpreter work shaped like the oracle's: integer
    arithmetic, then inserts into a sorted list of small objects with an
    overlap scan. Contention slows it about as much as it slows the
    program (an integer loop alone under-reports it by ~1.4x)."""
    total = 0
    for i in range(5000):
        total += i * i % 7
    runs: list[_Run] = []
    for i in range(120):
        start = (i * 7919) % 4096 * 2
        for run in runs:
            if run.start <= start < run.end:
                break
        else:
            runs.append(_Run(start, 1))
            runs.sort(key=lambda r: r.start)
    return total + len(runs)


class HostSpeed:
    """How much slower than nominal the host runs right now.

    On a shared host a fixed pure-Python loop swings between ~85 ms and
    ~165 ms within seconds, with no steal time: co-tenants slow the core
    rather than preempt it. Timing a short reference loop every
    :data:`SAMPLE_INTERVAL_NS` and dividing a measured time by the mean
    slowdown over it reports that time at nominal host speed.
    """

    def __init__(self, clock=time.perf_counter_ns, reference=_reference_loop):
        self.clock = clock
        self.reference = reference
        self.samples: list[int] = []
        #: When each sample started, ascending.
        self.times: list[int] = []
        #: Time spent sampling, subtracted from the windows it fell into.
        self.spent_ns = 0
        self._next = 0

    def sample(self) -> None:
        t0 = self.clock()
        self.reference()
        took = self.clock() - t0
        self.samples.append(took)
        self.times.append(t0)
        self.spent_ns += took
        self._next = t0 + took + SAMPLE_INTERVAL_NS

    def tick(self) -> None:
        """Sample if the last sample is at least an interval old. A trace
        function (the hunt's coverage tracker) is lifted for the sample:
        it slows the program, and that cost is the program's, not the
        host's."""
        if self.clock() < self._next:
            return
        trace = sys.gettrace()
        if trace is None:
            self.sample()
            return
        sys.settrace(None)
        try:
            self.sample()
        finally:
            sys.settrace(trace)

    def measure(self, fn):
        """Run ``fn()``; return its wall time in seconds at nominal host
        speed, the slowdown it was divided by, and ``fn``'s result."""
        self.sample()
        first = len(self.samples)
        spent = self.spent_ns
        t0 = self.clock()
        result = fn()
        wall = self.clock() - t0 - (self.spent_ns - spent)
        self.sample()
        slowdown = slowdown_of(self.samples[first - 1 :])
        return wall / 1e9 / slowdown, slowdown, result

    def slowdown_at(self, t: int) -> float:
        """The slowdown from the two samples before ``t`` and the two
        after it (one sample alone is noisier than the host)."""
        i = bisect.bisect_right(self.times, t)
        return slowdown_of(self.samples[max(0, i - 2) : i + 2])


def slowdown_of(samples: list[int]) -> float:
    """Mean reference-loop time over :data:`REFERENCE_NS`."""
    return sum(samples) / len(samples) / REFERENCE_NS


class Verdicts:
    """Checked outcomes: every check is one attempt, a wrong one a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- recording -------------------------------------------------------------------


class _SpanSink:
    """A tracer sink that forwards finished spans into a recorder.

    Span times are microseconds from the owning tracer's epoch; adding
    the epoch back puts every bundle's spans on the recorder's clock.
    """

    enabled = True
    dropped = 0

    def __init__(self, recorder: "Recorder", epoch_ns: int):
        self.recorder = recorder
        self.epoch_ns = epoch_ns

    def emit(self, span) -> None:
        if span.dur_us is None:
            return
        layer = span_layer(span.name)
        if layer is None:
            return
        start = self.epoch_ns + span.ts_us * 1000
        self.recorder.events.append((start, start + span.dur_us * 1000, layer))
        counted = _SPAN_COUNTS.get(layer)
        if counted is not None:
            self.recorder.counts[counted] += 1


class Recorder:
    """Intervals, work counts and metrics registries of one traced pass."""

    def __init__(self):
        self.events: list[tuple[int, int, str]] = []
        self.counts: Counter = Counter()
        self.registries: list = []
        #: Inclusive wall time of each ``RandomTester.step``, one list per
        #: tester, for ``testing.step_growth``.
        self.tester_steps: list[list[int]] = []
        self._last_tester = None
        #: ``(machine_config, task, kwargs)`` of every campaign batch.
        self.batches: list[tuple] = []

    def timer(self, layer: str, fn, count: str | None = None):
        """``fn`` wrapped so each call records an interval of ``layer``."""
        events = self.events
        counts = self.counts
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((t0, clock(), layer))

        return timed

    @contextlib.contextmanager
    def section(self, layer: str):
        """A ``with`` block recorded as one interval of ``layer``."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.events.append((t0, time.perf_counter_ns(), layer))

    def step_timer(self, fn):
        """``RandomTester.step`` wrapped for ``testing.tester_s`` and the
        per-tester step costs behind ``testing.step_growth``."""
        events = self.events
        clock = time.perf_counter_ns

        def step(tester):
            if tester is not self._last_tester:
                self._last_tester = tester
                self.tester_steps.append([])
            costs = self.tester_steps[-1]
            t0 = clock()
            try:
                return fn(tester)
            finally:
                t1 = clock()
                events.append((t0, t1, "testing.tester"))
                costs.append(t1 - t0)

        return step

    def bundle_init(self, fn):
        """``Observability.__init__`` wrapped so every bundle traces into
        this recorder and its metrics registry is kept for the counters."""

        def init(bundle, *args, **kwargs):
            fn(bundle, *args, **kwargs)
            bundle.tracer.sink = _SpanSink(self, bundle.tracer.epoch_ns)
            self.registries.append(bundle.metrics)

        return init

    def counter_total(self, name: str) -> int:
        return sum(registry.value(name) for registry in self.registries)

    def gauge_max(self, name: str) -> float:
        return max((registry.value(name) for registry in self.registries), default=0)


def step_growth(tester_steps: list[list[int]]) -> float:
    """Mean step cost over the last tenth of each tester's life ÷ over
    its first tenth, pooled over testers that took at least ten steps."""
    first = last = 0
    for costs in tester_steps:
        tenth = len(costs) // 10
        if tenth == 0:
            continue
        first += sum(costs[:tenth])
        last += sum(costs[-tenth:])
    return last / first if first else 0.0


class Patches:
    """Attribute replacements undone in reverse order by :meth:`undo`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` with ``make(owner.name)``."""
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
