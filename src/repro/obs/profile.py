"""Statistical sampling profiler, span-attributed and fleet-mergeable.

The ROADMAP's interpreter-fast-path item starts with "profile with the
new span tracer" — but spans only time what was instrumented. This
module adds the complement: a zero-dependency statistical profiler that
samples every thread's Python stack (``sys._current_frames``) from a
background thread at a configurable rate, and *buckets each sample by
the enclosing span* (``trap:<call>``, ``oracle:check``,
``interpret_pgtable``, cache ops) using the tracer's live open-span
stacks. The result is attributed hot-path evidence: not just "the
oracle spends 40% of its time in ``_interpret_table``" but "40% of
``oracle:check`` time is ``_interpret_table``" — the data a compiled
fast path will be judged against (Revizor-style: two implementations,
one profile to compare).

Design points:

- **Zero dependencies, stdlib only.** One daemon thread, an
  ``Event.wait`` cadence, ``sys._current_frames()`` per tick. No
  signal handlers (they don't compose with the sim's worker threads),
  no C extension.
- **Span attribution without full tracing.** The profiler asks the
  tracer to maintain open-span name stacks
  (:meth:`~repro.obs.trace.Tracer.track_open_spans`) — cheap enough to
  run with a ``NullSink``, so profiling does not require recording a
  million spans.
- **Mergeable snapshots.** A :class:`Profile` is a plain
  ``(bucket, stack) -> count`` table; ``snapshot()``/``merge()`` have
  the same algebra as the metrics registry, so campaign workers'
  profiles aggregate in the engine into one fleet-wide flamegraph.
- **Two exporters.** Collapsed-stack text (one ``bucket;frame;...
  count`` line per distinct stack — the flamegraph.pl / speedscope /
  inferno input format) and a ``profile_samples_total{frame=...}``
  top-N counter table for the metrics registry / ``/metrics`` scrape.
"""

from __future__ import annotations

import sys
import threading

__all__ = ["Profile", "SamplingProfiler", "NO_SPAN", "IDLE"]

#: Bucket for samples taken outside any open span.
NO_SPAN = "(no-span)"

#: Bucket for threads parked in runtime plumbing (condition waits, the
#: socket server's poll loop) rather than doing attributable work.
IDLE = "(idle)"

#: Module prefixes whose frames mark a sample as "oracle-phase": time
#: spent in the hypervisor implementation, the ghost spec machinery, or
#: the architecture substrate — the denominator of :meth:`attribution`.
ORACLE_PHASE_PREFIXES = ("repro.ghost", "repro.pkvm", "repro.arch")

#: Top frames in these modules mean the thread is parked, not working.
_IDLE_MODULES = ("threading", "queue", "selectors", "socketserver")


class Profile:
    """A mergeable table of collapsed stack samples.

    Keys are ``(bucket, stack)`` where ``bucket`` is the enclosing span
    name (or :data:`NO_SPAN`/:data:`IDLE`) and ``stack`` is the
    semicolon-joined dotted frame list, outermost first.
    """

    def __init__(self, hz: int = 0):
        self.hz = hz
        self.samples: dict[tuple[str, str], int] = {}
        self.total = 0

    # -- recording ---------------------------------------------------------

    def add(self, bucket: str, stack: str, count: int = 1) -> None:
        key = (bucket, stack)
        self.samples[key] = self.samples.get(key, 0) + count
        self.total += count

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-JSON view a worker ships to the engine."""
        return {
            "hz": self.hz,
            "samples_total": self.total,
            "stacks": [
                {"bucket": bucket, "stack": stack, "count": count}
                for (bucket, stack), count in sorted(self.samples.items())
            ],
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a worker snapshot in: counts add, hz must agree or win
        by first-non-zero (merging profiles taken at different rates is
        legal — counts stay counts, only time attribution shifts)."""
        if not self.hz:
            self.hz = snapshot.get("hz", 0)
        for entry in snapshot.get("stacks", ()):
            self.add(entry["bucket"], entry["stack"], entry["count"])

    # -- exporters ---------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed-stack flamegraph text: ``bucket;frames... count``.

        Lines are sorted by descending count then key, so the hottest
        stacks lead and the output is deterministic for a given table.
        """
        lines = [
            f"{bucket};{stack} {count}" if stack else f"{bucket} {count}"
            for (bucket, stack), count in sorted(
                self.samples.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def top_frames(self, n: int = 20, *, leaf: bool = True) -> list[tuple[str, int]]:
        """The ``n`` hottest frames by sample count.

        ``leaf=True`` counts self time (the innermost frame of each
        sample); ``leaf=False`` counts inclusive time (every frame on
        the stack, once per sample even if recursive).
        """
        totals: dict[str, int] = {}
        for (_bucket, stack), count in self.samples.items():
            if not stack:
                continue
            frames = stack.split(";")
            for frame in [frames[-1]] if leaf else set(frames):
                totals[frame] = totals.get(frame, 0) + count
        return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def by_bucket(self) -> dict[str, int]:
        """Sample counts per span bucket, hottest first insertion order."""
        totals: dict[str, int] = {}
        for (bucket, _stack), count in self.samples.items():
            totals[bucket] = totals.get(bucket, 0) + count
        return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))

    def to_metrics(self, registry, n: int = 20) -> None:
        """Publish the top-N frame table as ``profile_samples_total``
        counters (plus the grand total), scrape-ready via ``/metrics``."""
        registry.counter("profile_samples_total").inc(self.total)
        for frame, count in self.top_frames(n):
            registry.counter(
                "profile_samples_total", {"frame": frame}
            ).inc(count)

    def attribution(self) -> dict:
        """How well oracle-phase samples were attributed to named spans.

        "Oracle-phase" means the stack touches the implementation, spec,
        or substrate (:data:`ORACLE_PHASE_PREFIXES`). The fast-path work
        needs ≥80% of those samples carrying a span name — otherwise the
        flamegraph says *what* is hot but not *which oracle phase* pays
        for it.
        """
        oracle = attributed = 0
        for (bucket, stack), count in self.samples.items():
            if not any(p in stack for p in ORACLE_PHASE_PREFIXES):
                continue
            oracle += count
            if bucket not in (NO_SPAN, IDLE):
                attributed += count
        return {
            "oracle_phase_samples": oracle,
            "attributed_samples": attributed,
            "attributed_fraction": (attributed / oracle) if oracle else 0.0,
        }

    def write_collapsed(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.collapsed())


class SamplingProfiler(Profile):
    """A :class:`Profile` fed by a background sampling thread.

    >>> profiler = SamplingProfiler(hz=100, tracer=obs.tracer)
    >>> with profiler:
    ...     run_workload()
    >>> print(profiler.collapsed())

    ``tracer`` supplies span attribution: while the profiler runs, the
    tracer maintains live open-span stacks even if its sink is a
    ``NullSink``, and each sample is bucketed under the sampled thread's
    innermost open span. Without a tracer every sample lands in
    :data:`NO_SPAN`.

    ``mark_ticks=True`` additionally emits a ``profile:tick`` instant
    into the tracer's sink per sampling round — useful to see sampling
    cadence on the Perfetto timeline, and the reason profiler and tracer
    can share one bounded :class:`~repro.obs.trace.MemorySink` (the cap
    applies to both producers; overflow is counted, never silent).
    """

    def __init__(
        self,
        hz: int = 100,
        *,
        tracer=None,
        max_stack: int = 48,
        mark_ticks: bool = False,
    ):
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        super().__init__(hz=hz)
        self.tracer = tracer
        self.max_stack = max_stack
        self.mark_ticks = mark_ticks
        self.ticks = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._tracked = False
        #: Code-object -> "module.function" label cache ("" = a frame of
        #: this module, poisoning the whole sample). Keyed by the code
        #: object itself (kept alive by the cache), so a stack walk
        #: costs one dict hit per frame instead of a globals lookup and
        #: string build.
        self._labels: dict = {}

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self.tracer is not None and not self.tracer._track_open:
            self.tracer.track_open_spans(True)
            self._tracked = True
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=5)
        self._thread = None
        if self._tracked:
            self.tracer.track_open_spans(False)
            self._tracked = False
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- sampling ----------------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        skip = {threading.get_ident()}
        while not self._stop.wait(interval):
            self.sample_once(skip=skip)

    def sample_once(self, skip: set[int] | None = None) -> int:
        """Take one sample of every thread; returns samples recorded.

        Public for deterministic tests — the background loop is just
        this at ``hz``.
        """
        spans = (
            self.tracer.open_span_names() if self.tracer is not None else {}
        )
        recorded = 0
        self.ticks += 1
        # Walking another thread's live frame chain is only consistent
        # while this thread keeps the GIL: the interpreter detaches
        # lazily-materialised frame objects as their owner pops them,
        # so a GIL handoff mid-walk can leave ``f_back`` pointing at
        # torn state.  Raising the switch interval for the (sub-ms)
        # walk makes the tick effectively atomic; the per-thread
        # except drops the rare sample that still races a waiter whose
        # handoff timer predates the bump.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            # _current_frames returns a fresh snapshot dict; safe to
            # iterate.
            for ident, frame in sys._current_frames().items():
                if skip and ident in skip:
                    continue
                try:
                    stack = self._collapse(frame)
                except Exception:
                    continue  # frame chain torn by a racing pop
                if stack is None:
                    continue
                bucket = spans.get(ident)
                if bucket is None:
                    bucket = IDLE if self._is_idle(frame) else NO_SPAN
                self.add(bucket, stack)
                recorded += 1
        finally:
            sys.setswitchinterval(switch)
        if self.mark_ticks and self.tracer is not None:
            self.tracer.instant("profile:tick", "profile", sampled=recorded)
        return recorded

    def _collapse(self, frame) -> str | None:
        """Outermost-first ``module.function`` list, semicolon-joined."""
        frames: list[str] = []
        labels = self._labels
        max_stack = self.max_stack
        while frame is not None and len(frames) < max_stack:
            code = frame.f_code
            label = labels.get(code)
            if label is None:
                module = frame.f_globals.get("__name__", "?")
                # "" marks this module's own frames: never profile the
                # profiler (a sample racing our own snapshot/export
                # calls on another thread).
                label = (
                    "" if module == __name__ else f"{module}.{code.co_name}"
                )
                labels[code] = label
            if not label:
                return None
            frames.append(label)
            frame = frame.f_back
        frames.reverse()
        return ";".join(frames)

    @staticmethod
    def _is_idle(frame) -> bool:
        module = frame.f_globals.get("__name__", "")
        return module.split(".")[0] in _IDLE_MODULES
