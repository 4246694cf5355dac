"""Structured span tracing for the oracle, simulator, and campaigns.

The paper's evaluation reasons about *where the oracle's time goes* —
abstraction recording at lock boundaries, the ternary check at handler
exit, ``interpret_pgtable`` walks — but until now that structure only
existed in prose. This module records it as a tree of timed spans, with
two exporters:

- **Chrome trace_event JSON** (:meth:`Tracer.to_chrome`): the array-of-
  events format that ``chrome://tracing`` and https://ui.perfetto.dev
  load directly. Spans become complete (``"ph": "X"``) events; instants
  become ``"ph": "i"``. The ``pid`` field carries the campaign worker id
  so a multi-worker campaign renders as parallel tracks.
- **a human-readable tree** (:meth:`Tracer.dump_tree`) for quick
  terminal triage without leaving the shell.

Everything is behind a *sink*: the default :class:`NullSink` drops spans
at the earliest possible moment (one attribute check), so fully built
instrumentation stays in the hot paths at no measurable cost — the E14
benchmark (``benchmarks/bench_obs.py``) holds that line. Recording
sinks are bounded (``max_events``) so a runaway campaign cannot swallow
the heap; overflow is counted, never silent.

There is deliberately no dependency on anything else in ``repro``:
observability must never leak into the pure specification
(``repro.analysis.purity`` enforces this), and low-level modules
(``repro.arch.memory``, ``repro.pkvm.spinlock``) import this module, so
it has to sit at the bottom of the import graph.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "NullSink",
    "MemorySink",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "active_tracer",
    "set_active_tracer",
    "chrome_trace",
    "write_chrome_trace",
    "make_trace_id",
]


def make_trace_id(seed: int | None = None) -> str:
    """A correlation id for one logical run.

    Campaigns derive theirs from the campaign seed so the id is stable
    across checkpoint/resume (the resumed half of a run stitches into
    the same timeline); standalone tracers fall back to a pid-qualified
    id that distinguishes concurrent local runs.
    """
    if seed is not None:
        return f"trace-{seed & 0xFFFFFFFF:08x}"
    return f"trace-pid{os.getpid():x}-{time.perf_counter_ns() & 0xFFFFFF:06x}"


@dataclass(slots=True, eq=False)
class Span:
    """One finished span (or instant, when ``dur_us`` is None).

    ``trace_id``/``span_id``/``parent_id`` are the correlation fields:
    every span a tracer emits gets a tracer-local ``span_id`` and the
    ``span_id`` of its innermost open ancestor on the same track as
    ``parent_id`` (0 = root). A span is globally identified by
    ``(trace_id, pid, span_id)`` — campaign workers share the campaign's
    trace id and are told apart by ``pid`` (their worker id).
    """

    name: str
    cat: str
    ts_us: int
    dur_us: int | None
    tid: int
    pid: int
    depth: int
    args: dict
    trace_id: str = ""
    span_id: int = 0
    parent_id: int = 0

    def to_trace_event(self) -> dict:
        event = {
            "name": self.name,
            "cat": self.cat or "default",
            "ts": self.ts_us,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.dur_us is None:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = self.dur_us
        args = self.args
        if self.trace_id:
            # Correlation ids ride in args only for correlated traces, so
            # uncorrelated single-machine traces stay byte-compatible.
            args = dict(args) if args else {}
            args["trace_id"] = self.trace_id
            args["span_id"] = self.span_id
            if self.parent_id:
                args["parent_id"] = self.parent_id
        if args:
            event["args"] = args
        return event

    def __repr__(self) -> str:
        dur = "instant" if self.dur_us is None else f"{self.dur_us}us"
        return f"Span({self.name!r}, {dur}, depth={self.depth})"


class NullSink:
    """The default sink: drops everything, costs one attribute check."""

    enabled = False
    dropped = 0

    def emit(self, span: Span) -> None:  # pragma: no cover - never called
        pass

    def __len__(self) -> int:
        return 0


class MemorySink:
    """Bounded in-memory sink; the exporters read ``spans``."""

    enabled = True

    def __init__(self, max_events: int = 1_000_000):
        self.max_events = max_events
        self.spans: list[Span] = []
        #: Events dropped after the cap — counted, never silent.
        self.dropped = 0

    def emit(self, span: Span) -> None:
        if len(self.spans) >= self.max_events:
            self.dropped += 1
            return
        self.spans.append(span)

    def __len__(self) -> int:
        return len(self.spans)


class _NullSpanCtx:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CTX = _NullSpanCtx()


class _SpanCtx:
    """A live span: opened by ``Tracer.span``, emitted on ``__exit__``.

    Besides timing, entering maintains two pieces of live context:

    - the per-``tid`` open-span stack (depth and ``parent_id``
      propagation for the Perfetto nesting);
    - the per-OS-thread stack of open span *names*, which the sampling
      profiler (:mod:`repro.obs.profile`) reads from its sampler thread
      to attribute each stack sample to its enclosing span.

    When the sink is disabled but span tracking is on (a profiler
    attached to an untraced run), the clock is never read and no span is
    emitted — only the two stacks move.
    """

    __slots__ = (
        "tracer", "name", "cat", "tid", "args", "start_ns", "depth",
        "span_id", "parent_id", "_ident",
    )

    def __init__(self, tracer, name, cat, tid, args):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = args

    def __enter__(self):
        tracer = self.tracer
        tracer._span_seq += 1
        self.span_id = tracer._span_seq
        stack = tracer._open.get(self.tid)
        if stack is None:
            stack = tracer._open[self.tid] = []
        self.parent_id = stack[-1] if stack else 0
        self.depth = len(stack)
        stack.append(self.span_id)
        # The name stack only feeds profiler attribution; skip its
        # upkeep entirely unless a profiler asked for it.
        self._ident = 0
        if tracer._track_open:
            self._ident = threading.get_ident()
            names = tracer._thread_spans.get(self._ident)
            if names is None:
                names = tracer._thread_spans[self._ident] = []
            names.append(self.name)
        if tracer.sink.enabled:
            self.start_ns = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self.tracer
        emit = tracer.sink.enabled
        if emit:
            end_ns = tracer.clock()
        stack = tracer._open.get(self.tid)
        if stack:
            stack.pop()
        if self._ident:
            names = tracer._thread_spans.get(self._ident)
            if names:
                names.pop()
        if not emit:
            return False
        if exc_type is not None:
            self.args = dict(self.args or {})
            self.args["error"] = exc_type.__name__
        tracer.sink.emit(
            Span(
                self.name,
                self.cat,
                (self.start_ns - tracer.epoch_ns) // 1000,
                max(0, (end_ns - self.start_ns) // 1000),
                self.tid,
                tracer.pid,
                self.depth,
                self.args or {},
                tracer.trace_id,
                self.span_id,
                self.parent_id,
            )
        )
        return False


class Tracer:
    """Hierarchical span tracer.

    Use as a context manager factory or a decorator::

        with tracer.span("oracle:check", cat="oracle", call="share_hyp"):
            ...

        @tracer.traced("shrink", cat="campaign")
        def shrink(...): ...

    Nesting depth is tracked per ``tid`` (we use the CPU index as the
    tid, matching how the simulation interleaves handlers), so the tree
    dump and the Perfetto stacking both reflect the call structure.
    """

    def __init__(
        self,
        sink: NullSink | MemorySink | None = None,
        *,
        pid: int = 0,
        trace_id: str = "",
        clock: Callable[[], int] = time.perf_counter_ns,
    ):
        self.sink = sink if sink is not None else NullSink()
        self.pid = pid
        #: Correlation id stamped on every emitted span; "" means
        #: uncorrelated (the single-machine default). Campaign workers
        #: get the campaign's id so the engine can stitch one timeline.
        self.trace_id = trace_id
        self.clock = clock
        self.epoch_ns = clock()
        #: Per-tid stack of open span ids (depth + parent propagation).
        self._open: dict[int, list[int]] = {}
        #: Per-OS-thread stack of open span names, read (racily but
        #: harmlessly) by the sampling profiler's sampler thread.
        self._thread_spans: dict[int, list[str]] = {}
        self._span_seq = 0
        #: When true, spans maintain the live stacks even with a
        #: NullSink — a profiler attached to an untraced run still gets
        #: span attribution (see :meth:`track_open_spans`).
        self._track_open = False

    @property
    def enabled(self) -> bool:
        return self.sink.enabled

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "", *, tid: int = 0, **args):
        if not (self.sink.enabled or self._track_open):
            return _NULL_CTX
        return _SpanCtx(self, name, cat, tid, args)

    def instant(self, name: str, cat: str = "", *, tid: int = 0, **args) -> None:
        if not self.sink.enabled:
            return
        self.sink.emit(
            Span(
                name,
                cat,
                (self.clock() - self.epoch_ns) // 1000,
                None,
                tid,
                self.pid,
                len(self._open.get(tid, ())),
                args,
                self.trace_id,
            )
        )

    def track_open_spans(self, on: bool = True) -> None:
        """Maintain live open-span stacks even when the sink is off.

        The sampling profiler enables this so its samples can be
        attributed to ``trap:<call>``/``oracle:*`` phases without paying
        for full span recording.
        """
        self._track_open = on

    def open_span_names(self) -> dict[int, str]:
        """OS-thread ident -> innermost open span name, for the profiler.

        Reads the live stacks without locking: the sampler tolerates a
        stale or momentarily inconsistent view (one misattributed sample),
        so we only defend against dict-resize races.
        """
        for _ in range(2):
            try:
                return {
                    ident: stack[-1]
                    for ident, stack in list(self._thread_spans.items())
                    if stack
                }
            except RuntimeError:  # pragma: no cover - resize race
                continue
        return {}

    def traced(self, name: str | None = None, cat: str = ""):
        """Decorator form of :meth:`span`."""

        def decorate(fn):
            span_name = name or fn.__qualname__

            def wrapper(*args, **kwargs):
                if not (self.sink.enabled or self._track_open):
                    return fn(*args, **kwargs)
                with self.span(span_name, cat):
                    return fn(*args, **kwargs)

            wrapper.__name__ = fn.__name__
            wrapper.__qualname__ = fn.__qualname__
            wrapper.__doc__ = fn.__doc__
            wrapper.__wrapped__ = fn
            return wrapper

        return decorate

    # -- export ------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        return getattr(self.sink, "spans", [])

    def to_chrome(self, extra_spans: list[Span] | None = None) -> dict:
        """The Chrome ``trace_event`` JSON object (Perfetto-loadable)."""
        spans = list(self.spans)
        if extra_spans:
            spans.extend(extra_spans)
        return chrome_trace(spans, dropped=getattr(self.sink, "dropped", 0))

    def write_chrome(self, path, extra_spans: list[Span] | None = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(extra_spans), fh)
            fh.write("\n")

    def dump_tree(self) -> str:
        """An indented, per-track text rendering of the recorded spans."""
        lines: list[str] = []
        tracks: dict[tuple[int, int], list[Span]] = {}
        for span in self.spans:
            tracks.setdefault((span.pid, span.tid), []).append(span)
        for (pid, tid) in sorted(tracks):
            lines.append(f"[worker {pid} / cpu {tid}]")
            for span in sorted(tracks[(pid, tid)], key=lambda s: s.ts_us):
                indent = "  " * (span.depth + 1)
                if span.dur_us is None:
                    timing = f"@{span.ts_us}us"
                else:
                    timing = f"{span.dur_us}us @{span.ts_us}us"
                args = (
                    " " + ", ".join(f"{k}={v}" for k, v in span.args.items())
                    if span.args
                    else ""
                )
                lines.append(f"{indent}{span.name} [{timing}]{args}")
        return "\n".join(lines)

    def clear(self) -> None:
        if hasattr(self.sink, "spans"):
            self.sink.spans.clear()
            self.sink.dropped = 0
        self._open.clear()
        self._thread_spans.clear()


def chrome_trace(
    spans: list[Span],
    *,
    dropped: int = 0,
    process_names: dict[int, str] | None = None,
    trace_id: str = "",
) -> dict:
    """The Chrome ``trace_event`` JSON object for an arbitrary span list.

    The campaign engine uses this directly: worker spans arrive in batch
    results (each worker's ``pid`` is its worker id), not through any
    live tracer, and still need one merged Perfetto-loadable file.

    ``process_names`` labels the ``pid`` tracks via ``process_name``
    metadata events, so a merged cross-worker timeline renders with
    human-readable worker rows ("worker 0", "worker 1", ...) instead of
    bare pids. ``trace_id`` lands in ``otherData`` for correlation with
    the metrics/telemetry artifacts of the same run.
    """
    spans = sorted(spans, key=lambda s: (s.pid, s.tid, s.ts_us))
    events: list[dict] = []
    if process_names:
        for pid in sorted(process_names):
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": process_names[pid]},
                }
            )
    events.extend(s.to_trace_event() for s in spans)
    other: dict = {
        "producer": "repro.obs.trace",
        "dropped_events": dropped,
    }
    if trace_id:
        other["trace_id"] = trace_id
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    path,
    spans: list[Span],
    *,
    dropped: int = 0,
    process_names: dict[int, str] | None = None,
    trace_id: str = "",
) -> None:
    with open(path, "w") as fh:
        json.dump(
            chrome_trace(
                spans,
                dropped=dropped,
                process_names=process_names,
                trace_id=trace_id,
            ),
            fh,
        )
        fh.write("\n")


#: The process-wide disabled tracer; the active-tracer default.
NULL_TRACER = Tracer(NullSink())

#: Modules with no machine reference (``repro.arch.memory``,
#: ``repro.pkvm.spinlock``, the abstraction traversal) trace through the
#: process-active tracer, installed by ``Observability.install()``.
_active: Tracer = NULL_TRACER


def active_tracer() -> Tracer:
    return _active


def set_active_tracer(tracer: Tracer | None) -> None:
    global _active
    _active = tracer if tracer is not None else NULL_TRACER
