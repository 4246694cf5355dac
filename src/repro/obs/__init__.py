"""repro.obs — observability for the oracle, simulator, and campaigns.

Four zero-dependency pieces, bundled per machine by
:class:`Observability`, plus the campaign's telemetry server:

- :mod:`repro.obs.trace` — hierarchical span tracer with Chrome
  ``trace_event`` (Perfetto) export, trace/span correlation ids, and a
  human-readable tree dump;
- :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms with JSON and Prometheus exporters, mergeable across
  campaign workers (counters and buckets add, gauges take the max);
- :mod:`repro.obs.flight` — a bounded ring of recent events the oracle
  dumps to a timestamped artifact on any mismatch;
- :mod:`repro.obs.profile` — a statistical sampling profiler that
  attributes stack samples to the enclosing span and merges across
  workers into one fleet flamegraph;
- :mod:`repro.obs.server` — the HTTP endpoint a campaign engine stands
  up over its merged state (``/metrics``, ``/spans``, ``/flight``,
  ``/profile``, ``/campaign``, ``/healthz``). It is not imported here:
  only a served campaign loads it (and ``http.server`` with it).

The default bundle (what ``Machine()`` builds when none is passed) keeps
metrics live — they are single integer updates and the only home of the
oracle's counters (``machine.obs.metrics.value("oracle_checks_run")``)
— but puts tracing behind a :class:`~repro.obs.trace.NullSink`, leaves
the flight recorder at capacity 0, and attaches no profiler, so the
disabled paths cost one attribute check each
(``benchmarks/bench_obs.py`` holds the line at no measurable overhead).

Observability must never leak into the pure specification:
``repro.analysis.purity`` forbids any ``repro.obs`` import inside
``repro.ghost.spec``. See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profile, SamplingProfiler
from repro.obs.trace import MemorySink, NullSink, Tracer

__all__ = [
    "Observability",
    "FlightRecorder",
    "MetricsRegistry",
    "Profile",
    "SamplingProfiler",
    "Tracer",
    "MemorySink",
    "NullSink",
]


class Observability:
    """One machine's observability bundle: tracer + metrics + flight,
    optionally a sampling profiler.

    >>> obs = Observability(tracing=True, flight_buffer=4096, profile_hz=100)
    >>> machine = Machine(obs=obs)
    >>> with obs.profiler:
    ...     ...
    >>> obs.tracer.write_chrome("trace.json")   # open in ui.perfetto.dev
    >>> obs.metrics.write_json("metrics.json")
    >>> print(obs.profiler.collapsed())         # flamegraph text
    """

    def __init__(
        self,
        *,
        tracing: bool = False,
        trace_id: str = "",
        flight_buffer: int = 0,
        flight_dir: str | Path = ".",
        profile_hz: int = 0,
        worker_id: int = 0,
    ):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            MemorySink() if tracing else NullSink(),
            pid=worker_id,
            trace_id=trace_id,
        )
        self.flight = FlightRecorder(flight_buffer, out_dir=flight_dir)
        #: Sampling profiler, built (not started) when ``profile_hz`` >
        #: 0; span attribution comes from this bundle's tracer whether
        #: or not tracing records spans.
        self.profiler = (
            SamplingProfiler(profile_hz, tracer=self.tracer)
            if profile_hz > 0
            else None
        )
        self.worker_id = worker_id

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled
