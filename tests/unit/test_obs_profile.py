"""The sampling profiler: collapsed stacks, span attribution, merging.

The background thread is only exercised by one short live test; every
other behavior is pinned through the synchronous ``sample_once`` /
``add`` surface so the suite stays deterministic.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.profile import IDLE, NO_SPAN, Profile, SamplingProfiler
from repro.obs.trace import MemorySink, NullSink, Tracer


# -- Profile: the mergeable sample table ---------------------------------


def test_add_and_collapsed_format():
    p = Profile(hz=100)
    p.add("oracle:check", "repro.ghost.spec.compute;repro.ghost.spec.walk", 3)
    p.add("trap:host_share_hyp", "repro.pkvm.hyp.handle", 1)
    text = p.collapsed()
    lines = text.splitlines()
    # Hottest stack first, bucket leads each line, count trails.
    assert lines[0] == (
        "oracle:check;repro.ghost.spec.compute;repro.ghost.spec.walk 3"
    )
    assert lines[1] == "trap:host_share_hyp;repro.pkvm.hyp.handle 1"
    assert text.endswith("\n")


def test_collapsed_empty_profile_is_empty_string():
    assert Profile().collapsed() == ""


def test_snapshot_merge_roundtrip_counts_add():
    a = Profile(hz=50)
    a.add("oracle:check", "m.f", 2)
    b = Profile()
    b.merge(a.snapshot())
    b.merge(a.snapshot())
    assert b.total == 4
    assert b.samples[("oracle:check", "m.f")] == 4
    # hz adopted from the first non-zero snapshot.
    assert b.hz == 50


def test_top_frames_leaf_vs_inclusive():
    p = Profile()
    p.add("b", "outer.f;inner.g", 3)
    p.add("b", "outer.f", 2)
    leaf = dict(p.top_frames(10, leaf=True))
    assert leaf == {"inner.g": 3, "outer.f": 2}
    inclusive = dict(p.top_frames(10, leaf=False))
    assert inclusive == {"outer.f": 5, "inner.g": 3}


def test_by_bucket_totals():
    p = Profile()
    p.add("oracle:check", "a.b", 5)
    p.add("oracle:check", "c.d", 1)
    p.add(NO_SPAN, "e.f", 2)
    assert p.by_bucket() == {"oracle:check": 6, NO_SPAN: 2}


def test_attribution_counts_only_oracle_phase_stacks():
    p = Profile()
    # Oracle-phase, attributed.
    p.add("oracle:check", "repro.ghost.spec.compute", 8)
    # Oracle-phase, NOT attributed.
    p.add(NO_SPAN, "repro.pkvm.hyp.handle", 2)
    # Not oracle-phase at all: ignored by both numerator and denominator.
    p.add(NO_SPAN, "json.dumps", 90)
    p.add(IDLE, "threading.wait", 50)
    att = p.attribution()
    assert att["oracle_phase_samples"] == 10
    assert att["attributed_samples"] == 8
    assert att["attributed_fraction"] == pytest.approx(0.8)


def test_attribution_empty_profile():
    assert Profile().attribution()["attributed_fraction"] == 0.0


def test_to_metrics_publishes_top_frames(tmp_path):
    from repro.obs.metrics import MetricsRegistry

    p = Profile()
    p.add("b", "m.hot", 9)
    p.add("b", "m.cold", 1)
    reg = MetricsRegistry()
    p.to_metrics(reg, n=1)
    assert reg.counter("profile_samples_total").value == 10
    assert reg.counter("profile_samples_total", {"frame": "m.hot"}).value == 9
    prom = reg.to_prometheus()
    assert 'profile_samples_total{frame="m.hot"} 9' in prom


def test_write_collapsed(tmp_path):
    p = Profile()
    p.add("b", "m.f", 4)
    out = tmp_path / "profile.txt"
    p.write_collapsed(out)
    assert out.read_text() == "b;m.f 4\n"


# -- SamplingProfiler: attribution via the tracer ------------------------


def test_hz_must_be_positive():
    with pytest.raises(ValueError):
        SamplingProfiler(hz=0)


def test_sample_once_buckets_by_open_span():
    tracer = Tracer(NullSink())
    profiler = SamplingProfiler(hz=100, tracer=tracer)
    tracer.track_open_spans(True)
    seen = {}
    release = threading.Event()
    ready = threading.Event()

    def worker():
        with tracer.span("oracle:check", "oracle"):
            ready.set()
            release.wait(5)

    t = threading.Thread(target=worker)
    t.start()
    try:
        assert ready.wait(5)
        profiler.sample_once()
        seen = profiler.by_bucket()
    finally:
        release.set()
        t.join()
    assert seen.get("oracle:check", 0) >= 1


def test_sample_once_innermost_span_wins():
    tracer = Tracer(NullSink())
    profiler = SamplingProfiler(hz=100, tracer=tracer)
    tracer.track_open_spans(True)
    release = threading.Event()
    ready = threading.Event()

    def worker():
        with tracer.span("trap:host_share_hyp", "trap"):
            with tracer.span("oracle:check", "oracle"):
                ready.set()
                release.wait(5)

    t = threading.Thread(target=worker)
    t.start()
    try:
        assert ready.wait(5)
        profiler.sample_once()
        buckets = profiler.by_bucket()
    finally:
        release.set()
        t.join()
    assert buckets.get("oracle:check", 0) >= 1
    assert "trap:host_share_hyp" not in buckets


def test_sample_once_idle_threads_bucket_as_idle():
    # A thread parked in threading.Event.wait samples as (idle), not
    # (no-span) — liveness plumbing must not pollute attribution.
    profiler = SamplingProfiler(hz=100)
    release = threading.Event()
    started = threading.Event()

    def parked():
        started.set()
        release.wait(5)

    t = threading.Thread(target=parked)
    t.start()
    try:
        assert started.wait(5)
        time.sleep(0.02)  # let the thread actually reach the wait
        profiler.sample_once()
        buckets = profiler.by_bucket()
    finally:
        release.set()
        t.join()
    assert buckets.get(IDLE, 0) >= 1


def test_background_thread_profiles_workload_and_stops_clean():
    tracer = Tracer(NullSink())
    profiler = SamplingProfiler(hz=500, tracer=tracer)
    deadline = time.perf_counter() + 0.25
    with profiler:
        with tracer.span("oracle:check", "oracle"):
            while time.perf_counter() < deadline:
                sum(i * i for i in range(500))
    assert profiler.total > 0
    assert profiler.by_bucket().get("oracle:check", 0) > 0
    assert not profiler.running
    assert not any(
        t.name == "obs-profiler" for t in threading.enumerate()
    )
    # track_open_spans was enabled by start() and undone by stop().
    assert not tracer._track_open


def test_start_twice_raises_stop_idempotent():
    profiler = SamplingProfiler(hz=100)
    profiler.start()
    try:
        with pytest.raises(RuntimeError):
            profiler.start()
    finally:
        profiler.stop()
    profiler.stop()  # second stop is a no-op


def test_mark_ticks_emits_instants_into_shared_sink():
    sink = MemorySink(max_events=1_000)
    tracer = Tracer(sink)
    profiler = SamplingProfiler(hz=100, tracer=tracer, mark_ticks=True)
    profiler.sample_once()
    ticks = [s for s in tracer.spans if s.name == "profile:tick"]
    assert len(ticks) == 1
    assert ticks[0].args["sampled"] >= 0
