"""Unit tests for the metrics registry (repro.obs.metrics)."""

import json
import sys
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_US,
    MetricsRegistry,
)


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("n")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12


class TestHistogramBuckets:
    def test_zero_lands_in_first_bucket(self):
        h = Histogram("h", (10, 100))
        h.observe(0)
        assert h.bucket_counts == [1, 0, 0]

    def test_value_equal_to_bound_is_le(self):
        """Prometheus le semantics: the bound is inclusive."""
        h = Histogram("h", (10, 100))
        h.observe(10)
        h.observe(100)
        assert h.bucket_counts == [1, 1, 0]

    def test_out_of_range_lands_in_overflow(self):
        h = Histogram("h", (10, 100))
        h.observe(101)
        h.observe(10**9)
        assert h.bucket_counts == [0, 0, 2]
        assert h.count == 2

    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("h", (10, 10))
        with pytest.raises(ValueError):
            Histogram("h", ())


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", {"k": "1"}) is not reg.counter("a", {"k": "2"})

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        c1 = reg.counter("a", {"x": "1", "y": "2"})
        c2 = reg.counter("a", {"y": "2", "x": "1"})
        assert c1 is c2

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_histogram_bucket_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", (1, 3))

    def test_value_lookup_with_default(self):
        reg = MetricsRegistry()
        assert reg.value("missing") == 0
        reg.counter("a").inc(7)
        assert reg.value("a") == 7


class TestMerge:
    def make_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.counter("calls", {"call": "share"}).inc(2)
        reg.gauge("peak").set(100)
        h = reg.histogram("lat", (10, 100))
        h.observe(5)
        h.observe(50)
        return reg.snapshot()

    def test_counters_add(self):
        parent = MetricsRegistry()
        parent.merge(self.make_snapshot())
        parent.merge(self.make_snapshot())
        assert parent.value("hits") == 6
        assert parent.value("calls", {"call": "share"}) == 4

    def test_gauges_take_max(self):
        parent = MetricsRegistry()
        parent.gauge("peak").set(150)
        parent.merge(self.make_snapshot())
        assert parent.value("peak") == 150
        parent.gauge("peak").set(10)
        parent.merge(self.make_snapshot())
        assert parent.value("peak") == 100

    def test_pre_mode_snapshot_merges_as_max(self):
        """Metrics files from before, during and after per-gauge merge
        modes merge alike: with no ``mode`` key or with any, by max."""
        worker = MetricsRegistry()
        worker.gauge("peak").set(70)
        snap = worker.snapshot()
        assert "mode" not in snap["gauges"][0]
        parent = MetricsRegistry()
        parent.gauge("peak").set(100)
        parent.merge(snap)
        assert parent.value("peak") == 100
        for mode in ("last", "sum"):
            snap["gauges"][0]["mode"] = mode
            parent.merge(snap)
            assert parent.value("peak") == 100

    def test_histograms_add_bucketwise(self):
        parent = MetricsRegistry()
        parent.merge(self.make_snapshot())
        parent.merge(self.make_snapshot())
        h = parent.get("lat")
        assert h.bucket_counts == [2, 2, 0]
        assert h.count == 4
        assert h.total == 110

    def test_snapshot_is_json_serialisable(self):
        json.dumps(self.make_snapshot())


class TestExporters:
    def test_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        out = tmp_path / "m.json"
        reg.write_json(out)
        data = json.loads(out.read_text())
        assert data["counters"][0] == {"name": "a", "labels": {}, "value": 1}

    def test_prometheus_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.gauge("mem", {"kind": "ghost"}).set(42)
        text = reg.to_prometheus()
        assert "# TYPE hits counter" in text
        assert "hits 3" in text
        assert '# TYPE mem gauge' in text
        assert 'mem{kind="ghost"} 42' in text

    def test_prometheus_histogram_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", (10, 100))
        h.observe(5)
        h.observe(50)
        h.observe(5000)
        text = reg.to_prometheus()
        assert 'lat_bucket{le="10"} 1' in text
        assert 'lat_bucket{le="100"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 5055" in text
        assert "lat_count 3" in text

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c", {"k": 'a"b\\c'}).inc()
        text = reg.to_prometheus()
        assert 'k="a\\"b\\\\c"' in text

    def test_prometheus_escapes_newlines_in_label_values(self):
        """Per the exposition spec, line feeds must escape to \\n —
        a raw newline inside a label value tears the line in two and
        the whole scrape fails to parse."""
        reg = MetricsRegistry()
        reg.counter("c", {"k": "line1\nline2"}).inc()
        text = reg.to_prometheus()
        assert 'k="line1\\nline2"' in text
        # No exposition line is left torn open.
        for line in text.splitlines():
            assert line.count('"') % 2 == 0

    def test_prometheus_escape_order_backslash_first(self):
        # A value that is literally backslash-n must NOT collapse into
        # the \n escape: it round-trips as \\n.
        reg = MetricsRegistry()
        reg.counter("c", {"k": "a\\nb"}).inc()
        assert 'k="a\\\\nb"' in reg.to_prometheus()

    def test_prometheus_renders_while_another_thread_registers(self):
        """The telemetry server renders ``/metrics`` on its own thread
        while the campaign engine's merges register new labelled
        metrics; a render must never see the registry change size."""
        reg = MetricsRegistry()
        errors = []
        done = threading.Event()

        def render():
            while not done.is_set():
                try:
                    reg.to_prometheus()
                except RuntimeError as exc:
                    errors.append(exc)
                    return

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        renderer = threading.Thread(target=render)
        renderer.start()
        try:
            for i in range(5000):
                reg.counter("hypercall_calls", {"call": str(i)}).inc()
        finally:
            done.set()
            renderer.join(timeout=30)
            sys.setswitchinterval(switch)
        assert not renderer.is_alive()
        assert errors == []

    def test_prometheus_sanitises_metric_names(self):
        reg = MetricsRegistry()
        reg.counter("bad-name.metric").inc()
        assert "# TYPE bad_name_metric counter" in reg.to_prometheus()

    def test_default_latency_buckets_cover_trap_latencies(self):
        assert LATENCY_BUCKETS_US[0] == 10
        assert LATENCY_BUCKETS_US[-1] == 1_000_000
        assert list(LATENCY_BUCKETS_US) == sorted(LATENCY_BUCKETS_US)
