"""Unit tests for the span tracer (repro.obs.trace)."""

import json
import pickle

import pytest

from repro.obs.trace import (
    MemorySink,
    NullSink,
    Span,
    Tracer,
    active_tracer,
    chrome_trace,
    make_trace_id,
    set_active_tracer,
)


def make_tracer(**kwargs):
    """A tracer with a deterministic fake clock: each read advances 1us."""
    ticks = {"now": 0}
    trace_id = kwargs.pop("trace_id", "")

    def clock():
        ticks["now"] += 1_000
        return ticks["now"]

    return Tracer(MemorySink(**kwargs), clock=clock, trace_id=trace_id)


class TestNullPath:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(NullSink())
        with tracer.span("a"):
            tracer.instant("b")
        assert tracer.spans == []
        assert not tracer.enabled

    def test_disabled_span_ctx_is_shared_singleton(self):
        """The whole disabled cost is one attribute check + one return
        of a shared object — no allocation per span."""
        tracer = Tracer(NullSink())
        assert tracer.span("a") is tracer.span("b")

    def test_active_tracer_defaults_to_null(self):
        set_active_tracer(None)
        assert not active_tracer().enabled

    def test_install_and_reset(self):
        tracer = make_tracer()
        set_active_tracer(tracer)
        try:
            assert active_tracer() is tracer
        finally:
            set_active_tracer(None)


class TestNesting:
    def test_depth_tracks_nesting(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_depth_is_per_tid(self):
        tracer = make_tracer()
        with tracer.span("a", tid=0):
            with tracer.span("b", tid=1):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["a"].depth == 0
        assert by_name["b"].depth == 0  # different track, not nested

    def test_inner_span_emitted_first(self):
        """Spans emit on exit, so children precede parents in the sink
        but the ts/dur intervals still nest."""
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert inner.name == "inner"
        assert outer.ts_us <= inner.ts_us
        assert inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us

    def test_exception_recorded_and_propagated(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.args["error"] == "ValueError"
        # Depth unwound: a following span is top-level again.
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].depth == 0


class TestDecorator:
    def test_traced_wraps_and_records(self):
        tracer = make_tracer()

        @tracer.traced("work", cat="test")
        def work(x):
            return x + 1

        assert work(1) == 2
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.cat == "test"
        assert work.__name__ == "work"

    def test_traced_is_free_when_disabled(self):
        tracer = Tracer(NullSink())

        @tracer.traced()
        def work():
            return 42

        assert work() == 42


class TestExport:
    def test_chrome_export_shape(self):
        tracer = make_tracer()
        with tracer.span("hvc", "hypercall", tid=2, call="share"):
            pass
        tracer.instant("mark", "lock")
        doc = tracer.to_chrome()
        events = doc["traceEvents"]
        assert len(events) == 2
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["name"] == "hvc"
        assert complete["cat"] == "hypercall"
        assert complete["tid"] == 2
        assert complete["dur"] >= 0
        assert complete["args"] == {"call": "share"}
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        # The whole document round-trips through JSON.
        json.loads(json.dumps(doc))

    def test_write_chrome(self, tmp_path):
        tracer = make_tracer()
        with tracer.span("a"):
            pass
        out = tmp_path / "trace.json"
        tracer.write_chrome(out)
        doc = json.loads(out.read_text())
        assert doc["traceEvents"][0]["name"] == "a"
        assert doc["otherData"]["dropped_events"] == 0

    def test_chrome_trace_merges_multi_worker_spans(self):
        spans = [
            Span("w1", "c", 5, 1, 0, 1, 0, {}),
            Span("w0", "c", 3, 1, 0, 0, 0, {}),
        ]
        doc = chrome_trace(spans)
        assert [e["pid"] for e in doc["traceEvents"]] == [0, 1]

    def test_dump_tree_indents_by_depth(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tree = tracer.dump_tree()
        lines = tree.splitlines()
        assert lines[0] == "[worker 0 / cpu 0]"
        outer = next(l for l in lines if "outer" in l)
        inner = next(l for l in lines if "inner" in l)
        assert len(inner) - len(inner.lstrip()) > len(outer) - len(
            outer.lstrip()
        )


class TestCorrelation:
    def test_make_trace_id_stable_and_distinct(self):
        assert make_trace_id(42) == make_trace_id(42)
        assert make_trace_id(42) != make_trace_id(43)

    def test_span_ids_and_parent_links(self):
        tracer = make_tracer(trace_id=make_trace_id(7))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        outer, inner, sibling = (
            by_name["outer"], by_name["inner"], by_name["sibling"],
        )
        assert outer.trace_id == make_trace_id(7)
        assert outer.span_id and inner.span_id and sibling.span_id
        assert len({outer.span_id, inner.span_id, sibling.span_id}) == 3
        assert outer.parent_id == 0
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id

    def test_parent_links_are_per_tid(self):
        tracer = make_tracer()
        with tracer.span("a", tid=0):
            with tracer.span("b", tid=1):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["b"].parent_id == 0  # different track, no parent

    def test_correlation_ids_in_chrome_args_only_when_traced(self):
        # Without a trace id the export keeps the original slim args
        # (pinned by test_chrome_export_shape); with one, every event
        # carries it plus the span/parent ids.
        tracer = make_tracer(trace_id="trace-cafe")
        with tracer.span("outer"):
            with tracer.span("inner", call="share"):
                pass
        doc = tracer.to_chrome()
        inner = next(e for e in doc["traceEvents"] if e["name"] == "inner")
        outer = next(e for e in doc["traceEvents"] if e["name"] == "outer")
        assert inner["args"]["call"] == "share"
        assert inner["args"]["trace_id"] == "trace-cafe"
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert "parent_id" not in outer["args"]

    def test_pickled_span_keeps_its_ids(self):
        # Campaign workers ship their spans to the engine by pickle.
        tracer = make_tracer(trace_id="t-1")
        with tracer.span("a"):
            with tracer.span("b", call="share"):
                pass
        for span in tracer.spans:
            clone = pickle.loads(pickle.dumps(span))
            assert (clone.trace_id, clone.span_id, clone.parent_id) == (
                span.trace_id, span.span_id, span.parent_id,
            )
            assert clone.to_trace_event() == span.to_trace_event()
        assert tracer.spans[0].parent_id == tracer.spans[1].span_id

    def test_chrome_trace_process_name_metadata(self):
        spans = [
            Span("w1", "c", 5, 1, 0, 1, 0, {}),
            Span("w0", "c", 3, 1, 0, 0, 0, {}),
        ]
        doc = chrome_trace(
            spans,
            process_names={0: "worker 0", 1: "worker 1"},
            trace_id="t-9",
        )
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [(e["pid"], e["args"]["name"]) for e in meta] == [
            (0, "worker 0"),
            (1, "worker 1"),
        ]
        # Metadata leads, then spans sorted by pid as before.
        rest = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert [e["pid"] for e in rest] == [0, 1]
        assert doc["otherData"]["trace_id"] == "t-9"


class TestOpenSpanTracking:
    def test_null_sink_records_nothing_but_tracks_open_spans(self):
        tracer = Tracer(NullSink())
        tracer.track_open_spans(True)
        with tracer.span("oracle:check"):
            names = tracer.open_span_names()
            import threading

            assert names[threading.get_ident()] == "oracle:check"
        assert tracer.open_span_names() == {}
        assert tracer.spans == []  # nothing ever hit the sink

    def test_innermost_open_span_reported(self):
        tracer = make_tracer()
        tracer.track_open_spans(True)
        import threading

        ident = threading.get_ident()
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert tracer.open_span_names()[ident] == "inner"
            assert tracer.open_span_names()[ident] == "outer"

    def test_tracking_off_by_default_with_null_sink(self):
        tracer = Tracer(NullSink())
        with tracer.span("a"):
            assert tracer.open_span_names() == {}


class TestBounds:
    def test_sink_cap_counts_drops(self):
        tracer = make_tracer(max_events=2)
        for i in range(5):
            tracer.instant(f"e{i}")
        assert len(tracer.spans) == 2
        assert tracer.sink.dropped == 3
        assert tracer.to_chrome()["otherData"]["dropped_events"] == 3

    def test_clear_resets(self):
        tracer = make_tracer(max_events=1)
        tracer.instant("a")
        tracer.instant("b")
        tracer.clear()
        assert tracer.spans == []
        assert tracer.sink.dropped == 0
