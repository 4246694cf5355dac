"""The benchmark's own arithmetic: ``python3 -m pytest perfbench -q``."""

import layers
from layers import OTHER


def test_self_time_of_a_nested_span_tree():
    # a [10, 90] holds b [20, 50] (which holds c [30, 40]) and b [60, 70].
    events = [(10, 90, "a"), (20, 50, "b"), (30, 40, "c"), (60, 70, "b")]
    totals = layers.self_times(events, 0, 100)
    assert totals == {"a": 40, "b": 30, "c": 10, OTHER: 20}
    assert sum(totals.values()) == 100


def test_self_time_ignores_event_order_and_nests_equal_starts():
    events = [(10, 20, "inner"), (10, 30, "outer")]
    assert layers.self_times(events, 0, 30) == {"outer": 10, "inner": 10, OTHER: 10}


def test_overlapping_spans_still_partition_the_wall():
    # Two simulated CPUs interleave: b starts inside a and outlives it.
    totals = layers.self_times([(0, 50, "a"), (30, 80, "b")], 0, 100)
    assert totals == {"a": 30, "b": 50, OTHER: 20}


def test_intervals_are_clamped_to_the_window():
    totals = layers.self_times([(-5, 5, "a"), (95, 120, "b")], 0, 100)
    assert totals == {"a": 5, "b": 5, OTHER: 90}


def test_empty_window_is_all_other():
    assert layers.self_times([], 7, 19) == {OTHER: 12}


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert layers.tail_percentile(9) is None
    assert layers.tail_percentile(20) == 50
    assert layers.tail_percentile(99) == 50
    assert layers.tail_percentile(100) == 90
    assert layers.tail_percentile(999) == 90
    assert layers.tail_percentile(1000) == 99
    assert layers.tail_percentile(10_000) == 99.9


def test_nearest_rank_percentile():
    samples = list(range(100, 0, -1))
    assert layers.percentile(samples, 50) == 50
    assert layers.percentile(samples, 90) == 90
    assert layers.percentile(samples, 100) == 100
    assert layers.percentile([3.0], 90) == 3.0


def test_fail_ratio_counts_every_wrong_verdict_against_attempts():
    verdicts = layers.Verdicts()
    assert verdicts.fail_ratio == 0.0
    for ok in (True, True, False, True):
        verdicts.check(ok, f"case {ok}")
    assert (verdicts.attempted, verdicts.failed) == (4, 1)
    assert verdicts.fail_ratio == 0.25
    assert verdicts.errors == ["case False"]


def test_layer_sum_tolerance():
    assert layers.layer_sum_problems({"a": 9.5, OTHER: 0.5}, 10.0) == []
    (short,) = layers.layer_sum_problems({"a": 9.0, OTHER: 0.5}, 10.0)
    assert "sum to" in short
    (uncovered,) = layers.layer_sum_problems({"a": 8.0, OTHER: 2.0}, 10.0)
    assert "other_s" in uncovered
    assert layers.layer_sum_problems({"a": 8.0, OTHER: 2.0}, 10.0, tolerance=0.25) == []


def test_step_growth_compares_last_tenth_with_first():
    costs = [1, 1] + [3] * 16 + [5, 5]
    assert layers.step_growth([costs]) == 5.0
    # Testers too short to have a tenth are left out.
    assert layers.step_growth([costs, [100] * 9]) == 5.0
    assert layers.step_growth([]) == 0.0


def test_recorder_timers_nest_into_the_partition():
    recorder = layers.Recorder()
    inner = recorder.timer("inner", lambda: None, "inner.calls")
    outer = recorder.timer("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert recorder.counts["inner.calls"] == 3
    start = min(e[0] for e in recorder.events)
    end = max(e[1] for e in recorder.events)
    totals = layers.self_times(recorder.events, start, end)
    assert set(totals) <= {"inner", "outer", OTHER}
    assert sum(totals.values()) == end - start
    assert totals.get(OTHER, 0) == 0


def test_patches_restore_in_reverse_order():
    class Target:
        def f(self):
            return 1

    patches = layers.Patches()
    patches.wrap(Target, "f", lambda fn: lambda self: fn(self) + 10)
    patches.wrap(Target, "f", lambda fn: lambda self: fn(self) * 2)
    assert Target().f() == 22
    patches.undo()
    assert Target().f() == 1


def _fake_host(slowdown):
    """A clock and a reference loop for a host running ``slowdown`` times
    slower than nominal."""
    now = [0]

    def reference():
        now[0] += int(slowdown * layers.REFERENCE_NS)

    return now, layers.HostSpeed(clock=lambda: now[0], reference=reference)


def test_host_speed_reports_time_at_nominal_speed_without_its_samples():
    now, speed = _fake_host(2.0)

    def work():
        now[0] += layers.SAMPLE_INTERVAL_NS
        speed.tick()  # one sample inside the window: its time is not the work's
        now[0] += 3 * 10**9
        return "done"

    seconds, slowdown, result = speed.measure(work)
    assert (slowdown, result) == (2.0, "done")
    assert len(speed.samples) == 3
    assert seconds == (layers.SAMPLE_INTERVAL_NS + 3 * 10**9) / 1e9 / 2.0


def test_host_speed_samples_with_the_trace_function_lifted():
    import sys

    seen = []

    def reference():
        seen.append(sys.gettrace())

    speed = layers.HostSpeed(clock=lambda: 10 * layers.SAMPLE_INTERVAL_NS, reference=reference)

    def tracer(*args):
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        speed.tick()
        restored = sys.gettrace()
    finally:
        sys.settrace(previous)
    assert seen == [None]
    assert restored is tracer
