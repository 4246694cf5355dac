"""Unit tests for interleaving-class windows and the map they land in.

Windows are concurrency mode's coverage points, keyed by scenario in the
campaign's one ``CoverageMap``. Merging must behave like set union per
scenario — associative, commutative, idempotent — so the order
concurrency-worker results arrive in can never change the campaign-wide
map. ``test_coverage_map.py`` checks the same map over oracle classes
and source lines.
"""

from repro.sim.coverage import (
    DEFAULT_WINDOW,
    CoverageMap,
    schedule_class,
    schedule_windows,
    windows_of_scheduler,
)
from repro.sim.sched import Scheduler, yield_point


def _map(**scenarios) -> CoverageMap:
    return CoverageMap(
        {name: set(windows) for name, windows in scenarios.items()}
    )


class TestMergeAlgebra:
    def test_associative(self):
        a = _map(mixed=[1, 2], vcpu=[10])
        b = _map(mixed=[2, 3])
        c = _map(vcpu=[11], host=[5])
        assert ((a | b) | c) == (a | (b | c))

    def test_commutative(self):
        a = _map(mixed=[1, 2])
        b = _map(mixed=[3], vcpu=[7])
        assert (a | b) == (b | a)

    def test_idempotent(self):
        a = _map(mixed=[1, 2], vcpu=[10])
        assert (a | a) == a
        copy = a.copy()
        assert copy.merge(a) == 0  # nothing new
        assert copy == a

    def test_merge_reports_novelty(self):
        a = _map(mixed=[1, 2])
        b = _map(mixed=[2, 3], vcpu=[10])
        assert a.merge(b) == 2  # window 3 and window 10
        assert a.count() == 4

    def test_or_does_not_mutate_operands(self):
        a = _map(mixed=[1])
        b = _map(mixed=[2])
        _ = a | b
        assert a.points["mixed"] == {1}
        assert b.points["mixed"] == {2}


class TestSerialisation:
    def test_jsonable_round_trip(self):
        a = _map(mixed=[3, 1, 2], vcpu=[10])
        back = CoverageMap.from_jsonable(a.to_jsonable())
        assert back == a

    def test_jsonable_is_sorted_and_plain(self):
        data = _map(mixed=[3, 1]).to_jsonable()
        assert data["mixed"] == [1, 3]
        assert all(isinstance(v, list) for v in data.values())


class TestWindowHashing:
    def test_hashes_are_content_stable(self):
        # BLAKE2-based, not Python's per-process randomized hash: the
        # exact values must be reproducible across interpreter runs.
        events = [("a", "x"), ("b", "y"), ("a", "z")]
        assert schedule_windows(events) == schedule_windows(list(events))
        assert schedule_class(events) == schedule_class(list(events))

    def test_spin_loops_collapse(self):
        # 50 uninterrupted yields from one thread are the same
        # interleaving decision as 2.
        short = [("a", "t")] * 2 + [("b", "u")]
        long = [("a", "t")] * 50 + [("b", "u")]
        assert schedule_windows(short) == schedule_windows(long)

    def test_order_distinguishes_classes(self):
        ab = [("a", "x"), ("b", "y"), ("a", "x"), ("b", "y")]
        ba = [("b", "y"), ("a", "x"), ("b", "y"), ("a", "x")]
        assert schedule_windows(ab) != schedule_windows(ba)

    def test_short_streams_hash_whole(self):
        events = [("a", "x"), ("b", "y")]
        assert len(events) < DEFAULT_WINDOW
        assert len(schedule_windows(events)) == 1

    def test_empty_stream(self):
        assert schedule_windows([]) == set()
        assert schedule_class([]) == 0

    def test_windows_of_scheduler(self):
        s = Scheduler(policy="rr")

        def make(name):
            def body():
                for _ in range(4):
                    yield_point(f"op:{name}")
            return body

        s.spawn(make("a"), "a")
        s.spawn(make("b"), "b")
        s.run()
        windows = windows_of_scheduler(s)
        assert windows
        assert windows == schedule_windows(
            [(name, tag) for _t, name, tag in s.trace]
        )
