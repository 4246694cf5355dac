"""Unit tests for the campaign's one mergeable coverage map.

Merging must behave like set union per key — associative, commutative,
idempotent — so the order worker results arrive in can never change the
campaign-wide map, whether its points are oracle classes or
interleaving windows.
"""

from repro.sim.coverage import CoverageMap


def _map(**keys) -> CoverageMap:
    return CoverageMap({key: set(points) for key, points in keys.items()})


class TestMergeAlgebra:
    def test_associative(self):
        a = _map(pkvm=[1, 2], ghost=[10])
        b = _map(pkvm=[2, 3])
        c = _map(ghost=[11], arch=[5])
        assert ((a | b) | c) == (a | (b | c))

    def test_commutative(self):
        a = _map(pkvm=[1, 2])
        b = _map(pkvm=[3], ghost=[7])
        assert (a | b) == (b | a)

    def test_idempotent(self):
        a = _map(pkvm=[1, 2], ghost=[10])
        assert (a | a) == a
        copy = a.copy()
        assert copy.merge(a) == 0  # nothing new
        assert copy == a

    def test_merge_reports_novelty(self):
        a = _map(pkvm=[1, 2])
        b = _map(pkvm=[2, 3], ghost=[10])
        assert a.merge(b) == 2  # point 3 and point 10
        assert a.count() == 4

    def test_or_does_not_mutate_operands(self):
        a = _map(pkvm=[1])
        b = _map(pkvm=[2])
        _ = a | b
        assert a.points["pkvm"] == {1}
        assert b.points["pkvm"] == {2}

    def test_add_counts_new_points(self):
        cm = CoverageMap()
        assert cm.add("mixed", {1, 2, 3}) == 3
        assert cm.add("mixed", {2, 3, 4}) == 1
        # Same points under a different key are distinct coverage.
        assert cm.add("vcpu", {1}) == 1

    def test_seen_means_no_novelty(self):
        cm = _map(mixed=[1, 2, 3])
        assert cm.seen("mixed", {1, 3})
        assert not cm.seen("mixed", {1, 4})
        assert not cm.seen("vcpu", {1})


class TestSerialisation:
    def test_jsonable_round_trip(self):
        a = _map(pkvm=[3, 1, 2], ghost=[10], oracle=["b:0:", "a:-1:local"])
        back = CoverageMap.from_jsonable(a.to_jsonable())
        assert back == a

    def test_jsonable_is_sorted_and_plain(self):
        data = _map(pkvm=[3, 1], oracle=["b", "a"]).to_jsonable()
        assert data == {"oracle": ["a", "b"], "pkvm": [1, 3]}

