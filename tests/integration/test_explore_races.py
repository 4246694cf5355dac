"""Race detection through the systematic explorer (explore + lockset)."""

from repro.analysis.scenarios import (
    build_share_unshare,
    build_unlocked_init_read,
    run_lockset_scenario,
)
from repro.sim.explore import explore


def outcome_fingerprint(result):
    """The comparable projection of an ExploreResult (exceptions compare
    by identity, so use their type)."""
    return [
        (o.script, type(o.error).__name__ if o.error else None, o.decisions, o.races)
        for o in result.outcomes
    ]


class TestDetection:
    def test_clean_scenario_reports_no_races(self):
        result = explore(build_share_unshare, max_schedules=8, detect_races=True)
        assert not result.failures()
        assert result.races() == ()

    def test_unlocked_read_scenario_reports_the_race(self):
        result = explore(
            build_unlocked_init_read, max_schedules=8, detect_races=True
        )
        assert not result.failures()  # the race is silent, not a crash
        races = result.races()
        assert races, "lockset detector missed the unlocked pgt read"
        assert any("pgt:hyp_s1" in r for r in races)

    def test_detect_races_off_leaves_outcomes_race_free(self):
        result = explore(build_unlocked_init_read, max_schedules=4)
        assert all(o.races == () for o in result.outcomes)

    def test_run_lockset_scenario_wraps_races_as_findings(self):
        findings = run_lockset_scenario("unlocked-init-read", max_schedules=4)
        assert findings
        assert all(f.analysis == "lockset" for f in findings)
        assert all(f.file == "scenario:unlocked-init-read" for f in findings)

    def test_canned_scenarios_keep_their_findings(self):
        """The CLI's default budget: no finding on the clean scenario, and
        exactly the unlocked stage 1 read on the positive control."""
        assert run_lockset_scenario("share-unshare", max_schedules=32) == []
        (finding,) = run_lockset_scenario("unlocked-init-read", max_schedules=32)
        assert (finding.rule, finding.message) == (
            "empty-lockset",
            "pgt:hyp_s1: read by cpu1 with empty candidate lockset "
            "(no lock consistently protects this location)",
        )


class TestDeterminism:
    def test_same_exploration_twice_is_identical(self):
        """Race-detecting exploration is a regression oracle only if it is
        deterministic: same scenario, same budget -> same outcomes, same
        race reports, in the same order."""
        first = explore(
            build_unlocked_init_read, max_schedules=12, detect_races=True
        )
        second = explore(
            build_unlocked_init_read, max_schedules=12, detect_races=True
        )
        assert outcome_fingerprint(first) == outcome_fingerprint(second)
        assert first.races() == second.races()
        assert first.races() != ()
