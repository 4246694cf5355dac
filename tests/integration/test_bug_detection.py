"""Integration tests: the oracle's bug-finding results (paper §5, §6).

The headline claim of the paper is that an executable specification used
as a runtime test oracle finds real bugs. These tests assert the full
discrimination matrix, read off the differential matrix's rows: every
one of the five real pKVM bugs and every synthetic bug is detected when
injected, and the same scenario is clean on the fixed hypervisor.
"""

from dataclasses import fields

import pytest

from repro.analysis.differential import (
    FIXED,
    MATRIX,
    detections,
    differential_ok,
    format_matrix,
)
from repro.pkvm.bugs import Bugs
from repro.testing.harness import TestCase


@pytest.fixture(scope="module")
def verdicts(matrix_rows) -> dict[str, tuple[str, str]]:
    """bug -> (verdict with the bug injected, verdict when fixed)."""
    return detections(matrix_rows)


class TestPaperBugs:
    @pytest.mark.parametrize("bug", Bugs.paper_bug_names())
    def test_paper_bug_detected(self, verdicts, bug):
        injected, _fixed = verdicts[bug]
        assert injected != "clean", f"{bug} missed: {injected}"

    @pytest.mark.parametrize("bug", Bugs.paper_bug_names())
    def test_paper_bug_scenario_clean_when_fixed(self, verdicts, bug):
        _injected, fixed = verdicts[bug]
        assert fixed == "clean", f"{bug} scenario flagged on fixed hyp: {fixed}"

    def test_all_five_paper_bugs_covered(self, verdicts):
        assert sum(1 for bug in verdicts if bug in Bugs.paper_bug_names()) == 5

    def test_memory_safety_bugs_found_by_spec(self, verdicts):
        """Bugs 1/2/5 are state-machine-visible: the *specification*
        catches them (not a crash)."""
        for bug in ("memcache_alignment", "memcache_overflow", "linear_map_overlap"):
            assert verdicts[bug][0].startswith("spec-violation")

    def test_concurrency_bugs_crash(self, verdicts):
        """Bugs 3/4 manifest as hypervisor panics under the scheduler."""
        for bug in ("vcpu_load_race", "host_fault_fragile"):
            assert verdicts[bug][0] == "hyp-panic"

    def test_paper_bugs_are_dynamic_only_rows_with_their_verdicts(
        self, matrix_rows
    ):
        """Neither static pass flags a paper bug; each row pins the
        verdict its scenario gives with the bug injected."""
        rows = {r.bug: r for r in matrix_rows if r.check == "dynamic-only"}
        expected = {
            "memcache_alignment": "spec-violation:post-mismatch",
            "memcache_overflow": "spec-violation:frame-violation",
            "vcpu_load_race": "hyp-panic",
            "host_fault_fragile": "hyp-panic",
            "linear_map_overlap": "spec-violation:init-invariant",
        }
        for bug, verdict in expected.items():
            assert rows[bug].rules == () and rows[bug].agree, bug
            assert rows[bug].replays == ((verdict, verdict),), bug


class TestSyntheticBugs:
    @pytest.mark.parametrize("bug", Bugs.synthetic_bug_names())
    def test_synthetic_bug_discriminated(self, verdicts, bug):
        injected, fixed = verdicts[bug]
        assert injected != "clean" and fixed == "clean", f"{bug}: {injected}"

    def test_matrix_is_total(self, verdicts, matrix_rows):
        assert set(verdicts) == set(Bugs.paper_bug_names()) | set(
            Bugs.synthetic_bug_names()
        )
        assert all(
            injected != "clean" and fixed == "clean"
            for injected, fixed in verdicts.values()
        )
        assert differential_ok(matrix_rows), format_matrix(matrix_rows)

    def test_every_scenario_is_clean_on_the_fixed_hypervisor(self, matrix_rows):
        fixed = [r for r in matrix_rows if r.check == FIXED]
        assert [r.bug for r in fixed] == [f.name for f in fields(Bugs)]
        assert all(r.replays == (("clean", "clean"),) for r in fixed)

    def test_format_matrix_renders(self, matrix_rows):
        text = format_matrix(matrix_rows)
        assert "memcache_alignment" in text
        assert "YES" in text


class TestDetectionDetails:
    def test_wrong_state_bug_diff_names_the_page(self):
        """The violation report carries the paper-style state diff."""
        from repro.ghost.checker import SpecViolation
        from repro.machine import Machine
        from repro.testing.proxy import HypProxy

        machine = Machine(bugs=Bugs.single("synth_share_wrong_state"))
        proxy = HypProxy(machine)
        page = proxy.alloc_page()
        with pytest.raises(SpecViolation) as exc:
            proxy.share_page(page)
        assert f"{page:x}" in exc.value.detail

    def test_missing_ret_bug_caught_on_error_path_only(self):
        from repro.machine import Machine
        from repro.testing.proxy import HypProxy

        machine = Machine(bugs=Bugs.single("synth_missing_ret_write"))
        proxy = HypProxy(machine)
        # success paths still write returns correctly with this bug
        assert proxy.share_page(proxy.alloc_page()) == 0

    def test_scenarios_and_bugs_in_sync(self):
        """The bugs E8/E9 judge, paper and synthetic, are exactly the
        bugs the one table gives a detection scenario."""
        all_bugs = set(Bugs.paper_bug_names()) | set(Bugs.synthetic_bug_names())
        assert set(MATRIX) == all_bugs
        assert all(isinstance(entry.test, TestCase) for entry in MATRIX.values())
