"""Integration tests over the paper's test suites themselves: the
handwritten census, the random tester, and coverage tooling."""

import pytest

from repro.obs import Observability
from repro.pkvm.bugs import Bugs
from repro.testing.coverage import CoverageTracker
from repro.testing.handwritten import (
    ALL_TESTS,
    CONCURRENT_TESTS,
    ERROR_TESTS,
    OK_TESTS,
    census,
)
from repro.testing.harness import TestOutcome, run_one, run_tests, summarise
from repro.testing.random_tester import RandomTester, run_campaign
from repro.machine import Machine


class TestHandwrittenSuite:
    def test_census_matches_paper(self):
        c = census()
        assert c["ok"] == 19
        assert c["error"] == 22
        assert c["total_single_cpu"] == 41  # the paper's count
        assert c["concurrent"] >= 3  # "a handful are highly concurrent"

    def test_whole_suite_passes_with_oracle(self):
        results = run_tests(ALL_TESTS)
        failing = [r for r in results if not r.ok]
        assert not failing, [f"{r.name}: {r.outcome} {r.detail}" for r in failing]

    def test_checked_suite_decodes_only_run_heads(self):
        """The incremental traversal decodes the first word of each run
        of entries that coalesce, not every entry: 1,082 descriptors over
        the checked suite, where decoding every entry took 16,191. The
        count is deterministic; it moves only when the suite, the
        hypervisor's tables or the traversal change."""
        obs = Observability()
        results = run_tests(ALL_TESTS, obs=obs)
        assert all(r.ok for r in results)
        assert obs.metrics.value("oracle_descriptor_decodes") == 1082

    def test_whole_suite_passes_without_oracle(self):
        results = run_tests(ALL_TESTS, ghost=False)
        assert all(r.ok for r in results)

    def test_summarise(self):
        results = run_tests(OK_TESTS[:3])
        assert summarise(results) == {"passed": 3}

    def test_harness_classifies_spec_violation(self):
        result = run_one(
            OK_TESTS[0], bugs=Bugs.single("synth_share_wrong_state")
        )
        assert result.outcome is TestOutcome.SPEC_VIOLATION

    def test_harness_classifies_assertion_failure(self):
        from repro.testing.harness import TestCase

        def bad(_proxy):
            assert False, "deliberate"

        result = run_one(TestCase("always_fails", bad))
        assert result.outcome is TestOutcome.FAILED

    def test_error_tests_drive_error_paths(self):
        """Error-path tests genuinely produce nonzero returns (they are
        not vacuous)."""
        results = run_tests(ERROR_TESTS)
        assert all(r.ok for r in results)

    def test_concurrent_tests_use_multiple_cpus(self):
        results = run_tests(CONCURRENT_TESTS)
        assert all(r.ok for r in results)


class TestRandomTester:
    def test_campaign_is_clean_on_fixed_hypervisor(self):
        stats = run_campaign(seed=1, steps=300)
        assert stats.spec_violations == 0
        assert stats.hyp_panics == 0
        assert stats.hypercalls > 100

    def test_campaign_reaches_deep_state(self):
        """The abstract model gets the generator through the state
        machine: VMs created, vCPUs run, pages reclaimed."""
        machine = Machine()
        tester = RandomTester(machine, seed=3)
        tester.run(500)
        acts = tester.stats.by_action
        assert acts.get("create_vm", 0) > 0
        assert acts.get("vcpu_run", 0) > 0
        assert tester.stats.error_returns > 0  # error paths exercised too

    def test_campaign_rejects_crashy_steps(self):
        stats = run_campaign(seed=5, steps=300)
        assert stats.rejected_crashy > 0

    def test_campaign_detects_injected_bug(self):
        from repro.ghost.checker import SpecViolation

        with pytest.raises(SpecViolation):
            run_campaign(
                seed=0, steps=400, bugs=Bugs.single("synth_share_wrong_state")
            )

    def test_determinism(self):
        a = run_campaign(seed=7, steps=150)
        b = run_campaign(seed=7, steps=150)
        assert a.by_action == b.by_action
        assert a.hypercalls == b.hypercalls

    def test_throughput_metric(self):
        stats = run_campaign(seed=2, steps=100)
        assert stats.hypercalls_per_hour > 0


class TestCoverageTooling:
    def test_coverage_of_share_path(self):
        with CoverageTracker(["repro/pkvm/mem_protect"]) as cov:
            machine = Machine()
            page = machine.host.alloc_page()
            machine.host.hvc(0xC600_0001, page >> 12)
        hit, total, pct = cov.totals()
        assert hit > 0 and total > hit
        assert 0 < pct < 100

    def test_function_coverage_tracked(self):
        with CoverageTracker(["repro/pkvm/mem_protect"]) as cov:
            machine = Machine(ghost=False)
            machine.host.hvc(0xC600_0001, machine.host.alloc_page() >> 12)
        module = next(iter(cov.report().values()))
        assert "MemProtect.do_share_hyp" in module.functions_hit

    def test_format_table(self):
        with CoverageTracker(["repro/pkvm/spinlock"]) as cov:
            Machine(ghost=False)
        assert "spinlock" in cov.format_table()

    def test_error_paths_raise_spec_coverage(self):
        """Running error tests covers more of the spec than success tests
        alone — the coverage-guided methodology of §5."""
        from repro.testing.harness import run_tests as run

        with CoverageTracker(["repro/ghost/spec"]) as ok_cov:
            run(OK_TESTS[:6])
        with CoverageTracker(["repro/ghost/spec"]) as both_cov:
            run(OK_TESTS[:6] + ERROR_TESTS[:8])
        assert both_cov.totals()[0] > ok_cov.totals()[0]
