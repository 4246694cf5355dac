"""Tests for the static lock-discipline checker (repro.analysis.lockorder)."""

from pathlib import Path

import pytest

from repro.analysis.astutil import pkvm_root
from repro.analysis.lockorder import check_file, check_lock_discipline
from repro.analysis.symexec import LOCK_ORDER

FIXTURES = Path(__file__).parent.parent / "fixtures" / "analysis"


class TestOnRealImplementation:
    def test_pkvm_package_is_clean(self):
        """Every hypercall path in repro.pkvm balances its locks and nests
        them in the one global order."""
        assert check_lock_discipline() == []

    def test_checker_actually_sees_the_lock_heavy_modules(self):
        """Guard against the checker silently skipping everything: the
        functions it must interpret do exist where it looks."""
        hyp = (pkvm_root() / "hyp.py").read_text()
        assert "host_lock_component" in hyp
        assert "vm_table.lock.acquire" in hyp

    def test_order_matches_the_implementation(self):
        assert LOCK_ORDER == (
            "vm_table", "vm", "host_mmu", "pkvm_pgd", "iommu", "hyp_pool"
        )


class TestOnBadFixture:
    @pytest.fixture(scope="class")
    def findings(self):
        return check_file(FIXTURES / "bad_locking.py")

    def by_function(self, findings):
        return {f.function: f.rule for f in findings}

    def test_every_rule_fires_exactly_where_seeded(self, findings):
        assert self.by_function(findings) == {
            "early_return_skips_release": "early-return-holding",
            "raise_skips_release": "raise-holding",
            "forgets_release_entirely": "fallthrough-holding",
            "inverted_order": "lock-order-inversion",
            "double_acquire": "double-acquire",
            "release_without_acquire": "unbalanced-release",
        }

    def test_one_finding_per_seeded_bug(self, findings):
        assert len(findings) == 6

    def test_try_finally_understood(self, findings):
        """The balanced_with_finally function returns from inside a try
        whose finally releases — no finding."""
        assert all(f.function != "balanced_with_finally" for f in findings)

    def test_messages_name_the_lock(self, findings):
        for f in findings:
            assert any(lock in f.message for lock in LOCK_ORDER), f.message


class TestOnGateFixture:
    """Rules the lock pass applies on the shared interpreter although the
    ownership and refinement passes do not: they prune bug-gate arms by
    the assumed flags and treat ``raise`` as a panic that asserts
    nothing."""

    @pytest.fixture(scope="class")
    def findings(self):
        return check_file(FIXTURES / "bad_locking_gates.py")

    def test_bug_gated_return_holding_is_flagged(self, findings):
        gated = [f for f in findings if f.function == "bug_gate_returns_holding"]
        assert [f.rule for f in gated] == ["early-return-holding"]
        assert "host_mmu" in gated[0].message

    def test_raise_holding_is_flagged_unless_a_finally_releases(self, findings):
        assert {(f.function, f.rule) for f in findings} == {
            ("bug_gate_returns_holding", "early-return-holding"),
            ("raise_in_try_skips_release", "raise-holding"),
        }
