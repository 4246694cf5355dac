"""Tests for the ownership transition pass (repro.analysis.ownership)."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.astutil import load_module_ast, read_manifest
from repro.analysis.ownership import check_ownership
from repro.analysis.symexec import LOCK_ORDER, resolve_condition
from repro.ghost.registry import spec_module_paths
from repro.ghost.spec import OwnershipRule

FIXTURES = Path(__file__).parent.parent / "fixtures" / "analysis"


def rules_of(findings):
    return {f.rule for f in findings}


class TestOnRealTree:
    def test_clean_tree_has_zero_findings(self):
        """The differential baseline: the fixed hypervisor conforms to
        every declared edge, check, pairing, lock, and write-back."""
        assert check_ownership() == []

    @pytest.mark.parametrize(
        "bug, expected_rule",
        [
            ("synth_share_skip_check", "unchecked-transition"),
            ("synth_share_skip_hyp_map", "missing-paired-effect"),
            ("synth_share_wrong_state", "wrong-transition"),
            ("synth_unshare_leak", "missing-paired-effect"),
            ("synth_donate_wrong_owner", "wrong-transition"),
            ("synth_missing_ret_write", "missing-ret-write"),
        ],
    )
    def test_each_synthetic_bug_is_flagged(self, bug, expected_rule):
        findings = check_ownership(assume_bugs={bug})
        assert findings, f"{bug} produced no findings"
        assert expected_rule in rules_of(findings)

    @pytest.mark.parametrize(
        "bug",
        [
            "synth_teardown_page_leak",
            "synth_fault_off_by_one",
            "synth_vttbr_not_restored",
        ],
    )
    def test_dynamic_only_bugs_stay_statically_clean(self, bug):
        """Data-shaped bugs (a wrong size, a skipped restore) are the
        oracle's job, not the transition system's."""
        assert check_ownership(assume_bugs={bug}) == []

    def test_findings_name_the_offending_op(self):
        findings = check_ownership(assume_bugs={"synth_share_wrong_state"})
        assert all(f.function == "do_share_hyp" for f in findings)
        assert all(f.analysis == "ownership" for f in findings)


class TestOnBadFixture:
    @pytest.fixture(scope="class")
    def findings(self):
        return check_ownership(FIXTURES / "bad_ownership.py")

    def test_every_rule_fires(self, findings):
        assert rules_of(findings) >= {
            "unchecked-transition",
            "wrong-transition",
            "undeclared-transition",
            "missing-paired-effect",
            "unlocked-transition",
            "missing-ret-write",
            "unmanifested-write",
        }

    def test_unlocked_call_names_the_missing_lock(self, findings):
        msgs = [f.message for f in findings if f.rule == "unlocked-transition"]
        assert msgs and "pkvm_pgd" in msgs[0]

    def test_both_ret_write_shapes_fire(self, findings):
        fns = {
            f.function for f in findings if f.rule == "missing-ret-write"
        }
        assert fns == {"_hcall_share_demo", "_finish_hcall"}

    def test_reasonless_pragma_is_rejected_not_honoured(self, findings):
        bad = [f for f in findings if f.rule == "bad-pragma"]
        assert len(bad) == 1
        # ... and the finding it tried to cover is still reported.
        assert "undeclared-transition" in rules_of(findings)

    def test_findings_carry_one_based_columns(self, findings):
        owned = [f for f in findings if f.analysis == "ownership"]
        assert owned and all(f.column >= 1 for f in owned)


class TestInterpreter:
    def check_src(self, tmp_path, src, assume=frozenset()):
        target = tmp_path / "mod.py"
        parts = src if isinstance(src, (list, tuple)) else [src]
        target.write_text("\n".join(textwrap.dedent(p) for p in parts))
        return check_ownership(target, assume_bugs=assume)

    MANIFEST = """
        OWNERSHIP_EDGES = {
            "do_op": OwnershipRule(
                checks={"host_mmu": "OWNED"},
                success={"host_mmu": "map:SHARED_OWNED"},
                rollback={},
                paired=(),
                locks=("host_mmu",),
            ),
        }
    """

    def test_check_dominates_write_through_alias(self, tmp_path):
        findings = self.check_src(
            tmp_path,
            [self.MANIFEST, """
            class P:
                def do_op(self, phys, size):
                    ret = check_page_state(self.host_mmu, phys, size, PageState.OWNED)
                    if ret:
                        return ret
                    attrs = host_memory_attrs(True, PageState.SHARED_OWNED)
                    return map_range(self.host_mmu, phys, size, phys, attrs)
            """],
        )
        assert findings == []

    def test_tuple_unpacking_drops_the_check_alias(self, tmp_path):
        """A check result laundered through tuple unpacking no longer
        dominates: the pass must stay conservative and flag the write."""
        findings = self.check_src(
            tmp_path,
            [self.MANIFEST, """
            class P:
                def do_op(self, phys, size):
                    ret, aux = check_page_state(self.host_mmu, phys, size, PageState.OWNED), 0
                    if ret:
                        return ret
                    return map_range(self.host_mmu, phys, size, phys,
                                     host_memory_attrs(True, PageState.SHARED_OWNED))
            """],
        )
        assert "unchecked-transition" in rules_of(findings)

    def test_augmented_assignment_kills_the_binding(self, tmp_path):
        """``ret += f()`` rebinding the checked name is no longer the
        check's result; refining on it must not record the check."""
        findings = self.check_src(
            tmp_path,
            [self.MANIFEST, """
            class P:
                def do_op(self, phys, size):
                    ret = check_page_state(self.host_mmu, phys, size, PageState.OWNED)
                    ret += self.bias
                    if ret:
                        return ret
                    return map_range(self.host_mmu, phys, size, phys,
                                     host_memory_attrs(True, PageState.SHARED_OWNED))
            """],
        )
        assert "unchecked-transition" in rules_of(findings)

    def test_failed_write_does_not_count_as_an_effect(self, tmp_path):
        """``ret = map_range(...); if ret: return ret`` — the error path
        carries no effect, so a paired-effect rule must not fire there."""
        findings = self.check_src(
            tmp_path,
            """
            OWNERSHIP_EDGES = {
                "do_op": OwnershipRule(
                    checks={},
                    success={"host_mmu": "unmap", "pkvm_pgd": "unmap"},
                    rollback={},
                    paired=("host_mmu", "pkvm_pgd"),
                    locks=(),
                ),
            }
            class P:
                def do_op(self, phys, size):
                    ret = unmap_range(self.host_mmu, phys, size)
                    if ret:
                        return ret
                    return unmap_range(self.pkvm_pgd, phys, size)
            """,
        )
        assert findings == []

    def test_panic_paths_are_exempt(self, tmp_path):
        findings = self.check_src(
            tmp_path,
            [self.MANIFEST, """
            class P:
                def do_op(self, phys, size):
                    ret = check_page_state(self.host_mmu, phys, size, PageState.OWNED)
                    if ret:
                        return ret
                    ret = map_range(self.host_mmu, phys, size, phys,
                                    host_memory_attrs(True, PageState.SHARED_OWNED))
                    if ret:
                        rollback = unmap_range(self.host_mmu, phys, size)
                        raise HypervisorPanic("rollback")
                    return 0
            """],
        )
        assert findings == []

    def test_bug_flag_gates_resolve_against_assume_set(self, tmp_path):
        src = [self.MANIFEST, """
            class P:
                def do_op(self, phys, size):
                    if not self.bugs.synth_demo_skip:
                        ret = check_page_state(self.host_mmu, phys, size, PageState.OWNED)
                        if ret:
                            return ret
                    return map_range(self.host_mmu, phys, size, phys,
                                     host_memory_attrs(True, PageState.SHARED_OWNED))
        """]
        assert self.check_src(tmp_path, src) == []
        flagged = self.check_src(tmp_path, src, assume={"synth_demo_skip"})
        assert rules_of(flagged) == {"unchecked-transition"}


class TestResolveCondition:
    def parse(self, expr):
        import ast

        return ast.parse(expr, mode="eval").body

    def test_flag_truth_tracks_assume_set(self):
        test = self.parse("self.bugs.synth_x")
        assert resolve_condition(test, frozenset()) is False
        assert resolve_condition(test, frozenset({"synth_x"})) is True

    def test_not_and_or_short_circuit(self):
        assume = frozenset({"synth_x"})
        assert resolve_condition(self.parse("not self.bugs.synth_x"), assume) is False
        assert (
            resolve_condition(self.parse("self.bugs.synth_x and other"), frozenset())
            is False
        )
        assert (
            resolve_condition(self.parse("self.bugs.synth_x and other"), assume)
            is None
        )
        assert (
            resolve_condition(self.parse("self.bugs.synth_x or other"), assume)
            is True
        )

    def test_unrelated_conditions_stay_unknown(self):
        assert resolve_condition(self.parse("x < 1"), frozenset()) is None


class TestManifestParsing:
    """The literal grammar of ``OWNERSHIP_EDGES`` is tested once for all
    manifests, in test_analysis_manifests.py; this is what the ownership
    pass adds on top."""

    def test_real_manifest_parses_clean(self):
        for path in spec_module_paths():
            rules, _lines, findings = read_manifest(
                load_module_ast(path), "OWNERSHIP_EDGES", "ownership", OwnershipRule
            )
            assert findings == [] and rules
            # every declared lock is one the lock model knows about
            for rule in rules.values():
                assert set(rule.locks) <= set(LOCK_ORDER)
