"""Tests for the symbolic refinement pass (repro.analysis.refinement)
and the shared bitvector domain (repro.analysis.symexec)."""

import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.refinement import check_refinement, concretize_findings
from repro.analysis.symexec import MAX_STATES, BitVec, symbolic_decode
from repro.arch import pte
from repro.arch.defs import LEAF_LEVEL, U64_MASK, MemType, Perms, Stage

FIXTURES = Path(__file__).parent.parent / "fixtures" / "analysis"


def rules_of(findings):
    return {f.rule for f in findings}


class TestOnRealTree:
    def test_clean_tree_has_zero_findings_and_fills_stats(self):
        stats = {}
        assert check_refinement(stats=stats) == []
        # 4 mem_protect pairs + the 2 IOMMU map/unmap pairs from the registry.
        assert stats["functions"] == 6
        assert stats["paths_explored"] > 0
        assert stats["timeouts"] == 0

    @pytest.mark.parametrize(
        "bug, designed_rule",
        [
            ("synth_share_skip_check", "spec-path-unreachable"),
            ("synth_share_skip_hyp_map", "post-mismatch"),
            ("synth_share_wrong_state", "post-mismatch"),
            ("synth_unshare_leak", "post-mismatch"),
            ("synth_donate_wrong_owner", "post-mismatch"),
            ("synth_missing_ret_write", "post-mismatch"),
        ],
    )
    def test_each_synthetic_bug_trips_its_designed_rule(
        self, bug, designed_rule
    ):
        findings = check_refinement(assume_bugs={bug})
        assert findings, f"{bug} produced no findings"
        assert designed_rule in rules_of(findings)

    @pytest.mark.parametrize(
        "bug",
        [
            "synth_teardown_page_leak",
            "synth_fault_off_by_one",
            "synth_vttbr_not_restored",
        ],
    )
    def test_dynamic_only_bugs_stay_statically_clean(self, bug):
        assert check_refinement(assume_bugs={bug}) == []


class TestBugCoverageMatrix:
    def test_every_registry_bug_is_covered_or_documented(self):
        """Every synthetic bug is flagged by at least one static pass
        (ownership or refinement, flag assumed on) or has a written
        dynamic-only reason in the differential matrix — adding a
        synth_* flag forces a coverage stance."""
        from repro.analysis.differential import MATRIX
        from repro.analysis.ownership import check_ownership
        from repro.pkvm.bugs import Bugs

        for bug in Bugs.synthetic_bug_names():
            if MATRIX[bug].dynamic_only:
                assert MATRIX[bug].dynamic_only.strip(), f"{bug}: reasonless"
                continue
            flagged = check_ownership(
                assume_bugs={bug}
            ) or check_refinement(assume_bugs={bug})
            assert flagged, f"{bug} is neither flagged nor dynamic-only"


class TestOnBadFixture:
    @pytest.fixture(scope="class")
    def findings(self):
        return check_refinement(FIXTURES / "bad_refinement.py")

    def test_every_rule_fires(self, findings):
        assert rules_of(findings) >= {
            "post-mismatch",
            "spec-path-unreachable",
            "handler-path-unspecified",
            "symbolic-timeout",
        }

    def test_missing_and_extra_effects_both_fire(self, findings):
        msgs = [f.message for f in findings if f.rule == "post-mismatch"]
        assert any("never applies" in m for m in msgs)
        assert any("does not declare" in m for m in msgs)

    def test_labels_name_the_return_codes(self, findings):
        msgs = {f.rule: f.message for f in findings}
        assert "-EPERM" in msgs["spec-path-unreachable"]
        assert "-EBUSY" in msgs["handler-path-unspecified"]

    def test_reasonless_pragma_is_rejected_not_honoured(self, findings):
        bad = [f for f in findings if f.rule == "bad-pragma"]
        assert len(bad) == 1
        # ... and the finding it tried to cover is still reported.
        assert "symbolic-timeout" in rules_of(findings)

    def test_timeout_suppresses_post_checks_for_that_handler(self, findings):
        maze = [f for f in findings if f.function == "maze"]
        assert [f.rule for f in maze] == ["symbolic-timeout"]


class TestManifestParsing:
    """The literal grammar of ``REFINEMENT_SPECS`` and ``OOM_PERMITTED``
    is tested once for all manifests, in test_analysis_manifests.py;
    this is what the refinement pass adds on top."""

    def test_unknown_spec_fn_and_handler_are_flagged(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            textwrap.dedent(
                """
                REFINEMENT_SPECS = {
                    "present": "no_such_spec",
                    "absent_handler": "spec_ok",
                }
                def spec_ok(g_pre, g_post, call):
                    return 0
                class P:
                    def present(self, phys):
                        return 0
                """
            )
        )
        findings = check_refinement(target)
        assert rules_of(findings) == {"manifest-parse"}
        msgs = " ".join(f.message for f in findings)
        assert "no_such_spec" in msgs and "absent_handler" in msgs

    def test_a_malformed_oom_permitted_is_reported(self, tmp_path):
        """An unreadable exemption set is the manifest's fault, not an
        unspecified -ENOMEM path in the handler."""
        target = tmp_path / "mod.py"
        target.write_text(
            "OOM_PERMITTED = frozenset({HypercallId.HOST_SHARE_HYP})\n"
        )
        findings = check_refinement(target)
        assert [(f.rule, f.line, f.column) for f in findings] == [
            ("manifest-parse", 1, 17)
        ]
        assert findings[0].message.startswith("OOM_PERMITTED: ")


class TestConcretization:
    def test_each_flagged_handler_yields_one_replayable_trace(self):
        from repro.ghost.checker import SpecViolation

        findings = check_refinement(assume_bugs={"synth_unshare_leak"})
        traces = concretize_findings(
            findings, assume_bugs={"synth_unshare_leak"}
        )
        assert len(traces) == 1
        (trace,) = traces
        assert trace.bug_names == ("synth_unshare_leak",)
        meta = trace.meta["refinement"]
        assert meta["function"] == "do_unshare_hyp"
        assert "post-mismatch" in meta["rules"]
        with pytest.raises(SpecViolation):
            trace.replay(ghost=True)

    def test_trace_round_trips_through_serialization(self):
        from repro.testing.trace import Trace

        findings = check_refinement(assume_bugs={"synth_share_wrong_state"})
        (trace,) = concretize_findings(
            findings, assume_bugs={"synth_share_wrong_state"}
        )
        clone = Trace.loads(trace.dumps())
        assert clone.meta == trace.meta
        assert clone.bug_names == trace.bug_names

    def test_unattributable_findings_concretize_to_nothing(self):
        from repro.analysis.report import Finding

        orphan = Finding(
            analysis="refinement",
            rule="post-mismatch",
            message="x",
            function="not_a_handler",
        )
        assert concretize_findings([orphan]) == []


class TestBitVec:
    def test_const_and_top_knownness(self):
        assert BitVec.const(0xFF).is_const
        assert BitVec.top().known == 0
        assert BitVec.const(0xFF).extract(0xF0, 4) == 0xF

    def test_and_with_known_zero_is_known(self):
        x = BitVec.top()
        anded = x & BitVec.const(0)
        assert anded.is_const and anded.value == 0

    def test_or_with_known_one_is_known(self):
        x = BitVec.top()
        ored = x | BitVec.const(0b101)
        assert ored.test(0b101) is True
        assert ored.test(0b010) is None

    def test_invert_preserves_knownness(self):
        x = BitVec(value=0b1, known=0b11)
        inv = ~x
        assert inv.extract(0b11) == 0b10
        assert (~BitVec.top()).known == 0

    def test_shifts_make_vacated_bits_known_zero(self):
        x = BitVec.top()
        assert x.shl(4).test(0xF) is False
        assert x.shr(60).extract(U64_MASK & ~0xF) == 0

    def test_eq_is_three_valued(self):
        assert BitVec.const(5).eq(5) is True
        assert BitVec.const(5).eq(6) is False
        assert BitVec(value=0b1, known=0b1).eq(0b11) is None
        assert BitVec(value=0b0, known=0b10).eq(0b11) is False


class TestSymbolicDecodeAgreement:
    """The refinement pass's soundness anchor: on a fully-known word the
    symbolic decode equals the concrete codec, field for field."""

    @settings(max_examples=300, deadline=None)
    @given(
        word=st.integers(min_value=0, max_value=U64_MASK),
        level=st.integers(min_value=0, max_value=LEAF_LEVEL),
        stage=st.sampled_from([Stage.STAGE1, Stage.STAGE2]),
    )
    def test_fully_known_words_agree_with_the_concrete_codec(
        self, word, level, stage
    ):
        sym = symbolic_decode(BitVec.const(word), level, stage)
        try:
            concrete = pte.decode_descriptor(word, level, stage)
        except ValueError:
            # Raw page-state 3: the concrete decode is undefined there,
            # so the symbolic field must be unknown, never a wrong value.
            assert sym.page_state is None
            return
        assert sym.kind == concrete.kind
        assert sym.level == concrete.level
        assert sym.oa == concrete.oa
        assert sym.perms == concrete.perms
        assert sym.memtype == concrete.memtype
        assert sym.page_state == concrete.page_state
        assert sym.af == concrete.af
        assert sym.owner_id == concrete.owner_id

    @pytest.mark.parametrize("state", list(pte.PageState))
    @pytest.mark.parametrize("stage", [Stage.STAGE1, Stage.STAGE2])
    def test_every_page_state_round_trips(self, state, stage):
        word = pte.make_page_descriptor(
            0, stage, Perms.rw(), MemType.NORMAL, state
        )
        sym = symbolic_decode(BitVec.const(word), LEAF_LEVEL, stage)
        assert sym.page_state is state

    def test_partially_known_word_decays_to_unknown_not_wrong(self):
        # Valid bit unknown: nothing about the entry can be classified.
        sym = symbolic_decode(BitVec.top(), LEAF_LEVEL, Stage.STAGE2)
        assert sym.kind is None and sym.page_state is None

    def test_known_invalid_word_pins_every_field(self):
        sym = symbolic_decode(BitVec.const(0), LEAF_LEVEL, Stage.STAGE2)
        concrete = pte.decode_descriptor(0, LEAF_LEVEL, Stage.STAGE2)
        assert sym.kind == concrete.kind == pte.EntryKind.INVALID
        assert sym.page_state == concrete.page_state
        assert sym.owner_id == concrete.owner_id


class TestPathBudget:
    def test_max_states_is_the_documented_budget(self):
        assert MAX_STATES == 256

    def test_timeout_fires_past_the_budget(self, tmp_path):
        branches = "\n".join(
            f"        if phys & {1 << i}:\n            phys += {1 << i}"
            for i in range(9)
        )
        target = tmp_path / "mod.py"
        target.write_text(
            textwrap.dedent(
                """
                REFINEMENT_SPECS = {"wide": "spec_wide"}
                def spec_wide(g_pre, g_post, call):
                    return 0
                class P:
                    def wide(self, phys):
                """
            )
            + branches
            + "\n        return 0\n"
        )
        findings = check_refinement(target)
        assert rules_of(findings) == {"symbolic-timeout"}
