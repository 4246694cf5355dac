"""Tests for the symbolic refinement pass (repro.analysis.refinement):
the tree, the synthetic bugs, the bad fixture, the manifest, the
concretized traces, the path budget, and the agreement of each paired
op's declared success effect with its spec."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.astutil import iter_functions, load_module_ast, read_manifest
from repro.analysis.refinement import (
    GHOST_OF,
    _spec_effects,
    check_refinement,
    concretize_findings,
)
from repro.analysis.symexec import MAX_STATES
from repro.ghost.registry import spec_module_paths
from repro.ghost.spec import OwnershipRule

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


class TestSuccessEffectsMatchTheirSpecs:
    """An op that ``REFINEMENT_SPECS`` pairs with a spec states its
    success effect twice: by hand in ``OWNERSHIP_EDGES``, for the
    ownership pass, and as the spec's ``g_post`` calls, which the
    refinement pass reads. The two must name the same ghost mutations."""

    @pytest.mark.parametrize("manifest", spec_module_paths(), ids=lambda p: p.stem)
    def test_declared_success_is_the_paired_specs_effect(self, manifest):
        module = load_module_ast(manifest)
        rules = read_manifest(module, "OWNERSHIP_EDGES", "ownership", OwnershipRule)[0]
        specs = read_manifest(module, "REFINEMENT_SPECS", "refinement", str)[0]
        spec_fns = {fn.name: fn for fn, _ in iter_functions(module.tree)}
        paired = sorted(set(rules) & set(specs))
        assert paired, f"{manifest.name} pairs no op with a spec"
        for op in paired:
            declared = {GHOST_OF.get(edge) for edge in rules[op].success.items()}
            assert declared == _spec_effects(spec_fns[specs[op]]), op


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
