"""Tests for the differential matrix (repro.analysis.differential): the
static passes vs. the dynamic oracle, one row per registry bug and
check. The whole matrix, oracle replays included, runs once per test
run (the ``matrix_rows`` fixture) for these tests and E8/E9's."""

from dataclasses import fields

import pytest

from repro.analysis import differential
from repro.analysis.differential import (
    CLEAN,
    FIXED,
    IOMMU_BUG,
    MATRIX,
    POST_MISMATCH,
    Row,
    differential_ok,
    format_matrix,
    iommu_differential_ok,
    plan,
    refinement_differential_ok,
    run_differential,
    run_iommu_differential,
    run_refinement_differential,
)
from repro.pkvm.bugs import Bugs

PATH_SHAPED = [bug for bug, entry in MATRIX.items() if not entry.dynamic_only]


def row(**overrides):
    base = dict(
        bug="synth_unshare_leak",
        check="refinement",
        rules=("post-mismatch",),
        expected="post-mismatch",
        replays=((POST_MISMATCH, POST_MISMATCH),),
    )
    base.update(overrides)
    return Row(**base)


class TestWholeMatrix:
    """Every row, with the oracle replays: the contract CI gates on."""

    @pytest.fixture
    def rows(self, matrix_rows):
        return matrix_rows

    def test_every_row_agrees(self, rows):
        assert differential_ok(rows), format_matrix(rows)
        assert [(r.bug, r.check) for r in rows] == plan()

    def test_path_shaped_rows_confirm_as_post_mismatch(self, rows):
        replayed = [r for r in rows if r.bug in PATH_SHAPED and r.check != FIXED]
        assert len(replayed) == 12
        for r in replayed:
            assert [got for _want, got in r.replays] == [POST_MISMATCH], r

    def test_iommu_bug_confirms_under_the_oracle_and_bare(self, rows):
        (r,) = [r for r in rows if r.bug == IOMMU_BUG and r.check != FIXED]
        assert [got for _want, got in r.replays] == [POST_MISMATCH, "hyp-panic"]

    def test_formatter_prints_one_fixed_width_line_per_row(self, rows):
        lines = format_matrix(rows).splitlines()
        assert len(lines) == len(rows) + 1
        assert len({line.rindex(" ") for line in lines}) == 1


class TestStaticSide:
    def test_matrix_is_green(self):
        results = run_differential(dynamic=False)
        assert differential_ok(results), format_matrix(results)

    def test_clean_row_comes_first_and_is_clean(self):
        results = run_differential(dynamic=False)
        assert results[0].bug == CLEAN
        assert results[0].rules == ()
        assert results[0].agree

    def test_every_ownership_bug_is_statically_flagged(self):
        results = {r.bug: r for r in run_differential(dynamic=False)}
        assert set(results) == {CLEAN, *PATH_SHAPED}
        for bug in PATH_SHAPED:
            assert MATRIX[bug].ownership in results[bug].rules, bug

    def test_registry_coverage_is_complete(self):
        """The one table is total over the registry: every ``Bugs``
        field has exactly one entry (keyword arguments cannot list one
        twice) with a designed rule for some pass, or a written
        dynamic-only reason (never both) — a new flag must take a
        stance."""
        assert list(MATRIX) == [f.name for f in fields(Bugs)]
        for bug, entry in MATRIX.items():
            assert entry.checks, bug
            rules = entry.ownership or entry.refinement
            assert bool(rules) != bool(entry.dynamic_only.strip()), bug

    def test_a_flag_without_an_entry_fails(self, monkeypatch):
        monkeypatch.delitem(MATRIX, "synth_unshare_leak")
        with pytest.raises(KeyError, match="synth_unshare_leak"):
            plan()

    def test_iommu_bug_is_documented_dynamic_only(self):
        """The jetson-pkvm refcount/init-ordering bug is a missing data
        write, invisible to the transition-focused static passes — its
        stance must be an explicit dynamic-only entry with a rationale,
        confirmed by the real panic on a bare machine."""
        entry = MATRIX[IOMMU_BUG]
        assert "init" in entry.dynamic_only
        assert entry.bare == "hyp-panic"

    def test_formatting_marks_agreement(self):
        text = format_matrix(run_differential(dynamic=False))
        assert "<clean>" in text and "YES" in text
        assert "synth_share_skip_check" in text


class TestDisagreementDetection:
    def test_a_missed_bug_fails_the_matrix(self):
        missed = row(
            bug="synth_share_skip_check",
            check="ownership",
            rules=(),
            expected="unchecked-transition",
        )
        assert not missed.agree
        assert not differential_ok([missed])

    def test_a_polluted_clean_tree_fails_the_matrix(self):
        polluted = row(
            bug=CLEAN, rules=("wrong-transition",), expected=None, replays=()
        )
        assert not polluted.agree

    def test_a_flagged_dynamic_only_bug_fails_the_matrix(self):
        """A pass that starts seeing a dynamic-only bug makes its stance
        stale: the entry must then name the designed rule."""
        assert not row(check="dynamic-only", expected=None).agree

    def test_a_wrong_oracle_verdict_fails_the_matrix(self):
        assert not row(replays=((POST_MISMATCH, "host-crash"),)).agree


class TestVacuousConfirmation:
    def test_a_row_that_replays_nothing_fails(self):
        assert not row(replays=()).agree

    def test_empty_concretization_fails_the_refinement_rows(self, monkeypatch):
        """With no trace to replay, every flagged refinement row must
        fail: an empty replay set confirms nothing."""
        monkeypatch.setattr(
            differential, "concretize_findings", lambda *_a, **_k: []
        )
        results = run_refinement_differential(dynamic=True)
        assert not refinement_differential_ok(results)
        assert [r.bug for r in results if not r.agree] == PATH_SHAPED


class TestRefinementStaticSide:
    def test_matrix_is_green(self):
        results = run_refinement_differential(dynamic=False)
        assert refinement_differential_ok(results), format_matrix(results)

    def test_every_bug_is_flagged_with_its_designed_rule(self):
        results = {
            r.bug: r for r in run_refinement_differential(dynamic=False)
        }
        for bug in PATH_SHAPED:
            assert MATRIX[bug].refinement in results[bug].rules, bug

    def test_static_only_results_stay_plausible(self):
        """Without replays a row rests on its static side alone."""
        results = run_refinement_differential(dynamic=False)
        for result in results[1:]:
            assert result.replays is None and result.agree

    def test_corpus_export_writes_one_trace_per_handler(self, tmp_path):
        from repro.testing.trace import Trace

        run_refinement_differential(dynamic=False, corpus_dir=tmp_path)
        files = sorted(tmp_path.glob("*.trace"))
        assert len(files) == len(PATH_SHAPED)
        for path in files:
            bug, _, function = path.stem.partition("__")
            trace = Trace.loads(path.read_text())
            assert trace.bug_names == (bug,)
            assert trace.meta["refinement"]["function"] == function

    def test_formatting_carries_verdicts(self):
        text = format_matrix(run_refinement_differential(dynamic=False))
        assert "<clean>" in text and "skipped" in text
        assert "synth_share_skip_check" in text


class TestIommuStaticSide:
    """Static side of the IOMMU rows; the oracle replay and bare-machine
    panic run in TestWholeMatrix."""

    def test_matrix_is_green(self):
        results = run_iommu_differential(dynamic=False)
        assert iommu_differential_ok(results), format_matrix(results)

    def test_clean_row_is_spotless(self):
        results = run_iommu_differential(dynamic=False)
        assert [r.bug for r in results] == [CLEAN, IOMMU_BUG]
        assert results[0].rules == ()

    def test_refcount_bug_has_a_stance(self):
        results = {r.bug: r for r in run_iommu_differential(dynamic=False)}
        assert results[IOMMU_BUG].check == "dynamic-only"
        assert results[IOMMU_BUG].rules == ()

    def test_formatting_names_the_bug(self):
        text = format_matrix(run_iommu_differential(dynamic=False))
        assert IOMMU_BUG in text and "<clean>" in text

    def test_unconfirmed_replay_fails_the_matrix(self):
        unconfirmed = row(
            bug=IOMMU_BUG,
            check="dynamic-only",
            rules=(),
            expected=None,
            replays=((POST_MISMATCH, POST_MISMATCH), ("hyp-panic", "clean")),
        )
        assert not unconfirmed.agree
        assert not iommu_differential_ok([unconfirmed])


class TestRefinementDisagreement:
    def test_confirmed_row_agrees(self):
        assert row().agree

    def test_wrong_rule_fails_even_when_flagged(self):
        assert not row(rules=("symbolic-timeout",)).agree

    def test_refuted_replay_fails_the_matrix(self):
        refuted = row(replays=((POST_MISMATCH, "clean"),))
        assert not refinement_differential_ok([refuted])
