"""The ghost-frame pass: interprocedural footprints, manifests, and the
dynamic cross-validation hook."""

import ast
from pathlib import Path

from repro.analysis.frame import (
    FootprintEngine,
    check_cache_equivalence,
    check_frames,
    cross_validate_frames,
    pretty_path,
    run_frame_pass,
)
from repro.analysis.astutil import spec_module_path
from repro.arch.memory import PhysicalMemory
from repro.ghost.spec import FRAME_MANIFESTS, HYPERCALL_SPECS
from repro.machine import Machine
from repro.testing.proxy import HypProxy

FIXTURE = (
    Path(__file__).parent.parent / "fixtures" / "analysis" / "bad_frames_spec.py"
)


class TestRealSpec:
    def test_the_real_spec_is_frame_clean(self):
        assert check_frames() == []

    def test_every_spec_has_a_manifest(self):
        specs = {fn.__name__ for fn in HYPERCALL_SPECS.values()}
        specs.add("compute_post__host_mem_abort")
        assert specs <= set(FRAME_MANIFESTS)

    def test_footprints_are_not_vacuous(self):
        tree = ast.parse(spec_module_path().read_text())
        engine = FootprintEngine(tree)
        reads, writes = engine.footprint("compute_post__pkvm_host_share_hyp")
        read_paths = {pretty_path(p) for (r, p) in reads if r == "g_pre"}
        write_paths = {pretty_path(p) for (r, p) in writes if r == "g_post"}
        assert "host.shared" in read_paths
        assert "host.shared" in write_paths
        # The epilogue's register write is attributed interprocedurally.
        assert any(p.startswith("local") for p in write_paths)


class TestSeededFixture:
    def setup_method(self):
        self.findings = check_frames(FIXTURE)
        self.by_rule = {}
        for f in self.findings:
            self.by_rule.setdefault(f.rule, []).append(f)

    def test_every_seeded_rule_fires(self):
        assert set(self.by_rule) == {
            "undeclared-write",
            "undeclared-read",
            "missing-manifest",
            "stale-manifest",
            "unused-declaration",
        }

    def test_extra_write_is_reported_with_its_path(self):
        messages = [f.message for f in self.by_rule["undeclared-write"]]
        assert any("host.annot" in m for m in messages)

    def test_helper_smuggled_write_is_charged_to_the_caller(self):
        smuggled = [
            f
            for f in self.by_rule["undeclared-write"]
            if f.function == "compute_post__helper_smuggle"
        ]
        assert len(smuggled) == 1
        assert "vms.vms" in smuggled[0].message
        # Anchored at the call site inside the spec, not inside the helper.
        source_line = FIXTURE.read_text().splitlines()[smuggled[0].line - 1]
        assert "_leak_into_vms" in source_line

    def test_undeclared_read_names_the_pre_state_path(self):
        (finding,) = self.by_rule["undeclared-read"]
        assert "pkvm.pgt.mapping" in finding.message

    def test_pragma_suppresses_a_frame_finding(self, tmp_path):
        patched = FIXTURE.read_text().replace(
            "g_post.host.annot[call.phys] = 1",
            "g_post.host.annot[call.phys] = 1  "
            "# analysis: allow[undeclared-write] exercising the pragma",
        )
        target = tmp_path / "spec.py"
        target.write_text(patched)
        rules = {f.rule for f in check_frames(target)}
        findings = [
            f
            for f in check_frames(target)
            if f.rule == "undeclared-write"
            and f.function == "compute_post__extra_write"
        ]
        assert findings == []
        assert "missing-manifest" in rules  # the rest still fire


class TestDynamicCrossValidation:
    def test_frame_hook_reports_the_dispatched_spec(self):
        machine = Machine()
        observations = []
        machine.checker.frame_hook = observations.append
        proxy = HypProxy(machine)
        proxy.share_page(proxy.alloc_page())
        names = {obs.spec_name for obs in observations}
        assert "compute_post__pkvm_host_share_hyp" in names
        for obs in observations:
            assert obs.changed <= obs.touched | obs.multiphase

    def test_random_campaign_stays_inside_declared_frames(self):
        findings = cross_validate_frames(suite=False, random_steps=60, seed=7)
        assert findings == []

    def test_a_narrowed_manifest_is_caught_dynamically(self, monkeypatch):
        import repro.ghost.spec as spec
        import repro.testing.handwritten as handwritten
        from repro.testing.harness import TestCase

        def body(proxy):
            proxy.share_page(proxy.alloc_page())

        monkeypatch.setattr(
            handwritten,
            "ALL_TESTS",
            [TestCase(name="share-one-page", body=body)],
        )
        narrowed = dict(spec.FRAME_MANIFESTS)
        narrowed["compute_post__pkvm_host_share_hyp"] = spec.Frame(
            reads=frozenset({"local"}), writes=frozenset({"local"})
        )
        monkeypatch.setattr(spec, "FRAME_MANIFESTS", narrowed)
        findings = cross_validate_frames(suite=True, random_steps=0)
        rules = {f.rule for f in findings}
        assert "dynamic-frame-escape" in rules
        assert any(
            "compute_post__pkvm_host_share_hyp" in f.message for f in findings
        )

    def test_a_cache_blind_to_writes_is_caught(self, monkeypatch):
        # A write journal that reports nothing leaves the oracle cache
        # serving stale abstractions, which the uncached replay exposes.
        assert check_cache_equivalence(suite=False, random_steps=60) == []
        monkeypatch.setattr(
            PhysicalMemory, "writes_since", lambda self, since: frozenset()
        )
        findings = check_cache_equivalence(suite=False, random_steps=60)
        assert findings
        assert {f.rule for f in findings} == {"cache-divergent-observation"}

    def test_the_full_pass_replays_the_cached_stream_once(self, monkeypatch):
        """Both dynamic rules read one cache-on replay: two replays per
        pass, the cache-on one and the cache-off reference."""
        import repro.analysis.frame as frame
        import repro.testing.handwritten as handwritten

        monkeypatch.setattr(handwritten, "ALL_TESTS", handwritten.ALL_TESTS[:2])
        collect = frame._collect_observations
        caches = []

        def counting(**kwargs):
            caches.append(kwargs.get("oracle_cache", True))
            return collect(**kwargs)

        monkeypatch.setattr(frame, "_collect_observations", counting)
        assert run_frame_pass(random_steps=20) == []
        assert caches == [True, False]

    def test_the_full_pass_reports_what_the_separate_checks_report(
        self, monkeypatch
    ):
        """Sharing the cache-on replay changes no finding: a narrowed
        manifest is caught the same way by the full pass and by the two
        checks run on their own."""
        import repro.ghost.spec as spec
        import repro.testing.handwritten as handwritten
        from repro.testing.harness import TestCase

        def body(proxy):
            proxy.share_page(proxy.alloc_page())

        monkeypatch.setattr(
            handwritten, "ALL_TESTS", [TestCase(name="share-one-page", body=body)]
        )
        narrowed = dict(spec.FRAME_MANIFESTS)
        narrowed["compute_post__pkvm_host_share_hyp"] = spec.Frame(
            reads=frozenset({"local"}), writes=frozenset({"local"})
        )
        monkeypatch.setattr(spec, "FRAME_MANIFESTS", narrowed)
        dynamic = [
            f for f in run_frame_pass(random_steps=10) if f.file == "<dynamic>"
        ]
        separate = cross_validate_frames(random_steps=10)
        separate += check_cache_equivalence(random_steps=10)
        assert dynamic
        assert dynamic == separate

    def test_spec_module_target_skips_the_dynamic_half(self):
        findings = run_frame_pass(FIXTURE, dynamic=True, random_steps=10)
        assert all(f.file != "<dynamic>" for f in findings)
