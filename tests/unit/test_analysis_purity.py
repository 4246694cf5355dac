"""Tests for the spec-purity linter (repro.analysis.purity)."""

from pathlib import Path

import pytest

from repro.analysis.astutil import spec_module_path
from repro.analysis.purity import check_spec_purity

FIXTURES = Path(__file__).parent.parent / "fixtures" / "analysis"


class TestOnRealSpec:
    def test_shipped_spec_is_clean(self):
        """The linter's reason to exist: the repo's spec obeys Fig. 5."""
        assert check_spec_purity() == []

    def test_default_target_is_the_ghost_spec(self):
        assert spec_module_path().name == "spec.py"


class TestOnBadFixture:
    @pytest.fixture(scope="class")
    def findings(self):
        return check_spec_purity(FIXTURES / "bad_spec.py")

    def rules(self, findings):
        return {f.rule for f in findings}

    def test_every_rule_fires(self, findings):
        assert self.rules(findings) == {
            "forbidden-import",
            "io-import",
            "io-call",
            "local-import",
            "spec-signature",
            "pre-state-mutation",
            "pre-state-rebind",
            "mutating-call",
        }

    def test_forbidden_import_names_the_module(self, findings):
        msgs = [f.message for f in findings if f.rule == "forbidden-import"]
        assert any("repro.pkvm.hyp" in m for m in msgs)
        assert any("VmTable" in m for m in msgs)

    def test_allowlisted_constants_not_flagged(self, findings):
        msgs = " ".join(f.message for f in findings)
        # MAX_VMS is allowlisted and EPERM comes from defs: neither is
        # flagged as an offending import (MAX_VMS may appear in the echoed
        # allowlist, so match the "import of" phrasing).
        assert "import of 'MAX_VMS'" not in msgs
        assert "'EPERM'" not in msgs

    def test_fresh_values_from_constructors_not_tainted(self, findings):
        """``fresh = list(g.host.owned); fresh.append(1)`` is pure — the
        same shape the real spec uses in its epilogue."""
        append_hits = [f for f in findings if ".append()" in f.message]
        assert append_hits == []

    def test_findings_carry_locations(self, findings):
        for f in findings:
            assert f.file.endswith("bad_spec.py")
            assert f.line > 0
            assert f.analysis == "spec-purity"

    def test_mutation_inside_function_attributed_to_it(self, findings):
        muts = [f for f in findings if f.rule == "pre-state-mutation"]
        assert muts and all(
            f.function == "compute_post__share_hyp" for f in muts
        )


class TestObsForbidden:
    """Observability must never leak into the pure spec (PR 5)."""

    @pytest.fixture(scope="class")
    def findings(self):
        return check_spec_purity(FIXTURES / "bad_obs_spec.py")

    def test_every_obs_import_is_flagged(self, findings):
        msgs = [f.message for f in findings if f.rule == "forbidden-import"]
        assert len(msgs) == 3
        assert any("repro.obs'" in m for m in msgs)
        assert any("repro.obs.metrics" in m for m in msgs)
        assert any("repro.obs.trace" in m for m in msgs)

    def test_flagged_as_forbidden_not_io(self, findings):
        """repro.obs is an implementation concern, not merely impure —
        the rule is forbidden-import so the message names the boundary."""
        obs_findings = [f for f in findings if "repro.obs" in f.message]
        assert obs_findings
        assert all(f.rule == "forbidden-import" for f in obs_findings)


class TestNondeterminismBan:
    """The spec must be a function of the pre-state: wall clocks,
    entropy, and identity-based keys are all rejected (PR 6), mirroring
    the repro.obs ban."""

    @pytest.fixture(scope="class")
    def findings(self):
        return check_spec_purity(FIXTURES / "bad_nondet_spec.py")

    def test_time_and_random_imports_flagged(self, findings):
        msgs = [f.message for f in findings if f.rule == "io-import"]
        assert any("'time'" in m for m in msgs)
        assert any("'random'" in m for m in msgs)
        assert any("'os'" in m for m in msgs)  # from os import urandom

    def test_clock_and_entropy_calls_flagged(self, findings):
        msgs = [f.message for f in findings if f.rule == "io-call"]
        assert any("time.time()" in m for m in msgs)
        assert any("random.random()" in m for m in msgs)

    def test_identity_keys_get_their_own_rule(self, findings):
        nondet = [f for f in findings if f.rule == "nondet-call"]
        assert len(nondet) == 2
        assert {m.split("(")[0].split()[-1] for m in
                (f.message for f in nondet)} == {"id", "hash"}

    def test_nondet_findings_attribute_function_context(self, findings):
        nondet = [f for f in findings if f.rule == "nondet-call"]
        assert all(f.line > 0 for f in nondet)

    def test_real_spec_has_no_nondeterminism(self):
        assert [
            f for f in check_spec_purity() if f.rule == "nondet-call"
        ] == []
