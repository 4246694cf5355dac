"""End-to-end tests for ``python -m repro.analysis``."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent.parent / "fixtures" / "analysis"


class TestCleanRepo:
    def test_static_passes_exit_zero_on_the_repo(self, capsys):
        assert main(["purity", "lockorder"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_lockset_default_scenario_exits_zero(self, capsys):
        assert main(["lockset", "--max-schedules", "8"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_frame_and_bitfields_exit_zero_on_the_repo(self, capsys):
        # Full dynamic cross-validation: the handwritten suite plus a
        # short random campaign must stay inside the declared frames.
        assert main(["frame", "bitfields", "--frame-random-steps", "60"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_ownership_pass_exits_zero_on_the_repo(self, capsys):
        assert main(["ownership"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_text_output_ends_with_the_timing_line(self, capsys):
        assert main(["purity", "ownership"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1].startswith("repro.analysis timing: purity ")
        assert "ownership" in out[-1]
        assert "ast-cache:" in out[-1] and "parses" in out[-1]

    def test_shared_cache_saves_reparses_across_passes(self, capsys):
        """purity, frame, and ownership all read spec.py; lockorder and
        ownership both read the pkvm modules — the second readers must
        be cache hits."""
        from repro.analysis.astutil import clear_ast_cache

        clear_ast_cache()
        assert (
            main(["purity", "lockorder", "ownership", "--frame-dynamic", "off"])
            == 0
        )
        out = capsys.readouterr().out
        hits = int(out.rsplit("ast-cache:", 1)[1].split("parses,")[1].split()[0])
        assert hits >= 3


class TestSeededViolations:
    def test_bad_spec_fixture_fails_the_build(self, capsys):
        rc = main(["purity", "--spec-module", str(FIXTURES / "bad_spec.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[spec-purity/forbidden-import]" in out

    def test_bad_locking_fixture_fails_the_build(self, capsys):
        rc = main(
            ["lockorder", "--pkvm-root", str(FIXTURES / "bad_locking.py")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "[lock-discipline/early-return-holding]" in out

    def test_racy_scenario_fails_the_build(self, capsys):
        rc = main(
            [
                "lockset",
                "--lockset-scenario",
                "unlocked-init-read",
                "--max-schedules",
                "4",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "empty-lockset" in out and "pgt:hyp_s1" in out

    def test_bad_frames_fixture_fails_the_build(self, capsys):
        rc = main(
            ["frame", "--spec-module", str(FIXTURES / "bad_frames_spec.py")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "[frame/undeclared-write]" in out
        assert "[frame/missing-manifest]" in out

    def test_bad_pte_fixture_fails_the_build(self, capsys):
        rc = main(
            ["bitfields", "--pte-module", str(FIXTURES / "bad_pte.py")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "[bitfields/field-overlap]" in out
        assert "[bitfields/roundtrip-mismatch]" in out

    def test_recursive_locking_fixture_fails_the_build(self, capsys):
        rc = main(
            [
                "lockorder",
                "--pkvm-root",
                str(FIXTURES / "bad_locking_recursive.py"),
            ]
        )
        assert rc == 1
        assert "[lock-discipline/double-acquire]" in capsys.readouterr().out

    def test_bad_ownership_fixture_fails_the_build(self, capsys):
        rc = main(
            ["ownership", "--pkvm-root", str(FIXTURES / "bad_ownership.py")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "[ownership/unchecked-transition]" in out
        assert "[ownership/unlocked-transition]" in out
        assert "[ownership/missing-ret-write]" in out

    def test_bad_nondet_spec_fixture_fails_the_build(self, capsys):
        rc = main(
            ["purity", "--spec-module", str(FIXTURES / "bad_nondet_spec.py")]
        )
        assert rc == 1
        assert "[spec-purity/nondet-call]" in capsys.readouterr().out


class TestJsonReport:
    def test_json_is_machine_readable_and_counts_by_pass(self, capsys):
        rc = main(
            [
                "purity",
                "lockorder",
                "--json",
                "--spec-module",
                str(FIXTURES / "bad_spec.py"),
                "--pkvm-root",
                str(FIXTURES / "bad_locking.py"),
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == ["purity", "lockorder"]
        assert payload["counts"]["spec-purity"] >= 8
        assert payload["counts"]["lock-discipline"] == 6
        assert payload["total"] == len(payload["findings"])
        sample = payload["findings"][0]
        assert {"analysis", "rule", "message", "file", "line"} <= set(sample)

    def test_unknown_pass_is_a_usage_error(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["flowcheck"])
        assert exc.value.code == 2


class TestSarifOutput:
    def test_sarif_log_carries_rule_ids_and_locations(self, tmp_path, capsys):
        out = tmp_path / "analysis.sarif"
        rc = main(
            [
                "frame",
                "bitfields",
                "--spec-module",
                str(FIXTURES / "bad_frames_spec.py"),
                "--pte-module",
                str(FIXTURES / "bad_pte.py"),
                "--sarif",
                str(out),
            ]
        )
        assert rc == 1
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "frame/undeclared-write" in rule_ids
        assert "bitfields/field-overlap" in rule_ids
        located = [r for r in run["results"] if "locations" in r]
        assert located
        uri = located[0]["locations"][0]["physicalLocation"][
            "artifactLocation"
        ]["uri"]
        assert "\\" not in uri and uri.endswith(".py")

    def test_sarif_written_even_when_clean(self, tmp_path, capsys):
        out = tmp_path / "clean.sarif"
        rc = main(["purity", "--sarif", str(out)])
        assert rc == 0
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"] == []

    def test_sarif_matches_the_2_1_0_schema_shape(self, tmp_path, capsys):
        """The structural subset GitHub code scanning ingests: pinned
        $schema/version, named driver with rules, and results whose
        regions use 1-based startLine/startColumn."""
        out = tmp_path / "own.sarif"
        rc = main(
            [
                "ownership",
                "--pkvm-root",
                str(FIXTURES / "bad_ownership.py"),
                "--sarif",
                str(out),
            ]
        )
        assert rc == 1
        log = json.loads(out.read_text())
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.analysis"
        assert {r["id"] for r in driver["rules"]} >= {
            "ownership/unchecked-transition",
            "ownership/wrong-transition",
            "ownership/missing-paired-effect",
        }
        assert run["results"]
        for result in run["results"]:
            assert result["ruleId"].count("/") == 1
            assert result["message"]["text"]
            for loc in result.get("locations", []):
                phys = loc["physicalLocation"]
                assert phys["artifactLocation"]["uri"]
                region = phys.get("region")
                if region is not None:
                    assert region["startLine"] >= 1
                    if "startColumn" in region:
                        assert region["startColumn"] >= 1

    def test_sarif_dedupes_identical_results(self, tmp_path, capsys):
        out = tmp_path / "own.sarif"
        main(
            [
                "ownership",
                "--pkvm-root",
                str(FIXTURES / "bad_ownership.py"),
                "--sarif",
                str(out),
            ]
        )
        results = json.loads(out.read_text())["runs"][0]["results"]
        keys = [
            (
                r["ruleId"],
                r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
                if "locations" in r
                else "",
                r["message"]["text"],
            )
            for r in results
        ]
        assert len(keys) == len(set(keys))


class TestOwnershipDifferential:
    def test_static_only_differential_is_green(self, capsys):
        rc = main(["--differential", "--differential-static-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "<clean>" in out
        assert "synth_missing_ret_write" in out
        assert "differential: ok" in out

    def test_static_only_flag_needs_differential(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["purity", "--differential-static-only"])
        assert exc.value.code == 2
        assert "need --differential" in capsys.readouterr().err

    def test_corpus_flag_needs_differential(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        with pytest.raises(SystemExit) as exc:
            main(["purity", "--refinement-corpus", str(corpus)])
        assert exc.value.code == 2
        assert "need --differential" in capsys.readouterr().err
        assert not corpus.exists()


class TestRefinementPass:
    def test_refinement_pass_exits_zero_on_the_repo(self, capsys):
        assert main(["refinement"]) == 0
        assert "refinement: clean" in capsys.readouterr().out

    def test_bad_refinement_fixture_fails_the_build(self, capsys):
        rc = main(
            ["refinement", "--pkvm-root", str(FIXTURES / "bad_refinement.py")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "[refinement/post-mismatch]" in out
        assert "[refinement/spec-path-unreachable]" in out
        assert "[refinement/handler-path-unspecified]" in out
        assert "[refinement/symbolic-timeout]" in out
        assert "[suppression/bad-pragma]" in out

    def test_static_only_refinement_differential_is_green(self, capsys):
        rc = main(["--differential", "--differential-static-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spec-path-unreachable" in out and "skipped" in out
        assert "differential: ok" in out

    def test_refinement_corpus_export_flag(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        rc = main(
            [
                "--differential",
                "--differential-static-only",
                "--refinement-corpus",
                str(corpus),
            ]
        )
        assert rc == 0
        assert list(corpus.glob("*.trace"))


class TestCrashedPass:
    BAD = ["purity", "--spec-module", "/nonexistent/spec_module.py"]

    def test_a_crashed_pass_exits_two_with_traceback(self, capsys):
        rc = main(self.BAD)
        assert rc == 2
        captured = capsys.readouterr()
        assert "1 pass(es) CRASHED" in captured.out
        assert "pass purity crashed" in captured.err
        assert "Traceback" in captured.err

    def test_json_payload_carries_the_error(self, capsys):
        rc = main(self.BAD + ["--json"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert "purity" in payload["errors"]
        assert "Traceback" in payload["errors"]["purity"]
        assert payload["findings"] == []

    def test_findings_from_healthy_passes_still_reported(self, capsys):
        rc = main(
            [
                "purity",
                "lockorder",
                "--json",
                "--spec-module",
                "/nonexistent/spec_module.py",
                "--pkvm-root",
                str(FIXTURES / "bad_locking.py"),
            ]
        )
        assert rc == 2  # a crash outranks findings
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["lock-discipline"] >= 1
        assert set(payload["errors"]) == {"purity"}
