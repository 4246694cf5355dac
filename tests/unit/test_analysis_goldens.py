"""Static findings pinned to goldens, field for field.

The lock-discipline, ownership and refinement passes share one path
interpreter; these goldens pin what they report on the tree, on their
fixtures, and with each synthetic bug flag assumed, so a change to the
interpreter cannot shift a finding's rule, message, line or column
unnoticed. The static frame pass is pinned on the tree and its fixture,
so a change to how manifests are read cannot move a finding anchored at
a manifest key. Paths are stored relative to the checkout.

After an intended change, regenerate with
``PYTHONPATH=src python tests/unit/test_analysis_goldens.py``. A change
that only moves source lines still fails, but its message names each
moved row and gives that command.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.frame import check_frames
from repro.analysis.lockorder import check_lock_discipline
from repro.analysis.ownership import check_ownership
from repro.analysis.refinement import check_refinement
from repro.pkvm.bugs import Bugs

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = ROOT / "tests" / "fixtures" / "analysis"
GOLDENS = FIXTURES / "static_goldens.json"
REGENERATE = "PYTHONPATH=src python tests/unit/test_analysis_goldens.py"

LOCK_TARGETS = {
    "tree": None,
    "bad_locking.py": FIXTURES / "bad_locking.py",
    "bad_locking_recursive.py": FIXTURES / "bad_locking_recursive.py",
}

FRAME_TARGETS = {
    "tree": None,
    "bad_frames_spec.py": FIXTURES / "bad_frames_spec.py",
}

#: Single-file fixtures that carry their own manifest.
PASS_FIXTURES = {
    "ownership:bad_ownership.py": (check_ownership, FIXTURES / "bad_ownership.py"),
    "refinement:bad_refinement.py": (
        check_refinement,
        FIXTURES / "bad_refinement.py",
    ),
}


def _relative(row: dict) -> dict:
    if row["file"].startswith("/"):
        row = row | {"file": Path(row["file"]).relative_to(ROOT).as_posix()}
    return row


def _rows(findings) -> list[dict]:
    return [_relative(finding.to_dict()) for finding in findings]


def _assumptions() -> dict[str, frozenset]:
    return {"<clean>": frozenset()} | {
        bug: frozenset({bug}) for bug in Bugs.synthetic_bug_names()
    }


def _cli_json_findings() -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--json", "--frame-dynamic", "off"])
    return [_relative(row) for row in json.loads(out.getvalue())["findings"]]


def capture() -> dict:
    return {
        "lock-discipline": {
            name: _rows(check_lock_discipline(target))
            for name, target in LOCK_TARGETS.items()
        },
        "ownership": {
            name: _rows(check_ownership(assume_bugs=assume))
            for name, assume in _assumptions().items()
        },
        "refinement": {
            name: _rows(check_refinement(assume_bugs=assume))
            for name, assume in _assumptions().items()
        },
        "frame": {
            name: _rows(check_frames(target))
            for name, target in FRAME_TARGETS.items()
        },
        "fixtures": {
            name: _rows(check(path))
            for name, (check, path) in PASS_FIXTURES.items()
        },
        "cli-json": _cli_json_findings(),
    }


def _without_lines(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "line"} for row in rows]


def assert_matches_golden(got: list[dict], golden: list[dict]) -> None:
    """``got`` equals ``golden`` row for row. When the rows differ only
    in ``line``, the failure lists each moved row and how to regenerate."""
    if got != golden and _without_lines(got) == _without_lines(golden):
        moved = "\n".join(
            f"  {new['file']} {new['function']}: line "
            f"{old['line']} -> {new['line']}"
            for old, new in zip(golden, got)
            if old["line"] != new["line"]
        )
        pytest.fail(
            "findings unchanged but their source lines moved; if the move "
            f"is intended, regenerate with `{REGENERATE}`:\n{moved}"
        )
    assert got == golden


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("target", sorted(LOCK_TARGETS))
def test_lock_discipline_matches_golden(goldens, target):
    got = _rows(check_lock_discipline(LOCK_TARGETS[target]))
    assert_matches_golden(got, goldens["lock-discipline"][target])
    assert all(row["column"] == 0 for row in got)


@pytest.mark.parametrize("assumed", sorted(_assumptions()))
def test_ownership_matches_golden(goldens, assumed):
    got = _rows(check_ownership(assume_bugs=_assumptions()[assumed]))
    assert_matches_golden(got, goldens["ownership"][assumed])


@pytest.mark.parametrize("assumed", sorted(_assumptions()))
def test_refinement_matches_golden(goldens, assumed):
    got = _rows(check_refinement(assume_bugs=_assumptions()[assumed]))
    assert_matches_golden(got, goldens["refinement"][assumed])


@pytest.mark.parametrize("target", sorted(FRAME_TARGETS))
def test_frame_matches_golden(goldens, target):
    got = _rows(check_frames(FRAME_TARGETS[target]))
    assert_matches_golden(got, goldens["frame"][target])


@pytest.mark.parametrize("fixture", sorted(PASS_FIXTURES))
def test_fixture_matches_golden(goldens, fixture):
    check, path = PASS_FIXTURES[fixture]
    assert_matches_golden(_rows(check(path)), goldens["fixtures"][fixture])


def test_cli_json_findings_match_golden(goldens):
    assert_matches_golden(_cli_json_findings(), goldens["cli-json"])


def test_moved_rows_fail_naming_each_move():
    golden = {"file": "src/m.py", "function": "f", "line": 314, "rule": "r"}
    with pytest.raises(pytest.fail.Exception) as moved:
        assert_matches_golden([golden | {"line": 311}], [golden])
    assert "src/m.py f: line 314 -> 311" in str(moved.value)
    assert REGENERATE in str(moved.value)
    with pytest.raises(AssertionError):
        assert_matches_golden([golden | {"line": 311, "rule": "s"}], [golden])


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(capture(), indent=1) + "\n")
