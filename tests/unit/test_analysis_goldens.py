"""Static findings pinned to goldens, field for field.

The lock-discipline, ownership and refinement passes share one path
interpreter; these goldens pin what they report on the tree, on their
fixtures, and with each synthetic bug flag assumed, so a change to the
interpreter cannot shift a finding's rule, message, line or column
unnoticed. The static frame pass is pinned on the tree and its fixture,
so a change to how manifests are read cannot move a finding anchored at
a manifest key. Paths are stored relative to the checkout.

A row whose ``function`` names exactly one ``def`` in its file stores
its line counted from that ``def`` (``line_in_function``), so code
added or removed above the function moves no golden. The other rows (a
manifest key naming no function, a pragma outside any) keep the
absolute ``line``.

After an intended change, regenerate with
``PYTHONPATH=src python tests/unit/test_analysis_goldens.py``. A change
that only moves a finding within its function (or an absolute row)
still fails, but its message names each moved row and gives that
command.
"""

from __future__ import annotations

import ast
import contextlib
import functools
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


@functools.cache
def _defs(file: str) -> dict[str, list[int]]:
    """Function name -> the line of each ``def`` of that name in ``file``."""
    defs: dict[str, list[int]] = {}
    for node in ast.walk(ast.parse((ROOT / file).read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node.lineno)
    return defs


def _keyed(row: dict) -> dict:
    """``row`` as the goldens store it: keyed by its function when its
    ``function`` names exactly one ``def`` in its file."""
    starts = _defs(row["file"]).get(row["function"], [])
    if len(starts) != 1:
        return row
    keyed = {}
    for key, value in row.items():
        if key == "line":
            key, value = "line_in_function", value - starts[0]
        keyed[key] = value
    return keyed


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


LINE_KEYS = ("line", "line_in_function")


def _without_lines(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in row.items() if k not in LINE_KEYS} for row in rows]


def assert_matches_golden(got: list[dict], golden: list[dict]) -> None:
    """``got``, rows as :func:`capture` gives them, equals ``golden``,
    rows as stored, row for row. When the rows differ only in their
    line, the failure lists each moved row and how to regenerate."""
    got = [_keyed(row) for row in got]
    if got != golden and _without_lines(got) == _without_lines(golden):
        moved = "\n".join(
            f"  {new['file']} {new['function']}: {key} {old[key]} -> {new[key]}"
            for old, new in zip(golden, got)
            for key in LINE_KEYS
            if old.get(key) != new.get(key)
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


def test_moved_rows_fail_naming_each_move(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("X = 0\n")
    golden = {"file": str(source), "function": "f", "line": 314, "rule": "r"}
    with pytest.raises(pytest.fail.Exception) as moved:
        assert_matches_golden([golden | {"line": 311}], [golden])
    assert f"{source} f: line 314 -> 311" in str(moved.value)
    assert REGENERATE in str(moved.value)
    with pytest.raises(AssertionError):
        assert_matches_golden([golden | {"line": 311, "rule": "s"}], [golden])


def test_rows_count_their_line_from_their_def(tmp_path):
    """Lines added above a function move none of its rows; a finding
    that moves within its function still fails its golden."""
    before, after = tmp_path / "before.py", tmp_path / "after.py"
    before.write_text("def f():\n    return 1\n")
    after.write_text("X = 0\n\n\ndef f():\n    return 1\n")
    row = {"file": str(before), "function": "f", "line": 2, "rule": "r"}
    golden = _keyed(row)
    assert golden == {
        "file": str(before), "function": "f", "rule": "r", "line_in_function": 1
    }
    shifted = _keyed(row | {"file": str(after), "line": 5})
    assert shifted == golden | {"file": str(after)}
    with pytest.raises(pytest.fail.Exception) as moved:
        assert_matches_golden([row | {"line": 1}], [golden])
    assert f"{before} f: line_in_function 1 -> 0" in str(moved.value)


def _stored(captured):
    """``captured`` with every row keyed as the goldens store it."""
    if isinstance(captured, list):
        return [_keyed(row) for row in captured]
    return {key: _stored(value) for key, value in captured.items()}


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(_stored(capture()), indent=1) + "\n")
