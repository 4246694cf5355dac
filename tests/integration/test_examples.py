"""The runnable examples that print a verdict summary, run end to end.

Each runs as its own process in an empty directory and must exit 0 with
an oracle line reporting every handler check passed and no violation,
or, for the bug hunt, a final line saying every bug was discriminated.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
ORACLE_LINE = re.compile(
    r"oracle: (\d+)/(\d+) (?:handler )?checks passed, (\d+) violations"
)


def run_example(name: str, cwd: Path) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["quickstart", "vm_lifecycle", "virtio_console"])
def test_example_runs_with_every_check_passing(name, tmp_path):
    stdout = run_example(name, tmp_path)
    line = ORACLE_LINE.search(stdout)
    assert line is not None, stdout[-500:]
    passed, run, violations = map(int, line.groups())
    assert passed == run > 0
    assert violations == 0


def test_bug_hunt_discriminates_every_bug(tmp_path):
    stdout = run_example("bug_hunt", tmp_path)
    assert stdout.splitlines()[-1] == "all bugs discriminated: True", stdout[-500:]
