"""The runnable examples that print an oracle summary, run end to end.

Each runs as its own process in an empty directory and must exit 0 with
an oracle line reporting every handler check passed and no violation.
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


@pytest.mark.parametrize("name", ["quickstart", "vm_lifecycle", "virtio_console"])
def test_example_runs_with_every_check_passing(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = ORACLE_LINE.search(proc.stdout)
    assert line is not None, proc.stdout[-500:]
    passed, run, violations = map(int, line.groups())
    assert passed == run > 0
    assert violations == 0
