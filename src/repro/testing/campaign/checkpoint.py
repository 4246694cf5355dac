"""Campaign checkpointing: JSON state written after every merged batch.

The checkpoint *is* the campaign output file. While the campaign runs it
holds everything needed to resume without repeating work (config,
scheduler state, completed batches, merged coverage, deduplicated
findings); the final write marks it complete and adds the summary.
Writes are atomic (tmp + rename) so an interrupt never leaves a torn
file behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

VERSION = 3


def telemetry_path(checkpoint_path: str) -> Path:
    """Where the heartbeat ring dump lands: beside the checkpoint, named
    after it (``campaign.json`` -> ``campaign.telemetry.jsonl``), so
    campaigns sharing a directory keep their own.

    Kept out of the checkpoint itself — telemetry samples are wall-clock
    run artifacts, and the checkpoint must stay byte-comparable across
    equivalent runs.
    """
    return Path(checkpoint_path).with_suffix(".telemetry.jsonl")


def save_checkpoint(path: str, state: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(state, f, indent=1)
        f.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path: str) -> dict:
    with open(path) as f:
        state = json.load(f)
    version = state.get("version")
    if version != VERSION:
        raise ValueError(
            f"checkpoint {path} has version {version}, expected {VERSION}"
        )
    return state
