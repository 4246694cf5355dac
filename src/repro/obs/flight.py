"""Flight recorder: a bounded ring of recent events, dumped on failure.

When the oracle flags a mismatch ten hours into a random campaign, the
exception message shows the *final* disagreement but not the approach to
it — which hypercalls ran, which abstractions were recorded and cached,
which locks moved. The flight recorder keeps exactly that: a fixed-size
ring buffer (``collections.deque(maxlen=...)``) of recent structured
events, cheap enough to leave on for whole campaigns, that the
:class:`~repro.ghost.checker.GhostChecker` dumps to a timestamped JSON
artifact the moment a violation or :class:`ParanoidMismatchError` fires.
Campaign findings attach the same snapshot, so triage starts from the
event history without re-running the trace. It is the package's only
bounded event ring: the campaign engine keeps its heartbeat samples
(one per merged batch, behind ``/campaign`` and the checkpoint's
``<name>.telemetry.jsonl``) in one too.

Disabled (capacity 0, the default) the recorder is a single ``if`` per
event. Enabled, an event is one deque append of a small dict.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """A bounded ring buffer of structured events.

    ``capacity`` is the ring size in events; 0 disables recording (and
    dumping) entirely. ``out_dir`` is where :meth:`dump` writes its
    artifacts (created on first dump).
    """

    def __init__(self, capacity: int = 0, *, out_dir: str | Path = "."):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.enabled = capacity > 0
        self.out_dir = Path(out_dir)
        self._events: deque[dict] = deque(maxlen=capacity if capacity else 1)
        #: Monotonic sequence number across the whole run — survives ring
        #: wraparound, so a dump shows how much history was evicted.
        self.seq = 0
        #: Paths of every artifact written, newest last.
        self.dumps: list[Path] = []
        self._epoch_ns = time.perf_counter_ns()

    # -- recording ---------------------------------------------------------

    def record(self, kind: str, **fields) -> None:
        """Append one event; no-op when disabled."""
        if not self.enabled:
            return
        self.seq += 1
        event = {
            "seq": self.seq,
            "ts_us": (time.perf_counter_ns() - self._epoch_ns) // 1000,
            "kind": kind,
        }
        if fields:
            event.update(fields)
        self._events.append(event)

    def snapshot(self) -> list[dict]:
        """The retained events, oldest first (copies, safe to ship)."""
        # list() copies the deque in one C call, so a reader on the
        # telemetry server's thread never iterates it mid-append.
        return [dict(e) for e in list(self._events)]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events) if self.enabled else 0

    # -- dumping -----------------------------------------------------------

    def dump(self, reason: str, extra: dict | None = None) -> Path | None:
        """Write the ring to a timestamped artifact; None when disabled.

        The filename carries wall-clock time plus the event sequence
        number, so repeated dumps in one run never collide:
        ``flight-20260806T101530-000123-post-mismatch.json``.
        """
        if not self.enabled:
            return None
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        slug = "".join(c if c.isalnum() or c in "-_" else "-" for c in reason)
        path = self.out_dir / f"flight-{stamp}-{self.seq:06d}-{slug}.json"
        payload = {
            "reason": reason,
            "capacity": self.capacity,
            "events_recorded": self.seq,
            "events_retained": len(self._events),
            "events": self.snapshot(),
        }
        if extra:
            payload["extra"] = extra
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        self.dumps.append(path)
        return path
