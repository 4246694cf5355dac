"""Ghost memory accounting — the analogue of the paper's arena allocator.

At EL2 the paper's ghost machinery has "only one page of stack per
hardware thread, no existing heap allocator", so mappings live in a simple
arena and VMs/vCPUs in a small malloc. In Python the runtime allocates for
us, but the paper's ~18 MB memory-impact number ("dominated by page-table
representations") is an evaluation target, so we keep an accounting layer
that tracks the footprint the arena would have: bytes of maplet storage
per live mapping, plus per-recorded-state overhead.

The byte costs mirror the C structures: a maplet is ~48 bytes (va, count,
target address, attribute word, list linkage), a ghost state header ~256.
Accounting is O(1) per operation and balanced: a running total adjusted
on every mapping mutation and released by a weak-reference callback when
the mapping dies, plus the pre/post state headers the checker charges at
handler entry and releases at exit. A dead machine (freed by reference
counting, see docs/ORACLE.md) leaves nothing behind, and
:meth:`GhostArena.restart_peak` at each boot makes the peak that
machine's own.
"""

from __future__ import annotations

import weakref

MAPLET_BYTES = 48
MAPPING_HEADER_BYTES = 32
STATE_HEADER_BYTES = 256


class _Accounted(weakref.ref):
    """A weak reference to one accounted mapping, carrying what the arena
    charged for it. Its callback releases the charge when the mapping
    dies: a weakref is a C object, far cheaper than ``weakref.finalize``."""

    __slots__ = ("key", "bytes")


class GhostArena:
    """Tracks the would-be arena footprint of all live ghost objects."""

    def __init__(self):
        self._bytes = 0
        #: mapping id -> its weak reference and current charge.
        self._per_mapping: dict[int, _Accounted] = {}
        self.peak_bytes = 0

    def account_mapping(self, mapping) -> None:
        """(Re-)account a mapping after construction or mutation."""
        key = id(mapping)
        new = MAPPING_HEADER_BYTES + MAPLET_BYTES * len(mapping._maplets)
        ref = self._per_mapping.get(key)
        if ref is None:
            ref = _Accounted(mapping, self._release_mapping)
            ref.key = key
            ref.bytes = 0
            self._per_mapping[key] = ref
        self._bytes += new - ref.bytes
        ref.bytes = new
        self._touch_peak()

    def _release_mapping(self, ref: _Accounted) -> None:
        if self._per_mapping.get(ref.key) is ref:
            del self._per_mapping[ref.key]
            self._bytes -= ref.bytes

    def account_state(self, count: int = 1) -> None:
        self._bytes += STATE_HEADER_BYTES * count
        self._touch_peak()

    def release_state(self, count: int = 1) -> None:
        self._bytes = max(0, self._bytes - STATE_HEADER_BYTES * count)

    def restart_peak(self) -> None:
        """Track the peak afresh from the current footprint (a machine
        boot: machines run one at a time, as at EL2)."""
        self.peak_bytes = self._bytes

    def live_bytes(self) -> int:
        """Current footprint of all live ghost mappings and states."""
        return self._bytes

    def _touch_peak(self) -> None:
        if self._bytes > self.peak_bytes:
            self.peak_bytes = self._bytes

    def reset(self) -> None:
        self._bytes = 0
        self._per_mapping.clear()
        self.peak_bytes = 0


#: Process-wide arena instance, as at EL2 there is exactly one.
arena = GhostArena()
