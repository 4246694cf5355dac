"""Finding classification and deduplication for campaign runs.

A long random campaign rediscovers the same disagreement hundreds of
times; what the paper's workflow needs is one representative trace per
*distinct* disagreement. A finding's identity is its signature:

    (finding class, violation kind, faulting hypercall, ghost-diff shape)

The ghost-diff shape keeps the *paths* a violation's state diff touches
(``host.share``, ``regs``, ``vm_pgt``, ...) and discards the concrete
addresses and handles, so the same bug hit at different pages on
different seeds collapses into one finding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

from repro.arch.exceptions import HostCrash, HypervisorPanic
from repro.ghost.checker import SpecViolation
from repro.pkvm.defs import HypercallId
from repro.testing.trace import Trace

#: The exceptions every campaign, replay and differential site treats as
#: findings (§5: spec disagreements, hypervisor panics, and host crashes
#: the model failed to predict); anything else propagates.
FINDING_EXCEPTIONS = (SpecViolation, HypervisorPanic, HostCrash)

_HEX = re.compile(r"0x[0-9a-fA-F]+")
_BRACKET_INDEX = re.compile(r"\[[^\]]*\]")
_LOCK_INDEX = re.compile(r":\d+")


def finding_class(exc: BaseException) -> str | None:
    """Which finding class an exception belongs to, or None."""
    for klass in FINDING_EXCEPTIONS:
        if isinstance(exc, klass):
            return klass.__name__
    return None


def faulting_call_name(trace: Trace) -> str:
    """The API interaction the trace was executing when it ended.

    The tester records each interaction *before* executing it, so the
    last recorded step is the faulting one."""
    for step in reversed(trace.steps):
        kind = step[0]
        if kind == "hvc":
            call_id = step[2]
            try:
                return HypercallId(call_id).name
            except ValueError:
                return "GARBAGE_HVC"
        if kind in ("write", "read"):
            return "host-touch"
        if kind == "script":
            continue  # scripts only matter via the VCPU_RUN that follows
    return "boot"


def _normalize_path(token: str) -> str:
    """Strip concrete handles/addresses from a diff-path token:
    ``vms[0x7]`` -> ``vms[]``, ``vm_pgt:3`` -> ``vm_pgt``."""
    token = _BRACKET_INDEX.sub("[]", token)
    token = _LOCK_INDEX.sub("", token)
    return token


def diff_signature(detail: str) -> tuple[str, ...]:
    """The shape of a violation's state diff: the sorted set of
    (normalized path, direction) pairs its diff lines mention."""
    shapes: set[str] = set()
    lines = detail.splitlines()
    if lines and ":" in lines[0]:
        # "host: recorded post differs..." / "state protected by vm_pgt:3..."
        head = lines[0].split(":", 1)[0].strip()
        match = re.search(r"protected by (\S+)", lines[0])
        if match:
            head = match.group(1)
        shapes.add(_normalize_path(head))
    for line in lines[1:]:
        parts = line.strip().split(None, 1)
        if not parts:
            continue
        path = _normalize_path(parts[0])
        rest = parts[1] if len(parts) > 1 else ""
        sign = rest[:1] if rest[:1] in "+-" else ""
        shapes.add(path + sign)
    return tuple(sorted(shapes))


def _normalized_message(exc: BaseException) -> str:
    return _HEX.sub("ADDR", str(exc))


#: RawFinding fields whose JSON key differs from the field name.
_JSON_KEYS = {"klass": "class", "trace_text": "trace"}


@dataclass
class RawFinding:
    """One finding as a worker ships it back: classification plus a
    self-contained replayable trace."""

    klass: str  # "SpecViolation" | "HypervisorPanic" | "HostCrash"
    kind: str  # violation kind ("post-mismatch", ...) or "" for crashes
    detail: str
    call_name: str
    signature: tuple
    trace_text: str
    worker_id: int = 0
    batch_index: int = 0
    seed: int = 0
    step_index: int = 0
    #: Filled in by the engine's shrink pass.
    orig_len: int = 0
    shrunk_len: int = 0
    #: Schedule-script lengths for concurrency findings (0 = sequential
    #: finding, no schedule); filled by the worker and the schedule
    #: shrinker respectively.
    sched_len: int = 0
    shrunk_sched_len: int = 0
    duplicates: int = 0
    #: Path of the flight-recorder dump for this finding ("" when the
    #: recorder was off) — the event history leading into the failure.
    flight: str = ""

    def trace(self) -> Trace:
        return Trace.loads(self.trace_text)

    def to_jsonable(self) -> dict:
        data = {
            _JSON_KEYS.get(f.name, f.name): getattr(self, f.name)
            for f in fields(self)
        }
        data["signature"] = list(self.signature)
        return data

    @staticmethod
    def from_jsonable(data: dict) -> "RawFinding":
        # A key an older record lacks (``flight``, say) keeps the
        # field's default.
        finding = RawFinding(
            **{
                f.name: data[key]
                for f in fields(RawFinding)
                if (key := _JSON_KEYS.get(f.name, f.name)) in data
            }
        )
        finding.signature = tuple(finding.signature)
        return finding


def make_finding(
    exc: BaseException,
    trace: Trace,
    *,
    worker_id: int = 0,
    batch_index: int = 0,
    seed: int = 0,
    step_index: int = 0,
    call_name: str | None = None,
) -> RawFinding:
    """Classify an exception caught during a batch into a RawFinding.

    ``call_name`` overrides the last-recorded-step heuristic — needed for
    concurrency findings, where the trace is a pre-recorded multi-CPU
    program and the *schedule*, not the final step, provoked the failure.
    """
    klass = finding_class(exc)
    if klass is None:
        raise TypeError(f"not a finding class: {exc!r}")
    if call_name is None:
        call_name = faulting_call_name(trace)
    if isinstance(exc, SpecViolation):
        kind = exc.kind
        detail = exc.detail
        shape = diff_signature(detail)
    else:
        kind = ""
        detail = str(exc)
        shape = (_normalized_message(exc),)
    return RawFinding(
        klass=klass,
        kind=kind,
        detail=detail,
        call_name=call_name,
        signature=(klass, kind, call_name) + shape,
        trace_text=trace.dumps(),
        worker_id=worker_id,
        batch_index=batch_index,
        seed=seed,
        step_index=step_index,
        orig_len=len(trace),
    )


@dataclass
class DedupIndex:
    """First-finding-wins deduplication keyed on the signature."""

    by_signature: dict[tuple, RawFinding] = field(default_factory=dict)

    def add(self, finding: RawFinding) -> bool:
        """Record a finding; True if its signature is new."""
        kept = self.by_signature.get(finding.signature)
        if kept is None:
            self.by_signature[finding.signature] = finding
            return True
        kept.duplicates += 1
        return False

    def findings(self) -> list[RawFinding]:
        return list(self.by_signature.values())

    def __len__(self) -> int:
        return len(self.by_signature)
