"""Delta-debugging trace and schedule minimization (ddmin).

A campaign finding arrives as the whole batch trace — often hundreds of
steps of which a handful matter. The shrinker removes ever-smaller chunks
of steps, keeping a candidate whenever its strict replay still raises the
*same finding class and kind*, until the trace is 1-minimal: no single
step can be removed without losing the finding.

Concurrency findings carry a second shrinkable artifact: the scheduler
decision script. :func:`shrink_schedule` minimises both — first the
script (shortest-failing-prefix, then ddmin over the remaining entries;
script entries are *soft*, so dropping one just hands that decision to
the round-robin fallback), then the trace steps under the shrunk script.

Replays run in strict mode: a HostCrash during a replayed host touch
propagates instead of being tolerated, because the crash may *be* the
finding being minimised.

ddmin is deterministic, so shrinking is idempotent — shrinking an
already-minimal trace returns it unchanged (property-tested in
``tests/property/test_shrink_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.testing.campaign.findings import finding_class
from repro.testing.trace import Trace


@dataclass
class ShrinkResult:
    trace: Trace
    #: How many candidate replays the search spent.
    probes: int


def _ends_in(replay: Callable[[], object], klass: str, kind: str) -> bool:
    """Does ``replay()`` raise finding class ``klass`` (and, for spec
    violations, violation kind ``kind``)?"""
    try:
        replay()
    except Exception as exc:  # noqa: BLE001 - classified below
        if finding_class(exc) != klass:
            return False
        return klass != "SpecViolation" or getattr(exc, "kind", "") == kind
    return False


def reproduces_finding(trace: Trace, klass: str, kind: str = "") -> bool:
    """Public check: strict replay raises finding class ``klass`` (and,
    for spec violations, violation kind ``kind``)."""
    return _ends_in(lambda: trace.replay(ghost=True, strict=True), klass, kind)


def _ddmin(items: list, test, exhausted) -> list:
    """The ddmin core: remove ever-smaller chunks while ``test`` keeps
    passing, until 1-minimal or ``exhausted()``. ``test`` does its own
    probe accounting."""
    granularity = 2
    while len(items) >= 2 and not exhausted():
        chunk = max(1, (len(items) + granularity - 1) // granularity)
        reduced = False
        for start in range(0, len(items), chunk):
            candidate = items[:start] + items[start + chunk :]
            if not candidate:
                continue
            if test(candidate):
                items = candidate
                # restart at coarse granularity relative to the new size
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if exhausted():
                break
        if not reduced:
            if granularity >= len(items):
                break  # 1-minimal: no single item is removable
            granularity = min(len(items), granularity * 2)
    return items


def shrink_trace(
    trace: Trace,
    klass: str,
    kind: str = "",
    *,
    max_probes: int = 2000,
) -> ShrinkResult:
    """Minimize ``trace`` while a strict replay still raises the same
    finding class/kind. Returns the input unchanged if it does not
    reproduce at all (nothing to safely minimize against)."""
    probes = 0

    def test(steps: list[tuple]) -> bool:
        nonlocal probes
        probes += 1
        return reproduces_finding(trace.with_steps(steps), klass, kind)

    if not test(trace.steps):
        return ShrinkResult(trace, probes)
    steps = _ddmin(list(trace.steps), test, lambda: probes >= max_probes)
    return ShrinkResult(trace.with_steps(steps), probes)


def reproduces_schedule(
    trace: Trace, schedule: list[str] | None = None, klass: str = "", kind: str = ""
) -> bool:
    """Public check: strict schedule replay raises finding class
    ``klass``. ``schedule`` defaults to the trace's ``meta["schedule"]``.
    (Ghost off: concurrency scenarios run unchecked, the schedule — not
    the oracle — is what provoked the failure.)"""
    return _ends_in(
        lambda: trace.replay_schedule(schedule, ghost=False, strict=True),
        klass,
        kind,
    )


def shrink_schedule(
    trace: Trace,
    klass: str,
    kind: str = "",
    *,
    max_probes: int = 2000,
) -> ShrinkResult:
    """Minimize a concurrency finding: the schedule script first, then
    the trace steps under the shrunk script.

    Script entries are soft (an entry naming a non-runnable thread, or
    running past the script's end, falls back deterministically), so
    both a truncated prefix and a ddmin-thinned script remain valid
    schedules — they just delegate more decisions to round-robin. The
    shortest-failing-prefix pass alone typically cuts the script below
    half: the failure fires early and the rr tail was never load-bearing.

    The result trace carries the shrunk script in ``meta["schedule"]``.
    """
    probes = 0
    schedule = [str(s) for s in trace.meta.get("schedule", [])]

    def exhausted() -> bool:
        return probes >= max_probes

    def test_schedule(candidate: list[str]) -> bool:
        nonlocal probes
        probes += 1
        return reproduces_schedule(trace, candidate, klass, kind)

    if not test_schedule(schedule):
        return ShrinkResult(trace, probes)

    # Shortest failing prefix, geometrically: the script's tail past the
    # failure point only ever replays the rr fallback's own choices.
    if test_schedule([]):
        schedule = []  # plain round-robin already reproduces
    else:
        n = 1
        while n < len(schedule) and not exhausted():
            if test_schedule(schedule[:n]):
                schedule = schedule[:n]
                break
            n *= 2
        schedule = _ddmin(schedule, test_schedule, exhausted)

    def test_steps(steps: list[tuple]) -> bool:
        nonlocal probes
        probes += 1
        return reproduces_schedule(trace.with_steps(steps), schedule, klass, kind)

    steps = _ddmin(list(trace.steps), test_steps, exhausted)
    shrunk = trace.with_steps(steps)
    shrunk.meta["schedule"] = list(schedule)
    return ShrinkResult(shrunk, probes)
