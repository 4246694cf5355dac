"""E8/E9 — the bug-finding results.

Paper §6 lists five real pKVM bugs found by this work, all acknowledged
and (all but one) fixed: the memcache alignment check (1), the memcache
size check / signed overflow (2), the vCPU load/init race (3), the fragile
host-pagefault path (4), and the linear-map/IO overlap on large-memory
devices (5). Paper §5 additionally injects synthetic bugs to confirm the
testing's discriminating power.

This bench reads both off the differential matrix: every bug re-injected
at its original site, exercised by its exposing scenario, and caught —
while the identical scenario is clean on the fixed hypervisor.
"""

import pytest

from repro.analysis.differential import (
    detections,
    differential_ok,
    format_matrix,
    run_matrix,
)
from repro.pkvm.bugs import Bugs
from benchmarks.conftest import report


@pytest.mark.benchmark(group="bugs")
def bench_detection_matrix(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    assert differential_ok(rows), format_matrix(rows)


def bench_bug_detection_report(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    verdicts = detections(rows)
    paper = [verdicts[bug] for bug in Bugs.paper_bug_names()]
    synth = [verdicts[bug] for bug in Bugs.synthetic_bug_names()]
    print()
    print(format_matrix(rows))
    report(
        "E8",
        "5 real pKVM bugs found (memcache alignment, memcache overflow, "
        "vcpu load/init race, host-pagefault fragility, linear-map overlap)",
        f"{sum(injected != 'clean' for injected, _ in paper)}/5 paper bugs "
        f"detected when injected; "
        f"{sum(fixed == 'clean' for _, fixed in paper)}/5 scenarios clean on "
        f"the fixed hypervisor",
    )
    report(
        "E9",
        "synthetic bugs injected to confirm discriminating power; all found",
        f"{sum(injected != 'clean' for injected, _ in synth)}/{len(synth)} "
        f"synthetic bugs detected; "
        f"{sum(fixed == 'clean' for _, fixed in synth)}/{len(synth)} clean "
        f"when fixed",
    )
    assert len(paper) == 5
    assert differential_ok(rows), format_matrix(rows)
