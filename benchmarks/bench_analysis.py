"""E12/E16 — analysis-pass latency: the full suite on the real tree,
under a CI budget.

The paper's pragmatics depend on the checks being cheap enough to run on
every change (§6 argues the oracle pays its way because it rides along
with ordinary testing). The static passes and the bitfields proof are
near-instant; the frame pass's dynamic half replays the whole
handwritten suite plus a short random campaign, so it dominates. The
assertion keeps the full ``python -m repro.analysis`` wall time inside a
budget a pre-merge CI job can absorb — the ownership pass rode in on the
shared AST cache (PR 6) and the refinement pass on the shared symbolic
interpreter (PR 8), so seven passes must cost no more wall time than
five did. E16 additionally tracks the refinement pass's exploration
counters (paths explored, symbolic timeouts) so a path blow-up in a
handler shows up as a benchmark regression before it shows up as a
``symbolic-timeout`` finding.
"""

import time

from benchmarks.conftest import report
from repro.analysis.astutil import ast_cache_stats, clear_ast_cache
from repro.analysis.bitfields import check_pte_codec
from repro.analysis.frame import run_frame_pass
from repro.analysis.lockorder import check_lock_discipline
from repro.analysis.ownership import check_ownership
from repro.analysis.purity import check_spec_purity
from repro.analysis.refinement import check_refinement
from repro.analysis.scenarios import DEFAULT_SCENARIO, run_lockset_scenario

#: Generous CI ceiling for all seven passes together (seconds). The
#: observed total is a few seconds; the margin absorbs slow runners.
BUDGET_SECONDS = 60.0

#: E16: refinement-pass exploration budget. The six manifest pairs
#: explore a few dozen paths today; the ceiling catches a handler
#: refactor that multiplies the path count without yet timing out.
REFINEMENT_PATHS_CEILING = 512

REFINEMENT_STATS = {}

PASSES = (
    ("purity", lambda: check_spec_purity(None)),
    ("lockorder", lambda: check_lock_discipline(None)),
    ("lockset", lambda: run_lockset_scenario(DEFAULT_SCENARIO, max_schedules=32)),
    ("frame", lambda: run_frame_pass(None, dynamic=True, random_steps=200)),
    ("bitfields", lambda: check_pte_codec(None)),
    ("ownership", lambda: check_ownership(None)),
    ("refinement", lambda: check_refinement(None, stats=REFINEMENT_STATS)),
)


def bench_all_passes_within_ci_budget(benchmark):
    timings = {}

    def run_all():
        clear_ast_cache()
        findings = []
        for name, pass_fn in PASSES:
            start = time.perf_counter()
            findings.extend(pass_fn())
            timings[name] = time.perf_counter() - start
        return findings

    findings = benchmark.pedantic(run_all, rounds=1, iterations=1)

    assert findings == [], "the real tree must be clean"
    cache = ast_cache_stats()
    assert cache["hits"] >= 3, (
        "the shared AST cache must absorb the repeat reads "
        f"(got {cache['hits']} hits over {cache['parses']} parses)"
    )
    total = sum(timings.values())
    assert total < BUDGET_SECONDS, (
        f"analysis passes took {total:.1f}s, over the {BUDGET_SECONDS:.0f}s "
        "CI budget"
    )
    breakdown = ", ".join(f"{name} {dt:.2f}s" for name, dt in timings.items())
    report(
        "E12",
        "checks cheap enough to ride along with ordinary pre-merge testing",
        f"all seven passes clean in {total:.1f}s ({breakdown}; ast-cache "
        f"{cache['parses']} parses, {cache['hits']} hits); "
        f"budget {BUDGET_SECONDS:.0f}s",
    )

    stats = REFINEMENT_STATS
    assert stats["functions"] >= 4, "every manifest pair must be analysed"
    assert stats["timeouts"] == 0, (
        f"{stats['timeouts']} handler(s) blew the symbolic budget"
    )
    assert stats["paths_explored"] <= REFINEMENT_PATHS_CEILING, (
        f"refinement explored {stats['paths_explored']} paths, over the "
        f"{REFINEMENT_PATHS_CEILING}-path regression ceiling"
    )
    report(
        "E16",
        "symbolic refinement rides the same pre-merge budget as the "
        "other passes",
        f"refinement clean in {timings['refinement']:.2f}s: "
        f"{stats['functions']} handler/spec pairs, "
        f"{stats['paths_explored']} paths explored, "
        f"{stats['timeouts']} timeouts "
        f"(ceiling {REFINEMENT_PATHS_CEILING} paths, budget shared "
        f"{BUDGET_SECONDS:.0f}s)",
    )
