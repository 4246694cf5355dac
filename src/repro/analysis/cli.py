"""``python -m repro.analysis`` — run the analysis passes, exit nonzero
on any finding.

Examples::

    python -m repro.analysis                    # all seven passes
    python -m repro.analysis purity lockorder   # static hygiene only
    python -m repro.analysis frame bitfields    # the deep passes
    python -m repro.analysis ownership refinement  # handler-vs-spec passes
    python -m repro.analysis --json             # machine-readable report
    python -m repro.analysis --sarif out.sarif  # GitHub-annotatable log
    python -m repro.analysis lockset --lockset-scenario unlocked-init-read
    python -m repro.analysis --differential     # every bug: statics vs. oracle

The static passes default to the installed ``repro.ghost.spec`` module,
``repro.pkvm`` package, and ``repro.arch.pte`` codec;
``--spec-module``/``--pkvm-root``/``--pte-module`` point them at other
files (used by the tests to lint the deliberately-bad fixtures, and
usable to vet a spec before it lands). Pointing the frame pass at
another file skips its dynamic cross-validation — an unmerged spec has
no machine to replay.

Exit codes distinguish verdicts from analyzer health: 0 clean, 1 any
finding, 2 a pass *crashed* (its traceback goes to stderr, and into the
``--json`` payload under ``errors``) — so CI can tell a regression in
the tree from a bug in the analysis.

Text output ends with a per-pass timing line::

    repro.analysis timing: purity 0.01s, ... (total 0.92s; ast-cache: 5 parses, 7 hits)

All passes parse through one shared AST cache (``astutil.load_module_ast``),
so the hit count shows the re-parses the cache saved; the same numbers
are in the ``--json`` payload under ``timings``/``ast_cache``, and
``benchmarks/bench_analysis.py`` (E12/E16) tracks the full-suite wall
time.

``--differential`` runs the differential matrix instead of the passes
(``repro.analysis.differential``): one fixed-width row per synthetic bug
and check, the ownership and refinement passes with the bug's flag
assumed on against its replay through the dynamic oracle. Two flags
modify it and are rejected without it: ``--differential-static-only``
skips the replays, and ``--refinement-corpus DIR`` exports the
concretized counterexample traces for a campaign's ``--seed-corpus``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from repro.analysis.astutil import ast_cache_stats
from repro.analysis.bitfields import check_pte_codec
from repro.analysis.frame import run_frame_pass
from repro.analysis.lockorder import check_lock_discipline
from repro.analysis.ownership import check_ownership
from repro.analysis.purity import check_spec_purity
from repro.analysis.refinement import check_refinement
from repro.analysis.report import Report
from repro.analysis.scenarios import (
    DEFAULT_SCENARIO,
    SCENARIOS,
    run_lockset_scenario,
)

PASSES = (
    "purity",
    "lockorder",
    "lockset",
    "frame",
    "bitfields",
    "ownership",
    "refinement",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="spec-hygiene, lock-discipline, ghost-frame, "
        "descriptor-codec, ownership-transition, and spec-refinement "
        "analyses",
    )
    parser.add_argument(
        "passes",
        nargs="*",
        metavar="pass",
        help=f"which passes to run (default: all of {', '.join(PASSES)})",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the findings as JSON instead of text (includes "
        "per-pass timings, AST-cache parse/hit counters, and any "
        "pass crashes under 'errors')",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write the findings as a SARIF 2.1.0 log (written even "
        "when clean, so CI can always upload it)",
    )
    parser.add_argument(
        "--spec-module",
        metavar="PATH",
        default=None,
        help="spec source file for the purity, frame, ownership, and "
        "refinement passes (default: the installed repro.ghost.spec)",
    )
    parser.add_argument(
        "--pkvm-root",
        metavar="PATH",
        default=None,
        help="directory or file for the lock-discipline, ownership, and "
        "refinement passes (default: the installed repro.pkvm package). "
        "When the ownership or refinement pass is pointed at a single "
        "file with no --spec-module, it parses its manifest from that "
        "same file",
    )
    parser.add_argument(
        "--pte-module",
        metavar="PATH",
        default=None,
        help="descriptor codec module for the bitfields pass "
        "(default: the installed repro.arch.pte)",
    )
    parser.add_argument(
        "--lockset-scenario",
        choices=sorted(SCENARIOS),
        default=DEFAULT_SCENARIO,
        help=f"scenario the lockset pass explores (default: {DEFAULT_SCENARIO})",
    )
    parser.add_argument(
        "--max-schedules",
        type=int,
        default=32,
        metavar="N",
        help="interleaving budget for the lockset pass (default: 32)",
    )
    parser.add_argument(
        "--frame-dynamic",
        choices=("off", "full"),
        default="full",
        help="dynamic cross-validation for the frame pass: replay the "
        "handwritten suite plus a random campaign (full, the default), "
        "or neither (off). Forced off by --spec-module.",
    )
    parser.add_argument(
        "--frame-random-steps",
        type=int,
        default=200,
        metavar="N",
        help="length of the frame pass's random campaign (default: 200)",
    )
    parser.add_argument(
        "--differential",
        action="store_true",
        help="instead of running passes, run the differential matrix: for "
        "every synthetic bug, re-run the ownership and refinement passes "
        "with its flag assumed true and replay it through the dynamic "
        "oracle (its detection scenario, or the refinement pass's "
        "concretized counterexample traces); exit 1 unless every pass "
        "raises the bug's designed rule (or, for a documented "
        "dynamic-only bug, stays silent), every replay gives the expected "
        "oracle verdict, and the clean tree is spotless",
    )
    parser.add_argument(
        "--refinement-corpus",
        metavar="DIR",
        default=None,
        help="with --differential: also export every concretized "
        "refinement counterexample trace into DIR as *.trace files, "
        "ingestible by the campaign engine's --seed-corpus",
    )
    parser.add_argument(
        "--differential-static-only",
        action="store_true",
        help="with --differential: skip the dynamic oracle replays and "
        "check only the static side of every row",
    )
    return parser


def _run_differential(args) -> int:
    from repro.analysis.differential import (
        differential_ok,
        format_matrix,
        run_matrix,
    )

    rows = run_matrix(
        dynamic=not args.differential_static_only,
        corpus_dir=args.refinement_corpus,
    )
    print(format_matrix(rows))
    ok = differential_ok(rows)
    print(f"repro.analysis: differential: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _pass_thunks(args) -> dict:
    """One zero-argument callable per pass, closed over the CLI options."""
    return {
        "purity": lambda: check_spec_purity(args.spec_module),
        "lockorder": lambda: check_lock_discipline(args.pkvm_root),
        "lockset": lambda: run_lockset_scenario(
            args.lockset_scenario, max_schedules=args.max_schedules
        ),
        "frame": lambda: run_frame_pass(
            args.spec_module,
            dynamic=args.frame_dynamic == "full",
            random_steps=args.frame_random_steps,
        ),
        "bitfields": lambda: check_pte_codec(args.pte_module),
        "ownership": lambda: check_ownership(args.pkvm_root, args.spec_module),
        "refinement": lambda: check_refinement(
            args.pkvm_root, args.spec_module
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.differential and (
        args.refinement_corpus is not None or args.differential_static_only
    ):
        parser.error(
            "--refinement-corpus and --differential-static-only need "
            "--differential"
        )
    if args.differential:
        return _run_differential(args)
    unknown = [p for p in args.passes if p not in PASSES]
    if unknown:
        parser.error(
            f"unknown pass(es): {', '.join(unknown)} "
            f"(choose from {', '.join(PASSES)})"
        )
    selected = tuple(p for p in PASSES if p in (args.passes or PASSES))

    thunks = _pass_thunks(args)
    report = Report()
    timings: dict[str, float] = {}
    errors: dict[str, str] = {}
    for name in selected:
        start = time.perf_counter()
        try:
            findings = list(thunks[name]())
        except Exception:  # noqa: BLE001 — a crashed pass is exit-2 data
            errors[name] = traceback.format_exc()
        else:
            report.extend(findings)
        timings[name] = time.perf_counter() - start

    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(report.to_sarif(), indent=2) + "\n"
        )

    cache = ast_cache_stats()
    if args.json:
        payload = report.to_dict()
        payload["passes"] = list(selected)
        payload["timings"] = {k: round(v, 4) for k, v in timings.items()}
        payload["ast_cache"] = cache
        payload["errors"] = errors
        print(json.dumps(payload, indent=2))
    else:
        for finding in report.sorted():
            print(finding.describe())
        if errors:
            status = f"{len(errors)} pass(es) CRASHED"
        elif report.clean:
            status = "clean"
        else:
            status = f"{len(report.findings)} finding(s)"
        print(f"repro.analysis: {', '.join(selected)}: {status}")
        per_pass = ", ".join(f"{name} {timings[name]:.2f}s" for name in selected)
        total = sum(timings.values())
        print(
            f"repro.analysis timing: {per_pass} (total {total:.2f}s; "
            f"ast-cache: {cache['parses']} parses, {cache['hits']} hits)"
        )
        for name, tb in errors.items():
            print(f"repro.analysis: pass {name} crashed:", file=sys.stderr)
            print(tb, file=sys.stderr)
    if errors:
        return 2
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
