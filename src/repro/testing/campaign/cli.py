"""Command-line front end: ``python -m repro.testing.campaign``.

Examples::

    # a 4-worker campaign of 100k steps against the fixed hypervisor
    python -m repro.testing.campaign --workers 4 --budget 100000 \\
        --out campaign.json

    # hunt one injected bug, stop at the first deduplicated finding
    python -m repro.testing.campaign --bugs synth_share_skip_check \\
        --budget 5000 --max-findings 1

    # resume an interrupted campaign from its checkpoint
    python -m repro.testing.campaign --resume campaign.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from repro.pkvm.bugs import Bugs
from repro.testing.campaign.engine import (
    CampaignConfig,
    CampaignEngine,
    CampaignReport,
)


def _parse_bugs(spec: str) -> tuple[str, ...]:
    if not spec:
        return ()
    if spec == "all-synthetic":
        return tuple(Bugs.synthetic_bug_names())
    names = tuple(part.strip() for part in spec.split(",") if part.strip())
    known = set(Bugs.paper_bug_names()) | set(Bugs.synthetic_bug_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(f"unknown bug flags: {', '.join(unknown)}")
    return names


def build_parser() -> argparse.ArgumentParser:
    """Each flag's ``dest`` is a :class:`CampaignConfig` field; an absent
    flag leaves the field at its dataclass default."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.campaign",
        description="Parallel model-guided random-testing campaign",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--workers", type=int)
    parser.add_argument("--budget", type=int, help="total steps, all workers")
    parser.add_argument(
        "--batch-steps", type=int, help="base steps per batch"
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--bugs",
        dest="bug_names",
        type=_parse_bugs,
        metavar="BUGS",
        help="comma-separated bug flags to inject, or 'all-synthetic'",
    )
    parser.add_argument("--out", default=None, help="checkpoint/report path")
    parser.add_argument(
        "--resume", default=None, help="resume from a checkpoint file"
    )
    parser.add_argument(
        "--inline",
        action="store_true",
        help="run batches sequentially in-process (deterministic)",
    )
    parser.add_argument("--no-shrink", dest="shrink", action="store_false")
    parser.add_argument(
        "--mode",
        choices=["random", "iommu", "concurrency"],
        help="random input fuzzing (default), the IOMMU-focused action "
        "profile (DMA-domain lifecycle plus host-share interplay), or "
        "PCT schedule fuzzing of a fixed multi-CPU scenario (--budget "
        "counts schedules)",
    )
    parser.add_argument(
        "--scenario",
        help="concurrency mode: which scenario trace to fuzz "
        "(vcpu-race, host-fault, mixed)",
    )
    parser.add_argument(
        "--pct-depth",
        type=int,
        metavar="D",
        help="concurrency mode: PCT depth bound — D-1 priority-change "
        "points per schedule (depth-D bugs need depth D)",
    )
    parser.add_argument(
        "--coverage",
        choices=["oracle", "off"],
        help="novelty signal: the oracle's trap classes (default) or "
        "none; concurrency mode always covers interleaving windows",
    )
    parser.add_argument(
        "--no-coverage",
        dest="coverage",
        action="store_const",
        const="off",
    )
    parser.add_argument("--max-findings", type=int)
    parser.add_argument("--max-batches", type=int)
    parser.add_argument(
        "--time-limit", type=float, help="wall-clock seconds"
    )
    parser.add_argument(
        "--paranoid",
        action="store_true",
        help="debug mode: recompute every cached abstraction from scratch "
        "and assert it matches the incremental result",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="enable span tracing and write a merged Chrome trace_event "
        "JSON (load in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the merged campaign metrics registry as JSON",
    )
    parser.add_argument(
        "--flight-buffer",
        type=int,
        metavar="N",
        help="per-worker flight-recorder ring size in events (0 = off); "
        "any oracle mismatch dumps the ring to a flight-*.json artifact",
    )
    parser.add_argument(
        "--flight-dir",
        metavar="DIR",
        help="directory for flight-recorder dump artifacts",
    )
    parser.add_argument(
        "--serve-telemetry",
        metavar="HOST:PORT",
        help="serve live campaign telemetry over HTTP for the duration "
        "of the run (/metrics /spans /flight /profile /campaign "
        "/healthz; port 0 picks a free port, URL printed to stderr)",
    )
    parser.add_argument(
        "--profile-hz",
        type=int,
        metavar="HZ",
        help="sample every worker's stacks at HZ and merge into one "
        "span-attributed fleet profile (0 = off)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        help="write the merged collapsed-stack profile (flamegraph.pl / "
        "speedscope input); implies --profile-hz 100 when unset",
    )
    parser.add_argument(
        "--seed-corpus",
        metavar="DIR",
        help="replay every *.trace file in DIR through the oracle before "
        "the random batches (e.g. the refinement pass's concretized "
        "counterexamples from --refinement-corpus); detections join the "
        "campaign's deduplicated findings",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """The campaign the parsed flags describe: each given flag sets the
    :class:`CampaignConfig` field of its name."""
    names = {f.name for f in fields(CampaignConfig)}
    return CampaignConfig(
        **{name: value for name, value in vars(args).items() if name in names}
    )


def format_report(report: CampaignReport) -> str:
    lines = [
        f"batches:          {report.batches}"
        + ("  (resumed)" if report.resumed else ""),
        f"steps run:        {report.total_steps}",
        f"hypercalls:       {report.total_hypercalls}"
        f"  ({report.hypercalls_per_hour:,.0f}/hour)",
        f"model-rejected:   {report.total_rejected}",
        f"coverage:         {report.coverage} points",
        f"distinct findings: {len(report.findings)}",
    ]
    if report.corpus_traces:
        lines.insert(-1, f"corpus seeds:     {report.corpus_traces} replayed")
    for finding in report.findings:
        label = finding.klass + (f"/{finding.kind}" if finding.kind else "")
        shrunk = (
            f", shrunk {finding.orig_len}->{finding.shrunk_len} steps"
            if finding.shrunk_len
            else ""
        )
        if finding.sched_len:
            shrunk += (
                f", schedule {finding.sched_len}->"
                f"{finding.shrunk_sched_len} decisions"
            )
        lines.append(
            f"  - {label} at {finding.call_name} "
            f"(worker {finding.worker_id}, batch {finding.batch_index}, "
            f"+{finding.duplicates} dup{shrunk})"
        )
        if finding.flight:
            lines.append(f"    flight recorder: {finding.flight}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.resume is not None:
        try:
            engine = CampaignEngine.from_checkpoint(args.resume)
        except FileNotFoundError:
            raise SystemExit(f"no checkpoint at {args.resume}")
        except ValueError as exc:
            raise SystemExit(f"cannot resume {args.resume}: {exc}")
        # Telemetry is a property of the run, not the campaign: a resume
        # may serve (or stop serving) regardless of the original flags.
        if "serve_telemetry" in args:
            engine.config.serve_telemetry = args.serve_telemetry
    else:
        config = config_from_args(args)
        if config.workers < 1:
            raise SystemExit("--workers must be at least 1")
        if config.budget < 1:
            raise SystemExit("--budget must be at least 1")
        engine = CampaignEngine(config, out=args.out)
    report = engine.run()
    print(format_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
