#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads, checked verdicts.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload soak --seed 1 --seconds 15 --trace 1

Workloads (see ``workloads.py``): ``suite``, ``soak``, ``hunt`` and
``analysis``. Each run first times the set-up (a fresh interpreter that
imports the program and boots one checked machine, several times), warms
up in-process, then repeats passes over the workload's fixed inputs until
``--seconds`` of measurement have elapsed (at least one pass). Every
verdict is checked against its known answer; a wrong one makes the run
fail (exit 1, ``"correct": false``).

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

- ``setup_s`` — median fresh-interpreter set-up (imports + one boot);
- ``peak_rss_mb`` — peak resident memory of the measuring process;
- ``pass_s`` — median time of one pass: the 55-test suite, one 600-step
  soak machine, the hunt of every synthetic bug, or the seven analysis
  passes plus the three differential harnesses;
- ``hypercalls_per_hour`` — hypercalls issued ÷ measured time;
- ``trap_ms_p50``/``trap_ms_p90`` — checked trap latency, entry to
  return, oracle recording and ternary check included.

Times are at nominal host speed: each measured time is divided by how
much slower than nominal the host ran a fixed reference loop, sampled
every 100 ms during it (``layers.HostSpeed``); a pass by the mean
slowdown over the pass, a trap by the two samples on either side. On
a shared host the same loop swings by 2x within seconds, so raw wall
times would compare co-tenants rather than commits. The slowdowns are
printed per pass.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer table: each layer's self time per pass (the layers plus
``other_s`` add up to the traced wall time, see ``layers.py``), work
counts, ``obs.tracing_overhead`` (traced ÷ untraced pass time, both at
nominal host speed), the hunt's coverage cost (its batches rerun with
``coverage="off"``), and ``fail_ratio``. Work counts that must repeat
exactly are compared between traced passes and against earlier runs of
the same code and seed (kept under ``.perfbench/``). The traced
``suite`` and ``soak`` runs end with the paranoid conformance pass: the
same inputs with ``paranoid=True`` must give the same verdicts, trap
counts and findings.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

sys.path.insert(0, str(HERE))
import layers  # noqa: E402

#: Work counts that must be identical for a fixed seed on every run.
EXACT_COUNTS = (
    "pkvm.traps",
    "ghost.cache_hits",
    "ghost.cache_misses",
    "ghost.cache_invalidations",
    "ghost.interpret_calls",
    "ghost.maplet_inserts",
    "testing.replays",
    "campaign.shrink_probes",
    "shrunk_steps",
    "analysis.ast_parses",
)

#: Per-layer counts and ratios, with their units, beside the ``*_s`` layers.
LAYER_COUNTS = {
    "machine.boots": "count",
    "pkvm.traps": "count",
    "ghost.cache_hits": "count",
    "ghost.cache_misses": "count",
    "ghost.cache_invalidations": "count",
    "ghost.cache_hit_ratio": "ratio",
    "ghost.interpret_calls": "count",
    "ghost.maplet_inserts": "count",
    "ghost.isolation_sweeps": "count",
    "ghost.isolation_skips": "count",
    "ghost.peak_bytes": "bytes",
    "testing.step_growth": "ratio",
    "testing.coverage_s": "s",
    "testing.replays": "count",
    "campaign.batches": "count",
    "campaign.shrink_probes": "count",
    "shrunk_steps": "steps",
    "analysis.ast_parses": "count",
    "analysis.ast_hits": "count",
    "analysis.refinement_paths": "count",
    "obs.tracing_overhead": "ratio",
    "fail_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "soak", "hunt", "analysis"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="only import and boot (what setup_s times)"
    )
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median set-up time at nominal host speed. The child samples the
    host speed on its own CPU around its imports and reports it."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        samples.append(wall / float(child.stdout.split()[-1]))
    return statistics.median(samples)


# -- untraced run ---------------------------------------------------------------


def untraced_run(workload, seconds, speed, setup_s):
    import workloads

    patches = layers.Patches()
    probe = workloads.Probe(patches, speed.tick)
    verdicts = layers.Verdicts()
    pass_s = []
    slowdowns = []
    trap_ms = []
    started = time.perf_counter()
    try:
        while True:
            traps = probe.traps
            nominal, slowdown, _ = speed.measure(lambda: workload.run_pass(verdicts))
            pass_s.append(nominal)
            slowdowns.append(slowdown)
            trap_ms += [
                ns / 1e6 / speed.slowdown_at(t0)
                for t0, ns in zip(probe.trap_start[traps:], probe.trap_ns[traps:])
            ]
            if time.perf_counter() - started >= seconds:
                break
    finally:
        patches.undo()
    problems = []
    tail = layers.tail_percentile(len(trap_ms))
    if (tail or 0) < 90:
        problems.append(f"only {len(trap_ms)} traps: too few for a p90")
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_s": (statistics.median(pass_s), "s"),
        "hypercalls_per_hour": (probe.hypercalls * 3600.0 / sum(pass_s), "1/h"),
        "trap_ms_p50": (layers.percentile(trap_ms, 50), "ms"),
        "trap_ms_p90": (layers.percentile(trap_ms, 90), "ms"),
    }
    notes = [
        f"passes: {len(pass_s)}; nominal-speed seconds "
        + ", ".join(f"{s:.3f}" for s in pass_s)
        + "; host slowdown " + ", ".join(f"{x:.3f}" for x in slowdowns),
        f"traps: {len(trap_ms)}, hypercalls: {probe.hypercalls}",
    ]
    if tail is not None:
        notes.append(f"trap latency p{tail:g}: {layers.percentile(trap_ms, tail):.4f} ms")
    return verdicts, metrics, problems, notes


# -- traced run -----------------------------------------------------------------


def pass_counts(recorder) -> dict:
    counts = dict(recorder.counts)
    counts["ghost.cache_hits"] = recorder.counter_total("oracle_cache_hits")
    counts["ghost.cache_misses"] = recorder.counter_total("oracle_cache_misses")
    counts["ghost.cache_invalidations"] = recorder.counter_total("oracle_cache_invalidations")
    counts["ghost.isolation_sweeps"] = recorder.counter_total("oracle_isolation_checks_run")
    counts["ghost.isolation_skips"] = recorder.counter_total("oracle_isolation_sweeps_skipped")
    counts["ghost.peak_bytes"] = recorder.gauge_max("ghost_memory_peak_bytes")
    return counts


def counted_pass(workload, verdicts, speed, **kwargs):
    """One untraced pass with the probe on, as in an untraced run: its
    nominal-speed time, its trap count, and the verdicts it returns."""
    import workloads

    patches = layers.Patches()
    probe = workloads.Probe(patches, speed.tick)
    try:
        nominal, _, signature = speed.measure(lambda: workload.run_pass(verdicts, **kwargs))
    finally:
        patches.undo()
    return nominal, probe.traps, signature


def traced_run(workload, seconds, speed, seed):
    import workloads

    verdicts = layers.Verdicts()
    problems: list[str] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    layer_ns: dict[str, int] = {}
    per_pass_counts: list[dict] = []
    recorder = None
    normal = None
    started = time.perf_counter()
    while True:
        untraced = counted_pass(workload, verdicts, speed)
        untraced_s.append(untraced[0])
        normal = normal or untraced
        recorder = layers.Recorder()
        tracing = layers.Patches()
        workloads.install_tracing(recorder, tracing)
        window = []

        def traced_pass():
            window.append(time.perf_counter_ns())
            workload.run_pass(verdicts, recorder)
            window.append(time.perf_counter_ns())

        try:
            nominal, _, _ = speed.measure(traced_pass)
        finally:
            workloads.uninstall_tracing(tracing)
        traced_s.append(nominal)
        t0, t1 = window
        wall = (t1 - t0) / 1e9
        totals = layers.self_times(recorder.events, t0, t1)
        problems += layers.layer_sum_problems({k: v / 1e9 for k, v in totals.items()}, wall)
        for layer, ns in totals.items():
            layer_ns[layer] = layer_ns.get(layer, 0) + ns
        per_pass_counts.append(pass_counts(recorder))
        if time.perf_counter() - started >= seconds:
            break
    coverage_s = 0.0
    if workload.name == "hunt":
        coverage_s = workloads.coverage_cost(recorder.batches)
    if workload.name in ("suite", "soak"):
        paranoid = counted_pass(workload, verdicts, speed, paranoid=True)
        verdicts.check(
            paranoid[1:] == normal[1:],
            f"{workload.name}: paranoid pass differs from the normal pass "
            f"(traps {paranoid[1]} vs {normal[1]})",
        )

    first = per_pass_counts[0]
    for counts in per_pass_counts[1:]:
        for name in EXACT_COUNTS:
            if counts.get(name, 0) != first.get(name, 0):
                problems.append(
                    f"{name} differs between traced passes: "
                    f"{first.get(name, 0)} vs {counts.get(name, 0)}"
                )
    problems += check_ledger(workload.name, seed, {n: first.get(n, 0) for n in EXACT_COUNTS})

    n = len(traced_s)
    metrics = {
        f"{layer}_s": (layer_ns.get(layer, 0) / 1e9 / n, "s") for layer in layers.LAYERS
    }
    hits, misses = first.get("ghost.cache_hits", 0), first.get("ghost.cache_misses", 0)
    derived = {
        "ghost.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "testing.step_growth": layers.step_growth(recorder.tester_steps),
        "testing.coverage_s": coverage_s,
        "obs.tracing_overhead": statistics.median(traced_s) / statistics.median(untraced_s),
        "fail_ratio": verdicts.fail_ratio,
    }
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (derived[name] if name in derived else first.get(name, 0), unit)
    notes = [
        f"nominal-speed seconds of traced passes: {', '.join(f'{s:.3f}' for s in traced_s)}; "
        f"untraced: {', '.join(f'{s:.3f}' for s in untraced_s)}",
        f"other_s: {layer_ns.get(layers.OTHER, 0) / sum(layer_ns.values()):.1%} of traced wall "
        f"(tolerance {layers.OTHER_TOLERANCE:.0%})",
    ]
    return verdicts, metrics, problems, notes


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ledger(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare ``counts`` with an earlier run of the same code and seed,
    or record them for the next one."""
    path = WORKDIR / "counts" / f"{workload}-seed{seed}-{source_fingerprint()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [
            f"{name} is {counts[name]}, an earlier run of this code and seed counted {earlier.get(name)}"
            for name in counts
            if earlier.get(name) != counts[name]
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True) + "\n")
    tmp.replace(path)
    return []


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_only:
        speed = layers.HostSpeed()
        speed.sample()
        workloads.setup()
        speed.sample()
        print(layers.slowdown_of(speed.samples))
        return 0
    speed = layers.HostSpeed()
    setup_s = None if args.trace else measure_setup(args)
    WORKDIR.mkdir(exist_ok=True)
    workloads.setup()
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.trace:
        verdicts, metrics, problems, notes = traced_run(
            workload, args.seconds, speed, args.seed
        )
    else:
        verdicts, metrics, problems, notes = untraced_run(
            workload, args.seconds, speed, setup_s
        )
    correct = verdicts.failed == 0 and not problems

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    for error in verdicts.errors:
        print(f"  WRONG VERDICT: {error}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(f"  verdicts: {verdicts.attempted - verdicts.failed}/{verdicts.attempted} as known")
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
