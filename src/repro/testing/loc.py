"""Lines-of-code accounting for the specification-size comparison.

Paper §6 ("Specification size"): pKVM is ~11,000 raw LoC; the
specification is 2,600 for hypercalls and traps, 1,300 for the abstraction
recording functions, 4,500 for the abstract data types, plus boilerplate
(configuration, diffing, printing), totalling ~14,000. This module
produces the same breakdown for the reproduction so the bench can report
spec-to-implementation ratios of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import repro

PKG_ROOT = Path(repro.__file__).parent

#: category -> module paths relative to the package root, mirroring the
#: paper's breakdown.
CATEGORIES: dict[str, list[str]] = {
    "implementation (pKVM)": [
        "pkvm/defs.py",
        "pkvm/spinlock.py",
        "pkvm/allocator.py",
        "pkvm/pgtable.py",
        "pkvm/mem_protect.py",
        "pkvm/iommu.py",
        "pkvm/vm.py",
        "pkvm/hyp.py",
        "pkvm/host.py",
    ],
    "substrate (Arm-A model)": [
        "arch/defs.py",
        "arch/memory.py",
        "arch/pte.py",
        "arch/translate.py",
        "arch/sysregs.py",
        "arch/cpu.py",
        "arch/exceptions.py",
        "sim/sched.py",
        "sim/explore.py",
        "sim/coverage.py",
        "machine.py",
    ],
    "spec: hypercalls and traps": ["ghost/spec.py", "ghost/iommu_spec.py"],
    "spec: abstraction recording": [
        "ghost/abstraction.py",
        "ghost/checker.py",
        "ghost/cache.py",
    ],
    "spec: abstract data types": ["ghost/maplets.py", "ghost/state.py"],
    "spec: boilerplate (diff/print/config)": [
        "ghost/diff.py",
        "ghost/arena.py",
        "ghost/calldata.py",
        "ghost/console.py",
        "ghost/registry.py",
    ],
    "test infrastructure": [
        "testing/proxy.py",
        "testing/harness.py",
        "testing/handwritten.py",
        "testing/random_tester.py",
        "testing/coverage.py",
        "testing/synthetic.py",
        "testing/trace.py",
        "testing/campaign/findings.py",
        "testing/campaign/concurrency.py",
        "testing/campaign/shrink.py",
        "testing/campaign/worker.py",
        "testing/campaign/scheduler.py",
        "testing/campaign/checkpoint.py",
        "testing/campaign/engine.py",
        "testing/campaign/cli.py",
        "testing/campaign/__main__.py",
        "testing/loc.py",
        "pkvm/bugs.py",  # the bug-injection registry is test apparatus
    ],
    "analysis (hygiene checkers)": [
        "analysis/report.py",
        "analysis/astutil.py",
        "analysis/purity.py",
        "analysis/lockset.py",
        "analysis/lockorder.py",
        "analysis/frame.py",
        "analysis/bitfields.py",
        "analysis/ownership.py",
        "analysis/symexec.py",
        "analysis/refinement.py",
        "analysis/differential.py",
        "analysis/scenarios.py",
        "analysis/cli.py",
        "analysis/__main__.py",
        "sim/instrument.py",
    ],
    "observability (tracing/metrics/flight)": [
        "obs/__init__.py",
        "obs/trace.py",
        "obs/metrics.py",
        "obs/flight.py",
        "obs/profile.py",
        "obs/server.py",
    ],
}


@dataclass
class LocEntry:
    category: str
    raw_lines: int
    code_lines: int
    files: int


def count_file(path: Path) -> tuple[int, int]:
    """(raw lines, non-blank non-comment lines)."""
    raw = code = 0
    in_docstring = False
    for line in path.read_text().splitlines():
        raw += 1
        stripped = line.strip()
        if in_docstring:
            if '"""' in stripped:
                in_docstring = False
            continue
        if stripped.startswith('"""') or stripped.startswith("r'''"):
            if stripped.count('"""') < 2:
                in_docstring = True
            continue
        if not stripped or stripped.startswith("#"):
            continue
        code += 1
    return raw, code


def breakdown() -> list[LocEntry]:
    entries = []
    for category, files in CATEGORIES.items():
        raw_total = code_total = present = 0
        for rel in files:
            path = PKG_ROOT / rel
            if not path.exists():
                continue
            raw, code = count_file(path)
            raw_total += raw
            code_total += code
            present += 1
        entries.append(LocEntry(category, raw_total, code_total, present))
    return entries


def spec_vs_impl() -> dict[str, float]:
    """The headline numbers of the paper's spec-size discussion."""
    by_cat = {e.category: e for e in breakdown()}
    impl = by_cat["implementation (pKVM)"].raw_lines
    spec = sum(
        e.raw_lines for c, e in by_cat.items() if c.startswith("spec:")
    )
    return {
        "impl_loc": impl,
        "spec_loc": spec,
        "spec_hypercalls_loc": by_cat["spec: hypercalls and traps"].raw_lines,
        "spec_abstraction_loc": by_cat["spec: abstraction recording"].raw_lines,
        "spec_adt_loc": by_cat["spec: abstract data types"].raw_lines,
        "ratio": spec / impl if impl else 0.0,
    }


def format_table() -> str:
    rows = [(e.category, e.files, e.raw_lines, e.code_lines) for e in breakdown()]
    columns = list(zip(*rows))
    rows.append(("total", *map(sum, columns[1:])))
    lines = [f"{'category':<40} {'files':>5} {'raw':>7} {'code':>7}"]
    for category, files, raw, code in rows:
        lines.append(f"{category:<40} {files:>5} {raw:>7} {code:>7}")
    headline = spec_vs_impl()
    lines.append("")
    lines.append(
        f"spec/impl ratio: {headline['ratio']:.2f} "
        f"(paper: 14000/11000 = 1.27)"
    )
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_table())
