"""The differential matrix: the static passes vs. the dynamic oracle.

Revizor-style second-implementation checking (PAPERS.md): the ownership
and refinement passes re-implement, statically, rules the ghost oracle
enforces dynamically, so the two sides must agree on which registry bugs
are real. :data:`MATRIX` has one entry per bug in ``repro.pkvm.bugs``,
the paper's five and the synthetic ones: the bug's detection scenario
(``repro.testing.synthetic``), the rule each static pass must raise with
the bug's flag assumed on (the flags gate real divergent code in
``repro.pkvm``, so a pass analyses the buggy arm exactly as the dynamic
run executes it) or the reason no pass can see the bug, and the verdict
the scenario must give with the bug injected. It is also the source of
the bug-finding results (E8/E9).

:func:`run_matrix` turns the table into :class:`Row` s, one per bug and
check, each check's clean-tree row first:

- ``ownership`` — the ownership pass raises the entry's rule, and the
  bug's detection scenario replays to the expected verdict;
- ``refinement`` — the refinement pass raises the entry's rule, and
  every trace its findings concretize to replays to the expected
  verdict;
- ``dynamic-only`` — neither pass flags the bug, and its scenario
  replays to the expected verdict, plus, where the entry names one, the
  verdict of the same scenario on a machine without the oracle (the
  IOMMU refcount bug must reach its real ``BUG_ON``);
- ``fixed`` — last, one row per bug with no static side: its scenario
  replays ``clean`` on the fixed hypervisor.

A clean-tree row agrees when its passes raise nothing; a bug row when
its static side holds and every replay gives its expected verdict. A bug
row that replays nothing does not agree, so a concretization that builds
no trace cannot confirm a finding. With ``dynamic=False`` the replays
are skipped and only the static side is judged. Every scenario runs
through :func:`repro.testing.harness.run_one`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

from repro.analysis.ownership import check_ownership
from repro.analysis.refinement import check_refinement, concretize_findings
from repro.pkvm.bugs import Bugs
from repro.testing import synthetic
from repro.testing.harness import TestCase, oracle_verdict, run_one

CLEAN = "<clean>"
CHECKS = ("ownership", "refinement", "dynamic-only")
#: The check of the rows that replay each scenario on the fixed hypervisor.
FIXED = "fixed"

#: The oracle's verdict on a replayed path-shaped bug.
POST_MISMATCH = "spec-violation:post-mismatch"

#: The seeded IOMMU bug (the jetson-pkvm domain-refcount/init-ordering
#: crash), the one bug a bare machine must also confirm.
IOMMU_BUG = "synth_iommu_refcount_init"


@dataclass(frozen=True)
class Entry:
    """One registry bug's entry in the matrix."""

    #: The bug's detection scenario; it must replay ``clean`` with the
    #: bug's flag off.
    test: TestCase
    #: The rule the ownership pass must raise with the flag assumed on.
    ownership: str | None = None
    #: The rule the refinement pass must raise with the flag assumed on.
    refinement: str | None = None
    #: Why neither pass can see the bug ("" when one can).
    dynamic_only: str = ""
    #: The verdict of the scenario with the bug injected, and of every
    #: concretized trace.
    oracle: str = POST_MISMATCH
    #: The verdict of the scenario on a bare machine, when checked.
    bare: str | None = None

    @property
    def checks(self) -> tuple[str, ...]:
        wanted = (self.ownership, self.refinement, self.dynamic_only)
        return tuple(check for check, on in zip(CHECKS, wanted) if on)


#: bug -> its entry, in registry order. A flagged bug whose designed rule
#: is absent fails: catching the right bug for the wrong reason is a
#: coincidence, not coverage. Every ``Bugs`` flag must have an entry
#: (:func:`plan` raises ``KeyError`` for one without), and being keyword
#: arguments, none can have two.
MATRIX: dict[str, Entry] = dict(
    memcache_alignment=Entry(
        synthetic.TOPUP_UNALIGNED,
        dynamic_only="data-dependent: the dropped check is on the low bits "
        "of an address the topup handler reads from host memory",
    ),
    memcache_overflow=Entry(
        synthetic.TOPUP_HUGE,
        dynamic_only="arithmetic: a signed overflow of a host-supplied "
        "count is a value fact path-shape analysis does not model",
        oracle="spec-violation:frame-violation",
    ),
    vcpu_load_race=Entry(
        synthetic.VCPU_RACE,
        dynamic_only="concurrency: only a vcpu_load interleaved on another "
        "CPU sees the half-initialised vCPU; the passes see one CPU",
        oracle="hyp-panic",
    ),
    host_fault_fragile=Entry(
        synthetic.FAULTS_SAME_PAGE,
        dynamic_only="concurrency: the panic arm needs another CPU to map "
        "the faulting page first, and a panic is no ownership transition",
        oracle="hyp-panic",
    ),
    linear_map_overlap=Entry(
        synthetic.BIG_DRAM_BOOT,
        dynamic_only="boot geometry: the overlap depends on the DRAM size "
        "at initialisation, not on any hypercall handler's path",
        oracle="spec-violation:init-invariant",
    ),
    synth_share_skip_check=Entry(
        synthetic.SHARE, "unchecked-transition", "spec-path-unreachable"
    ),
    synth_share_skip_hyp_map=Entry(
        synthetic.SHARE, "missing-paired-effect", "post-mismatch"
    ),
    synth_share_wrong_state=Entry(
        synthetic.SHARE, "wrong-transition", "post-mismatch"
    ),
    synth_unshare_leak=Entry(
        synthetic.UNSHARE, "missing-paired-effect", "post-mismatch"
    ),
    synth_donate_wrong_owner=Entry(
        synthetic.VM_CREATE, "wrong-transition", "post-mismatch"
    ),
    synth_missing_ret_write=Entry(
        synthetic.ERROR_RET, "missing-ret-write", "post-mismatch"
    ),
    synth_teardown_page_leak=Entry(
        synthetic.TEARDOWN,
        dynamic_only="data-dependent: which reclaim iteration skips a page "
        "is a runtime set-membership fact, not a control-flow arm",
    ),
    synth_fault_off_by_one=Entry(
        synthetic.FAULT_ADJACENT,
        dynamic_only="data-dependent: an off-by-one in computed fault "
        "addresses is arithmetic on inputs, invisible to path-shape "
        "analysis",
        oracle="spec-violation:frame-violation",
    ),
    synth_vttbr_not_restored=Entry(
        synthetic.GUEST_RUN,
        dynamic_only="data-dependent: a stale VTTBR value is register "
        "state the path-sensitive interpreter does not model",
    ),
    synth_iommu_refcount_init=Entry(
        synthetic.IOMMU_LIFECYCLE,
        dynamic_only="init-ordering: alloc_domain publishes the domain "
        "before its refcount is initialised — the divergence is a missing "
        "data write, not a control-flow arm or page-table op, so neither "
        "the ownership nor the refinement pass sees it; the oracle catches "
        "the refcount post-mismatch at alloc, and the bare machine hits "
        "BUG_ON(!old) at the first domain_get",
        bare="hyp-panic",
    ),
)


@dataclass(frozen=True)
class Row:
    """One (bug, check) verdict; ``bug`` is :data:`CLEAN` for the
    clean-tree row of a check."""

    bug: str
    check: str
    #: The rules the check's static passes raised.
    rules: tuple[str, ...]
    #: The rule they must raise; None: they must raise nothing.
    expected: str | None
    #: (expected, actual) oracle verdict per replay; None when skipped.
    replays: tuple[tuple[str, str], ...] | None

    @property
    def agree(self) -> bool:
        static = self.expected in self.rules if self.expected else not self.rules
        if self.bug == CLEAN or self.replays is None:
            return static
        return (
            static
            and bool(self.replays)
            and all(want == got for want, got in self.replays)
        )


def plan() -> list[tuple[str, str]]:
    """(bug, check) of every row: each check's clean-tree row, then its
    bug rows; last, every bug's :data:`FIXED` row."""
    bugs = [f.name for f in fields(Bugs)]
    rows = []
    for check in CHECKS:
        rows.append((CLEAN, check))
        rows.extend((bug, check) for bug in bugs if check in MATRIX[bug].checks)
    return rows + [(bug, FIXED) for bug in bugs]


def run_matrix(
    rows: list[tuple[str, str]] | None = None,
    *,
    dynamic: bool = True,
    corpus_dir: str | Path | None = None,
) -> list[Row]:
    """Run ``rows`` (default: the whole :func:`plan`).

    ``dynamic=False`` skips the oracle replays. ``corpus_dir`` also
    writes every concretized refinement trace there as
    ``<bug>__<function>.trace``, a corpus campaigns ingest via
    ``--seed-corpus``.
    """
    if corpus_dir is not None:
        corpus_dir = Path(corpus_dir)
        corpus_dir.mkdir(parents=True, exist_ok=True)
    return [
        _run_row(bug, check, dynamic, corpus_dir)
        for bug, check in (plan() if rows is None else rows)
    ]


def _run_row(bug: str, check: str, dynamic: bool, corpus_dir) -> Row:
    assume = frozenset() if bug == CLEAN else frozenset({bug})
    findings = []
    if check in ("ownership", "dynamic-only"):
        findings += check_ownership(assume_bugs=assume)
    if check in ("refinement", "dynamic-only"):
        findings += check_refinement(assume_bugs=assume)
    rules = tuple(sorted({f.rule for f in findings}))
    if bug == CLEAN:
        return Row(bug, check, rules, None, ())
    entry = MATRIX[bug]
    expected = {"ownership": entry.ownership, "refinement": entry.refinement}

    def verdict(**options) -> str:
        return run_one(entry.test, **options).verdict

    if check == FIXED:
        replays = [("clean", verdict)]
    elif check == "refinement":
        traces = concretize_findings(findings, assume_bugs=assume)
        if corpus_dir is not None:
            for trace in traces:
                function = trace.meta["refinement"]["function"]
                (corpus_dir / f"{bug}__{function}.trace").write_text(
                    trace.dumps()
                )
        replays = [
            (entry.oracle, partial(oracle_verdict, trace.replay))
            for trace in traces
        ]
    else:
        injected = Bugs.single(bug)
        replays = [(entry.oracle, partial(verdict, bugs=injected))]
        if entry.bare is not None:
            replays.append((entry.bare, partial(verdict, bugs=injected, ghost=False)))
    verdicts = tuple((want, run()) for want, run in replays) if dynamic else None
    return Row(bug, check, rules, expected.get(check), verdicts)


def detections(rows: list[Row]) -> dict[str, tuple[str, str]]:
    """E8/E9 read off ``rows``: bug -> the verdicts of its scenario with
    the bug injected (the first replay of its first check's row) and on
    the fixed hypervisor, for every bug whose :data:`FIXED` row ran."""
    got = {(r.bug, r.check): r.replays[0][1] for r in rows if r.replays}
    return {
        bug: (got[bug, entry.checks[0]], got[bug, FIXED])
        for bug, entry in MATRIX.items()
        if (bug, FIXED) in got
    }


def differential_ok(rows: list[Row]) -> bool:
    return all(row.agree for row in rows)


def format_matrix(rows: list[Row]) -> str:
    """One fixed-width line per row."""
    lines = [
        f"{'bug':<26} {'check':<12} {'rules':<22} {'expected':<22} "
        f"{'oracle':<40} agree"
    ]
    for r in rows:
        if r.replays is None:
            oracle = "skipped"
        else:
            oracle = ", ".join(got for _want, got in r.replays) or "-"
        lines.append(
            f"{r.bug:<26} {r.check:<12} {', '.join(r.rules) or '-':<22} "
            f"{r.expected or '-':<22} {oracle:<40} {'YES' if r.agree else 'NO'}"
        )
    return "\n".join(lines)


# The three harnesses the matrix replaced, as row selections: each runs
# exactly the rows it ran before, and each is judged by differential_ok.


def run_differential(*, dynamic: bool = True) -> list[Row]:
    """The ownership rows."""
    return run_matrix(
        [row for row in plan() if row[1] == "ownership"], dynamic=dynamic
    )


def run_refinement_differential(
    *, dynamic: bool = True, corpus_dir: str | Path | None = None
) -> list[Row]:
    """The refinement rows."""
    return run_matrix(
        [row for row in plan() if row[1] == "refinement"],
        dynamic=dynamic,
        corpus_dir=corpus_dir,
    )


def run_iommu_differential(*, dynamic: bool = True) -> list[Row]:
    """The IOMMU bug's row and its clean-tree row."""
    return run_matrix(
        [(CLEAN, "dynamic-only"), (IOMMU_BUG, "dynamic-only")], dynamic=dynamic
    )


refinement_differential_ok = iommu_differential_ok = differential_ok
