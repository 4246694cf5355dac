"""The differential matrix: the static passes vs. the dynamic oracle.

Revizor-style second-implementation checking (PAPERS.md): the ownership
and refinement passes re-implement, statically, rules the ghost oracle
enforces dynamically, so the two sides must agree on which registry bugs
are real. :data:`MATRIX` has one entry per synthetic bug in
``repro.pkvm.bugs``: the rule each static pass must raise with the bug's
flag assumed on (the flags gate real divergent code in ``repro.pkvm``,
so a pass analyses the buggy arm exactly as the dynamic run executes
it), or the reason no pass can see the bug, and the verdict the oracle
must give when the bug is replayed.

:func:`run_matrix` turns the table into :class:`Row` s, one per bug and
check, each check's clean-tree row first:

- ``ownership`` — the ownership pass raises the entry's rule, and the
  bug's detection scenario (``repro.testing.synthetic.SCENARIOS``)
  replays to the expected oracle verdict;
- ``refinement`` — the refinement pass raises the entry's rule, and
  every trace its findings concretize to replays to the expected
  verdict;
- ``dynamic-only`` — neither pass flags the bug, and its scenario
  replays to the expected verdict, plus, where the entry names one, the
  verdict of the same scenario on a machine without the oracle (the
  IOMMU refcount bug must reach its real ``BUG_ON``).

A clean-tree row agrees when its passes raise nothing; a bug row when
its static side holds and every replay gives its expected verdict. A bug
row that replays nothing does not agree, so a concretization that builds
no trace cannot confirm a finding. With ``dynamic=False`` the replays
are skipped and only the static side is judged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.analysis.ownership import check_ownership
from repro.analysis.refinement import check_refinement, concretize_findings
from repro.machine import Machine
from repro.pkvm.bugs import Bugs
from repro.testing.proxy import HypProxy
from repro.testing.synthetic import SCENARIOS, _run_scenario, oracle_verdict

CLEAN = "<clean>"
CHECKS = ("ownership", "refinement", "dynamic-only")

#: The oracle's verdict on a replayed path-shaped bug.
POST_MISMATCH = "spec-violation:post-mismatch"

#: The seeded IOMMU bug (the jetson-pkvm domain-refcount/init-ordering
#: crash), the one bug a bare machine must also confirm.
IOMMU_BUG = "synth_iommu_refcount_init"


@dataclass(frozen=True)
class Stance:
    """One synthetic bug's entry in the matrix."""

    #: The rule the ownership pass must raise with the flag assumed on.
    ownership: str | None = None
    #: The rule the refinement pass must raise with the flag assumed on.
    refinement: str | None = None
    #: Why neither pass can see the bug ("" when one can).
    dynamic_only: str = ""
    #: The verdict of every replay under the oracle.
    oracle: str = POST_MISMATCH
    #: The verdict of the scenario on a bare machine, when checked.
    bare: str | None = None

    @property
    def checks(self) -> tuple[str, ...]:
        wanted = (self.ownership, self.refinement, self.dynamic_only)
        return tuple(check for check, on in zip(CHECKS, wanted) if on)


#: bug -> its stance. A flagged bug whose designed rule is absent fails:
#: catching the right bug for the wrong reason is a coincidence, not
#: coverage. A new ``synth_*`` flag must take a stance here.
MATRIX: dict[str, Stance] = {
    "synth_share_skip_check": Stance(
        "unchecked-transition", "spec-path-unreachable"
    ),
    "synth_share_skip_hyp_map": Stance("missing-paired-effect", "post-mismatch"),
    "synth_share_wrong_state": Stance("wrong-transition", "post-mismatch"),
    "synth_unshare_leak": Stance("missing-paired-effect", "post-mismatch"),
    "synth_donate_wrong_owner": Stance("wrong-transition", "post-mismatch"),
    "synth_missing_ret_write": Stance("missing-ret-write", "post-mismatch"),
    "synth_teardown_page_leak": Stance(
        dynamic_only="data-dependent: which reclaim iteration skips a page "
        "is a runtime set-membership fact, not a control-flow arm"
    ),
    "synth_fault_off_by_one": Stance(
        dynamic_only="data-dependent: an off-by-one in computed fault "
        "addresses is arithmetic on inputs, invisible to path-shape "
        "analysis",
        oracle="spec-violation:frame-violation",
    ),
    "synth_vttbr_not_restored": Stance(
        dynamic_only="data-dependent: a stale VTTBR value is register "
        "state the path-sensitive interpreter does not model"
    ),
    IOMMU_BUG: Stance(
        dynamic_only="init-ordering: alloc_domain publishes the domain "
        "before its refcount is initialised — the divergence is a missing "
        "data write, not a control-flow arm or page-table op, so neither "
        "the ownership nor the refinement pass sees it; the oracle catches "
        "the refcount post-mismatch at alloc, and the bare machine hits "
        "BUG_ON(!old) at the first domain_get",
        bare="hyp-panic",
    ),
}


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
    """(bug, check) of every row, each check's clean-tree row first."""
    rows = []
    for check in CHECKS:
        rows.append((CLEAN, check))
        rows.extend(
            (bug, check) for bug, stance in MATRIX.items() if check in stance.checks
        )
    return rows


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
    if check != "refinement":
        findings += check_ownership(assume_bugs=assume)
    if check != "ownership":
        findings += check_refinement(assume_bugs=assume)
    rules = tuple(sorted({f.rule for f in findings}))
    if bug == CLEAN:
        return Row(bug, check, rules, None, ())
    stance = MATRIX[bug]
    expected = {"ownership": stance.ownership, "refinement": stance.refinement}
    if check == "refinement":
        traces = concretize_findings(findings, assume_bugs=assume)
        if corpus_dir is not None:
            for trace in traces:
                function = trace.meta["refinement"]["function"]
                (corpus_dir / f"{bug}__{function}.trace").write_text(
                    trace.dumps()
                )
        replays = [
            (stance.oracle, partial(oracle_verdict, trace.replay))
            for trace in traces
        ]
    else:
        replays = [(stance.oracle, lambda: _run_scenario(bug, bug)[1])]
        if stance.bare is not None:
            bare = partial(_bare_scenario, bug)
            replays.append((stance.bare, partial(oracle_verdict, bare)))
    verdicts = tuple((want, run()) for want, run in replays) if dynamic else None
    return Row(bug, check, rules, expected.get(check), verdicts)


def _bare_scenario(bug: str) -> Machine:
    """The bug's detection scenario on a machine without the oracle."""
    _kind, scenario, opts = SCENARIOS[bug]
    machine = Machine(bugs=Bugs.single(bug), **{**opts, "ghost": False})
    scenario(HypProxy(machine))
    return machine


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
