"""Symbolic ownership and error-path conformance for hypercall handlers.

The dynamic oracle judges page-ownership transitions one trace at a time;
this pass judges the *code*, all paths at once. It abstractly interprets
the AST of the handlers in ``repro.pkvm.mem_protect`` / ``repro.pkvm.hyp``
and checks every path against the declared transition system
(:data:`repro.ghost.spec.OWNERSHIP_EDGES`, read from the AST by
:func:`~repro.analysis.astutil.read_manifest` and never imported, like
the frame manifests). The path enumeration itself — env
bindings, dominating checks, write effects, held locks, outcome
classification, bug-flag resolution via ``assume_bugs`` — is a
:class:`~repro.analysis.symexec.PathRecord` per function, the kind of
record the refinement pass judges too; this module's rules are
functions over it.

Rules (SARIF ids ``ownership/<rule>``):

- ``unchecked-transition`` — a write to a table whose declared
  ``checks[table]`` state was never verified on this path;
- ``wrong-transition`` — an effect that is not the declared success
  effect (or, on error paths, the declared rollback) for its table;
- ``undeclared-transition`` — a write to a table the op's rule does not
  mention at all;
- ``missing-paired-effect`` — a success(-like) path applies one half of
  a declared effect pair but not the other (share/unshare must touch
  host stage 2 *and* hyp stage 1);
- ``unlocked-transition`` — a call site invokes a declared op without
  holding its declared locks;
- ``missing-ret-write`` — a ``_hcall_*`` path that never reaches
  ``_finish_hcall``, or a ``_finish_hcall`` path that never stores the
  return registers (the write-back must happen on *all* paths);
- ``unmanifested-write`` — a page-table write primitive called outside
  any declared op (boot-time init sites carry
  ``# analysis: allow[unmanifested-write]`` pragmas);
- ``manifest-parse`` — ``OWNERSHIP_EDGES`` hygiene.

Like the lock-discipline pass, which runs on the same interpreter, it
covers explicit control flow only (if/loops/try-finally, loop bodies
0-or-1 times) and bails on path explosion rather than analyse
imprecisely.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.astutil import apply_pragmas, load_module_ast, read_manifest
from repro.analysis.report import Finding
from repro.analysis.symexec import Exit, PathRecord, Write, pass_targets
from repro.ghost.spec import OwnershipRule


# ---------------------------------------------------------------------------
# The ownership judgement over one function's path record
# ---------------------------------------------------------------------------


def _judge(record: PathRecord, rules: dict[str, OwnershipRule]) -> list[Finding]:
    """Every ownership finding in one recorded function.

    A function named in the manifest gets the transition-system rules
    on each exit; every function gets lock coverage at its op call
    sites, the return-code write-back rule (``_hcall_*`` /
    ``_finish_hcall``), and the unmanifested-write rule for page-table
    primitives outside ops. A function past the path budget reports
    nothing.
    """
    if record.bailed:
        return []
    name = record.fn.name
    findings: list[Finding] = []

    def report(rule: str, message: str, at: ast.AST | Write) -> None:
        if isinstance(at, Write):
            line, column = at.line, at.column
        else:
            line, column = at.lineno, at.col_offset + 1
        findings.append(
            Finding(
                analysis="ownership",
                rule=rule,
                message=message,
                file=record.filename,
                line=line,
                function=name,
                column=column,
            )
        )

    for primitive, write in record.stray_writes:
        report(
            "unmanifested-write",
            f"{primitive}() on {write.table!r} outside any OWNERSHIP_EDGES op "
            f"(page-table writes belong to declared operations)",
            write,
        )
    for call in record.op_calls:
        missing = sorted(set(rules[call.op].locks) - set(call.held))
        if missing:
            report(
                "unlocked-transition",
                f"call to {call.op}() without holding declared lock(s) "
                f"{', '.join(missing)} (held: "
                f"{', '.join(call.held) or 'none'})",
                call.node,
            )
    rule = rules.get(name)
    for path in record.exits:
        if rule is not None:
            _check_op_path(name, rule, path, report)
        if name.startswith("_hcall_") and not path.finished:
            report(
                "missing-ret-write",
                f"{name} has a path that never reaches "
                "_finish_hcall (the return code is not written back)",
                path.node,
            )
        if name == "_finish_hcall" and not path.wrote_regs:
            report(
                "missing-ret-write",
                "_finish_hcall has a path that never stores the return "
                "registers (the write-back must happen on all paths)",
                path.node,
            )
    return findings


def _check_op_path(name: str, rule: OwnershipRule, path: Exit, report) -> None:
    """The transition-system rules on one path exit of the op ``name``."""
    outcome = path.outcome
    for write in path.writes:
        success = rule.success.get(write.table)
        rollback = rule.rollback.get(write.table)
        if success is None and rollback is None:
            report(
                "undeclared-transition",
                f"{name} writes table {write.table!r} "
                f"({write.effect}), which its OwnershipRule does not "
                "declare",
                write,
            )
            continue
        allowed = {success}
        if outcome == "error":
            allowed.add(rollback)
        allowed.discard(None)
        if write.effect not in allowed:
            report(
                "wrong-transition",
                f"{name} applies {write.effect} to "
                f"{write.table}, but the declared "
                f"{'effects are' if len(allowed) > 1 else 'effect is'} "
                f"{', '.join(sorted(allowed))} "
                f"({outcome} path)",
                write,
            )
        needed = rule.checks.get(write.table)
        if needed is not None and (write.table, needed) not in write.checks:
            report(
                "unchecked-transition",
                f"{name} writes {write.table} without first "
                f"verifying its state is {needed} (declared check "
                "not on this path)",
                write,
            )
    if outcome in ("success", "maybe") and rule.paired and path.writes:
        touched = {w.table for w in path.writes}
        paired = set(rule.paired)
        if touched & paired and not paired <= touched:
            missing = sorted(paired - touched)
            report(
                "missing-paired-effect",
                f"{name} has a {outcome} path touching "
                f"{', '.join(sorted(touched & paired))} but not "
                f"paired table(s) {', '.join(missing)} "
                "(both halves must land together)",
                path.writes[0],
            )


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


def check_ownership(
    pkvm_root_path: str | Path | None = None,
    spec_path: str | Path | None = None,
    *,
    assume_bugs: frozenset | set = frozenset(),
) -> list[Finding]:
    """Run the ownership pass.

    Defaults to the installed ``repro.pkvm`` handlers with the manifest
    from ``repro.ghost.spec``. Pointing ``pkvm_root_path`` at a single
    file analyses just it; if no ``spec_path`` is given in that mode the
    manifest is parsed from the same file, so self-contained fixtures
    (and unmerged handler modules) can be vetted without importing them.
    ``assume_bugs`` names the ``Bugs`` flags taken as true when
    resolving gate conditions — the differential matrix's lever.

    With no explicit paths, every registered subsystem is analysed: its
    handler modules against its own spec module's manifest.
    """
    assume = frozenset(assume_bugs)
    findings: list[Finding] = []
    for files, manifest_file in pass_targets(pkvm_root_path, spec_path):
        findings.extend(_check_ownership_files(files, manifest_file, assume))
    return findings


def _check_ownership_files(
    files: list[Path], manifest_file: Path, assume: frozenset
) -> list[Finding]:
    rules, _lines, findings = read_manifest(
        load_module_ast(manifest_file),
        "OWNERSHIP_EDGES",
        "ownership",
        OwnershipRule,
    )
    for file_path in files:
        module = load_module_ast(file_path)
        module_findings: list[Finding] = []
        for fn, class_name in module.functions:
            record = PathRecord(module.path, fn, class_name, assume, rules)
            record.run()
            module_findings.extend(_judge(record, rules))
        # Paths re-derive the same violation; findings are value objects,
        # so dedupe structurally before pragma filtering.
        deduped = sorted(set(module_findings), key=Finding.sort_key)
        findings.extend(apply_pragmas(deduped, module))
    return findings
