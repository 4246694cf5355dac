"""Symbolic ownership and error-path conformance for hypercall handlers.

The dynamic oracle judges page-ownership transitions one trace at a time;
this pass judges the *code*, all paths at once. It abstractly interprets
the AST of the handlers in ``repro.pkvm.mem_protect`` / ``repro.pkvm.hyp``
and checks every path against the declared transition system
(:data:`repro.ghost.spec.OWNERSHIP_EDGES`, read from the AST by
:func:`~repro.analysis.astutil.read_manifest` and never imported, like
the frame manifests). The path enumeration itself — env
bindings, dominating checks, write effects, held locks, outcome
classification, bug-flag resolution via ``assume_bugs`` — lives in the
shared :mod:`repro.analysis.symexec` interpreter (also the base of the
refinement pass); this module supplies the ownership judgement on top.

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

from repro.analysis.astutil import (
    apply_pragmas,
    iter_functions,
    load_module_ast,
    read_manifest,
)
from repro.analysis.report import Finding
from repro.analysis.symexec import PathInterp, PathState, pass_targets
from repro.ghost.spec import OwnershipRule


# ---------------------------------------------------------------------------
# The ownership judgement over the shared interpreter
# ---------------------------------------------------------------------------


class _FnInterp(PathInterp):
    """Interpret one function's paths, applying every ownership rule.

    Functions named in the manifest get the transition-system rules;
    every function gets lock-coverage at op call sites, the return-code
    write-back rule (``_hcall_*`` / ``_finish_hcall``), and the
    unmanifested-write rule for page-table primitives outside ops.
    """

    analysis = "ownership"

    def __init__(
        self,
        filename: str,
        fn: ast.FunctionDef,
        class_name: str | None,
        rules: dict[str, OwnershipRule],
        assume: frozenset,
    ):
        super().__init__(filename, fn, class_name, assume)
        self.rules = rules
        self.rule = rules.get(fn.name)

    def on_bail(self) -> None:
        self.findings.clear()

    def on_unmanifested_write(
        self, name: str, table: str, node: ast.Call
    ) -> None:
        self._report(
            "unmanifested-write",
            f"{name}() on {table!r} outside any OWNERSHIP_EDGES op "
            f"(page-table writes belong to declared operations)",
            node,
        )

    def on_op_call(self, op: str, node: ast.Call, path: PathState) -> None:
        rule = self.rules[op]
        missing = sorted(set(rule.locks) - set(path.held))
        if missing:
            self._report(
                "unlocked-transition",
                f"call to {op}() without holding declared lock(s) "
                f"{', '.join(missing)} (held: "
                f"{', '.join(path.held) or 'none'})",
                node,
            )

    def on_exit(self, node: ast.AST, path: PathState, outcome: str) -> None:
        if self.rule is not None:
            self._check_op_path(node, path, outcome)
        if self.fn.name.startswith("_hcall_") and not path.finished:
            self._report(
                "missing-ret-write",
                f"{self.fn.name} has a path that never reaches "
                "_finish_hcall (the return code is not written back)",
                node,
            )
        if self.fn.name == "_finish_hcall" and not path.wrote_regs:
            self._report(
                "missing-ret-write",
                "_finish_hcall has a path that never stores the return "
                "registers (the write-back must happen on all paths)",
                node,
            )

    def _check_op_path(
        self, node: ast.AST, path: PathState, outcome: str
    ) -> None:
        rule = self.rule
        assert rule is not None
        applied = [w for w in path.writes if w.happened]
        for write in applied:
            success = rule.success.get(write.table)
            rollback = rule.rollback.get(write.table)
            if success is None and rollback is None:
                self._report(
                    "undeclared-transition",
                    f"{self.fn.name} writes table {write.table!r} "
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
                self._report(
                    "wrong-transition",
                    f"{self.fn.name} applies {write.effect} to "
                    f"{write.table}, but the declared "
                    f"{'effects are' if len(allowed) > 1 else 'effect is'} "
                    f"{', '.join(sorted(allowed))} "
                    f"({outcome} path)",
                    write,
                )
            needed = rule.checks.get(write.table)
            if needed is not None and (write.table, needed) not in write.checks:
                self._report(
                    "unchecked-transition",
                    f"{self.fn.name} writes {write.table} without first "
                    f"verifying its state is {needed} (declared check "
                    "not on this path)",
                    write,
                )
        if outcome in ("success", "maybe") and rule.paired and applied:
            touched = {w.table for w in applied}
            paired = set(rule.paired)
            if touched & paired and not paired <= touched:
                missing = sorted(paired - touched)
                anchor = applied[0]
                self._report(
                    "missing-paired-effect",
                    f"{self.fn.name} has a {outcome} path touching "
                    f"{', '.join(sorted(touched & paired))} but not "
                    f"paired table(s) {', '.join(missing)} "
                    "(both halves must land together)",
                    anchor,
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
        for fn, class_name in iter_functions(module.tree):
            interp = _FnInterp(module.path, fn, class_name, rules, assume)
            interp.run()
            module_findings.extend(interp.findings)
        # Paths re-derive the same violation; findings are value objects,
        # so dedupe structurally before pragma filtering.
        deduped = sorted(set(module_findings), key=Finding.sort_key)
        findings.extend(apply_pragmas(deduped, module.path, module.source))
    return findings
