"""Symbolic refinement: handler paths vs. their declared ``compute_post``.

Every earlier pass checks a *projection* of the oracle spec (frames, PTE
layouts, ownership transitions). This pass — number seven — checks the
handlers against the spec itself, in the two-implementations-one-referee
style of contract testing: bounded symbolic execution enumerates each
hypercall handler's paths into a
:class:`~repro.analysis.symexec.PathRecord` (the ownership pass judges
the same kind of record), and each path's symbolic post-state is compared
against a statically-extracted summary of the ``compute_post`` function
the :data:`REFINEMENT_SPECS` manifest in ``repro.ghost.spec`` pairs it
with. The manifest is parsed from the AST and never imported, like the
frame and ownership manifests.

Three summaries are compared per pair:

- **return labels** — the set of literal return codes each side can
  produce, pruned path-sensitively through ``self.bugs.<flag>`` gates.
  A spec label no handler path can return is ``spec-path-unreachable``;
  a handler label the spec never declares is ``handler-path-unspecified``
  (``-ENOMEM`` is exempt for hypercalls in the spec's ``OOM_PERMITTED``
  set — the spec skips those runs rather than model allocator pressure);
- **ghost effects** — the page-table writes of every *success* path,
  translated through :data:`GHOST_OF` into ghost-maplet mutations and
  compared with the ``g_post.<path>.insert/remove`` calls of the spec.
  A missing or extra mutation is ``post-mismatch``;
- **the return-register write-back** — a spec that assigns
  ``...regs = ...`` (the epilogue) requires every non-panic handler path
  to store the return registers; a path that does not is
  ``post-mismatch``.

A handler whose path count exceeds the symbolic budget reports
``symbolic-timeout`` instead of analysing imprecisely.

Findings are *concretized* by :func:`concretize_findings`: each flagged
handler's path condition is solved to a concrete hypercall
:class:`~repro.testing.trace.Trace` the differential matrix replays
through the dynamic ghost oracle to confirm the finding, and which
campaigns ingest as a seed corpus.

All rules but ``manifest-parse`` honour ``# analysis: allow[rule] reason``
pragmas: a broken manifest is not suppressible.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.astutil import (
    access_path,
    apply_pragmas,
    load_module_ast,
    read_manifest,
)
from repro.analysis.report import Finding
from repro.analysis.symexec import (
    WRITE_CALLS,
    PathRecord,
    pass_targets,
    resolve_condition,
)

#: The "any value" return label: a pass-through of an unmodelled callee.
TOP = "<top>"

#: Return-value contracts of the page-table primitives the handlers call.
#: ``check_page_state`` documents exactly {0, -EPERM}; the write
#: primitives pass allocator/walker errors through, so they stay TOP.
PRIMITIVE_RETURNS: dict[str, frozenset[str]] = {
    "check_page_state": frozenset({"0", "-EPERM"}),
}

#: Handler -> the HypercallId name it implements, for the OOM_PERMITTED
#: exemption (``do_donate_hyp`` is the init_vm donation path).
HANDLER_HCALLS = {
    "do_share_hyp": "HOST_SHARE_HYP",
    "do_unshare_hyp": "HOST_UNSHARE_HYP",
    "do_donate_hyp": "INIT_VM",
}

#: (table, effect) of a handler page-table write -> the ghost-maplet
#: mutation ``compute_post`` declares for it: (access path under
#: ``g_post``, method, state/owner label or None). Restoring the host's
#: default ownership (map:OWNED on host stage 2, set_owner:HOST) spells
#: *removal* of the explicit maplet.
GHOST_OF: dict[tuple[str, str], tuple[str, str, str | None]] = {
    ("host_mmu", "map:SHARED_OWNED"): ("host.shared", "insert", "SHARED_OWNED"),
    ("host_mmu", "map:SHARED_BORROWED"): (
        "host.shared", "insert", "SHARED_BORROWED",
    ),
    ("host_mmu", "map:OWNED"): ("host.shared", "remove", None),
    ("host_mmu", "set_owner:HYP"): ("host.annot", "insert", "HYP"),
    ("host_mmu", "set_owner:GUEST"): ("host.annot", "insert", "GUEST"),
    ("host_mmu", "set_owner:HOST"): ("host.annot", "remove", None),
    ("pkvm_pgd", "map:OWNED"): ("pkvm.pgt.mapping", "insert", "OWNED"),
    ("pkvm_pgd", "map:SHARED_BORROWED"): (
        "pkvm.pgt.mapping", "insert", "SHARED_BORROWED",
    ),
    ("pkvm_pgd", "unmap"): ("pkvm.pgt.mapping", "remove", None),
    ("iommu", "map:SHARED_BORROWED"): (
        "iommu.domains.*.pgt.mapping", "insert", "SHARED_BORROWED",
    ),
    ("iommu", "unmap"): ("iommu.domains.*.pgt.mapping", "remove", None),
}


# ---------------------------------------------------------------------------
# Return-label extraction (both sides of the refinement)
# ---------------------------------------------------------------------------


class _ReturnLabeler:
    """The set of literal return codes a function can produce.

    A flow-insensitive-with-pruning walk: assignments accumulate a
    name -> labels environment top-down, ``self.bugs.<flag>`` branches
    are pruned via :func:`resolve_condition` under ``assume``, and
    return expressions map to labels — integer literals to their value,
    ``-ERRNO`` names to ``"-ERRNO"``, calls to their contract
    (:data:`PRIMITIVE_RETURNS`, write primitives as :data:`TOP`
    pass-throughs, the spec's ``_result(...)`` to the labels of its
    ``ret`` argument, same-module functions recursively). Anything not
    modelled is :data:`TOP`, which never satisfies a literal obligation.
    """

    def __init__(self, fns: dict[str, ast.FunctionDef], assume: frozenset):
        self.fns = fns
        self.assume = assume
        self._memo: dict[str, frozenset[str]] = {}
        self._walking: set[str] = set()

    def labels(self, name: str) -> frozenset[str]:
        if name in self._memo:
            return self._memo[name]
        fn = self.fns.get(name)
        if fn is None or name in self._walking:
            return frozenset()
        self._walking.add(name)
        out: set[str] = set()
        self._walk(fn.body, {}, out)
        self._walking.discard(name)
        self._memo[name] = frozenset(out)
        return self._memo[name]

    # -- expressions -------------------------------------------------------

    def _expr(self, node: ast.expr, env: dict[str, set[str]]) -> set[str]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                return {TOP}
            return {str(node.value)}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = node.operand
            if isinstance(inner, ast.Name) and inner.id.isupper():
                return {f"-{inner.id}"}
            if isinstance(inner, ast.Constant) and isinstance(inner.value, int):
                return {str(-inner.value)}
            return {TOP}
        if isinstance(node, ast.Name):
            return set(env.get(node.id, {TOP}))
        if isinstance(node, ast.IfExp):
            resolved = resolve_condition(node.test, self.assume)
            if resolved is True:
                return self._expr(node.body, env)
            if resolved is False:
                return self._expr(node.orelse, env)
            return self._expr(node.body, env) | self._expr(node.orelse, env)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        return {TOP}

    def _call(self, node: ast.Call, env: dict[str, set[str]]) -> set[str]:
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            return {TOP}
        if name == "_result" and len(node.args) >= 5:
            # The spec's exit helper: its observable return code is the
            # ``ret`` argument (position 4).
            return self._expr(node.args[4], env)
        if name in PRIMITIVE_RETURNS:
            return set(PRIMITIVE_RETURNS[name])
        if name in WRITE_CALLS:
            return {TOP}
        if name in self.fns:
            return set(self.labels(name))
        return {TOP}

    # -- statements --------------------------------------------------------

    def _walk(
        self,
        stmts: list[ast.stmt],
        env: dict[str, set[str]],
        out: set[str],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                value = self._expr(stmt.value, env)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = value
                    else:
                        for name_node in ast.walk(target):
                            if isinstance(name_node, ast.Name):
                                env[name_node.id] = {TOP}
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                    env[stmt.target.id] = self._expr(stmt.value, env)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    env[stmt.target.id] = {TOP}
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None and not (
                    isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None
                ):
                    out |= self._expr(stmt.value, env)
            elif isinstance(stmt, ast.If):
                resolved = resolve_condition(stmt.test, self.assume)
                if resolved is True:
                    self._walk(stmt.body, env, out)
                elif resolved is False:
                    self._walk(stmt.orelse, env, out)
                else:
                    self._walk(stmt.body, dict(env), out)
                    self._walk(stmt.orelse, dict(env), out)
            elif isinstance(stmt, (ast.For, ast.While)):
                self._walk(stmt.body, env, out)
                self._walk(stmt.orelse, env, out)
            elif isinstance(stmt, ast.With):
                self._walk(stmt.body, env, out)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, env, out)
                for handler in stmt.handlers:
                    self._walk(handler.body, dict(env), out)
                self._walk(stmt.orelse, env, out)
                self._walk(stmt.finalbody, env, out)


# ---------------------------------------------------------------------------
# Post-state extraction
# ---------------------------------------------------------------------------


def _spec_effects(fn: ast.FunctionDef) -> frozenset[tuple[str, str, str | None]]:
    """The ghost-maplet mutations a spec function applies to ``g_post``.

    The pragmatic specs apply their success effects in straight line
    after the early-error returns (SPEC_GUIDE.md documents this as what
    the refinement pass assumes), so a flat walk collects exactly the
    success post-state: every ``g_post.<path>.insert/remove(...)`` call,
    labelled by the first ``PageState`` / ``OwnerId`` attribute among
    its arguments (inserts) or by nothing (removes).
    """
    effects: set[tuple[str, str, str | None]] = set()
    for node in ast.walk(fn):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("insert", "remove")
        ):
            continue
        resolved = access_path(node.func.value)
        if resolved is None or resolved[0] != "g_post" or not resolved[1]:
            continue
        path = ".".join(resolved[1])
        label: str | None = None
        if node.func.attr == "insert":
            for arg in node.args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Attribute):
                        sub_path = access_path(sub)
                        if sub_path and sub_path[0] in ("PageState", "OwnerId"):
                            label = sub_path[1][-1]
                            break
                if label is not None:
                    break
        effects.add((path, node.func.attr, label))
    return frozenset(effects)


def _spec_writes_regs(fn: ast.FunctionDef) -> bool:
    """Whether the spec function stores the return registers
    (an assignment whose target is a ``.regs`` attribute)."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and target.attr == "regs":
                    return True
    return False


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


def _finding(rule, message, file, line, function, column=0) -> Finding:
    return Finding(
        analysis="refinement",
        rule=rule,
        message=message,
        file=file,
        line=line,
        function=function,
        column=column,
    )


def _check_pair(
    handler: ast.FunctionDef,
    class_name: str | None,
    spec_fn: ast.FunctionDef,
    module_path: str,
    assume: frozenset,
    handler_labeler: _ReturnLabeler,
    spec_labeler: _ReturnLabeler,
    oom_names: frozenset[str],
    stats: dict,
) -> list[Finding]:
    findings: list[Finding] = []

    # 1. Return-label refinement.
    spec_labels = spec_labeler.labels(spec_fn.name)
    handler_labels = handler_labeler.labels(handler.name)
    spec_literals = {lab for lab in spec_labels if lab != TOP}
    handler_literals = {lab for lab in handler_labels if lab != TOP}
    if spec_literals:
        for lab in sorted(spec_literals - handler_literals):
            findings.append(
                _finding(
                    "spec-path-unreachable",
                    f"{spec_fn.name} declares return code {lab}, but no "
                    f"path of {handler.name} can return it (dead spec "
                    "path, or a check the handler lost)",
                    module_path,
                    handler.lineno,
                    handler.name,
                )
            )
        if TOP not in spec_labels:
            hcall = HANDLER_HCALLS.get(handler.name)
            for lab in sorted(handler_literals - spec_literals):
                if lab == "-ENOMEM" and hcall in oom_names:
                    continue  # the spec skips OOM-permitted runs instead
                findings.append(
                    _finding(
                        "handler-path-unspecified",
                        f"{handler.name} can return {lab}, which "
                        f"{spec_fn.name} never declares (the oracle has "
                        "no verdict for this path)",
                        module_path,
                        handler.lineno,
                        handler.name,
                    )
                )

    # 2. Symbolic execution of the handler's paths.
    record = PathRecord(module_path, handler, class_name, assume)
    record.run()
    if record.bailed:
        stats["timeouts"] += 1
        findings.append(
            _finding(
                "symbolic-timeout",
                f"{handler.name} exceeded the symbolic path budget; its "
                "post-state was not checked (split the function or allow "
                "with a reason)",
                module_path,
                handler.lineno,
                handler.name,
            )
        )
        return findings
    stats["paths_explored"] += len(record.exits)
    return findings + _post_findings(record, spec_fn)


def _post_findings(record: PathRecord, spec_fn: ast.FunctionDef) -> list[Finding]:
    """The handler's recorded exits against the spec's post-state: the
    ghost effects of each success path, and the return-register
    write-back on every path when the spec stores the registers."""
    handler = record.fn
    findings: list[Finding] = []
    spec_effects = _spec_effects(spec_fn)
    for path in record.exits:
        if path.outcome != "success":
            continue
        # The path's page-table writes, as ghost mutations.
        got = {GHOST_OF.get((w.table, w.effect)) for w in path.writes} - {None}
        for ghost_path, op, label in sorted(
            spec_effects - got, key=lambda e: (e[0], e[1], e[2] or "")
        ):
            what = f"{op}({label})" if label else f"{op}()"
            findings.append(
                _finding(
                    "post-mismatch",
                    f"a success path of {handler.name} never applies the "
                    f"declared g_post.{ghost_path}.{what} (spec effect missing "
                    "from the code)",
                    record.filename,
                    path.node.lineno,
                    handler.name,
                )
            )
        extra = got - spec_effects
        for write in path.writes:
            ghost = GHOST_OF.get((write.table, write.effect))
            if ghost not in extra:
                continue
            ghost_path, op, label = ghost
            what = f"{op}({label})" if label else f"{op}()"
            findings.append(
                _finding(
                    "post-mismatch",
                    f"a success path of {handler.name} applies "
                    f"g_post.{ghost_path}.{what} ({write.effect} on "
                    f"{write.table}), which {spec_fn.name} does not "
                    "declare",
                    record.filename,
                    write.line,
                    handler.name,
                    write.column,
                )
            )
    if _spec_writes_regs(spec_fn):
        for path in record.exits:
            if not path.wrote_regs:
                findings.append(
                    _finding(
                        "post-mismatch",
                        f"{spec_fn.name} stores the return registers, but "
                        f"{handler.name} has a path that exits without "
                        "writing them back",
                        record.filename,
                        path.node.lineno,
                        handler.name,
                    )
                )
    return findings


def check_refinement(
    pkvm_root_path: str | Path | None = None,
    spec_path: str | Path | None = None,
    *,
    assume_bugs: frozenset | set = frozenset(),
    stats: dict | None = None,
) -> list[Finding]:
    """Run the refinement pass.

    Defaults to the installed ``repro.pkvm`` handlers against the
    ``REFINEMENT_SPECS`` manifest (and spec functions) of
    ``repro.ghost.spec``. Pointing ``pkvm_root_path`` at a single file
    analyses just it, taking the manifest and spec functions from the
    same file unless ``spec_path`` overrides — so self-contained
    fixtures are vetted without being imported. ``assume_bugs`` names
    the ``Bugs`` flags taken as true when resolving gate conditions.
    ``stats``, when given, is filled with ``functions`` /
    ``paths_explored`` / ``timeouts`` counters for the benchmark row.
    """
    assume = frozenset(assume_bugs)
    if stats is None:
        stats = {}
    stats.update({"functions": 0, "paths_explored": 0, "timeouts": 0})
    findings: list[Finding] = []
    for files, manifest_file in pass_targets(pkvm_root_path, spec_path):
        findings.extend(
            _check_refinement_files(files, manifest_file, assume, stats)
        )
    return findings


def _check_refinement_files(
    files: list[Path],
    manifest_file: Path,
    assume: frozenset,
    stats: dict,
) -> list[Finding]:
    manifest_module = load_module_ast(manifest_file)
    specs, _lines, manifest_findings = read_manifest(
        manifest_module, "REFINEMENT_SPECS", "refinement", str
    )
    oom, _lines, oom_findings = read_manifest(
        manifest_module, "OOM_PERMITTED", "refinement", frozenset
    )
    oom_names = frozenset(oom)
    manifest_findings += oom_findings
    spec_fns = {fn.name: fn for fn, _ in manifest_module.functions}
    spec_labeler = _ReturnLabeler(spec_fns, assume)

    findings: list[Finding] = []
    seen_handlers: set[str] = set()
    for file_path in files:
        module = load_module_ast(file_path)
        handler_fns = {
            fn.name: (fn, class_name)
            for fn, class_name in module.functions
        }
        handler_labeler = _ReturnLabeler(
            {name: fn for name, (fn, _cls) in handler_fns.items()}, assume
        )
        module_findings: list[Finding] = []
        for handler_name in sorted(specs):
            if handler_name not in handler_fns:
                continue
            seen_handlers.add(handler_name)
            spec_fn = spec_fns.get(specs[handler_name])
            if spec_fn is None:
                continue  # reported once below, against the manifest
            handler, class_name = handler_fns[handler_name]
            stats["functions"] += 1
            module_findings.extend(
                _check_pair(
                    handler,
                    class_name,
                    spec_fn,
                    module.path,
                    assume,
                    handler_labeler,
                    spec_labeler,
                    oom_names,
                    stats,
                )
            )
        deduped = sorted(set(module_findings), key=Finding.sort_key)
        findings.extend(apply_pragmas(deduped, module))

    for handler_name in sorted(specs):
        if specs[handler_name] not in spec_fns:
            manifest_findings.append(
                _finding(
                    "manifest-parse",
                    f"REFINEMENT_SPECS: spec function "
                    f"{specs[handler_name]!r} (for {handler_name}) not "
                    "found in the spec module",
                    manifest_module.path,
                    0,
                    handler_name,
                )
            )
        if handler_name not in seen_handlers:
            manifest_findings.append(
                _finding(
                    "manifest-parse",
                    f"REFINEMENT_SPECS: handler {handler_name!r} not found "
                    "in any analysed module",
                    manifest_module.path,
                    0,
                    handler_name,
                )
            )
    # Manifest hygiene findings bypass the pragma filter, like the
    # ownership pass's: a broken manifest is not suppressible.
    findings.extend(sorted(set(manifest_findings), key=Finding.sort_key))
    return findings


# ---------------------------------------------------------------------------
# Concretization: findings -> replayable traces
# ---------------------------------------------------------------------------


#: Handler -> the synthetic bug whose detection scenario (its entry in
#: :data:`repro.analysis.differential.MATRIX`) drives the handler's success
#: *and* error paths: the designed workload that exposes its seeded bug.
_TRACE_SCENARIOS = {
    "do_share_hyp": "synth_share_skip_check",
    "do_unshare_hyp": "synth_unshare_leak",
    "do_donate_hyp": "synth_donate_wrong_owner",
    "_finish_hcall": "synth_missing_ret_write",
}


def concretize_findings(
    findings: list[Finding],
    *,
    assume_bugs: frozenset | set = frozenset(),
) -> list:
    """Solve flagged handlers' path conditions to concrete traces.

    The path conditions of the modelled handlers are input-shape
    predicates ("a page the host owns", "a page already shared", "a
    valid params page"), so solving them means *constructing* the
    satisfying hypercall sequence on a scratch machine — the bump
    allocator makes the concrete addresses deterministic, so the same
    sequence replays identically on a fresh machine. The sequence is the
    handler's synthetic-bug scenario, recorded as it runs on an unchecked
    scratch machine. One trace per flagged handler; the trace carries the
    assumed bug flags so a replay runs the same seeded hypervisor the
    static pass analysed, and ``meta["refinement"]`` records which rules
    it witnesses.
    """
    from repro.analysis.differential import MATRIX
    from repro.machine import Machine
    from repro.testing.proxy import HypProxy
    from repro.testing.trace import Trace

    assume = tuple(sorted(frozenset(assume_bugs)))
    by_function: dict[str, set[str]] = {}
    for finding in findings:
        if finding.function in _TRACE_SCENARIOS:
            by_function.setdefault(finding.function, set()).add(finding.rule)
    traces = []
    for function in sorted(by_function):
        trace = Trace(
            bug_names=assume,
            meta={
                "refinement": {
                    "function": function,
                    "rules": sorted(by_function[function]),
                }
            },
        )
        machine = Machine(
            nr_cpus=trace.nr_cpus, dram_size=trace.dram_size, ghost=False
        )
        MATRIX[_TRACE_SCENARIOS[function]].test.body(HypProxy(machine, trace))
        traces.append(trace)
    return traces
