"""Spec-purity linter: prove the reified specification stays on its side
of the spec/impl hygiene boundary.

The paper's Fig. 5 discipline, stated as checkable rules over the AST of
the spec module (``repro.ghost.spec`` by default):

- **forbidden-import** — the module must not import implementation
  runtime code: ``repro.pkvm.{hyp,host,vm,mem_protect,pgtable,allocator,
  spinlock}``, the mutable ``repro.arch`` machinery, ``repro.sim``,
  ``repro.testing`` or ``repro.machine``. Pure constants are allowed:
  anything from ``repro.pkvm.defs``, plus an explicit allowlist of
  constants defined in otherwise-forbidden modules (``MAX_VMS`` et al.).
- **io-import / io-call** — no I/O, time, or randomness anywhere in the
  module: a spec that prints, sleeps, or rolls dice is not a function of
  the pre-state.
- **local-import** — no imports inside spec functions (a way to smuggle
  runtime state past the module-level check).
- **spec-signature** — every ``compute_post__*`` takes
  ``(g_post, g_pre, call, cpu)``, so the read-only analysis below knows
  which parameters are inputs.
- **pre-state-rebind / pre-state-mutation / mutating-call** — inside any
  function with a pre-state parameter (named ``g``, ``g_pre`` or
  ``g_pre*``) or a call-data parameter (``call``), those objects and any
  alias derived from them are read-only: no attribute/subscript stores,
  no ``del``, no calls to known-mutating methods.

The aliasing analysis is deliberately pragmatic (the paper's word): a
name assigned from an attribute/subscript path or a *method call* rooted
at a read-only object is tainted (methods like ``.get``/``.lookup``
return views into the pre-state), while a call through a plain name
(``list(x)``, ``replace(x, ...)``) is treated as constructing a fresh
value. That is exactly the precision needed to pass the real spec and
fail every seeded violation; it is a linter, not a proof.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.astutil import (
    MUTATING_METHODS,
    apply_pragmas,
    load_module_ast,
    root_name,
)
from repro.analysis.report import Finding

#: Implementation modules the spec must never import from. ``repro.obs``
#: is here too: a spec that traces, counts, or flight-records is reading
#: the clock and writing shared state — observability belongs in the
#: checker and the machine, never in the pure post-state functions.
FORBIDDEN_MODULES = (
    "repro.pkvm.hyp",
    "repro.pkvm.host",
    "repro.pkvm.vm",
    "repro.pkvm.mem_protect",
    "repro.pkvm.pgtable",
    "repro.pkvm.allocator",
    "repro.pkvm.spinlock",
    "repro.pkvm.bugs",
    "repro.pkvm.iommu",
    "repro.arch.cpu",
    "repro.arch.memory",
    "repro.arch.translate",
    "repro.arch.sysregs",
    "repro.sim",
    "repro.testing",
    "repro.machine",
    "repro.obs",
)

#: Pure constants importable from otherwise-forbidden modules.
CONSTANT_ALLOWLIST = frozenset(
    {"HANDLE_OFFSET", "MAX_VCPUS", "MAX_VMS", "MAX_DOMAINS", "MAX_DEVICES"}
)

#: Modules whose presence means I/O, wall-clock time, or randomness.
IMPURE_MODULES = (
    "io",
    "os",
    "pathlib",
    "random",
    "secrets",
    "shutil",
    "socket",
    "subprocess",
    "sys",
    "time",
    "datetime",
)

#: Builtins that perform I/O or defeat static analysis.
IMPURE_BUILTINS = frozenset(
    {"open", "print", "input", "exec", "eval", "compile", "__import__",
     "breakpoint", "globals", "vars", "setattr", "delattr"}
)

#: Builtins whose result varies run to run (``id()`` tracks the
#: allocator, ``hash()`` is salted per process): a spec keyed on them
#: makes the oracle's verdict depend on interpreter state rather than
#: the machine's pre-state, mirroring the ``repro.obs`` ban on
#: nondeterministic observability payloads.
NONDET_BUILTINS = frozenset({"id", "hash"})

#: Expected positional signature of every compute_post__* function.
SPEC_SIGNATURE = ("g_post", "g_pre", "call", "cpu")


def _is_pre_state_param(name: str) -> bool:
    return name == "g" or name.startswith("g_pre")


def _is_readonly_param(name: str) -> bool:
    return _is_pre_state_param(name) or name == "call"


def _module_is_forbidden(module: str) -> bool:
    return any(
        module == f or module.startswith(f + ".") for f in FORBIDDEN_MODULES
    )


def _module_is_impure(module: str) -> bool:
    root = module.split(".")[0]
    return root in IMPURE_MODULES


def check_spec_purity(
    source_path: str | Path | None = None,
    *,
    constant_allowlist: frozenset[str] = CONSTANT_ALLOWLIST,
) -> list[Finding]:
    """Lint a spec module — or, with no explicit target, every spec
    module in the subsystem registry; return the (possibly empty)
    findings."""
    if source_path is None:
        from repro.ghost.registry import spec_module_paths

        paths = spec_module_paths()
    else:
        paths = [Path(source_path)]
    findings: list[Finding] = []
    for path in paths:
        module = load_module_ast(path)
        linter = _PurityLinter(module.path, constant_allowlist)
        linter.run(module.tree)
        findings.extend(apply_pragmas(linter.findings, module))
    return findings


class _PurityLinter:
    def __init__(self, filename: str, constant_allowlist: frozenset[str]):
        self.filename = filename
        self.constant_allowlist = constant_allowlist
        self.findings: list[Finding] = []
        #: Module-level names bound to impure modules (``import time``).
        self._impure_names: set[str] = set()

    def _report(self, rule: str, message: str, node: ast.AST, function: str = "") -> None:
        self.findings.append(
            Finding(
                analysis="spec-purity",
                rule=rule,
                message=message,
                file=self.filename,
                line=getattr(node, "lineno", 0),
                function=function,
            )
        )

    # -- module level ------------------------------------------------------

    def run(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._check_import(node, function="")
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                self._check_function(node)
            elif isinstance(node, ast.Call):
                self._check_impure_call(node)

    def _check_import(self, node: ast.Import | ast.ImportFrom, function: str) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _module_is_forbidden(alias.name):
                    self._report(
                        "forbidden-import",
                        f"import of implementation module {alias.name!r}",
                        node,
                        function,
                    )
                elif _module_is_impure(alias.name):
                    self._report(
                        "io-import",
                        f"import of impure module {alias.name!r}",
                        node,
                        function,
                    )
                    self._impure_names.add(alias.asname or alias.name.split(".")[0])
            return
        module = node.module or ""
        if node.level:
            # Relative imports resolve within repro.ghost: allowed.
            return
        if module == "repro.pkvm.defs":
            return
        if _module_is_forbidden(module):
            bad = [a.name for a in node.names if a.name not in self.constant_allowlist]
            if bad:
                self._report(
                    "forbidden-import",
                    f"import of {', '.join(repr(n) for n in bad)} from "
                    f"implementation module {module!r} (allowlist: "
                    f"{sorted(self.constant_allowlist)})",
                    node,
                    function,
                )
        elif _module_is_impure(module):
            self._report(
                "io-import",
                f"import from impure module {module!r}",
                node,
                function,
            )
            self._impure_names.update(a.asname or a.name for a in node.names)

    def _check_impure_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in IMPURE_BUILTINS:
            self._report(
                "io-call", f"call to impure builtin {func.id}()", node
            )
        elif isinstance(func, ast.Name) and func.id in NONDET_BUILTINS:
            self._report(
                "nondet-call",
                f"call to nondeterministic builtin {func.id}() "
                "(spec output must be a function of the pre-state)",
                node,
            )
        elif isinstance(func, ast.Attribute):
            root = root_name(func)
            if root is not None and root in self._impure_names:
                self._report(
                    "io-call",
                    f"call into impure module: {root}.{func.attr}()",
                    node,
                )

    # -- function level ----------------------------------------------------

    def _check_function(self, fn: ast.FunctionDef) -> None:
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if fn.name.startswith("compute_post"):
            expected = list(SPEC_SIGNATURE)
            if params[: len(expected)] != expected:
                self._report(
                    "spec-signature",
                    f"{fn.name} must take {tuple(SPEC_SIGNATURE)}, "
                    f"got {tuple(params)}",
                    fn,
                    fn.name,
                )
        readonly = {p for p in params if _is_readonly_param(p)}
        for node in ast.walk(fn):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node is not fn:
                self._report(
                    "local-import",
                    "import inside a spec function",
                    node,
                    fn.name,
                )
        if readonly:
            _MutationChecker(self, fn, readonly).run()


class _MutationChecker:
    """Read-only enforcement for one function's pre-state/call params."""

    def __init__(self, linter: _PurityLinter, fn: ast.FunctionDef, roots: set[str]):
        self.linter = linter
        self.fn = fn
        self.params = set(roots)
        self.tainted = set(roots)

    def run(self) -> None:
        self._walk(self.fn.body)

    def _report(self, rule: str, message: str, node: ast.AST) -> None:
        self.linter._report(rule, message, node, self.fn.name)

    def _is_tainted_expr(self, node: ast.expr) -> bool:
        root = root_name(node)
        return root is not None and root in self.tainted

    def _walk(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.FunctionDef):
            return  # nested defs analysed on their own via _check_function
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._assign_target(target, stmt.value, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign_target(stmt.target, stmt.value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._store_target(stmt.target, stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._store_target(target, stmt, deleting=True)
        elif isinstance(stmt, ast.For):
            if self._is_tainted_expr(stmt.iter):
                self._taint_names(stmt.target)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.With):
            self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
        # Every statement: scan contained calls for mutating methods.
        for node in ast.walk(stmt):
            if isinstance(node, ast.FunctionDef):
                break
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATING_METHODS and self._is_tainted_expr(
                    node.func.value
                ):
                    self._report(
                        "mutating-call",
                        f".{node.func.attr}() called on a value aliasing "
                        "the read-only pre-state/call data",
                        node,
                    )

    def _assign_target(self, target: ast.expr, value: ast.expr, stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, value, stmt)
            return
        if isinstance(target, ast.Name):
            if target.id in self.params:
                self._report(
                    "pre-state-rebind",
                    f"rebinding read-only parameter {target.id!r}",
                    stmt,
                )
            if self._is_tainted_expr(value):
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
            return
        self._store_target(target, stmt)

    def _store_target(self, target: ast.expr, stmt: ast.stmt, *, deleting: bool = False) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store_target(elt, stmt, deleting=deleting)
            return
        if isinstance(target, ast.Name):
            if deleting:
                self.tainted.discard(target.id)
            return
        if self._is_tainted_expr(target):
            verb = "del of" if deleting else "store into"
            self._report(
                "pre-state-mutation",
                f"{verb} {ast.unparse(target)}: mutates the read-only "
                "pre-state/call data",
                stmt,
            )

    def _taint_names(self, target: ast.expr) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.tainted.add(node.id)
