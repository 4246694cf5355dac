"""Static lock-discipline checker for the hypervisor implementation.

Two properties, checked per function over the AST of every module in
``repro.pkvm``:

- **balance** — every lock acquired inside a function is released on
  every exit path out of it: explicit ``return``/``raise`` statements and
  fall-through, with ``try/finally`` blocks interpreted (a ``return``
  inside a ``try`` runs the pending ``finally`` bodies first). Early
  returns that skip a release are exactly the bug class the paper's lock
  windows make fatal: the ghost recording would never observe the
  matching release, and every later acquirer deadlocks.
- **global order** — nested acquisitions follow one global order, the one
  the implementation actually uses::

      vm_table < vm < host_mmu < pkvm_pgd < iommu < hyp_pool

  (:data:`repro.analysis.symexec.LOCK_ORDER`). Any acquisition against
  this order is a potential ABBA deadlock.

The rules run on the shared path interpreter
(:class:`repro.analysis.symexec.PathInterp`), which enumerates a
function's explicit control-flow paths (if/loops/with/try) and keeps the
stack of locks the function itself has acquired (entry state: none
held). Unlike the ownership and refinement passes, this rule set resolves
no ``self.bugs.<flag>`` gate: both arms of every gate must keep the lock
discipline, since a seeded bug that deadlocks would hide the divergence
it seeds. It does not model exceptions thrown *by callees* — pervasive in
Python and overwhelmingly handled by the same ``try/finally`` this
checker does interpret — only explicit control flow. Lock operations are
recognised by call shape (:func:`repro.analysis.symexec.classify_lock_op`):
``*.lock.acquire(...)``, ``*.host_lock/pkvm_lock.acquire(...)``, and the
``host/hyp/iommu_(un)lock_component`` wrappers from ``mem_protect.py``.
The wrapper functions themselves (single-statement bodies whose whole job
is one lock op) are exempt from the balance rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.astutil import apply_pragmas, load_module_ast
from repro.analysis.report import Finding
from repro.analysis.symexec import (
    LOCK_ORDER,
    PathInterp,
    PathState,
    classify_lock_op,
)


def check_lock_discipline(root: str | Path | None = None) -> list[Finding]:
    """Check every module under ``root``; with no root, every package
    directory containing a registered subsystem's handlers."""
    if root is None:
        from repro.ghost.registry import handler_package_roots

        bases = handler_package_roots()
    else:
        bases = [Path(root)]
    findings: list[Finding] = []
    for base in bases:
        paths = sorted(base.glob("*.py")) if base.is_dir() else [base]
        for path in paths:
            findings.extend(check_file(path))
    return findings


def check_file(path: Path) -> list[Finding]:
    module = load_module_ast(path)
    findings: list[Finding] = []
    for fn, class_name in module.functions:
        if _is_lock_wrapper(fn, class_name):
            continue
        interp = _LockRules(module.path, fn, class_name)
        interp.run()
        if not interp.bailed:
            findings.extend(interp.findings)
    # Paths re-derive the same violation; findings are value objects, so
    # dedupe structurally.
    deduped = sorted(set(findings), key=Finding.sort_key)
    return apply_pragmas(deduped, module)


def _is_lock_wrapper(fn: ast.FunctionDef, class_name: str | None) -> bool:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # docstring
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        return False
    call = body[0].value
    return isinstance(call, ast.Call) and classify_lock_op(call, class_name) is not None


class _LockRules(PathInterp):
    """The lock-discipline rules over one function's paths. Findings are
    line-granular (no column), and every bug-gate arm is live."""

    def __init__(self, filename: str, fn: ast.FunctionDef, class_name: str | None):
        super().__init__(filename, fn, class_name, assume=None)
        self.findings: list[Finding] = []

    def _report(self, rule: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            Finding(
                analysis="lock-discipline",
                rule=rule,
                message=message,
                file=self.filename,
                line=node.lineno,
                function=self.fn.name,
            )
        )

    def on_lock_op(
        self, kind: str, name: str, node: ast.Call, path: PathState
    ) -> None:
        held = path.held
        if kind == "release":
            if name not in held:
                self._report(
                    "unbalanced-release",
                    f"releasing {name!r}, which this function did not "
                    "acquire on this path",
                    node,
                )
        elif name in held:
            self._report(
                "double-acquire",
                f"acquiring {name!r} already held by this function",
                node,
            )
        else:
            rank = LOCK_ORDER.index(name)
            for other in held:
                if LOCK_ORDER.index(other) >= rank:
                    self._report(
                        "lock-order-inversion",
                        f"acquiring {name!r} while holding {other!r} "
                        f"violates the global order {' < '.join(LOCK_ORDER)}",
                        node,
                    )

    def on_exit(self, node: ast.AST, path: PathState, outcome: str) -> None:
        if not path.held:
            return
        if node is self.fn:
            self._report(
                "fallthrough-holding",
                f"function may exit still holding {', '.join(path.held)}",
                node,
            )
        else:
            self._holding("early-return-holding", "return", node, path)

    def on_raise(self, node: ast.Raise, path: PathState) -> None:
        if path.held:
            self._holding("raise-holding", "raise", node, path)

    def _holding(
        self, rule: str, verb: str, node: ast.AST, path: PathState
    ) -> None:
        self._report(
            rule,
            f"{verb} while still holding {', '.join(path.held)} "
            "(release is skipped on this path)",
            node,
        )
