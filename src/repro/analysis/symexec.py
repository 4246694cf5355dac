"""Shared bounded symbolic-execution machinery for the analysis passes.

Three passes walk hypervisor ASTs path-by-path — lock discipline
(:mod:`repro.analysis.lockorder`), ownership transitions
(:mod:`repro.analysis.ownership`) and spec refinement
(:mod:`repro.analysis.refinement`) — and all need the same core: a
path-sensitive abstract interpreter over explicit control flow
(if/loops/try-finally, loop bodies 0-or-1 times) that tracks page-table
write effects, permission checks, the stack of held locks, and the
return-code write-back, resolving ``self.bugs.<flag>`` conditions
against an ``assume_bugs`` set. This module is that core,
:class:`PathInterp`. The lock-discipline rules hook its lock operations
and exits directly, on every gate arm. The ownership and refinement
passes judge a :class:`PathRecord` instead: one function's paths under
``assume``, kept as data (its exits, its calls to declared ops, its
page-table writes outside any op), so each pass's rules are plain
functions over such a record. The global lock order and the
lock-operation recogniser live here too, since the interpreter
maintains the held-lock stack every rule reads.
"""

from __future__ import annotations

import ast
from collections.abc import Container
from dataclasses import dataclass, replace
from pathlib import Path

from repro.analysis.astutil import access_path, pkvm_root, spec_module_path

#: Page-table write primitives (repro.pkvm.pgtable) -> effect kind.
WRITE_CALLS = {
    "map_range": "map",
    "unmap_range": "unmap",
    "set_owner_range": "set_owner",
}

CHECK_CALL = "check_page_state"

#: Constructors whose result carries a PageState (MapAttrs and friends).
ATTR_CTORS = frozenset(
    {
        "host_memory_attrs",
        "hyp_memory_attrs",
        "guest_memory_attrs",
        "dma_host_attrs",
        "dma_shadow_attrs",
        "MapAttrs",
    }
)

#: Attribute spellings of the tables the registered subsystems own. A
#: domain's shadow stage 2 is spelled ``domain.s2`` in the iommu handlers
#: and ``iommu`` in its manifest.
TABLE_ATTRS = {"host_mmu": "host_mmu", "pkvm_pgd": "pkvm_pgd", "s2": "iommu"}

#: Parameter-name conventions: a guest stage 2 arrives as ``guest_pgt``
#: and the guest's owner id as ``guest_owner`` (manifest spelling
#: ``caller``). Fixtures use the same names.
PARAM_TABLES = {"guest_pgt": "guest"}
PARAM_OWNERS = {"guest_owner": "caller"}

#: Path-state cap per function; past it a pass bails on the function
#: rather than analyse it imprecisely.
MAX_STATES = 256

# Abstract value tags (values are small tuples; None means unknown).
ZERO = ("zero",)
ERR = ("err",)

#: The global lock acquisition order (outermost first), the one the
#: implementation uses: ``vm_table`` before any per-VM lock in
#: teardown/reclaim; the per-VM lock before ``host_mmu`` in the guest
#: share/map paths; ``host_mmu`` before ``pkvm_pgd`` in every host/hyp
#: transition (pKVM's ``host_lock_component``/``hyp_lock_component``
#: nesting). The iommu lock nests inside the host lock (map/unmap flip
#: host page states) and outside the pool lock (shadow table pages come
#: from the hyp pool), which is innermost.
LOCK_ORDER = ("vm_table", "vm", "host_mmu", "pkvm_pgd", "iommu", "hyp_pool")

#: mem_protect.py wrapper methods, usable as lock ops at call sites.
_COMPONENT_OPS = {
    "host_lock_component": ("acquire", "host_mmu"),
    "host_unlock_component": ("release", "host_mmu"),
    "hyp_lock_component": ("acquire", "pkvm_pgd"),
    "hyp_unlock_component": ("release", "pkvm_pgd"),
    "iommu_lock_component": ("acquire", "iommu"),
    "iommu_unlock_component": ("release", "iommu"),
}

#: Attribute names that denote a specific lock object.
_LOCK_ATTRS = {
    "host_lock": "host_mmu",
    "pkvm_lock": "pkvm_pgd",
    "iommu_lock": "iommu",
}


def classify_lock_op(
    call: ast.Call, class_name: str | None
) -> tuple[str, str] | None:
    """(op, lock name) if ``call`` is a recognised lock operation:
    ``*.lock.acquire/release(...)``, ``*.host_lock/pkvm_lock/iommu_lock``
    ops, a bare lock name's ops, or a ``*_(un)lock_component`` wrapper."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _COMPONENT_OPS:
        return _COMPONENT_OPS[func.attr]
    if func.attr not in ("acquire", "release"):
        return None
    recv = func.value
    if isinstance(recv, ast.Attribute):
        if recv.attr in _LOCK_ATTRS:
            return func.attr, _LOCK_ATTRS[recv.attr]
        if recv.attr == "lock":
            owner = ast.unparse(recv.value)
            if "vm_table" in owner:
                return func.attr, "vm_table"
            if owner == "self" and class_name == "HypPool":
                return func.attr, "hyp_pool"
            return func.attr, "vm"
    if isinstance(recv, ast.Name) and recv.id in LOCK_ORDER:
        return func.attr, recv.id
    return None


# ---------------------------------------------------------------------------
# Bug-flag condition resolution
# ---------------------------------------------------------------------------


def flag_of(node: ast.expr) -> str | None:
    """The bug-flag name if ``node`` spells ``<...>.bugs.<flag>``."""
    resolved = access_path(node)
    if resolved is None:
        return None
    root, segs = resolved
    if len(segs) >= 2 and segs[-2] == "bugs":
        return segs[-1]
    if root == "bugs" and len(segs) == 1:
        return segs[0]
    return None


def resolve_condition(
    test: ast.expr, assume: frozenset | None
) -> bool | None:
    """Evaluate a condition made of bug flags to True/False, else None.

    ``self.bugs.<flag>`` is True iff the flag is in ``assume`` — the
    default empty set analyses the fixed hypervisor. ``not``, ``and``
    and ``or`` propagate with short-circuit semantics, so a partially
    resolved ``flag and <unknown>`` collapses to False when the flag is
    off and stays unknown (fork both arms) when it is assumed on.
    ``assume=None`` resolves nothing: every arm of every gate is live.
    """
    if assume is None:
        return None
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = resolve_condition(test.operand, assume)
        return None if inner is None else (not inner)
    flag = flag_of(test)
    if flag is not None:
        return flag in assume
    if isinstance(test, ast.BoolOp):
        parts = [resolve_condition(v, assume) for v in test.values]
        if isinstance(test.op, ast.And):
            if any(p is False for p in parts):
                return False
            if all(p is True for p in parts):
                return True
            return None
        if any(p is True for p in parts):
            return True
        if all(p is False for p in parts):
            return False
        return None
    if isinstance(test, ast.Constant):
        return bool(test.value)
    return None


# ---------------------------------------------------------------------------
# What the handler-vs-spec passes analyse
# ---------------------------------------------------------------------------


def pass_targets(
    pkvm_root_path: str | Path | None, spec_path: str | Path | None
) -> list[tuple[list[Path], Path]]:
    """(handler files, manifest file) pairs for the ownership and
    refinement passes.

    With no explicit paths, one pair per registered subsystem: its
    handler modules against its own spec module's manifests. Otherwise
    the two modules the mem_protect manifests describe, under
    ``pkvm_root_path`` (default: the installed ``repro.pkvm``), or the
    single file it names. ``spec_path`` names the manifest file; by
    default a single file is its own manifest (so self-contained
    fixtures are vetted without being imported) and a package is judged
    against the installed ``repro.ghost.spec``.
    """
    if pkvm_root_path is None and spec_path is None:
        from repro.ghost.registry import (
            SUBSYSTEMS,
            handler_module_paths,
            spec_module_paths,
        )

        return [
            (handler_module_paths(sub), manifest)
            for sub, manifest in zip(SUBSYSTEMS, spec_module_paths())
        ]
    base = Path(pkvm_root_path) if pkvm_root_path else pkvm_root()
    if base.is_file():
        files, manifest = [base], base
    else:
        files = [
            path
            for path in (base / "mem_protect.py", base / "hyp.py")
            if path.exists()
        ]
        manifest = spec_module_path()
    return [(files, Path(spec_path) if spec_path is not None else manifest)]


# ---------------------------------------------------------------------------
# The path interpreter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Write:
    """One page-table write evaluated along a path."""

    table: str
    effect: str
    line: int
    column: int
    #: permission checks that dominated the write: ((table, state), ...)
    checks: tuple
    #: False once the path refined this write's return code as failing.
    happened: bool = True


class PathState:
    """Mutable per-path state; forked by cloning."""

    __slots__ = ("env", "checks", "writes", "held", "finished", "wrote_regs")

    def __init__(self) -> None:
        self.env: dict[str, tuple | None] = {}
        self.checks: frozenset = frozenset()
        self.writes: tuple[Write, ...] = ()
        self.held: tuple[str, ...] = ()
        self.finished = False
        self.wrote_regs = False

    def clone(self) -> "PathState":
        out = PathState.__new__(PathState)
        out.env = dict(self.env)
        out.checks = self.checks
        out.writes = self.writes
        out.held = self.held
        out.finished = self.finished
        out.wrote_regs = self.wrote_regs
        return out


class PathInterp:
    """Interpret one function's paths; subclasses supply the judgement.

    The base class enumerates paths and maintains the abstract state
    (env bindings, dominating checks, write effects, held locks, the
    return-register write-back). A parameter named in
    :data:`PARAM_TABLES` or :data:`PARAM_OWNERS` enters bound to its
    table or owner. Hook points:

    - :meth:`on_lock_op` — called at each lock operation, before the
      held-lock stack is updated;
    - :meth:`call` — the abstract value of a call that is not a lock
      operation, after its arguments were evaluated;
    - :meth:`on_exit` — called once per ``return`` or fall-through path
      exit with the classified outcome (``success``/``error``/``maybe``),
      and :meth:`on_raise` once per ``raise`` exit (a panic path, which
      asserts no outcome), both after pending ``finally`` bodies ran.

    ``bailed`` is set when the path count exceeds :data:`MAX_STATES`
    (the symbolic budget); the function is then not analysed, and what
    the hooks saw before is incomplete.
    """

    def __init__(
        self,
        filename: str,
        fn: ast.FunctionDef,
        class_name: str | None,
        assume: frozenset | None,
    ):
        self.filename = filename
        self.fn = fn
        self.class_name = class_name
        self.assume = assume
        self.finally_stack: list[list[ast.stmt]] = []
        self.bailed = False

    def run(self) -> None:
        entry = PathState()
        for arg in self.fn.args.posonlyargs + self.fn.args.args:
            if arg.arg in PARAM_TABLES:
                entry.env[arg.arg] = ("table", PARAM_TABLES[arg.arg])
            elif arg.arg in PARAM_OWNERS:
                entry.env[arg.arg] = ("owner", PARAM_OWNERS[arg.arg])
        fallthrough = self.exec_block(self.fn.body, [entry])
        if self.bailed:
            return
        for path in fallthrough:
            self._classify_exit(self.fn, path, value=None)

    # -- hooks -------------------------------------------------------------

    def on_exit(self, node: ast.AST, path: PathState, outcome: str) -> None:
        """One non-panic path reached an exit with ``outcome``."""

    def on_raise(self, node: ast.Raise, path: PathState) -> None:
        """One path left the function through ``raise`` at ``node``."""

    def on_lock_op(
        self, kind: str, name: str, node: ast.Call, path: PathState
    ) -> None:
        """``path`` is about to ``acquire``/``release`` lock ``name``."""

    # -- block/statement execution ----------------------------------------

    def exec_block(
        self, stmts: list[ast.stmt], paths: list[PathState]
    ) -> list[PathState]:
        current = paths
        for stmt in stmts:
            nxt: list[PathState] = []
            for path in current:
                nxt.extend(self.exec_stmt(stmt, path))
            if len(nxt) > MAX_STATES:
                self.bailed = True
                return []
            current = nxt
            if not current:
                break
        return current

    def exec_stmt(self, stmt: ast.stmt, path: PathState) -> list[PathState]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [path]  # analysed separately; defining isn't executing
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, path)
            for target in stmt.targets:
                self._bind(target, value, path)
            return [path]
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval(stmt.value, path), path)
            return [path]
        if isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value, path)
            if isinstance(stmt.target, ast.Name):
                path.env[stmt.target.id] = None
            return [path]
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, path)
            return [path]
        if isinstance(stmt, ast.Return):
            self._exit(stmt, path, value=stmt.value)
            return []
        if isinstance(stmt, ast.Raise):
            self._exit(stmt, path, value=None, panic=True)
            return []
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, path)
        if isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.For):
                self.eval(stmt.iter, path)
            else:
                self.eval(stmt.test, path)
            # Zero or one iterations: one pass records any effects and
            # exits; the effect set does not change per iteration.
            body_path = path.clone()
            if isinstance(stmt, ast.For):
                for name_node in ast.walk(stmt.target):
                    if isinstance(name_node, ast.Name):
                        body_path.env[name_node.id] = None
            outs = [path] + self.exec_block(stmt.body, [body_path])
            if stmt.orelse:
                return self.exec_block(stmt.orelse, outs)
            return outs
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr, path)
            return self.exec_block(stmt.body, [path])
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, path)
        if isinstance(stmt, ast.Assert):
            self.eval(stmt.test, path)
            return [path]
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return [path]  # approximate: falls through past the loop
        return [path]

    def _exec_if(self, stmt: ast.If, path: PathState) -> list[PathState]:
        resolved = resolve_condition(stmt.test, self.assume)
        if resolved is True:
            return self.exec_block(stmt.body, [path])
        if resolved is False:
            return self.exec_block(stmt.orelse, [path])
        true_path, false_path = self._refine(stmt.test, path)
        outs = self.exec_block(stmt.body, [true_path])
        outs.extend(self.exec_block(stmt.orelse, [false_path]))
        return outs

    def _refine(
        self, test: ast.expr, path: PathState
    ) -> tuple[PathState, PathState]:
        """Fork on ``test``; refine ``if ret:``-shaped checks on a bound
        check/write result: the true arm means the call failed, the false
        arm means it succeeded (checks count, writes took effect)."""
        negate = False
        node = test
        while isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            negate = not negate
            node = node.operand
        true_path, false_path = path.clone(), path.clone()
        if isinstance(node, ast.Name):
            value = path.env.get(node.id)
            fail_path, ok_path = (
                (false_path, true_path) if negate else (true_path, false_path)
            )
            if value is not None and value[0] == "check":
                _tag, table, state = value
                fail_path.env[node.id] = ERR
                ok_path.env[node.id] = ZERO
                ok_path.checks = ok_path.checks | {(table, state)}
            elif value is not None and value[0] == "wref":
                index = value[1]
                fail_path.env[node.id] = ERR
                ok_path.env[node.id] = ZERO
                writes = list(fail_path.writes)
                if 0 <= index < len(writes):
                    writes[index] = replace(writes[index], happened=False)
                    fail_path.writes = tuple(writes)
        else:
            self.eval(node, true_path)  # effects evaluate once; reuse state
            false_path = true_path.clone()
        return true_path, false_path

    def _exec_try(self, stmt: ast.Try, path: PathState) -> list[PathState]:
        self.finally_stack.append(stmt.finalbody)
        entry = path.clone()
        outs = self.exec_block(stmt.body, [path])
        if stmt.orelse:
            outs = self.exec_block(stmt.orelse, outs)
        for handler in stmt.handlers:
            outs.extend(self.exec_block(handler.body, [entry.clone()]))
        self.finally_stack.pop()
        final_outs: list[PathState] = []
        for out in outs:
            final_outs.extend(self.exec_block(stmt.finalbody, [out]))
        return final_outs

    # -- expression evaluation ---------------------------------------------

    def eval(self, node: ast.expr | None, path: PathState) -> tuple | None:
        """Evaluate an expression abstractly, recording page-table
        effects, lock transitions, and op call sites as side effects."""
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if node.value == 0 and not isinstance(node.value, bool):
                return ZERO
            if isinstance(node.value, int) and node.value < 0:
                return ERR
            return None
        if isinstance(node, ast.Name):
            return path.env.get(node.id)
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand, path)
            if isinstance(node.op, ast.USub):
                return ZERO if inner == ZERO else ERR
            return None
        if isinstance(node, ast.Attribute):
            resolved = access_path(node)
            if resolved is not None:
                root, segs = resolved
                if root == "PageState" and len(segs) == 1:
                    return ("state", segs[0])
                if root == "OwnerId" and len(segs) == 1:
                    return ("owner", segs[0])
            return None
        if isinstance(node, ast.IfExp):
            resolved = resolve_condition(node.test, self.assume)
            if resolved is True:
                return self.eval(node.body, path)
            if resolved is False:
                return self.eval(node.orelse, path)
            self.eval(node.body, path)
            self.eval(node.orelse, path)
            return None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value, path)
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node, path)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child, path)
            elif isinstance(child, ast.comprehension):
                self.eval(child.iter, path)
                for cond in child.ifs:
                    self.eval(cond, path)
        return None

    def _call_name(self, node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def _eval_call(self, node: ast.Call, path: PathState) -> tuple | None:
        lock_op = classify_lock_op(node, self.class_name)
        if lock_op is not None:
            kind, name = lock_op
            self.on_lock_op(kind, name, node, path)
            # Locks are not recursive: a re-acquire or an unheld release
            # leaves the stack as it was.
            if kind == "release":
                path.held = tuple(lock for lock in path.held if lock != name)
            elif name not in path.held:
                path.held = path.held + (name,)
            return None
        arg_values = [self.eval(arg, path) for arg in node.args]
        for kw in node.keywords:
            self.eval(kw.value, path)
        return self.call(self._call_name(node), node, arg_values, path)

    def call(
        self, name: str | None, node: ast.Call, arg_values: list, path: PathState
    ) -> tuple | None:
        if name == "_finish_hcall":
            path.finished = True
            return None
        if name == CHECK_CALL:
            table = self._resolve_table(node.args[0], path) if node.args else "?"
            state = next(
                (v[1] for v in arg_values if v is not None and v[0] == "state"),
                None,
            )
            return ("check", table, state)
        if name in WRITE_CALLS:
            return self._record_write(name, node, arg_values, path)
        if name in ATTR_CTORS:
            state = next(
                (v[1] for v in arg_values if v is not None and v[0] == "state"),
                None,
            )
            return ("attrs", state)
        if name == "int" and len(arg_values) == 1:
            return arg_values[0]
        return None

    def _resolve_table(self, node: ast.expr, path: PathState) -> str:
        if isinstance(node, ast.Name):
            value = path.env.get(node.id)
            if value is not None and value[0] == "table":
                return value[1]
            if node.id in PARAM_TABLES:
                return PARAM_TABLES[node.id]
            return node.id
        resolved = access_path(node)
        if resolved is not None and resolved[1]:
            last = resolved[1][-1]
            if last in TABLE_ATTRS:
                return TABLE_ATTRS[last]
        try:
            return ast.unparse(node)
        except Exception:  # noqa: BLE001 — a label, not a computation
            return "?"

    def _record_write(
        self,
        name: str,
        node: ast.Call,
        arg_values: list,
        path: PathState,
    ) -> tuple:
        kind = WRITE_CALLS[name]
        table = self._resolve_table(node.args[0], path) if node.args else "?"
        if kind == "map":
            state = next(
                (v[1] for v in arg_values if v is not None and v[0] == "attrs"),
                None,
            )
            effect = f"map:{state or '?'}"
        elif kind == "set_owner":
            owner = next(
                (v[1] for v in arg_values if v is not None and v[0] == "owner"),
                None,
            )
            effect = f"set_owner:{owner or '?'}"
        else:
            effect = "unmap"
        write = Write(
            table=table,
            effect=effect,
            line=node.lineno,
            column=node.col_offset + 1,
            checks=tuple(sorted(path.checks)),
        )
        path.writes = path.writes + (write,)
        return ("wref", len(path.writes) - 1)

    # -- path exits --------------------------------------------------------

    def _exit(
        self,
        stmt: ast.stmt,
        path: PathState,
        *,
        value: ast.expr | None,
        panic: bool = False,
    ) -> None:
        # Evaluate the returned expression first (tail writes), then run
        # pending finally bodies innermost-first before the frame exits.
        returned = None if panic else self.eval(value, path)
        paths = [path]
        for finalbody in reversed(self.finally_stack):
            paths = self.exec_block(finalbody, paths)
        for out in paths:
            if panic:
                self.on_raise(stmt, out)  # asserts no outcome
            else:
                self._classify_exit(stmt, out, value=value, returned=returned)

    def _classify_exit(
        self,
        node: ast.AST,
        path: PathState,
        *,
        value: ast.expr | None,
        returned: tuple | None = None,
    ) -> None:
        if returned is None and value is not None:
            returned = path.env.get(value.id) if isinstance(value, ast.Name) else None
        if returned == ZERO:
            outcome = "success"
        elif returned == ERR:
            outcome = "error"
        else:
            outcome = "maybe"
        self.on_exit(node, path, outcome)

    def _bind(
        self, target: ast.expr, value: tuple | None, path: PathState
    ) -> None:
        if isinstance(target, ast.Name):
            path.env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    path.env[name_node.id] = None
            return
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "regs"
        ):
            path.wrote_regs = True


# ---------------------------------------------------------------------------
# One function's paths, recorded for the ownership and refinement passes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exit:
    """One non-panic path exit of a recorded function."""

    #: the ``return`` statement, or the function itself for fall-through
    node: ast.AST
    #: ``success``, ``error`` or ``maybe``
    outcome: str
    #: the page-table writes that took effect on the path
    writes: tuple[Write, ...]
    #: whether the path reached ``_finish_hcall``
    finished: bool
    #: whether the path stored the return registers
    wrote_regs: bool


@dataclass(frozen=True)
class OpCall:
    """A call to a declared op, with the locks its path held there."""

    op: str
    node: ast.Call
    held: tuple[str, ...]


class PathRecord(PathInterp):
    """One function's paths under ``assume``, kept for a pass to judge.

    A call to a name in ``ops`` (the declared ops, if the pass has any)
    is recorded as an :class:`OpCall` and not interpreted further; a
    function's bare call to itself is not an op call. A page-table write
    in a function outside ``ops`` is also kept in ``stray_writes`` with
    the name of its primitive. A record that ``bailed`` after
    :meth:`run` must not be judged.
    """

    def __init__(
        self,
        filename: str,
        fn: ast.FunctionDef,
        class_name: str | None,
        assume: frozenset,
        ops: Container[str] = frozenset(),
    ):
        super().__init__(filename, fn, class_name, assume)
        self.ops = ops
        self.exits: list[Exit] = []
        self.op_calls: list[OpCall] = []
        self.stray_writes: list[tuple[str, Write]] = []

    def on_exit(self, node: ast.AST, path: PathState, outcome: str) -> None:
        applied = tuple(write for write in path.writes if write.happened)
        self.exits.append(
            Exit(node, outcome, applied, path.finished, path.wrote_regs)
        )

    def call(
        self, name: str | None, node: ast.Call, arg_values: list, path: PathState
    ) -> tuple | None:
        if name in self.ops and not (
            isinstance(node.func, ast.Name) and name == self.fn.name
        ):
            self.op_calls.append(OpCall(name, node, path.held))
            return None
        value = super().call(name, node, arg_values, path)
        if name in WRITE_CALLS and self.fn.name not in self.ops:
            self.stray_writes.append((name, path.writes[-1]))
        return value
