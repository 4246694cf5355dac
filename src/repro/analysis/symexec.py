"""Shared bounded symbolic-execution machinery for the analysis passes.

Three passes walk hypervisor ASTs path-by-path — lock discipline
(:mod:`repro.analysis.lockorder`), ownership transitions
(:mod:`repro.analysis.ownership`) and spec refinement
(:mod:`repro.analysis.refinement`) — and all need the same core: a
path-sensitive abstract interpreter over explicit control flow
(if/loops/try-finally, loop bodies 0-or-1 times) that tracks page-table
write effects, permission checks, the stack of held locks, and the
return-code write-back, resolving ``self.bugs.<flag>`` conditions
against an ``assume_bugs`` set. This module is that core; each pass is a
rule set that hooks path exits, ``raise`` exits, lock operations, op
call sites, unmanifested writes, and path-explosion bails. The global
lock order and the lock-operation recogniser live here too, since the
interpreter maintains the held-lock stack every rule set reads.

It also hosts the **bitvector domain** the refinement pass evaluates
PTE words in: :class:`BitVec` is a 64-bit word with per-bit knowledge
(a three-valued 0/1/unknown per bit), and :func:`symbolic_decode`
mirrors ``repro.arch.pte.decode_descriptor`` over it, pulling every
mask and shift from the live codec via the bitfields pass's
:func:`repro.analysis.bitfields.load_codec` so a fixture codec can be
substituted. On a fully-known word the symbolic decode must agree with
the concrete codec bit-for-bit — a hypothesis property test enforces
exactly that at every level and stage.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from pathlib import Path

from repro.analysis.astutil import access_path, pkvm_root, spec_module_path
from repro.analysis.report import Finding
from repro.arch.defs import U64_MASK

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
# The bitvector domain (64-bit words with per-bit knowledge)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitVec:
    """A 64-bit word where each bit is 0, 1, or unknown.

    ``known`` marks the bits whose value is certain; ``value`` holds
    those bits (unknown positions are normalised to 0, so
    ``value & ~known == 0`` always). The operations below are exact on
    fully-known words and sound on partial ones: a result bit is known
    only when the inputs force it (``x & 0`` is known-0 even when ``x``
    is unknown; ``x | 1`` is known-1 likewise).
    """

    value: int
    known: int

    @staticmethod
    def const(value: int) -> "BitVec":
        return BitVec(value & U64_MASK, U64_MASK)

    @staticmethod
    def top() -> "BitVec":
        """A fully-unknown word."""
        return BitVec(0, 0)

    @property
    def is_const(self) -> bool:
        return self.known == U64_MASK

    def __and__(self, other: "BitVec") -> "BitVec":
        known_zero = (self.known & ~self.value) | (other.known & ~other.value)
        known_one = self.value & other.value
        return BitVec(known_one, (known_zero | known_one) & U64_MASK)

    def __or__(self, other: "BitVec") -> "BitVec":
        known_one = self.value | other.value
        known_zero = (self.known & ~self.value) & (other.known & ~other.value)
        return BitVec(known_one, (known_one | known_zero) & U64_MASK)

    def __invert__(self) -> "BitVec":
        return BitVec(self.known & ~self.value & U64_MASK, self.known)

    def shl(self, n: int) -> "BitVec":
        """Logical left shift; vacated low bits become known zeros."""
        value = (self.value << n) & U64_MASK
        known = ((self.known << n) | ((1 << n) - 1)) & U64_MASK
        return BitVec(value, known)

    def shr(self, n: int) -> "BitVec":
        """Logical right shift; vacated high bits become known zeros."""
        value = self.value >> n
        known = (self.known >> n) | (U64_MASK & ~(U64_MASK >> n))
        return BitVec(value, known & U64_MASK)

    def test(self, mask: int) -> bool | None:
        """Three-valued ``bool(word & mask)``."""
        mask &= U64_MASK
        if self.value & mask:
            return True
        if self.known & mask == mask:
            return False
        return None

    def extract(self, mask: int, shift: int = 0) -> int | None:
        """The field ``(word & mask) >> shift`` when fully known."""
        mask &= U64_MASK
        if self.known & mask == mask:
            return (self.value & mask) >> shift
        return None

    def eq(self, value: int) -> bool | None:
        """Three-valued equality against a constant."""
        value &= U64_MASK
        if (value & self.known) != self.value:
            return False
        if self.is_const:
            return True
        return None


@dataclass(frozen=True)
class SymDecodedPte:
    """:class:`repro.arch.pte.DecodedPte` over the bitvector domain.

    Every field is ``None`` when the word's known bits do not determine
    it. On a fully-known word no field may be ``None`` and each must
    equal the concrete decode (the refinement pass's soundness anchor).
    """

    kind: object | None
    level: int
    oa: int | None = 0
    perms: object | None = None
    memtype: object | None = None
    page_state: object | None = None
    af: bool | None = False
    owner_id: int | None = 0


def symbolic_decode(word: BitVec, level: int, stage, codec=None) -> SymDecodedPte:
    """Decode one descriptor word in the bitvector domain.

    Mirrors ``repro.arch.pte.entry_kind`` / ``decode_descriptor`` using
    the masks, shifts, and enums of the live codec module (``codec`` is
    a :func:`repro.analysis.bitfields.load_codec` result; ``None`` loads
    the installed ``repro.arch.pte``). A page-state field whose raw
    value is not a ``PageState`` decodes as ``None`` — the concrete
    codec raises there, so agreement is only claimed where the concrete
    decode is defined.
    """
    if codec is None:
        from repro.analysis.bitfields import load_codec

        codec = load_codec()
    c = codec.get
    kinds = c("EntryKind")
    states = c("PageState")
    perms_cls = c("Perms")
    memtype_cls = c("MemType")
    leaf_level = c("LEAF_LEVEL", 3)
    supports_block = c("level_supports_block", lambda level: level in (1, 2))
    stage1 = getattr(c("Stage", None), "STAGE1", None)
    # Non-leaf DecodedPte fields default exactly as the concrete dataclass
    # does, so a fully-known word determines every symbolic field.
    defaults = dict(
        perms=perms_cls.none(), memtype=memtype_cls.NORMAL,
        page_state=states(0), af=False, owner_id=0,
    )

    unknown = SymDecodedPte(
        kind=None, level=level, oa=None, perms=None, memtype=None,
        page_state=None, af=None, owner_id=None,
    )
    valid = word.test(c("PTE_VALID", 1))
    if valid is None:
        return unknown
    if valid is False:
        annotated = word.test(c("INVALID_OWNER_MASK", 0xFF << 2))
        if annotated is None:
            return unknown
        if annotated:
            owner = word.extract(
                c("INVALID_OWNER_MASK", 0xFF << 2),
                c("INVALID_OWNER_SHIFT", 2),
            )
            return SymDecodedPte(
                kind=kinds.INVALID_ANNOTATED, level=level,
                **{**defaults, "owner_id": owner},
            )
        return SymDecodedPte(kind=kinds.INVALID, level=level, **defaults)
    typed = word.test(c("PTE_TYPE", 2))
    if typed is None:
        return unknown
    if typed:
        if level == leaf_level:
            kind = kinds.PAGE
        else:
            oa = word.extract(c("OA_MASK", 0))
            return SymDecodedPte(
                kind=kinds.TABLE, level=level, oa=oa, **defaults
            )
    else:
        if not supports_block(level):
            return SymDecodedPte(kind=kinds.INVALID, level=level, **defaults)
        kind = kinds.BLOCK

    # A leaf: attributes, output address, software bits.
    xn = word.test(c("PTE_XN", 1 << 54))
    if stage is stage1:
        rdonly = word.test(c("S1_AP_RDONLY", 1 << 7))
        readable: bool | None = True
        writable = None if rdonly is None else not rdonly
        attridx = word.extract(
            c("S1_ATTRIDX_MASK", 0), c("S1_ATTRIDX_SHIFT", 2)
        )
        if attridx is None:
            memtype = None
        elif attridx == c("S1_ATTRIDX_DEVICE", 1):
            memtype = memtype_cls.DEVICE
        else:
            memtype = memtype_cls.NORMAL
    else:
        readable = word.test(c("S2AP_R", 1 << 6))
        writable = word.test(c("S2AP_W", 1 << 7))
        memattr = word.extract(
            c("S2_MEMATTR_MASK", 0), c("S2_MEMATTR_SHIFT", 2)
        )
        if memattr is None:
            memtype = None
        elif memattr == c("S2_MEMATTR_DEVICE", 1):
            memtype = memtype_cls.DEVICE
        else:
            memtype = memtype_cls.NORMAL
    if readable is None or writable is None or xn is None:
        perms = None
    else:
        perms = perms_cls(readable, writable, not xn)
    raw_state = word.extract(
        c("SW_PAGE_STATE_MASK", 0), c("SW_PAGE_STATE_SHIFT", 55)
    )
    if raw_state is None:
        page_state = None
    else:
        try:
            page_state = states(raw_state)
        except ValueError:
            page_state = None  # concrete decode raises here
    oa_for_level = c("oa_mask_for_level", lambda level: 0)
    return SymDecodedPte(
        kind=kind,
        level=level,
        oa=word.extract(oa_for_level(level)),
        perms=perms,
        memtype=memtype,
        page_state=page_state,
        af=word.test(c("PTE_AF", 1 << 10)),
    )


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
    return-register write-back). Hook points:

    - ``analysis`` — the pass name stamped on findings, and ``columns``
      — whether findings carry a source column (0 when False);
    - ``self.rules`` / ``self.rule`` — the op manifest (if any): calls
      to names in ``rules`` trigger :meth:`on_op_call`, and a write in a
      function with ``rule is None`` triggers
      :meth:`on_unmanifested_write` instead of being recorded;
    - :meth:`on_lock_op` — called at each lock operation, before the
      held-lock stack is updated;
    - :meth:`on_exit` — called once per ``return`` or fall-through path
      exit with the classified outcome (``success``/``error``/``maybe``),
      and :meth:`on_raise` once per ``raise`` exit (a panic path, which
      asserts no outcome), both after pending ``finally`` bodies ran;
    - :meth:`on_bail` — called when the path count exceeds
      :data:`MAX_STATES` (the symbolic budget).
    """

    analysis = "symexec"
    columns = True

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
        self.rules: dict = {}
        self.rule = None
        self.findings: list[Finding] = []
        self.finally_stack: list[list[ast.stmt]] = []
        self.bailed = False

    def run(self) -> None:
        entry = PathState()
        self.seed_entry(entry)
        fallthrough = self.exec_block(self.fn.body, [entry])
        if self.bailed:
            self.on_bail()
            return
        for path in fallthrough:
            self._classify_exit(self.fn, path, value=None)

    # -- hooks -------------------------------------------------------------

    def seed_entry(self, entry: PathState) -> None:
        if self.rule is not None:
            for arg in self.fn.args.posonlyargs + self.fn.args.args:
                if arg.arg in PARAM_TABLES:
                    entry.env[arg.arg] = ("table", PARAM_TABLES[arg.arg])
                elif arg.arg in PARAM_OWNERS:
                    entry.env[arg.arg] = ("owner", PARAM_OWNERS[arg.arg])

    def on_exit(self, node: ast.AST, path: PathState, outcome: str) -> None:
        """One non-panic path reached an exit with ``outcome``."""

    def on_raise(self, node: ast.Raise, path: PathState) -> None:
        """One path left the function through ``raise`` at ``node``."""

    def on_lock_op(
        self, kind: str, name: str, node: ast.Call, path: PathState
    ) -> None:
        """``path`` is about to ``acquire``/``release`` lock ``name``."""

    def on_bail(self) -> None:
        """The function exceeded the path budget."""

    def on_op_call(self, op: str, node: ast.Call, path: PathState) -> None:
        """A declared op is invoked at ``node`` with ``path``'s locks."""

    def on_unmanifested_write(
        self, name: str, table: str, node: ast.Call
    ) -> None:
        """A page-table primitive ran outside any declared op."""

    # -- reporting ---------------------------------------------------------

    def _report(self, rule: str, message: str, node) -> None:
        if isinstance(node, Write):
            line, column = node.line, node.column
        else:
            line = getattr(node, "lineno", 0)
            column = getattr(node, "col_offset", -1) + 1
        if not self.columns:
            column = 0
        self.findings.append(
            Finding(
                analysis=self.analysis,
                rule=rule,
                message=message,
                file=self.filename,
                line=line,
                function=self.fn.name,
                column=column,
            )
        )

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
        name = self._call_name(node)
        arg_values = [self.eval(arg, path) for arg in node.args]
        for kw in node.keywords:
            self.eval(kw.value, path)
        if name is None:
            return None
        if name in self.rules and not (
            isinstance(node.func, ast.Name) and name == self.fn.name
        ):
            self.on_op_call(name, node, path)
            return None
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
    ) -> tuple | None:
        kind = WRITE_CALLS[name]
        table = self._resolve_table(node.args[0], path) if node.args else "?"
        if self.rule is None:
            self.on_unmanifested_write(name, table, node)
            return None
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
