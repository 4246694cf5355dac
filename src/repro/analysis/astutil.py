"""AST and source helpers shared by the static analysis passes.

Each helper has one home here, so the passes cannot drift apart:

- **alias/taint resolution** — the pragmatic chain-walking rules the
  paper-style linters share: attribute/subscript chains and *method*
  calls propagate into their receiver (``x.get(k)`` returns a view into
  ``x``), while a call through a plain name (``list(x)``) constructs a
  fresh value and breaks the chain. :func:`root_name` gives the base name
  of such a chain; :func:`access_path` gives the full dotted path with
  subscripts collapsed to ``*``.
- **suppression pragmas** — the one inline escape hatch every pass
  honours: ``# analysis: allow[rule] reason``. A pragma suppresses
  findings for the named rule(s) on its own line, or (when the pragma is
  a comment-only line) on the line below. A pragma with no reason text is
  itself a finding: exclusions must be accountable.
- **the shared AST loader** — :func:`load_module_ast` parses each source
  file once per (mtime, size) and hands the same
  :class:`ParsedModule`, which computes its pragmas and function list at
  most once, to every pass. The purity, frame, lockorder,
  bitfields, and ownership passes all read overlapping file sets
  (``spec.py`` three times over, the ``repro.pkvm`` modules twice);
  without the cache a full ``python -m repro.analysis`` run re-parses
  the same bytes per pass. :func:`ast_cache_stats` feeds the CLI's
  timing line so a regression shows up in CI output.
- **locating what to analyse** — :func:`spec_module_path` and
  :func:`pkvm_root` find installed sources, and :func:`iter_functions`
  enumerates a module's functions at any depth.
- **manifest literals** — :func:`read_manifest` reads a spec module's
  literal manifest (``FRAME_MANIFESTS``, ``OWNERSHIP_EDGES``,
  ``REFINEMENT_SPECS``, ``OOM_PERMITTED``) from its AST, with the
  dataclass that declares the entries as the schema, and reports each
  malformed entry as a ``manifest-parse`` finding.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib.util
import io
import re
import tokenize
import typing
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.report import Finding


# ---------------------------------------------------------------------------
# Shared AST loader
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedModule:
    """One parsed source file, shared by every pass that reads it.

    Its suppression pragmas and its function list are computed on first
    use and kept with it, so a file is tokenized and walked once however
    many passes (or differential re-runs) read it. They live exactly as
    long as the tree: the cache drops all three together when the file
    changes or :func:`clear_ast_cache` runs.
    """

    path: str
    source: str
    tree: ast.Module

    @functools.cached_property
    def pragmas(self) -> tuple[tuple[Pragma, ...], tuple[Finding, ...]]:
        """:func:`scan_pragmas` of the source: the well-formed pragmas,
        and a finding for each malformed one."""
        pragmas, bad = scan_pragmas(self.source, self.path)
        return tuple(pragmas), tuple(bad)

    @functools.cached_property
    def functions(self) -> tuple[tuple[ast.FunctionDef, str | None], ...]:
        """:func:`iter_functions` of the tree, in source order."""
        return tuple(iter_functions(self.tree))


#: resolved path -> ((mtime_ns, size), ParsedModule)
_AST_CACHE: dict[str, tuple[tuple[int, int], ParsedModule]] = {}
_CACHE_STATS = {"parses": 0, "hits": 0}


def load_module_ast(path: str | Path) -> ParsedModule:
    """Parse ``path`` once; later loads of the unchanged file are hits.

    The cache key is (resolved path, mtime, size), so an edited file is
    re-parsed and a long-lived process (the CLI running seven passes,
    the test suite) never sees a stale tree. Syntax errors propagate to
    the caller exactly as ``ast.parse`` raises them.
    """
    resolved = str(Path(path).resolve())
    stat = Path(resolved).stat()
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _AST_CACHE.get(resolved)
    if cached is not None and cached[0] == stamp:
        _CACHE_STATS["hits"] += 1
        return cached[1]
    source = Path(resolved).read_text()
    tree = ast.parse(source, filename=resolved)
    module = ParsedModule(path=resolved, source=source, tree=tree)
    _AST_CACHE[resolved] = (stamp, module)
    _CACHE_STATS["parses"] += 1
    return module


def ast_cache_stats() -> dict[str, int]:
    """Parse/hit counters since start-up (or the last clear)."""
    return dict(_CACHE_STATS)


def clear_ast_cache() -> None:
    _AST_CACHE.clear()
    _CACHE_STATS["parses"] = 0
    _CACHE_STATS["hits"] = 0


# ---------------------------------------------------------------------------
# Locating what to analyse
# ---------------------------------------------------------------------------


def spec_module_path(module: str = "repro.ghost.spec") -> Path:
    """Source file of an installed module (default: the spec module)."""
    spec = importlib.util.find_spec(module)
    if spec is None or spec.origin is None:
        raise FileNotFoundError(f"cannot locate module {module!r}")
    return Path(spec.origin)


def pkvm_root() -> Path:
    """The installed ``repro.pkvm`` package directory."""
    return spec_module_path("repro.pkvm").parent


def iter_functions(tree: ast.Module):
    """Yield (function node, enclosing class name) pairs, at any depth."""

    def visit(node: ast.AST, class_name: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, class_name
                yield from visit(child, class_name)
            else:
                yield from visit(child, class_name)

    yield from visit(tree, None)


# ---------------------------------------------------------------------------
# Manifest literals
# ---------------------------------------------------------------------------

#: The literal each entry or field kind accepts, for messages.
_KIND_WORDS = {
    str: "a string literal",
    frozenset: "a set, tuple or list of string literals",
    tuple: "a set, tuple or list of string literals",
    dict: "a dict of string literals",
}


def _literal(node: ast.expr | None, kind: type):
    """``node`` read as a literal of ``kind`` (``str``, ``frozenset``,
    ``tuple`` or ``dict``, all of strings), or None if it is not one."""
    if kind is str:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None
    if kind is dict:
        if not isinstance(node, ast.Dict):
            return None
        pairs = [
            (_literal(key, str), _literal(value, str))
            for key, value in zip(node.keys, node.values)
        ]
        return None if any(None in pair for pair in pairs) else dict(pairs)
    if not isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        return None
    items = [_literal(elt, str) for elt in node.elts]
    return None if None in items else kind(items)


def read_manifest(
    module: ParsedModule, name: str, analysis: str, schema: type
) -> tuple[dict, dict[str, int], list[Finding]]:
    """Read the module-level literal ``name = ...`` from ``module``'s AST.

    ``schema`` is what each entry is. A dataclass reads a dict of
    ``"key": Schema(field=literal, ...)``: the field names come from
    :func:`dataclasses.fields`, a field without a default is required,
    and each field's annotation (``frozenset``, ``tuple`` or ``dict``)
    names its literal. ``str`` reads a dict of string literals.
    ``frozenset`` reads a set, tuple or list of string literals or
    ``Enum.MEMBER`` attributes, keyed by member name.

    Returns key -> value, key -> line of the key, and one
    ``manifest-parse`` finding of ``analysis`` at each malformed entry,
    which is dropped. A module without the manifest gives ``{}`` and no
    finding.
    """
    findings: list[Finding] = []

    def bad(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                analysis=analysis,
                rule="manifest-parse",
                message=f"{name}: {what}",
                file=module.path,
                line=node.lineno,
                column=node.col_offset + 1,
            )
        )

    tables = [
        node.value
        for node in module.tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id == name
    ]
    entries: dict = {}
    lines: dict[str, int] = {}
    if not tables:
        return entries, lines, findings
    table = tables[-1]
    if schema is frozenset:
        if not isinstance(table, (ast.Set, ast.Tuple, ast.List)):
            bad(table, "must be a set, tuple or list literal")
            return entries, lines, findings
        for elt in table.elts:
            member = (
                elt.attr if isinstance(elt, ast.Attribute) else _literal(elt, str)
            )
            if member is None:
                bad(elt, "members must be string literals or Enum.MEMBER names")
            else:
                entries[member], lines[member] = member, elt.lineno
        return entries, lines, findings
    shape = "str" if schema is str else f"{schema.__name__}(...)"
    if not isinstance(table, ast.Dict):
        bad(table, f"must be a literal dict of str -> {shape}")
        return entries, lines, findings
    for key_node, node in zip(table.keys, table.values):
        key = _literal(key_node, str)
        if key is None:
            bad(key_node or table, "keys must be string literals")
            continue
        value = _read_entry(node, schema, key, bad)
        if value is not None:
            entries[key], lines[key] = value, key_node.lineno
    return entries, lines, findings


@functools.cache
def _schema_fields(schema: type) -> dict[str, tuple[type, bool]]:
    """Field name -> (the literal kind its annotation names, whether it is
    required, having no default) for a dataclass schema."""
    hints = typing.get_type_hints(schema)
    return {
        f.name: (
            typing.get_origin(hints[f.name]) or hints[f.name],
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(schema)
    }


def _read_entry(node: ast.expr, schema: type, key: str, bad):
    """The value of entry ``key`` as a ``schema``, or None once ``bad``
    has reported why it is not one."""
    if schema is str:
        value = _literal(node, str)
        if value is None:
            bad(node, f"{key}: value must be a string literal")
        return value
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == schema.__name__
    ):
        bad(node, f"{key}: value must be a literal {schema.__name__}(...)")
        return None
    fields = _schema_fields(schema)
    values = {}
    for kw in node.keywords:
        if kw.arg not in fields:
            bad(node, f"{key}: unknown {schema.__name__} field {kw.arg!r}")
            return None
        kind = fields[kw.arg][0]
        values[kw.arg] = _literal(kw.value, kind)
        if values[kw.arg] is None:
            bad(kw.value, f"{key}: {kw.arg} must be {_KIND_WORDS[kind]}")
            return None
    missing = [
        field
        for field, (_kind, required) in fields.items()
        if required and field not in values
    ]
    if missing:
        bad(node, f"{key}: {schema.__name__} needs {'= and '.join(missing)}=")
        return None
    return schema(**values)


# ---------------------------------------------------------------------------
# Alias/taint resolution
# ---------------------------------------------------------------------------

#: Method names that mutate their receiver (shared by purity's read-only
#: enforcement and frame's write-footprint inference).
MUTATING_METHODS = frozenset(
    {
        "insert", "remove", "remove_if_present", "splice", "append", "extend",
        "add", "discard", "update", "clear", "pop", "popitem",
        "setdefault", "push", "sort", "reverse", "write", "writelines",
    }
)

#: Method names that return a *view* into their receiver rather than a
#: fresh value; a chain continues through them.
VIEW_METHODS = frozenset(
    {"get", "lookup", "copy", "items", "values", "keys", "runs_in"}
)


def root_name(node: ast.expr) -> str | None:
    """The base Name of an attribute/subscript/method-call chain, or None.

    Method calls propagate to their receiver (``x.get(k)`` aliases into
    ``x``); calls through a plain name (``list(x)``) are treated as
    constructing fresh values and break the chain.
    """
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, (ast.Attribute, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            node = node.func.value
        else:
            return None


def access_path(node: ast.expr) -> tuple[str, tuple[str, ...]] | None:
    """Resolve ``node`` to ``(root name, path segments)``, or None.

    Attributes append their name, subscripts append ``"*"``, and method
    calls continue into their receiver without appending (the method's
    result is treated as a view of the receiver, matching
    :func:`root_name`). ``g.vm_pgts[h].mapping`` resolves to
    ``("g", ("vm_pgts", "*", "mapping"))``.
    """
    segments: list[str] = []
    while True:
        if isinstance(node, ast.Name):
            return node.id, tuple(reversed(segments))
        if isinstance(node, ast.Attribute):
            segments.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            segments.append("*")
            node = node.value
        elif isinstance(node, ast.Starred):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            node = node.func.value
        else:
            return None


def is_prefix(prefix: tuple[str, ...], path: tuple[str, ...]) -> bool:
    """Whether ``prefix`` covers ``path`` (segment-wise prefix match)."""
    return len(prefix) <= len(path) and path[: len(prefix)] == prefix


# ---------------------------------------------------------------------------
# Suppression pragmas
# ---------------------------------------------------------------------------

#: ``# analysis: allow[rule-a,rule-b] because reasons``
_PRAGMA_RE = re.compile(
    r"#\s*analysis:\s*allow\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*)$"
)


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# analysis: allow[...]`` comment."""

    line: int
    rules: frozenset[str]
    reason: str
    #: True when the pragma is the whole line, so it applies to the
    #: following statement rather than its own (blank) one.
    standalone: bool


def scan_pragmas(
    source: str, filename: str
) -> tuple[list[Pragma], list[Finding]]:
    """Parse every suppression pragma in ``source``.

    Returns the well-formed pragmas plus a finding for each malformed one
    (missing reason, empty rule list): an unexplained exclusion is a
    violation in its own right, not a silent no-op.
    """
    pragmas: list[Pragma] = []
    findings: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return [], []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(tok.string)
        if match is None:
            continue
        line = tok.start[0]
        rules = frozenset(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        reason = match.group("reason").strip()
        problem = ""
        if not rules:
            problem = "no rule named in allow[...]"
        elif not reason:
            problem = "no reason text after allow[...]"
        if problem:
            findings.append(
                Finding(
                    analysis="suppression",
                    rule="bad-pragma",
                    message=f"malformed suppression pragma: {problem} "
                    f"(expected '# analysis: allow[rule] reason')",
                    file=filename,
                    line=line,
                    column=tok.start[1] + 1,
                )
            )
            continue
        standalone = tok.line[: tok.start[1]].strip() == ""
        pragmas.append(
            Pragma(line=line, rules=rules, reason=reason, standalone=standalone)
        )
    return pragmas, findings


def apply_pragmas(findings: list[Finding], module: ParsedModule) -> list[Finding]:
    """Filter ``findings`` through the suppression pragmas of ``module``.

    Only findings located in ``module.path`` are eligible; a pragma
    suppresses a finding when the finding's rule is named and its line is
    the pragma's own line (trailing comment) or the line below (standalone
    comment). Malformed pragmas are appended as ``suppression/bad-pragma``
    findings.
    """
    path = module.path
    pragmas, bad = module.pragmas
    allowed: dict[int, frozenset[str]] = {}
    for pragma in pragmas:
        target = pragma.line + 1 if pragma.standalone else pragma.line
        allowed[target] = allowed.get(target, frozenset()) | pragma.rules
    kept = [
        f
        for f in findings
        if not (f.file == path and f.rule in allowed.get(f.line, frozenset()))
    ]
    kept.extend(bad)
    return kept
