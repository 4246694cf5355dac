"""Custom coverage tooling for the hypervisor and the specification.

The paper could not use the kernel's GCOV at EL2 and had to re-engineer
instrumentation hooks and move coverage data across address spaces (§5).
Our analogue: the standard Python tracing tools (``coverage.py``) are not
in this offline environment, so this module implements line and function
coverage directly on ``sys.settrace``, scoped to chosen
packages — by default the hypervisor implementation and the ghost
specification, the two coverage targets §5 reports (100% of the reachable
share-handler call graph; 92% of spec functions).
"""

from __future__ import annotations

import ast
import dis
import inspect
import sys
import threading
from dataclasses import dataclass, field
from types import CodeType, FrameType

__all__ = ["CoverageTracker"]

#: CO_OPTIMIZED distinguishes real function bodies from module/class-body
#: code objects, which execute at import time (before tracking starts).
CO_OPTIMIZED = inspect.CO_OPTIMIZED


def _executable_lines(code: CodeType) -> set[int]:
    """All line numbers with executable instructions, recursively."""
    lines = {line for _off, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _executable_lines(const)
    return lines


def _import_time_lines(code: CodeType) -> set[int]:
    """Lines executed when the module is imported: the module body and
    class bodies (defs, imports, decorators, constants) — everything
    outside optimized function code objects."""
    if code.co_flags & CO_OPTIMIZED:
        return set()
    lines = {line for _off, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _import_time_lines(const)
    return lines


def unreachable_on_fixed(filename: str) -> set[int]:
    """Lines unreachable on the *fixed* hypervisor.

    The paper "manually identified unreachable code" in the share
    handler's call graph before claiming 100% coverage of the remainder.
    Here that identification is mechanical: the bodies of branches guarded
    by bug-injection flags (``if self.bugs.<flag>``), and internal-error
    panics (``raise HypervisorPanic``) that only fire when an invariant is
    already broken.
    """
    try:
        with open(filename) as f:
            tree = ast.parse(f.read(), filename)
    except (OSError, SyntaxError):
        return set()
    excluded: set[int] = set()

    def _mentions_bugs(node: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Attribute)
            and sub.value.attr == "bugs"
            for sub in ast.walk(node)
        ) or any(
            isinstance(sub, ast.Attribute) and sub.attr == "bugs"
            for sub in ast.walk(node)
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _mentions_bugs(node.test):
            # Only the *buggy* arm is unreachable when fixed; for
            # `if not self.bugs.x:` guards the body IS the fixed path, so
            # exclude just the test-expression complexity conservatively:
            # we exclude the body only for positive guards.
            positive = not (
                isinstance(node.test, ast.UnaryOp)
                and isinstance(node.test.op, ast.Not)
            )
            if positive:
                for stmt in node.body:
                    excluded.update(
                        range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1)
                    )
        if isinstance(node, ast.Raise):
            exc = node.exc
            name = ""
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            if name == "HypervisorPanic":
                excluded.update(
                    range(node.lineno, (node.end_lineno or node.lineno) + 1)
                )
    return excluded


def _functions(code: CodeType, qual_prefix: str = "") -> set[str]:
    names: set[str] = set()
    for const in code.co_consts:
        if isinstance(const, CodeType):
            name = f"{qual_prefix}{const.co_name}"
            if not const.co_name.startswith("<"):
                names.add(name)
            names |= _functions(const, f"{name}.")
    return names


@dataclass
class ModuleCoverage:
    filename: str
    lines_total: set[int] = field(default_factory=set)
    lines_hit: set[int] = field(default_factory=set)
    functions_total: set[str] = field(default_factory=set)
    functions_hit: set[str] = field(default_factory=set)
    #: Lines unreachable on the fixed hypervisor (bug arms, panics).
    unreachable: set[int] = field(default_factory=set)

    @property
    def line_percent(self) -> float:
        if not self.lines_total:
            return 100.0
        hit = len(self.lines_hit & self.lines_total)
        return 100.0 * hit / len(self.lines_total)

    def missed_lines(self) -> list[int]:
        return sorted(self.lines_total - self.lines_hit)


class CoverageTracker:
    """Line and function coverage for modules under chosen path fragments.

    Usage::

        with CoverageTracker(["repro/pkvm", "repro/ghost"]) as cov:
            ...run tests...
        report = cov.report()
    """

    def __init__(self, path_fragments: list[str] | None = None):
        self.path_fragments = path_fragments or ["repro/pkvm", "repro/ghost"]
        self.modules: dict[str, ModuleCoverage] = {}
        self._prev_trace = None

    # -- scoping ------------------------------------------------------------

    def _interesting(self, filename: str) -> bool:
        return any(fragment in filename for fragment in self.path_fragments)

    def _module(self, filename: str) -> ModuleCoverage:
        module = self.modules.get(filename)
        if module is None:
            module = ModuleCoverage(filename)
            try:
                with open(filename) as f:
                    code = compile(f.read(), filename, "exec")
                module.lines_total = _executable_lines(code)
                module.functions_total = _functions(code)
                # Module/class-body lines ran at import, before tracking:
                # count them as hit rather than structurally missed.
                module.lines_hit |= _import_time_lines(code)
                module.unreachable = unreachable_on_fixed(filename)
            except OSError:
                pass
            self.modules[filename] = module
        return module

    # -- tracing ------------------------------------------------------------

    def _trace(self, frame: FrameType, event: str, _arg):
        filename = frame.f_code.co_filename
        if not self._interesting(filename):
            return None  # do not trace into this frame's lines
        module = self._module(filename)
        if event == "call":
            module.functions_hit.add(frame.f_code.co_qualname)
        elif event == "line":
            module.lines_hit.add(frame.f_lineno)
        return self._trace

    def __enter__(self) -> "CoverageTracker":
        self._prev_trace = sys.gettrace()
        sys.settrace(self._trace)
        threading.settrace(self._trace)
        return self

    def __exit__(self, *_exc) -> None:
        sys.settrace(self._prev_trace)
        threading.settrace(self._prev_trace)  # type: ignore[arg-type]

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict[str, ModuleCoverage]:
        return dict(self.modules)

    def totals(
        self, fragment: str = "", *, reachable_only: bool = False
    ) -> tuple[int, int, float]:
        """(lines hit, lines total, percent) over modules matching
        ``fragment`` (empty = everything tracked).

        With ``reachable_only``, lines the static analysis marks as
        unreachable on the fixed hypervisor are removed from the
        denominator — the paper's methodology for its 100% claim.
        """
        hit = total = 0
        for filename, module in self.modules.items():
            if fragment and fragment not in filename:
                continue
            lines = module.lines_total
            if reachable_only:
                lines = lines - module.unreachable
            hit += len(module.lines_hit & lines)
            total += len(lines)
        percent = 100.0 * hit / total if total else 100.0
        return hit, total, percent

    def format_table(self) -> str:
        lines = [f"{'module':<52} {'lines':>12} {'%':>7} {'funcs':>9}"]
        for filename in sorted(self.modules):
            module = self.modules[filename]
            short = filename.split("src/")[-1]
            hit = len(module.lines_hit & module.lines_total)
            lines.append(
                f"{short:<52} {hit:>5}/{len(module.lines_total):<6} "
                f"{module.line_percent:>6.1f} "
                f"{len(module.functions_hit & module.functions_total):>4}/"
                f"{len(module.functions_total):<4}"
            )
        return "\n".join(lines)
