"""The shared AST helpers: alias chains, suppression pragmas, and the
module-AST cache."""

import ast
import gc
import os
import weakref

from repro.analysis.astutil import (
    ParsedModule,
    Pragma,
    access_path,
    apply_pragmas,
    ast_cache_stats,
    clear_ast_cache,
    is_prefix,
    load_module_ast,
    root_name,
    scan_pragmas,
)
from repro.analysis.report import Finding


def expr(source: str) -> ast.expr:
    return ast.parse(source, mode="eval").body


class TestAccessPath:
    def test_attribute_chain(self):
        assert access_path(expr("g.host.shared")) == ("g", ("host", "shared"))

    def test_subscript_collapses_to_star(self):
        assert access_path(expr("g.vm_pgts[h].mapping")) == (
            "g",
            ("vm_pgts", "*", "mapping"),
        )

    def test_method_call_continues_into_receiver(self):
        assert access_path(expr("g.vms.vms.get(h).vcpus")) == (
            "g",
            ("vms", "vms", "vcpus"),
        )

    def test_plain_name_call_breaks_the_chain(self):
        assert access_path(expr("list(g.host.owned)")) is None

    def test_root_name_matches(self):
        assert root_name(expr("g.pgt.mapping.lookup(ipa)")) == "g"
        assert root_name(expr("sorted(g.host.owned)")) is None


class TestAliasThroughStatements:
    """Alias chains reached via statement targets — tuple unpacking and
    augmented assignment — the shapes the ownership pass walks."""

    def targets(self, source: str):
        stmt = ast.parse(source).body[0]
        if isinstance(stmt, ast.AugAssign):
            return [stmt.target]
        return stmt.targets

    def test_tuple_unpack_targets_resolve_individually(self):
        a, b = ast.parse("kind, state = f()").body[0].targets[0].elts
        assert access_path(a) == ("kind", ())
        assert access_path(b) == ("state", ())

    def test_starred_unpack_target_resolves_through_the_star(self):
        first, rest = ast.parse("x, *g.rest = f()").body[0].targets[0].elts
        assert root_name(rest) == "g"
        assert access_path(rest) == ("g", ("rest",))

    def test_attribute_target_in_tuple_unpack(self):
        (target,) = self.targets("g.host.owned, x = f()")
        left = target.elts[0]
        assert access_path(left) == ("g", ("host", "owned"))

    def test_augassign_target_is_a_normal_chain(self):
        (target,) = self.targets("g.host.refcnt[p] += 1")
        assert access_path(target) == ("g", ("host", "refcnt", "*"))
        assert root_name(target) == "g"

    def test_augassign_through_method_view(self):
        (target,) = self.targets("g.vms.get(h).count += 1")
        assert access_path(target) == ("g", ("vms", "count"))


class TestModuleAstCache:
    def test_second_load_is_a_hit(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        clear_ast_cache()
        first = load_module_ast(target)
        second = load_module_ast(target)
        assert second is first
        stats = ast_cache_stats()
        assert stats == {"parses": 1, "hits": 1}

    def test_edited_file_is_reparsed(self, tmp_path):
        import os

        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        clear_ast_cache()
        first = load_module_ast(target)
        target.write_text("x = 2  # changed\n")
        # mtime granularity can swallow fast rewrites; force it forward.
        info = target.stat()
        os.utime(target, ns=(info.st_atime_ns, info.st_mtime_ns + 1_000_000))
        second = load_module_ast(target)
        assert second is not first
        assert "changed" in second.source
        assert ast_cache_stats() == {"parses": 2, "hits": 0}

    def test_loads_are_keyed_per_file(self, tmp_path):
        a, b = tmp_path / "a.py", tmp_path / "b.py"
        a.write_text("x = 1\n")
        b.write_text("x = 2\n")
        clear_ast_cache()
        assert load_module_ast(a) is not load_module_ast(b)
        assert ast_cache_stats() == {"parses": 2, "hits": 0}

    def test_a_cleared_module_can_be_collected(self, tmp_path):
        """A module's pragmas and function list live on the module, so
        once the cache lets go nothing else pins its tree."""
        target = tmp_path / "m.py"
        target.write_text("def f():\n    return 1  # analysis: allow[r] why\n")
        clear_ast_cache()
        module = load_module_ast(target)
        assert [fn.name for fn, _cls in module.functions] == ["f"]
        assert [p.rules for p in module.pragmas[0]] == [frozenset({"r"})]
        tree = weakref.ref(module.tree)
        del module
        clear_ast_cache()
        gc.collect()
        assert tree() is None

    def test_a_pragma_added_to_an_edited_file_takes_effect(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        finding = Finding(
            analysis="demo",
            rule="noisy",
            message="m",
            file=str(target.resolve()),
            line=1,
        )
        clear_ast_cache()
        first = load_module_ast(target)
        assert apply_pragmas([finding], first) == [finding]
        assert first.functions == ()
        target.write_text("x = 1  # analysis: allow[noisy] reviewed\ndef g(): pass\n")
        info = target.stat()
        os.utime(target, ns=(info.st_atime_ns, info.st_mtime_ns + 1_000_000))
        second = load_module_ast(target)
        assert apply_pragmas([finding], second) == []
        assert [fn.name for fn, _cls in second.functions] == ["g"]

    def test_syntax_errors_propagate(self, tmp_path):
        import pytest

        target = tmp_path / "m.py"
        target.write_text("def broken(:\n")
        with pytest.raises(SyntaxError):
            load_module_ast(target)


class TestIsPrefix:
    def test_prefix_covers_deeper_path(self):
        assert is_prefix(("host",), ("host", "shared"))
        assert is_prefix(("host", "shared"), ("host", "shared"))

    def test_non_prefix(self):
        assert not is_prefix(("host", "annot"), ("host", "shared"))
        assert not is_prefix(("host", "shared", "*"), ("host", "shared"))


class TestScanPragmas:
    def test_trailing_pragma(self):
        pragmas, bad = scan_pragmas(
            "x = 1  # analysis: allow[some-rule] because reasons\n", "f.py"
        )
        assert bad == []
        assert pragmas == [
            Pragma(
                line=1,
                rules=frozenset({"some-rule"}),
                reason="because reasons",
                standalone=False,
            )
        ]

    def test_standalone_pragma_targets_next_line(self):
        pragmas, _ = scan_pragmas(
            "# analysis: allow[a,b] shared helper\nx = 1\n", "f.py"
        )
        assert pragmas[0].standalone
        assert pragmas[0].rules == frozenset({"a", "b"})

    def test_missing_reason_is_a_finding(self):
        pragmas, bad = scan_pragmas("x = 1  # analysis: allow[rule]\n", "f.py")
        assert pragmas == []
        assert [f.rule for f in bad] == ["bad-pragma"]
        assert "no reason" in bad[0].message

    def test_empty_rule_list_is_a_finding(self):
        pragmas, bad = scan_pragmas(
            "x = 1  # analysis: allow[] oops\n", "f.py"
        )
        assert pragmas == []
        assert [f.rule for f in bad] == ["bad-pragma"]

    def test_reasonless_ownership_pragma_rejected_like_any_other(self):
        """The ownership pass gets no special escape hatch: a bare
        ``allow[ownership-rule]`` with no reason is itself a finding."""
        pragmas, bad = scan_pragmas(
            "# analysis: allow[unmanifested-write]\nret = map_range(t)\n",
            "f.py",
        )
        assert pragmas == []
        assert [f.rule for f in bad] == ["bad-pragma"]
        assert bad[0].column >= 1


def parsed(source: str) -> ParsedModule:
    return ParsedModule(path="f.py", source=source, tree=ast.parse(source))


class TestApplyPragmas:
    def _finding(self, rule: str, line: int) -> Finding:
        return Finding(
            analysis="demo", rule=rule, message="m", file="f.py", line=line
        )

    def test_suppresses_named_rule_on_its_line(self):
        source = "x = 1  # analysis: allow[noisy] known-good pattern\n"
        kept = apply_pragmas(
            [self._finding("noisy", 1), self._finding("other", 1)],
            parsed(source),
        )
        assert [f.rule for f in kept] == ["other"]

    def test_standalone_suppresses_the_line_below(self):
        source = "# analysis: allow[noisy] justified\nx = 1\n"
        kept = apply_pragmas([self._finding("noisy", 2)], parsed(source))
        assert kept == []

    def test_bad_pragma_is_appended_not_silently_dropped(self):
        source = "x = 1  # analysis: allow[noisy]\n"
        kept = apply_pragmas([self._finding("noisy", 1)], parsed(source))
        assert {f.rule for f in kept} == {"noisy", "bad-pragma"}

    def test_other_files_untouched(self):
        source = "x = 1  # analysis: allow[noisy] reason\n"
        other = Finding(
            analysis="demo", rule="noisy", message="m", file="g.py", line=1
        )
        assert apply_pragmas([other], parsed(source)) == [other]
