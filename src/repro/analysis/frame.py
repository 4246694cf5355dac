"""Ghost-frame inference: prove each specification function touches only
the ghost state its hypercall is allowed to.

The checker's ``frame-violation`` verdicts rest on an assumption the repo
previously took on faith: that every ``compute_post__*`` in
``repro.ghost.spec`` reads and writes exactly the components its
hypercall owns. This pass checks that mechanically, two ways:

**Statically** — an interprocedural dataflow analysis over the spec
module's AST infers each specification's *footprint* as access paths over
the ghost state (``host.shared``, ``pkvm.pgt.mapping``,
``vm_pgts[*].mapping``, ``local``, ...). Calls resolve through the
module's own helpers (``_epilogue``, ``_result``, ``_spec_donate_hyp``,
``_spec_guest_event``, the target constructors): a write smuggled through
a helper is attributed to every spec that calls it. The inferred
footprint must stay inside the :class:`~repro.ghost.spec.Frame` manifest
declared next to the spec in ``FRAME_MANIFESTS`` (parsed from the AST,
never imported, so unmerged spec files can be vetted too):

- ``missing-manifest`` — a ``compute_post__*`` with no declared frame;
- ``undeclared-write`` — the body (or a helper it calls) writes a ghost
  path no declared write prefix covers;
- ``undeclared-read`` — likewise for reads of the pre-state (reads of
  the under-construction post-state may also be covered by the write
  frame);
- ``unused-declaration`` — a declared write the body cannot perform
  (manifest drift: stale declarations erode the frame's meaning);
- ``stale-manifest`` / ``manifest-parse`` — manifest hygiene.

**Dynamically** — the ghost checker exports every handler's *observed*
ghost diff through its ``frame_hook``
(:class:`~repro.ghost.checker.FrameObservation`). Replaying the
handwritten tier-1 suite and a short seeded random campaign, every
observed diff (and every ``SpecResult.touched`` claim) must stay inside
the declared write frame: an over-reaching implementation *or* an
under-declared manifest both fail the build (``dynamic-frame-escape``,
``touched-outside-manifest``). The same replay is then repeated with the
incremental abstraction cache disabled and the two observation streams
must match exactly (``cache-divergent-observation``) — a stale cached
abstraction must never be able to mask a frame violation.

The inference is pragmatic in the same sense as the purity linter:
attribute/subscript chains and view methods (``get``/``lookup``/…)
propagate aliases, plain-name calls construct fresh values, and the
result over-approximates — declared ⊇ inferred ⊇ actual, so the dynamic
observations can never legitimately escape a statically-clean manifest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.astutil import (
    MUTATING_METHODS,
    VIEW_METHODS,
    apply_pragmas,
    is_prefix,
    load_module_ast,
    read_manifest,
)
from repro.analysis.report import Finding
from repro.ghost.spec import Frame

SPEC_PREFIX = "compute_post__"

#: GhostState attribute spellings, normalised to manifest path roots.
_SEGMENT_ALIASES = {"globals_": "globals", "locals_": "local"}

#: GhostState methods that access a whole component: name -> (path, kind).
#: ``copy`` methods write the path on their receiver and read it from
#: their first argument; ``view`` methods return an alias of the path.
_STATE_METHODS = {
    "read_gpr": (("local",), "read"),
    "write_gpr": (("local",), "write"),
    "local": (("local",), "view"),
    "copy_abstraction_host": (("host",), "copy"),
    "copy_abstraction_pkvm": (("pkvm",), "copy"),
    "copy_abstraction_vms": (("vms",), "copy"),
    "copy_abstraction_vm_pgt": (("vm_pgts", "*"), "copy"),
    "copy_abstraction_iommu": (("iommu",), "copy"),
    "copy_abstraction_local": (("local",), "copy"),
}

#: View methods whose result narrows into the container (one element).
_ELEMENT_VIEWS = frozenset({"get", "lookup"})

#: Fixpoint iteration cap (the call graph is shallow; this is a guard).
_MAX_ROUNDS = 10


def pretty_path(path: tuple[str, ...]) -> str:
    out = ""
    for seg in path:
        out += "[*]" if seg == "*" else (f".{seg}" if out else seg)
    return out


def _parse_prefix(declared: str) -> tuple[str, ...]:
    return tuple(declared.replace("[*]", ".*").split("."))


def _covered(path: tuple[str, ...], declared: set[str]) -> bool:
    return any(is_prefix(_parse_prefix(d), path) for d in declared)


# ---------------------------------------------------------------------------
# Intra-procedural access collection
# ---------------------------------------------------------------------------


@dataclass
class _CallSite:
    callee: str
    #: formal parameter name -> (root param in caller, alias path).
    argmap: dict[str, tuple[str, tuple[str, ...]]]
    line: int


@dataclass
class _Summary:
    """One function's ghost accesses, rooted at its formal parameters."""

    params: list[str]
    #: (root param, path) -> first line observed.
    reads: dict[tuple[str, tuple[str, ...]], int] = field(default_factory=dict)
    writes: dict[tuple[str, tuple[str, ...]], int] = field(default_factory=dict)
    calls: list[_CallSite] = field(default_factory=list)


class _FnAnalyzer:
    """Collect one function's direct ghost accesses and call sites."""

    def __init__(self, fn: ast.FunctionDef, module_functions: set[str]):
        self.fn = fn
        self.module_functions = module_functions
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        self.summary = _Summary(params=params)
        #: local name -> (root param, alias path)
        self.env: dict[str, tuple[str, tuple[str, ...]]] = {
            p: (p, ()) for p in params
        }

    def run(self) -> _Summary:
        self._block(self.fn.body)
        return self.summary

    # -- recording ---------------------------------------------------------

    def _record(
        self, kind: str, alias: tuple[str, tuple[str, ...]], node: ast.AST
    ) -> None:
        root, path = alias
        if not path:
            return
        store = self.summary.writes if kind == "write" else self.summary.reads
        store.setdefault((root, path), getattr(node, "lineno", 0))

    # -- alias resolution --------------------------------------------------

    def resolve(self, node: ast.expr) -> tuple[str, tuple[str, ...]] | None:
        """Resolve an expression to ``(root param, ghost path)``, or None."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Starred):
            return self.resolve(node.value)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            root, path = base
            seg = _SEGMENT_ALIASES.get(node.attr, node.attr)
            return root, path + (seg,)
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value)
            if base is None:
                return None
            root, path = base
            if path and path[-1] == "local":
                # locals_[cpu] is still the per-thread component.
                return root, path
            return root, path + ("*",)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = self.resolve(node.func.value)
            if base is None:
                return None
            root, path = base
            attr = node.func.attr
            if not path and attr in _STATE_METHODS:
                mapped, kind = _STATE_METHODS[attr]
                if kind == "view":
                    return root, mapped
                return None  # read_gpr etc. return scalars, not aliases
            if attr in VIEW_METHODS:
                if attr in _ELEMENT_VIEWS:
                    return root, path + ("*",)
                return root, path
            return None
        return None

    # -- expression scanning -----------------------------------------------

    def _scan(self, node: ast.expr | None) -> None:
        """Record every ghost read, mutating call, and call site in an
        expression tree."""
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._scan_call(node)
            return
        alias = self.resolve(node)
        if alias is not None:
            self._record("read", alias, node)
            self._scan_off_spine(node)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan(child)
            elif isinstance(child, ast.comprehension):
                self._scan(child.iter)
                for cond in child.ifs:
                    self._scan(cond)
            else:
                for sub in ast.walk(child):
                    if isinstance(sub, ast.Call):
                        self._scan_call(sub)

    def _scan_off_spine(self, node: ast.expr) -> None:
        """Scan the parts of a resolved chain that are not the chain
        itself: subscript indices and view-method arguments."""
        while True:
            if isinstance(node, ast.Attribute):
                node = node.value
            elif isinstance(node, ast.Subscript):
                self._scan(node.slice)
                node = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                for arg in node.args:
                    self._scan(arg)
                for kw in node.keywords:
                    self._scan(kw.value)
                node = node.func.value
            elif isinstance(node, ast.Starred):
                node = node.value
            else:
                return

    def _scan_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.module_functions:
            self.summary.calls.append(self._call_site(func.id, node))
        elif isinstance(func, ast.Attribute):
            base = self.resolve(func.value)
            if base is not None:
                root, path = base
                attr = func.attr
                if not path and attr in _STATE_METHODS:
                    mapped, kind = _STATE_METHODS[attr]
                    if kind == "copy":
                        self._record("write", (root, mapped), node)
                        if node.args:
                            src = self.resolve(node.args[0])
                            if src is not None:
                                self._record(
                                    "read", (src[0], src[1] + mapped), node
                                )
                    elif kind == "write":
                        self._record("write", (root, mapped), node)
                    else:  # view/read
                        self._record("read", (root, mapped), node)
                elif attr in MUTATING_METHODS:
                    self._record("write", (root, path), node)
                else:
                    # Any other method on a ghost alias reads it (hyp_va,
                    # lookup, domain_overlaps, iteration helpers, ...).
                    self._record("read", (root, path), node)
            else:
                self._scan(func.value)
        for arg in node.args:
            self._scan(arg)
        for kw in node.keywords:
            self._scan(kw.value)

    def _call_site(self, callee: str, node: ast.Call) -> _CallSite:
        argmap: dict[str, tuple[str, tuple[str, ...]]] = {}
        formals = None
        # Formals are filled in by the engine (it knows every signature);
        # here we map by position/keyword onto placeholder indices.
        for i, arg in enumerate(node.args):
            alias = self.resolve(arg)
            if alias is not None:
                argmap[f"#{i}"] = alias
        for kw in node.keywords:
            if kw.arg is not None:
                alias = self.resolve(kw.value)
                if alias is not None:
                    argmap[kw.arg] = alias
        del formals
        return _CallSite(callee=callee, argmap=argmap, line=node.lineno)

    # -- statement walk ----------------------------------------------------

    def _block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._assign(target, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            alias = self.resolve(stmt.target)
            if alias is not None:
                self._record("read", alias, stmt)
                self._record("write", alias, stmt)
            self._scan(stmt.value)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                alias = self.resolve(target)
                if alias is not None:
                    self._record("write", alias, stmt)
                    self._scan_off_spine(target)
            return
        if isinstance(stmt, ast.Expr):
            self._scan(stmt.value)
            return
        if isinstance(stmt, ast.Return):
            self._scan(stmt.value)
            return
        if isinstance(stmt, ast.For):
            self._scan(stmt.iter)
            alias = self.resolve(stmt.iter)
            if alias is not None:
                root, path = alias
                for name_node in ast.walk(stmt.target):
                    if isinstance(name_node, ast.Name):
                        self.env[name_node.id] = (root, path + ("*",))
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._scan(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._scan(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._scan(item.context_expr)
            self._block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
            return
        if isinstance(stmt, ast.Raise):
            self._scan(stmt.exc)
            return
        if isinstance(stmt, ast.Assert):
            self._scan(stmt.test)
            return

    def _assign(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    self.env.pop(name_node.id, None)
            self._scan(value)
            return
        if isinstance(target, ast.Name):
            alias = self.resolve(value)
            if alias is not None:
                self._record("read", alias, value)
                self._scan_off_spine(value)
                self.env[target.id] = alias
            else:
                self.env.pop(target.id, None)
                self._scan(value)
            return
        # Attribute/Subscript store through a ghost alias: a write.
        alias = self.resolve(target)
        if alias is not None:
            self._record("write", alias, target)
            self._scan_off_spine(target)
        self._scan(value)


# ---------------------------------------------------------------------------
# Interprocedural engine
# ---------------------------------------------------------------------------


class FootprintEngine:
    """Per-function ghost footprints with calls resolved to a fixpoint."""

    def __init__(self, tree: ast.Module):
        self.functions: dict[str, ast.FunctionDef] = {
            node.name: node
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
        names = set(self.functions)
        self.summaries: dict[str, _Summary] = {}
        for name, fn in self.functions.items():
            self.summaries[name] = _FnAnalyzer(fn, names).run()
        self._resolve_argmaps()
        self._fixpoint()

    def _resolve_argmaps(self) -> None:
        """Replace positional ``#i`` placeholders with formal names."""
        for summary in self.summaries.values():
            for site in summary.calls:
                callee = self.summaries.get(site.callee)
                if callee is None:
                    continue
                resolved: dict[str, tuple[str, tuple[str, ...]]] = {}
                for key, alias in site.argmap.items():
                    if key.startswith("#"):
                        index = int(key[1:])
                        if index < len(callee.params):
                            resolved[callee.params[index]] = alias
                    else:
                        resolved[key] = alias
                site.argmap = resolved

    def _fixpoint(self) -> None:
        for _ in range(_MAX_ROUNDS):
            changed = False
            for summary in self.summaries.values():
                for site in summary.calls:
                    callee = self.summaries.get(site.callee)
                    if callee is None:
                        continue
                    for kind, store in (("read", callee.reads), ("write", callee.writes)):
                        target = summary.reads if kind == "read" else summary.writes
                        for (croot, cpath), _line in store.items():
                            alias = site.argmap.get(croot)
                            if alias is None:
                                continue
                            aroot, apath = alias
                            key = (aroot, apath + cpath)
                            if key not in target:
                                target[key] = site.line
                                changed = True
            if not changed:
                return

    def footprint(
        self, name: str
    ) -> tuple[dict, dict] | None:
        summary = self.summaries.get(name)
        if summary is None:
            return None
        return summary.reads, summary.writes


# ---------------------------------------------------------------------------
# The static pass
# ---------------------------------------------------------------------------


def _pre_param(params: list[str]) -> str | None:
    for p in params:
        if p == "g" or p.startswith("g_pre"):
            return p
    return params[1] if len(params) > 1 else None


def _post_param(params: list[str]) -> str | None:
    for p in params:
        if p.startswith("g_post"):
            return p
    return params[0] if params else None


def check_frames(source_path: str | Path | None = None) -> list[Finding]:
    """Statically check every spec's inferred footprint against its
    declared frame manifest.

    With no explicit ``source_path``, every registered subsystem's spec
    module is checked (``repro.ghost.registry``)."""
    if source_path is not None:
        paths = [Path(source_path)]
    else:
        from repro.ghost.registry import spec_module_paths

        paths = list(spec_module_paths())
    findings: list[Finding] = []
    for path in paths:
        findings.extend(_check_frames_one(path))
    return findings


def _check_frames_one(path: Path) -> list[Finding]:
    module = load_module_ast(path)
    filename = module.path
    manifests, manifest_lines, manifest_findings = read_manifest(
        module, "FRAME_MANIFESTS", "frame", Frame
    )
    engine = FootprintEngine(module.tree)
    findings: list[Finding] = []

    def report(rule: str, message: str, line: int, function: str) -> None:
        findings.append(
            Finding(
                analysis="frame",
                rule=rule,
                message=message,
                file=filename,
                line=line,
                function=function,
            )
        )

    spec_names = [
        name for name in engine.functions if name.startswith(SPEC_PREFIX)
    ]
    for name in sorted(set(manifests) - set(engine.functions)):
        report(
            "stale-manifest",
            f"manifest for {name!r} has no matching function",
            manifest_lines[name],
            name,
        )
    for name in sorted(spec_names):
        fn = engine.functions[name]
        manifest = manifests.get(name)
        if manifest is None:
            report(
                "missing-manifest",
                f"{name} has no FRAME_MANIFESTS entry "
                "(every spec must declare its frame)",
                fn.lineno,
                name,
            )
            continue
        reads, writes = engine.footprint(name)
        summary = engine.summaries[name]
        pre = _pre_param(summary.params)
        post = _post_param(summary.params)

        for (root, path_), line in sorted(writes.items(), key=lambda kv: kv[1]):
            if root != post:
                continue  # writes through the pre-state are purity's beat
            if not _covered(path_, set(manifest.writes)):
                report(
                    "undeclared-write",
                    f"{name} writes {pretty_path(path_)}, outside its "
                    f"declared write frame {sorted(manifest.writes)}",
                    line,
                    name,
                )
        declared_all = set(manifest.writes) | set(manifest.reads)
        for (root, path_), line in sorted(reads.items(), key=lambda kv: kv[1]):
            if root == pre:
                if not _covered(path_, set(manifest.reads)):
                    report(
                        "undeclared-read",
                        f"{name} reads {pretty_path(path_)} from the "
                        f"pre-state, outside its declared read frame "
                        f"{sorted(manifest.reads)}",
                        line,
                        name,
                    )
            elif root == post:
                # Reading back state the spec is constructing is fine as
                # long as it stays inside the combined frame.
                if not _covered(path_, declared_all):
                    report(
                        "undeclared-read",
                        f"{name} reads {pretty_path(path_)} from the "
                        f"post-state, outside its declared frame",
                        line,
                        name,
                    )
        inferred_writes = [p for (r, p) in writes if r == post]
        for declared in sorted(manifest.writes):
            prefix = _parse_prefix(declared)
            used = any(
                is_prefix(prefix, p) or is_prefix(p, prefix)
                for p in inferred_writes
            )
            if not used:
                report(
                    "unused-declaration",
                    f"{name} declares write {declared!r} but its body "
                    "cannot write it (manifest drift)",
                    manifest_lines[name],
                    name,
                )
    # A broken manifest is not suppressible: its findings bypass the
    # pragmas, as in the ownership and refinement passes.
    return manifest_findings + apply_pragmas(findings, module)


# ---------------------------------------------------------------------------
# Dynamic cross-validation
# ---------------------------------------------------------------------------


def _component_root(key: str) -> str:
    root = key.split(":")[0]
    return {"vm_pgt": "vm_pgts"}.get(root, root)


def _collect_observations(
    *,
    suite: bool,
    random_steps: int,
    seed: int,
    oracle_cache: bool = True,
) -> list[tuple[str, object]]:
    """Replay the handwritten suite and/or a seeded random campaign with
    the checker's frame hook attached, collecting every
    :class:`~repro.ghost.checker.FrameObservation` in replay order."""
    from repro.machine import Machine

    observations: list[tuple[str, object]] = []

    if suite:
        from repro.testing.handwritten import ALL_TESTS
        from repro.testing.proxy import HypProxy

        for test in ALL_TESTS:
            machine = Machine(oracle_cache=oracle_cache, **test.machine_kwargs)
            sink: list = []
            machine.checker.frame_hook = sink.append
            try:
                test.body(HypProxy(machine))
            except Exception:  # noqa: BLE001 — outcomes are the harness's beat
                pass
            observations.extend((test.name, obs) for obs in sink)
    if random_steps > 0:
        from repro.testing.random_tester import RandomTester

        machine = Machine(oracle_cache=oracle_cache)
        sink = []
        machine.checker.frame_hook = sink.append
        tester = RandomTester(machine, seed=seed)
        try:
            tester.run(random_steps)
        except Exception:  # noqa: BLE001
            pass
        observations.extend(
            (f"random[seed={seed}]", obs) for obs in sink
        )
    return observations


def cross_validate_frames(
    *,
    suite: bool = True,
    random_steps: int = 200,
    seed: int = 0,
) -> list[Finding]:
    """Replay the handwritten suite (and a short seeded random campaign)
    with the checker's frame hook attached; every observed ghost diff and
    every ``SpecResult.touched`` claim must stay inside the declared
    write frame of the spec that ran."""
    return _frame_escapes(
        _collect_observations(suite=suite, random_steps=random_steps, seed=seed)
    )


def _frame_escapes(observations: list[tuple[str, object]]) -> list[Finding]:
    """The frame rules of :func:`cross_validate_frames` over one replay's
    observations."""
    from repro.ghost.registry import merged_frame_manifests

    FRAME_MANIFESTS = merged_frame_manifests()
    findings: list[Finding] = []
    seen: set[tuple] = set()

    def report(rule: str, message: str, function: str) -> None:
        key = (rule, message)
        if key in seen:
            return
        seen.add(key)
        findings.append(
            Finding(
                analysis="frame",
                rule=rule,
                message=message,
                file="<dynamic>",
                function=function,
            )
        )

    for origin, obs in observations:
        if not obs.spec_name:
            continue
        frame = FRAME_MANIFESTS.get(obs.spec_name)
        if frame is None:
            report(
                "missing-manifest",
                f"{obs.spec_name} ran (in {origin}) but has no frame manifest",
                obs.spec_name,
            )
            continue
        allowed = {w.split(".")[0] for w in frame.writes}
        for key in sorted(obs.changed - obs.multiphase):
            if _component_root(key) not in allowed:
                report(
                    "dynamic-frame-escape",
                    f"{obs.spec_name}: recorded ghost diff touches {key!r}, "
                    f"outside its declared write frame "
                    f"{sorted(frame.writes)} (observed in {origin})",
                    obs.spec_name,
                )
        for key in sorted(obs.touched):
            if _component_root(key) not in allowed:
                report(
                    "touched-outside-manifest",
                    f"{obs.spec_name}: SpecResult.touched claims {key!r}, "
                    f"outside its declared write frame "
                    f"{sorted(frame.writes)} (observed in {origin})",
                    obs.spec_name,
                )
    return findings


def check_cache_equivalence(
    *,
    suite: bool = True,
    random_steps: int = 200,
    seed: int = 0,
) -> list[Finding]:
    """The replay must be oracle-cache-invariant.

    The incremental abstraction cache (:mod:`repro.ghost.cache`) is pure
    plumbing: it must never change *what* the oracle observes, only how
    fast. A cache bug that served a stale abstraction could mask a frame
    violation (the stale pre would swallow the diff), so this rule runs
    the same deterministic replay twice — cache enabled and disabled —
    and demands the two :class:`~repro.ghost.checker.FrameObservation`
    streams be identical, observation for observation.
    """
    replay = dict(suite=suite, random_steps=random_steps, seed=seed)
    return _cache_divergences(
        _collect_observations(**replay, oracle_cache=True),
        _collect_observations(**replay, oracle_cache=False),
    )


def _cache_divergences(
    with_cache: list[tuple[str, object]], without_cache: list[tuple[str, object]]
) -> list[Finding]:
    """The rule of :func:`check_cache_equivalence` over the observations
    of one replay with the oracle cache on and one with it off."""
    findings: list[Finding] = []

    def report(message: str, function: str = "") -> None:
        findings.append(
            Finding(
                analysis="frame",
                rule="cache-divergent-observation",
                message=message,
                file="<dynamic>",
                function=function,
            )
        )

    if len(with_cache) != len(without_cache):
        report(
            f"oracle cache changes the number of frame observations: "
            f"{len(with_cache)} with the cache vs "
            f"{len(without_cache)} without"
        )
    reported = 0
    for (origin_on, obs_on), (origin_off, obs_off) in zip(
        with_cache, without_cache
    ):
        if origin_on == origin_off and obs_on == obs_off:
            continue
        report(
            f"frame observation diverges with the oracle cache enabled: "
            f"cached ({origin_on}) {obs_on!r} != "
            f"uncached ({origin_off}) {obs_off!r}",
            getattr(obs_on, "spec_name", ""),
        )
        reported += 1
        if reported >= 5:  # the first few divergences tell the story
            break
    return findings


def run_frame_pass(
    source_path: str | Path | None = None,
    *,
    dynamic: bool = True,
    random_steps: int = 200,
) -> list[Finding]:
    """The full pass: static inference + (on the real tree) the dynamic
    cross-validation and the cache-equivalence replay, whose random
    campaign keeps seed 0. Both read the same cache-on replay, so the
    pass replays twice: once with the oracle cache, once without.
    ``--spec-module`` targets skip the dynamic half — an unmerged spec
    file has no machine to replay."""
    findings = check_frames(source_path)
    if dynamic and source_path is None:
        replay = dict(suite=True, random_steps=random_steps, seed=0)
        cached = _collect_observations(**replay)
        findings.extend(_frame_escapes(cached))
        findings.extend(
            _cache_divergences(
                cached, _collect_observations(**replay, oracle_cache=False)
            )
        )
    return findings
