"""The subsystem registry: every oracle-checked security boundary.

The paper checks *one* boundary (mem_protect page ownership); scaling the
approach to a production hypervisor means every additional subsystem — the
IOMMU here, vGIC or timers later — must plug its specification into the
same machinery: the checker, the frame hook, the diff, the abstraction
cache, the static analysis passes, and the campaign layers. This module is
the single place a new subsystem is declared; everything else enumerates
``SUBSYSTEMS`` instead of hard-coding ``mem_protect`` paths.

Each subsystem names:

- ``spec_module`` — the module holding its ``compute_post__*`` functions
  and the pure-literal manifests (``HYPERCALL_SPECS``,
  ``FRAME_MANIFESTS``, ``OWNERSHIP_EDGES``, ``REFINEMENT_SPECS``). Spec
  modules obey the purity discipline (``python -m repro.analysis purity``
  runs over every registered spec module).
- ``handler_modules`` — the implementation modules whose handlers the
  ownership/refinement/lockorder passes analyse against those manifests.

The registry itself is deliberately *not* a spec module: spec modules must
stay pure, so the lazy ``importlib`` plumbing lives here and spec modules
only ever import the resolved accessors.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType


@dataclass(frozen=True)
class Subsystem:
    """One registered security boundary."""

    name: str
    spec_module: str
    handler_modules: tuple[str, ...]


#: Every registered subsystem, in check order. Adding an entry here is
#: step 1 of docs/SPEC_GUIDE.md, "Adding a subsystem".
SUBSYSTEMS: tuple[Subsystem, ...] = (
    Subsystem(
        name="mem_protect",
        spec_module="repro.ghost.spec",
        handler_modules=("repro.pkvm.mem_protect", "repro.pkvm.hyp"),
    ),
    Subsystem(
        name="iommu",
        spec_module="repro.ghost.iommu_spec",
        handler_modules=("repro.pkvm.iommu",),
    ),
)


def subsystem(name: str) -> Subsystem:
    for sub in SUBSYSTEMS:
        if sub.name == name:
            return sub
    raise KeyError(f"unknown subsystem {name!r}")


def _spec(sub: Subsystem):
    return importlib.import_module(sub.spec_module)


def _manifest(name: str) -> dict:
    """Merge one named manifest dict across every spec module."""
    merged: dict = {}
    for sub in SUBSYSTEMS:
        merged.update(getattr(_spec(sub), name, {}))
    return merged


@functools.cache
def merged_hypercall_specs() -> MappingProxyType:
    """HypercallId -> compute_post function, across all subsystems:
    built once, read-only because every dispatch shares it."""
    return MappingProxyType(_manifest("HYPERCALL_SPECS"))


def merged_frame_manifests() -> dict:
    """Spec function name -> Frame, across all subsystems."""
    return _manifest("FRAME_MANIFESTS")


def spec_for_hypercall(call_id: int):
    """The registered compute_post function for ``call_id``, or None.

    The one dispatch table behind ``repro.ghost.spec``'s dispatchers;
    kept here so spec modules never import each other (each stays
    independently purity-checkable).
    """
    return merged_hypercall_specs().get(call_id)


def _module_path(module_name: str) -> Path:
    spec = importlib.util.find_spec(module_name)
    assert spec is not None and spec.origin is not None, module_name
    return Path(spec.origin)


def spec_module_paths() -> list[Path]:
    """Source path of every registered spec module (for the AST passes)."""
    return [_module_path(sub.spec_module) for sub in SUBSYSTEMS]


def handler_module_paths(sub: Subsystem | None = None) -> list[Path]:
    """Source paths of handler modules — one subsystem's, or all."""
    subs = (sub,) if sub is not None else SUBSYSTEMS
    paths: list[Path] = []
    for s in subs:
        for module_name in s.handler_modules:
            path = _module_path(module_name)
            if path not in paths:
                paths.append(path)
    return paths


def handler_package_roots() -> list[Path]:
    """Distinct package directories containing registered handlers (the
    lock-discipline pass checks every module under each)."""
    roots: list[Path] = []
    for path in handler_module_paths():
        if path.parent not in roots:
            roots.append(path.parent)
    return roots
