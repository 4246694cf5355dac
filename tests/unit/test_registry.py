"""Unit tests for the subsystem registry (repro.ghost.registry): the
one table grouping each oracle-checked boundary's spec module, handler
modules, and ghost-state components."""

import importlib

import pytest

from repro.analysis.astutil import load_module_ast, read_manifest
from repro.ghost.registry import (
    SUBSYSTEMS,
    handler_module_paths,
    handler_package_roots,
    merged_frame_manifests,
    merged_hypercall_specs,
    spec_for_hypercall,
    spec_module_paths,
    subsystem,
)
from repro.ghost.spec import OwnershipRule
from repro.pkvm.defs import HypercallId


class TestRegistryShape:
    def test_both_boundaries_are_registered(self):
        assert [s.name for s in SUBSYSTEMS] == ["mem_protect", "iommu"]

    def test_subsystem_lookup(self):
        assert subsystem("iommu").spec_module == "repro.ghost.iommu_spec"
        with pytest.raises(KeyError):
            subsystem("smmu")

    def test_every_registered_module_imports(self):
        for sub in SUBSYSTEMS:
            importlib.import_module(sub.spec_module)
            for module in sub.handler_modules:
                importlib.import_module(module)

    def test_module_paths_exist_on_disk(self):
        for path in spec_module_paths() + handler_module_paths():
            assert path.exists(), path
        for root in handler_package_roots():
            assert root.is_dir(), root


class TestMergedViews:
    def test_specs_partition_by_call_id(self):
        """No hypercall may be claimed by two subsystems, and every
        IOMMU call must resolve to the iommu subsystem's spec."""
        merged = merged_hypercall_specs()
        per_sub = [
            importlib.import_module(s.spec_module).HYPERCALL_SPECS
            for s in SUBSYSTEMS
        ]
        assert len(merged) == sum(len(specs) for specs in per_sub)
        for call in (
            HypercallId.IOMMU_ALLOC_DOMAIN,
            HypercallId.IOMMU_MAP_PAGES,
        ):
            assert spec_for_hypercall(call) is not None

    def test_frame_manifests_cover_every_spec(self):
        manifests = merged_frame_manifests()
        for name, spec in merged_hypercall_specs().items():
            assert spec.__name__ in manifests, spec.__name__

    def test_ownership_and_refinement_merge(self):
        """The static passes read these two manifests from every
        registered spec module's AST."""
        edges: dict = {}
        refine: dict = {}
        for path in spec_module_paths():
            module = load_module_ast(path)
            edges.update(
                read_manifest(module, "OWNERSHIP_EDGES", "ownership", OwnershipRule)[0]
            )
            refine.update(
                read_manifest(module, "REFINEMENT_SPECS", "refinement", str)[0]
            )
        assert "do_map_pages" in edges and "do_unmap_pages" in edges
        assert "do_map_pages" in refine
        # mem_protect's entries survive the merge untouched.
        assert any(name.startswith("do_share") for name in edges)


class TestCheckerUsesRegistry:
    def test_unknown_hypercall_has_no_spec(self):
        assert spec_for_hypercall(0xDEAD_BEEF) is None

    def test_spec_dispatch_matches_registry(self):
        """The spec module's dispatcher and the registry agree on which
        compute_post runs for an IOMMU call: mem_protect's own table has
        no entry, so dispatch falls through to the registry."""
        from repro.ghost import spec as spec_mod

        by_registry = spec_for_hypercall(HypercallId.IOMMU_ALLOC_DOMAIN)
        assert by_registry is not None
        assert (
            HypercallId.IOMMU_ALLOC_DOMAIN not in spec_mod.HYPERCALL_SPECS
        )
        assert by_registry.__name__ == "compute_post__iommu_alloc_domain"
