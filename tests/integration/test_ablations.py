"""Integration tests for the two ablations (pinning the bench claims)."""

import pytest

from repro.ghost.checker import GhostChecker
from repro.machine import Machine
from repro.testing.random_tester import run_campaign


class TestModelGuidanceAblation:
    def test_unguided_crashes_more(self):
        guided = run_campaign(seed=3, steps=200, ghost=False, guided=True)
        unguided = run_campaign(seed=3, steps=200, ghost=False, guided=False)
        assert unguided.host_crashes > guided.host_crashes

    def test_guided_makes_more_progress(self):
        # Progress = successful calls. Random DRAM addresses can still be
        # shared (most of DRAM is host-owned), so the gap needs a long
        # enough run to show; 250 steps matches the bench.
        guided = run_campaign(seed=3, steps=250, ghost=False, guided=True)
        unguided = run_campaign(seed=3, steps=250, ghost=False, guided=False)
        assert guided.ok_returns > unguided.ok_returns

    def test_unguided_survives_with_oracle(self):
        """Even unguided, the machine (and oracle) survive the crashes —
        crashes unwind the access, the spec still checks the aborts."""
        stats = run_campaign(seed=5, steps=150, ghost=True, guided=False)
        assert stats.spec_violations == 0


class TestLooseHostAbstractionAblation:
    def _demand_fault_workload(self, machine):
        for _ in range(4):
            machine.host.write64(machine.host.alloc_page(), 1)

    def test_loose_abstraction_is_silent_on_demand_faults(self):
        machine = Machine()
        self._demand_fault_workload(machine)
        assert machine.checker.violations == []

    def test_strict_abstraction_misfires(self):
        machine = Machine(ghost=False)
        checker = GhostChecker(machine, fail_fast=False, loose_host=False)
        checker.attach()
        self._demand_fault_workload(machine)
        assert checker.violations

    def test_strict_misfire_is_a_frame_violation(self):
        """The failure mode is precise: the handler changed host state the
        (correct) spec says it must not touch — i.e. the abstraction is
        over-fitted, not the spec wrong."""
        machine = Machine(ghost=False)
        checker = GhostChecker(machine, fail_fast=False, loose_host=False)
        checker.attach()
        self._demand_fault_workload(machine)
        kinds = {v.kind for v in checker.violations}
        assert "frame-violation" in kinds

    def test_spec_and_abstraction_are_codesigned(self):
        """Strictness breaks even hypercalls with no demand mapping: the
        spec computes posts in the loose representation (shared = sharing
        relations only), so an abstraction that also records exclusive
        mappings cannot match it. Spec and abstraction are co-designed —
        changing one requires changing the other (the paper's maintenance
        point about ownership-structure changes, §6)."""
        from repro.pkvm.defs import HypercallId

        machine = Machine(ghost=False)
        page = machine.host.alloc_page()
        machine.host.write64(page, 1)  # pre-fault before attaching strict
        checker = GhostChecker(machine, fail_fast=False, loose_host=False)
        checker.attach()
        machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
        assert checker.violations
        kinds = {v.kind for v in checker.violations}
        assert "post-mismatch" in kinds
