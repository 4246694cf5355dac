"""Tests for trace recording and replay: a recorded interaction replays
deterministically, survives serialisation, and reproduces violations."""

import pytest

from repro.arch.defs import PAGE_SIZE, phys_to_pfn
from repro.ghost.checker import SpecViolation
from repro.machine import Machine
from repro.pkvm.bugs import Bugs
from repro.pkvm.defs import HypercallId
from repro.testing.proxy import HypProxy
from repro.testing.trace import Trace


def record_session() -> tuple[HypProxy, dict]:
    """Drive a small session through a recording proxy."""
    machine = Machine()
    tracing = HypProxy(machine, Trace())
    page = 0x4400_0000  # fixed addresses so the replay is identical
    tracing.write64(page, 0xAB)
    ret_share = tracing.hvc(HypercallId.HOST_SHARE_HYP, phys_to_pfn(page))
    ret_double = tracing.hvc(HypercallId.HOST_SHARE_HYP, phys_to_pfn(page))
    ret_unshare = tracing.hvc(HypercallId.HOST_UNSHARE_HYP, phys_to_pfn(page))
    value = tracing.read64(page)
    return tracing, {
        "share": ret_share,
        "double": ret_double,
        "unshare": ret_unshare,
        "value": value,
        "checks": machine.obs.metrics.value("oracle_checks_run"),
    }


class TestReplay:
    def test_replay_reproduces_returns(self):
        tracing, original = record_session()
        machine = tracing.trace.replay()
        # the replayed machine went through the same hypercall sequence
        assert machine.obs.metrics.value("oracle_checks_run") == original["checks"]
        assert machine.checker.violations == []
        # and reached the same final ghost state
        assert not machine.checker.committed["host"].shared

    def test_replay_is_deterministic(self):
        tracing, _ = record_session()
        a = tracing.trace.replay()
        b = tracing.trace.replay()
        assert (
            a.checker.committed["host"].shared
            == b.checker.committed["host"].shared
        )
        assert a.pkvm.traps_handled == b.pkvm.traps_handled

    def test_serialisation_roundtrip(self):
        tracing, _ = record_session()
        text = tracing.trace.dumps()
        restored = Trace.loads(text)
        assert restored.steps == tracing.trace.steps
        machine = restored.replay()
        assert machine.checker.violations == []

    def test_replay_reproduces_a_violation(self):
        """The point of traces: a sequence that trips the oracle on a
        buggy hypervisor trips it again on replay."""
        trace = Trace()
        page = 0x4400_0000
        trace.record_hvc(0, int(HypercallId.HOST_SHARE_HYP), phys_to_pfn(page))
        with pytest.raises(SpecViolation):
            trace.replay(bugs=Bugs.single("synth_share_wrong_state"))
        # the same trace is clean on the fixed hypervisor
        machine = trace.replay()
        assert machine.checker.violations == []

    def test_replay_with_guest_script(self):
        machine = Machine()
        tracing = HypProxy(machine, Trace())
        # build a VM conventionally, then record the script + run via the
        # recording proxy (fixed handle: first VM is always 0x1000)
        proxy = HypProxy(machine)
        handle, idx = proxy.create_running_guest(backed_gfns=[0x40])
        tracing.set_guest_script(
            handle, idx, [("write", 0x40 * PAGE_SIZE, 7), ("halt",)]
        )
        ret = tracing.hvc(HypercallId.VCPU_RUN)
        assert ret == 0
        # the trace alone can't rebuild the VM (that part used the proxy),
        # but its steps serialise and reload faithfully
        restored = Trace.loads(tracing.trace.dumps())
        assert restored.steps == tracing.trace.steps

    def test_unknown_step_kind_rejected(self):
        trace = Trace()
        trace.steps.append(("teleport", 1))
        with pytest.raises(ValueError):
            trace.replay()

    def test_crashy_reads_tolerated_on_replay(self):
        machine = Machine()
        trace = Trace()
        trace.record_read(machine.pkvm.carveout.base)  # would HostCrash
        replayed = trace.replay()  # must not raise
        assert replayed.checker.violations == []
