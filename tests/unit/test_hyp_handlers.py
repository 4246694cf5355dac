"""Direct unit tests for the trap dispatcher and handler conventions."""

import pytest

from repro.arch.defs import phys_to_pfn
from repro.arch.exceptions import EsrEc, HypervisorPanic, Syndrome
from repro.machine import Machine
from repro.pkvm.bugs import Bugs
from repro.pkvm.defs import EINVAL, HypercallId


@pytest.fixture
def machine():
    return Machine(ghost=False)


class TestDispatch:
    def test_unknown_hypercall_numbers(self, machine):
        for call_id in (0, 1, 0xC600_00FF, 2**63):
            assert machine.host.hvc(call_id) == -EINVAL

    def test_every_known_hypercall_dispatches(self, machine):
        for call in HypercallId:
            ret = machine.host.hvc(call, 0, 0, 0)
            assert isinstance(ret, int)

    def test_instruction_aborts_take_the_abort_path(self, machine):
        """Instruction aborts from EL1 route through the same stage 2
        map-on-demand handler as data aborts."""
        cpu = machine.cpu(0)
        addr = machine.host.alloc_page()
        machine.pkvm.handle_trap(
            cpu, Syndrome(ec=EsrEc.INSTR_ABORT_LOWER, fault_ipa=addr)
        )
        assert cpu.read_gpr(1) == 0  # resolved, host retries the fetch

    def test_eret_always_happens(self, machine):
        """Even a panicking handler must unwind the exception level, or
        the next trap would assert."""
        from repro.arch.exceptions import ExceptionLevel

        cpu = machine.cpu(0)
        try:
            machine.host.read64(machine.pkvm.carveout.base)
        except Exception:  # noqa: BLE001 - HostCrash expected
            pass
        assert cpu.current_el is ExceptionLevel.EL1


class TestReturnConventions:
    def test_success_writes_zero_into_x1(self, machine):
        page = machine.host.alloc_page()
        machine.host.hvc(HypercallId.HOST_SHARE_HYP, phys_to_pfn(page))
        assert machine.cpu(0).read_gpr(1) == 0

    def test_error_is_sign_extended_in_x1(self, machine):
        machine.host.hvc(HypercallId.HOST_UNSHARE_HYP, 0x41234)
        raw = machine.cpu(0).read_gpr(1)
        assert raw > (1 << 63)  # the negative errno as a u64 pattern

    def test_aux_register_carries_fault_ipa(self, machine):
        from repro.testing.proxy import HypProxy

        proxy = HypProxy(machine)
        handle, idx = proxy.create_running_guest()
        proxy.set_guest_script(handle, idx, [("read", 0x123 * 4096), ("halt",)])
        ret, aux = proxy.vcpu_run()
        assert ret == 1
        assert aux == 0x123 * 4096

    def test_missing_ret_write_bug_leaves_stale_registers(self):
        machine = Machine(
            ghost=False, bugs=Bugs.single("synth_missing_ret_write")
        )
        machine.host.hvc(HypercallId.HOST_UNSHARE_HYP, 0x41234)
        # the buggy error path never wrote x1: the argument is still there
        assert machine.cpu(0).read_gpr(1) == 0x41234


class TestReadOnceRecording:
    def test_reads_are_recorded_in_program_order(self):
        machine = Machine()
        seen = []
        orig = machine.checker.on_read_once
        machine.checker.on_read_once = lambda cpu_index, a, v: (
            seen.append((a, v)),
            orig(cpu_index, a, v),
        )
        from repro.testing.proxy import HypProxy

        proxy = HypProxy(machine)
        params = proxy.alloc_page()
        pgd = proxy.alloc_page()
        proxy.write_words(params, [2, 1, phys_to_pfn(pgd)])
        proxy.share_page(params)
        proxy.hvc(HypercallId.INIT_VM, phys_to_pfn(params))
        reads = [(a, v) for a, v in seen if a >= params and a < params + 24]
        assert [v for _a, v in reads] == [2, 1, phys_to_pfn(pgd)]

    def test_concurrent_callouts_reach_their_own_cpus_handler(self):
        """init_vm on cpu0 racing a share on cpu1: every READ_ONCE value
        and the new VM belong to cpu0's record, whichever CPU is
        mid-handler too, so no interleaving skips the init_vm check."""
        from repro.sim.sched import Scheduler
        from repro.testing.proxy import HypProxy

        skipped = 0
        for seed in range(30):
            machine = Machine()
            proxy = HypProxy(machine)
            page = proxy.alloc_page()
            sched = Scheduler(policy="random", seed=seed)
            sched.spawn(lambda: proxy.create_vm(cpu_index=0), "create")
            sched.spawn(lambda: proxy.share_page(page, cpu_index=1), "share")
            sched.run()
            assert machine.checker.violations == []
            skipped += machine.obs.metrics.value("oracle_checks_skipped")
        assert skipped == 0

    def test_guest_cannot_trap_reentrantly(self, machine):
        """Guest execution happens inside the vcpu_run handler; guest ops
        never re-enter handle_trap (no nested EL2 entry)."""
        from repro.testing.proxy import HypProxy

        proxy = HypProxy(machine)
        handle, idx = proxy.create_running_guest(backed_gfns=[0x40])
        before = machine.pkvm.traps_handled
        proxy.set_guest_script(
            handle,
            idx,
            [("share", 0x40 * 4096), ("unshare", 0x40 * 4096), ("halt",)],
        )
        proxy.vcpu_run()
        assert machine.pkvm.traps_handled == before + 1
