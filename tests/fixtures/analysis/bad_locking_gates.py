"""Lock-discipline fixture for the two rules the other passes on the
shared interpreter do not apply: a bug-gated arm is judged like any
other arm, and a ``raise`` is an exit like any other. Parsed by AST only,
never imported."""


class GatedHypercalls:
    def bug_gate_returns_holding(self, cpu, phys):
        self.mp.host_lock_component(cpu.index)
        if self.bugs.synth_share_skip_check:
            return 0  # early-return-holding: host_mmu never released
        ret = self.mp.do_thing(phys)
        self.mp.host_unlock_component(cpu.index)
        return ret

    def raise_in_try_skips_release(self, cpu, vm):
        vm.lock.acquire(cpu.index)
        try:
            if vm.torn_down:
                raise RuntimeError("dead vm")  # raise-holding: no finally
        except KeyError:
            pass
        vm.lock.release(cpu.index)
        return 0

    def raise_released_by_finally(self, cpu, vm):
        vm.lock.acquire(cpu.index)
        try:
            if vm.torn_down:
                raise RuntimeError("dead vm")  # fine: the finally releases
            return 0
        finally:
            vm.lock.release(cpu.index)
