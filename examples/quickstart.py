#!/usr/bin/env python3
"""Quickstart: boot a pKVM machine with the ghost oracle attached, share a
page with the hypervisor, and watch the specification check it live.

This walks the paper's running example (``host_share_hyp``, §4) end to
end, printing the ghost-state diff the way the paper's §4.2.2 does, and
finishes with the protection-boundary matrix of Fig. 1: who can access
what, as enforced by the stage 2 tables pKVM maintains.

Run:  python examples/quickstart.py
"""

from repro import HypercallId, Machine
from repro.arch.exceptions import HostCrash
from repro.ghost.diff import diff_components
from repro.testing.proxy import HypProxy


def main() -> None:
    print("=== booting (pKVM init + ghost baseline recording) ===")
    machine = Machine.boot()
    proxy = HypProxy(machine)
    print(f"booted in {machine.boot_seconds * 1e3:.1f} ms, "
          f"{len(machine.cpus)} CPUs, ghost oracle attached\n")

    # -- the paper's running example: host_share_hyp ----------------------
    page = proxy.alloc_page()
    pre_host = machine.checker.committed["host"].copy()
    pre_pkvm = machine.checker.committed["pkvm"].copy()

    print(f"=== host_share_hyp(pfn={page >> 12:#x}) ===")
    ret = machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
    print(f"return code: {ret} (checked against the spec at runtime)\n")

    print("recorded post ghost state diff from recorded pre:")
    for line in diff_components(
        "host", pre_host, machine.checker.committed["host"]
    ) + diff_components("pkvm", pre_pkvm, machine.checker.committed["pkvm"]):
        print(" ", line)
    print()

    # -- error path: the same call again must fail -EPERM -----------------
    ret = machine.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
    print(f"sharing the same page again: ret={ret} (-EPERM, also checked)\n")

    # -- Fig. 1's protection boundaries, demonstrated ----------------------
    print("=== protection boundaries (Fig. 1) ===")
    handle, idx = proxy.create_running_guest(backed_gfns=[0x40])
    guest_page = proxy.vms[handle].mapped[0x40]

    def host_can(phys: int) -> str:
        try:
            machine.host.read64(phys)
            return "yes"
        except HostCrash:
            return "NO (fault injected)"

    print(f"host -> its own memory:        {host_can(proxy.alloc_page())}")
    print(f"host -> shared page:           {host_can(page)}")
    print(f"host -> guest-owned page:      {host_can(guest_page)}")
    print(f"host -> pKVM carveout:         {host_can(machine.pkvm.carveout.base)}")

    metrics = machine.obs.metrics
    print(f"\noracle: {metrics.value('oracle_checks_passed')}/"
          f"{metrics.value('oracle_checks_run')} handler checks passed, "
          f"{len(machine.checker.violations)} violations")


if __name__ == "__main__":
    main()
