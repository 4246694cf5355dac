#!/usr/bin/env python3
"""A protected VM's full life, every hypercall checked by the oracle.

This is the workload the paper's intro motivates: the Android host
creates a protected guest to handle sensitive data, backs its memory by
donation (losing its own access in the process), the guest runs and
communicates with the host through explicitly shared pages (the virtio
pattern), and teardown returns every page — zeroed — to the host.

Run:  python examples/vm_lifecycle.py
"""

from repro import Machine
from repro.arch.defs import PAGE_SIZE
from repro.arch.exceptions import HostCrash
from repro.testing.proxy import HypProxy


def main() -> None:
    machine = Machine.boot()
    proxy = HypProxy(machine)
    print("=== create a protected VM ===")
    handle = proxy.create_vm(nr_vcpus=1, protected=True)
    idx = proxy.init_vcpu(handle)
    print(f"VM handle {handle:#x}, vCPU {idx}")

    proxy.vcpu_load(handle, idx)
    proxy.topup_memcache(8)
    print("vCPU loaded; memcache topped up with 8 donated pages")

    # Back two guest frames by donation; the host loses access.
    for gfn in (0x40, 0x41):
        assert proxy.map_guest_page(gfn) == 0
    secret_page = proxy.vms[handle].mapped[0x40]
    try:
        machine.host.read64(secret_page)
        raise AssertionError("host still sees the guest's memory!")
    except HostCrash:
        print(f"donated page {secret_page:#x}: host access now faults  [OK]")

    # The guest computes on its private memory, then shares a result page.
    print("\n=== guest runs: private write, then share-back ===")
    proxy.set_guest_script(
        handle,
        idx,
        [
            ("write", 0x40 * PAGE_SIZE, 0x5EC2E7),       # private
            ("write", 0x41 * PAGE_SIZE, 0x600D_BEEF),    # to be shared
            ("share", 0x41 * PAGE_SIZE),
            ("halt",),
        ],
    )
    code, _ = proxy.vcpu_run()
    assert code == 0
    result_page = proxy.vms[handle].mapped[0x41]
    value = machine.host.read64(result_page)
    print(f"host reads the shared result page: {value:#x}")
    assert value == 0x600D_BEEF
    try:
        machine.host.read64(secret_page)
        raise AssertionError("isolation broken")
    except HostCrash:
        print("the guest's private page is still unreachable        [OK]")

    # Demand-paging flow: the guest touches an unbacked frame.
    print("\n=== guest faults on an unbacked frame; host backs it ===")
    proxy.set_guest_script(handle, idx, [("read", 0x80 * PAGE_SIZE), ("halt",)])
    code, fault_ipa = proxy.vcpu_run()
    print(f"vcpu_run exited with mem-abort at IPA {fault_ipa:#x}")
    assert code == 1
    proxy.map_guest_page(fault_ipa // PAGE_SIZE)
    code, _ = proxy.vcpu_run()
    assert code == 0
    print("host mapped the frame; guest resumed and halted          [OK]")

    # Teardown: everything comes back zeroed.
    print("\n=== teardown and reclaim ===")
    machine.mem.write64(secret_page, machine.mem.read64(secret_page))
    proxy.vcpu_put()
    assert proxy.teardown_vm(handle) == 0
    reclaimed = proxy.reclaim_all()
    print(f"{reclaimed} pages reclaimed")
    assert machine.host.read64(secret_page) == 0
    print("the ex-guest page reads as zero from the host: no data leaks")

    metrics = machine.obs.metrics
    print(
        f"\noracle: {metrics.value('oracle_checks_passed')}/"
        f"{metrics.value('oracle_checks_run')} checks passed, "
        f"{len(machine.checker.violations)} violations"
    )


if __name__ == "__main__":
    main()
