#!/usr/bin/env python3
"""A virtio-style console on a *non-protected* guest.

The paper (§2): "guests can share/unshare virtual machine memory back
with the host and communicate with the host through pagefaults (typically
with virtio)". This example builds that pattern both ways:

- a non-protected guest whose ring buffer the host simply *lends* in
  (``host_share_guest``: host keeps access), and
- a protected guest that owns its memory and explicitly shares one ring
  page back to the host, signalling via a pagefault-exit doorbell.

Every hypercall is oracle-checked throughout.

Run:  python examples/virtio_console.py
"""

from repro import HypercallId, Machine
from repro.arch.defs import PAGE_SIZE, phys_to_pfn
from repro.testing.proxy import HypProxy

RING_GFN = 0x40
DOORBELL_GFN = 0x200  # never backed: touching it is the doorbell


def nonprotected_flow(machine, proxy) -> None:
    print("=== non-protected guest: host lends the ring buffer in ===")
    handle = proxy.create_vm(nr_vcpus=1, protected=False)
    idx = proxy.init_vcpu(handle)
    proxy.vcpu_load(handle, idx)
    proxy.topup_memcache(6)

    ring = proxy.alloc_page()
    ret = proxy.hvc(HypercallId.HOST_SHARE_GUEST, phys_to_pfn(ring), RING_GFN)
    assert ret == 0
    machine.host.write64(ring, 0x524551)  # host writes "REQ"

    # guest reads the request, writes a response, rings the doorbell
    proxy.set_guest_script(
        handle,
        idx,
        [
            ("read", RING_GFN * PAGE_SIZE),
            ("write", RING_GFN * PAGE_SIZE + 8, 0x414B),  # "AK"
            ("read", DOORBELL_GFN * PAGE_SIZE),           # doorbell fault
            ("halt",),
        ],
    )
    code, fault_ipa = proxy.vcpu_run()
    assert code == 1 and fault_ipa == DOORBELL_GFN * PAGE_SIZE
    print(f"doorbell: guest exited with a pagefault at {fault_ipa:#x}")
    response = machine.host.read64(ring + 8)
    print(f"host reads the guest's response in place: {response:#x}")
    assert response == 0x414B

    proxy.hvc(HypercallId.HOST_UNSHARE_GUEST, phys_to_pfn(ring), RING_GFN)
    proxy.vcpu_put()
    proxy.teardown_vm(handle)
    proxy.reclaim_all()
    print("ring withdrawn, VM torn down\n")


def protected_flow(machine, proxy) -> None:
    print("=== protected guest: the guest shares its ring page out ===")
    handle, idx = proxy.create_running_guest(backed_gfns=[RING_GFN])
    ring_phys = proxy.vms[handle].mapped[RING_GFN]

    proxy.set_guest_script(
        handle,
        idx,
        [
            ("write", RING_GFN * PAGE_SIZE, 0x52455350),  # "RESP"
            ("share", RING_GFN * PAGE_SIZE),
            ("read", DOORBELL_GFN * PAGE_SIZE),            # doorbell
            ("halt",),
        ],
    )
    code, fault_ipa = proxy.vcpu_run()
    assert code == 1
    value = machine.host.read64(ring_phys)
    print(f"host reads the shared ring after the doorbell: {value:#x}")
    assert value == 0x52455350

    # the rest of the guest's memory stays out of reach
    from repro.arch.exceptions import HostCrash

    proxy.map_guest_page(0x41)
    private = proxy.vms[handle].mapped[0x41]
    try:
        machine.host.read64(private)
        raise AssertionError("isolation broken")
    except HostCrash:
        print("the guest's private page still faults for the host   [OK]")

    proxy.vcpu_put()
    proxy.teardown_vm(handle)
    proxy.reclaim_all()
    print("VM torn down, pages reclaimed\n")


def main() -> None:
    machine = Machine.boot()
    proxy = HypProxy(machine)
    nonprotected_flow(machine, proxy)
    protected_flow(machine, proxy)
    metrics = machine.obs.metrics
    print(
        f"oracle: {metrics.value('oracle_checks_passed')}/"
        f"{metrics.value('oracle_checks_run')} checks passed, "
        f"{len(machine.checker.violations)} violations, "
        f"{metrics.value('oracle_isolation_checks_run')} isolation sweeps"
    )


if __name__ == "__main__":
    main()
