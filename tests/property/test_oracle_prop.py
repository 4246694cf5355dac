"""Property-based end-to-end oracle tests: random *valid-ish* hypercall
sequences on the fixed hypervisor never provoke a spec violation, and the
ownership invariant (each page has exactly one owner story) always holds
in the committed ghost state."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.defs import PAGE_SIZE
from repro.machine import Machine
from repro.pkvm.defs import HypercallId
from repro.testing.proxy import HypProxy

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("share"), st.integers(0, 7)),
        st.tuples(st.just("unshare"), st.integers(0, 7)),
        st.tuples(st.just("touch"), st.integers(0, 7)),
        st.tuples(st.just("bogus_share"), st.integers(0, 3)),
        st.tuples(st.just("vm"), st.integers(0, 1)),
    ),
    max_size=25,
)


@given(ACTIONS)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fixed_hypervisor_never_violates_spec(actions):
    machine = Machine()
    proxy = HypProxy(machine)
    pages = [proxy.alloc_page() for _ in range(8)]
    bogus = [0x0900_0000, 0x2000_0000, 0, 1 << 45]
    vm_handle = None
    for action, arg in actions:
        if action == "share":
            proxy.share_page(pages[arg])
        elif action == "unshare":
            proxy.unshare_page(pages[arg])
        elif action == "touch":
            machine.host.write64(pages[arg], arg)
        elif action == "bogus_share":
            proxy.hvc(HypercallId.HOST_SHARE_HYP, bogus[arg] >> 12)
        elif action == "vm":
            if vm_handle is None:
                vm_handle = proxy.create_vm()
            else:
                proxy.teardown_vm(vm_handle)
                proxy.reclaim_all()
                vm_handle = None
    assert machine.checker.violations == []


@given(ACTIONS)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_ownership_partition_invariant(actions):
    """The isolation property the ghost state encodes: no page is both
    annotated away from the host and in a host sharing relation."""
    machine = Machine()
    proxy = HypProxy(machine)
    pages = [proxy.alloc_page() for _ in range(8)]
    for action, arg in actions:
        if action == "share":
            proxy.share_page(pages[arg])
        elif action == "unshare":
            proxy.unshare_page(pages[arg])
        elif action == "touch":
            machine.host.read64(pages[arg])
        elif action == "vm":
            proxy.create_vm()
        # bogus_share omitted: outcome identical to share of bad page
    host = machine.checker.committed["host"]
    assert not host.annot.domain_overlaps(host.shared)


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_arbitrary_hypercall_numbers_are_safe(call_id):
    machine = Machine()
    ret = machine.host.hvc(call_id, 0x1234, 0x5678)
    known = {int(h) for h in HypercallId}
    if call_id not in known:
        assert ret == -22  # -EINVAL
    assert machine.checker.violations == []
