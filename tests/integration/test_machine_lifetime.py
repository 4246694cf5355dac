"""A checked machine dies by reference counting, and leaves the ghost
arena as it found it.

A checked machine holds no reference cycles (the checker, the lock hooks
and the vCPUs point back at their owners weakly), so it is freed the
moment its last reference goes: long campaigns do not depend on the
cycle collector, which a fast oracle allocates too little to trigger.
A scheduled machine is freed the same way: a simulated thread refers to
its scheduler weakly, so the scheduler, its threads and their closures
die with the run. These tests run with the collector disabled to prove
it.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.arch.defs import PAGE_SIZE
from repro.ghost.arena import arena
from repro.machine import Machine
from repro.testing.campaign.concurrency import CONCURRENCY_SCENARIOS
from repro.testing.campaign.engine import CampaignConfig, CampaignEngine
from repro.testing.proxy import HypProxy


@pytest.fixture
def no_collector():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_vm_lifecycle(machine: Machine) -> None:
    """Share a few pages, then create, run, tear down and reclaim a VM."""
    proxy = HypProxy(machine)
    for _ in range(4):
        assert proxy.share_page(proxy.alloc_page()) == 0
    handle, idx = proxy.create_running_guest(
        memcache_pages=4, backed_gfns=[0x40, 0x41]
    )
    proxy.set_guest_script(handle, idx, [("write", 0x40 * PAGE_SIZE, 1), ("halt",)])
    assert proxy.vcpu_run()[0] == 0
    assert proxy.vcpu_put() == 0
    assert proxy.teardown_vm(handle) == 0
    assert proxy.reclaim_all() > 0


def test_checked_machine_is_freed_on_del(no_collector):
    machine = Machine()
    run_vm_lifecycle(machine)
    assert machine.checker.violations == []
    refs = [
        weakref.ref(obj)
        for obj in (machine, machine.checker, machine.pkvm, machine.mem)
    ]
    del machine
    assert [ref() for ref in refs] == [None] * len(refs)


def assert_campaign_leaves_no_unreachable_objects(config: CampaignConfig) -> None:
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report = CampaignEngine(config).run()
        assert report.total_steps == config.budget and not report.findings
        del report
        unreachable = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert unreachable == 0, kinds.most_common(10)


def test_campaign_leaves_no_unreachable_objects(no_collector):
    assert_campaign_leaves_no_unreachable_objects(
        CampaignConfig(
            workers=1, inline=True, budget=600, batch_steps=600, seed=0, coverage="off"
        )
    )


def test_concurrency_campaign_leaves_no_unreachable_objects(no_collector):
    assert_campaign_leaves_no_unreachable_objects(
        CampaignConfig(
            workers=1,
            inline=True,
            mode="concurrency",
            scenario="vcpu-race",
            budget=8,
            batch_steps=8,
            seed=0,
            shrink=False,
            coverage="off",
        )
    )


def test_scheduled_machine_is_freed_on_del(no_collector):
    machine = CONCURRENCY_SCENARIOS["vcpu-race"]().replay_schedule([])
    refs = [weakref.ref(obj) for obj in (machine, machine.pkvm, machine.mem)]
    del machine
    assert [ref() for ref in refs] == [None] * len(refs)


def test_arena_is_balanced_and_peak_is_per_machine(no_collector):
    peaks = []
    for _ in range(2):
        before = arena.live_bytes()
        machine = Machine()
        run_vm_lifecycle(machine)
        peaks.append(machine.obs.metrics.gauge("ghost_memory_peak_bytes").value)
        del machine
        assert arena.live_bytes() == before
    assert peaks[0] > 0
    assert peaks[0] == peaks[1]
