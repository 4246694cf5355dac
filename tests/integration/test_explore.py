"""Tests for the systematic interleaving explorer."""

import pytest

from repro.arch.defs import phys_to_pfn
from repro.arch.exceptions import HypervisorPanic
from repro.machine import Machine
from repro.pkvm.bugs import Bugs
from repro.pkvm.defs import HypercallId
from repro.sim import Scheduler, explore, run_schedule, yield_point
from repro.testing.proxy import HypProxy


class TestExplorerMechanics:
    def test_single_thread_one_schedule(self):
        def build(sched):
            sched.spawn(lambda: [yield_point() for _ in range(3)], "only")

        result = explore(build, max_schedules=10)
        # one thread -> one runnable choice at every decision -> no branches
        assert result.schedules_run == 1
        assert not result.failures()

    def test_two_thread_branching(self):
        def build(sched):
            for name in ("a", "b"):
                sched.spawn(
                    (lambda n: lambda: [yield_point() for _ in range(2)])(name),
                    name,
                )

        result = explore(build, max_schedules=50)
        assert result.schedules_run > 1
        assert not result.failures()
        # every explored script is distinct
        scripts = [o.script for o in result.outcomes]
        assert len(set(scripts)) == len(scripts)

    def test_budget_respected(self):
        def build(sched):
            for name in ("a", "b", "c"):
                sched.spawn(
                    (lambda n: lambda: [yield_point() for _ in range(4)])(name),
                    name,
                )

        result = explore(build, max_schedules=7)
        assert result.schedules_run == 7
        assert result.truncated

    def test_finds_an_order_dependent_assertion(self):
        """A toy race: the assertion only fails when 'b' wins."""

        def build(sched):
            state = {"winner": None}

            def racer(name):
                def body():
                    yield_point()
                    if state["winner"] is None:
                        state["winner"] = name
                    assert state["winner"] == "a", "b won the race"

                return body

            sched.spawn(racer("a"), "a")
            sched.spawn(racer("b"), "b")

        result = explore(build, max_schedules=30)
        failure = result.first_failure()
        assert failure is not None
        assert isinstance(failure.error, AssertionError)

    def test_outcome_scripts_replay_past_max_depth(self):
        """Runs longer than ``max_depth`` still store their full
        decision log, so every outcome replays its own run."""

        def build(sched):
            for name in ("a", "b"):
                sched.spawn(
                    (lambda n: lambda: [yield_point(f"{n}:{i}") for i in range(150)])(
                        name
                    ),
                    name,
                )

        result = explore(build, max_schedules=3, max_depth=200)
        assert result.schedules_run == 3
        for outcome in result.outcomes:
            assert outcome.decisions == 300
            replay = run_schedule(
                build, Scheduler(policy="script", script=list(outcome.script))
            )
            assert replay.comparable() == outcome.comparable()


class TestExplorerFindsBug3:
    def test_vcpu_race_found_without_manual_sync(self):
        """The headline: systematic exploration finds the vCPU load/init
        race mechanically — no hand-placed window like the targeted
        regression test needs."""

        def build(sched):
            machine = Machine(ghost=False, bugs=Bugs.single("vcpu_load_race"))
            proxy = HypProxy(machine)
            handle = proxy.create_vm(nr_vcpus=2)
            donated = proxy.alloc_page()

            def initer():
                proxy.hvc(
                    HypercallId.INIT_VCPU,
                    handle,
                    phys_to_pfn(donated),
                    cpu_index=0,
                )

            def loader():
                ret = proxy.hvc(
                    HypercallId.VCPU_LOAD, handle, 0, cpu_index=1
                )
                if ret == 0:
                    proxy.hvc(HypercallId.VCPU_RUN, cpu_index=1)

            sched.spawn(initer, "init")
            sched.spawn(loader, "load")

        result = explore(build, max_schedules=400)
        failure = result.first_failure()
        assert failure is not None, "explorer missed the race"
        assert isinstance(failure.error, HypervisorPanic)

    def test_fixed_hypervisor_survives_same_exploration(self):
        def build(sched):
            machine = Machine(ghost=False)
            proxy = HypProxy(machine)
            handle = proxy.create_vm(nr_vcpus=2)
            donated = proxy.alloc_page()

            def initer():
                proxy.hvc(
                    HypercallId.INIT_VCPU,
                    handle,
                    phys_to_pfn(donated),
                    cpu_index=0,
                )

            def loader():
                ret = proxy.hvc(
                    HypercallId.VCPU_LOAD, handle, 0, cpu_index=1
                )
                if ret == 0:
                    proxy.hvc(HypercallId.VCPU_RUN, cpu_index=1)

            sched.spawn(initer, "init")
            sched.spawn(loader, "load")

        result = explore(build, max_schedules=150)
        assert not result.failures()
