"""Hypercall trace recording and replay.

When the random tester finds a disagreement, the valuable artifact is the
*trace* that provoked it: the exact sequence of hypercalls, host memory
accesses, and guest programs. This module records such traces as plain
data and replays them on a fresh machine — turning a random finding into
a deterministic regression test (how the paper's randomly-found spec
errors become fixtures).

A trace is a list of tuple-shaped steps, so traces serialise trivially
(``repr``/``ast.literal_eval`` round-trip).

Concurrency findings add one ingredient: steps carry the CPU that issued
them (``hvc`` steps always did; ``write``/``read`` steps grow an optional
trailing CPU index), and the trace's ``meta["schedule"]`` carries the
scheduler decision script. :meth:`Trace.spawn` boots a machine and spawns
the per-CPU programs as simulated threads; :meth:`Trace.replay_schedule`
runs them under the ``"script"`` policy — the same deterministic replay
contract as sequential traces, extended to interleavings. A run under any
other policy is ``run_schedule(trace.spawn, scheduler)``
(:func:`repro.sim.explore.run_schedule`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.arch.exceptions import HostCrash
from repro.machine import Machine
from repro.pkvm.bugs import Bugs
from repro.sim.sched import Scheduler


@dataclass
class Trace:
    """A replayable interaction sequence against one machine.

    A trace is *self-contained*: it carries the machine configuration,
    the bug-injection flags the run was made with, and free-form metadata
    (campaign seed, worker id, finding signature, ...), so a recording
    shipped across a process boundary — or saved in a ``campaign.json`` —
    reproduces the run with no other context.
    """

    #: Machine configuration needed to reproduce the run.
    nr_cpus: int = 4
    dram_size: int = 256 * 1024 * 1024
    #: Bug-injection flags enabled during the recording; ``replay`` uses
    #: them unless explicitly overridden.
    bug_names: tuple[str, ...] = ()
    #: Free-form provenance (campaign seed, worker id, signature, ...).
    meta: dict = field(default_factory=dict)
    #: steps: ("hvc", cpu, call_id, args) | ("write", addr, value[, cpu])
    #:      | ("read", addr[, cpu]) | ("script", handle, vcpu_idx, ops)
    #: — host touches recorded on CPU 0 keep their historical 2/3-element
    #: shape, so pre-existing serialised traces load unchanged.
    steps: list[tuple] = field(default_factory=list)

    def record_hvc(self, cpu_index: int, call_id: int, *args: int) -> None:
        self.steps.append(("hvc", cpu_index, int(call_id), tuple(args)))

    def record_write(self, addr: int, value: int, cpu_index: int = 0) -> None:
        if cpu_index:
            self.steps.append(("write", addr, value, cpu_index))
        else:
            self.steps.append(("write", addr, value))

    def record_read(self, addr: int, cpu_index: int = 0) -> None:
        if cpu_index:
            self.steps.append(("read", addr, cpu_index))
        else:
            self.steps.append(("read", addr))

    def record_script(self, handle: int, vcpu_idx: int, ops: list) -> None:
        self.steps.append(("script", handle, vcpu_idx, tuple(map(tuple, ops))))

    def __len__(self) -> int:
        return len(self.steps)

    # -- serialisation -----------------------------------------------------

    def with_steps(self, steps: list[tuple]) -> "Trace":
        """A copy of this trace's configuration carrying ``steps`` —
        the shrinker's candidate constructor."""
        return Trace(
            nr_cpus=self.nr_cpus,
            dram_size=self.dram_size,
            bug_names=self.bug_names,
            meta=dict(self.meta),
            steps=list(steps),
        )

    def dumps(self) -> str:
        return repr(
            {
                "nr_cpus": self.nr_cpus,
                "dram_size": self.dram_size,
                "bug_names": tuple(self.bug_names),
                "meta": self.meta,
                "steps": self.steps,
            }
        )

    @staticmethod
    def loads(text: str) -> "Trace":
        data = ast.literal_eval(text)
        trace = Trace(
            nr_cpus=data["nr_cpus"],
            dram_size=data["dram_size"],
            bug_names=tuple(data.get("bug_names", ())),
            meta=dict(data.get("meta", {})),
        )
        trace.steps = [tuple(step) for step in data["steps"]]
        return trace

    # -- replay -------------------------------------------------------------

    def replay(
        self,
        *,
        ghost: bool = True,
        bugs: Bugs | None = None,
        strict: bool = False,
    ) -> Machine:
        """Replay on a fresh machine; exceptions (violations, panics)
        propagate exactly as they did originally. Host crashes during
        replayed reads/writes are tolerated (they were part of the run)
        unless ``strict`` — the shrinker needs them to propagate, since a
        HostCrash may *be* the finding it is minimising.

        ``bugs`` defaults to the trace's recorded ``bug_names``."""
        machine = self._boot(ghost, bugs)
        for step in self.steps:
            self._apply(machine, step, strict=strict)
        return machine

    def _boot(self, ghost: bool, bugs: Bugs | None) -> Machine:
        """A fresh machine of the trace's configuration; ``bugs``
        defaults to the recorded ``bug_names``."""
        if bugs is None and self.bug_names:
            bugs = Bugs(**{name: True for name in self.bug_names})
        return Machine(
            nr_cpus=self.nr_cpus,
            dram_size=self.dram_size,
            ghost=ghost,
            bugs=bugs,
        )

    @staticmethod
    def step_cpu(step: tuple) -> int:
        """Which CPU a step runs on (0 for legacy cpu-less host touches
        and guest-script installs)."""
        kind = step[0]
        if kind == "hvc":
            return step[1]
        if kind == "write":
            return step[3] if len(step) > 3 else 0
        if kind == "read":
            return step[2] if len(step) > 2 else 0
        return 0

    @staticmethod
    def _apply(machine: Machine, step: tuple, *, strict: bool = False) -> None:
        kind = step[0]
        cpu = machine.cpu(Trace.step_cpu(step))
        if kind == "hvc":
            _k, _cpu_index, call_id, args = step
            machine.host.hvc(call_id, *args, cpu=cpu)
        elif kind == "write":
            addr, value = step[1], step[2]
            try:
                machine.host.write64(addr, value, cpu=cpu)
            except HostCrash:
                if strict:
                    raise
        elif kind == "read":
            try:
                machine.host.read64(step[1], cpu=cpu)
            except HostCrash:
                if strict:
                    raise
        elif kind == "script":
            _k, handle, vcpu_idx, ops = step
            vm = machine.pkvm.vm_table.get(handle)
            if vm is not None and vcpu_idx < len(vm.vcpus):
                vcpu = vm.vcpus[vcpu_idx]
                vcpu.script = [tuple(op) for op in ops]
                vcpu.script_pos = 0
        else:
            raise ValueError(f"unknown trace step kind {kind!r}")

    # -- concurrent replay ---------------------------------------------------

    def per_cpu_steps(self) -> dict[int, list[tuple]]:
        """The trace's steps grouped into per-CPU programs, preserving
        each CPU's issue order (the order *across* CPUs is the
        scheduler's to decide)."""
        programs: dict[int, list[tuple]] = {}
        for step in self.steps:
            programs.setdefault(self.step_cpu(step), []).append(step)
        return programs

    def spawn(
        self,
        scheduler: Scheduler,
        *,
        ghost: bool = False,
        bugs: Bugs | None = None,
        strict: bool = True,
    ) -> Machine:
        """Boot a fresh machine and spawn the trace's per-CPU programs on
        ``scheduler`` as simulated threads; return the machine.

        Thread names are ``cpu<i>``, matching what the scheduler logged
        when the schedule was recorded. This is the ``build`` that
        :func:`repro.sim.explore.run_schedule` takes. Programs are strict
        by default: these traces exist to reproduce concurrency findings,
        so a crash mid-program is the signal, not noise.
        """
        machine = self._boot(ghost, bugs)

        def runner(steps: list[tuple]):
            def body() -> None:
                for step in steps:
                    self._apply(machine, step, strict=strict)

            return body

        for cpu_index, steps in sorted(self.per_cpu_steps().items()):
            scheduler.spawn(runner(steps), f"cpu{cpu_index}")
        return machine

    def replay_schedule(
        self,
        schedule: list[str] | tuple[str, ...] | None = None,
        *,
        ghost: bool = False,
        bugs: Bugs | None = None,
        strict: bool = True,
    ) -> Machine:
        """Replay the trace's per-CPU programs under the ``"script"``
        policy, ``schedule`` (default: the trace's ``meta["schedule"]``).

        Exceptions from any simulated CPU propagate out of
        ``scheduler.run()`` exactly as the original run raised them.
        """
        if schedule is None:
            schedule = self.meta.get("schedule", [])
        scheduler = Scheduler(policy="script", script=list(schedule))
        machine = self.spawn(scheduler, ghost=ghost, bugs=bugs, strict=strict)
        scheduler.run()
        return machine

