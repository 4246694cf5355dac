"""The simulated machine: memory + CPUs + pKVM + host, wired together.

This is the package's main entry point. A :class:`Machine` is the analogue
of the paper's QEMU setup: boot it, get a host you can drive, and (by
default) the ghost specification machinery attached and checking every
trap.

    >>> from repro import Machine
    >>> m = Machine.boot()
    >>> page = m.host.alloc_page()
    >>> m.host.hvc(HypercallId.HOST_SHARE_HYP, page >> 12)
    0
"""

from __future__ import annotations

import time

from repro.arch.cpu import Cpu
from repro.arch.memory import MemoryRegion, PhysicalMemory, default_memory_map
from repro.obs import Observability
from repro.pkvm.bugs import Bugs
from repro.pkvm.host import Host
from repro.pkvm.hyp import PKvm


class Machine:
    """One simulated Arm machine running pKVM."""

    def __init__(
        self,
        nr_cpus: int = 4,
        dram_size: int = 256 * 1024 * 1024,
        *,
        bugs: Bugs | None = None,
        ghost: bool = True,
        carveout_pages: int = 1024,
        memory_map: list[MemoryRegion] | None = None,
        oracle_cache: bool = True,
        paranoid: bool = False,
        obs: Observability | None = None,
    ):
        self.boot_seconds = 0.0
        started = time.perf_counter()
        #: Observability bundle (metrics always on; tracing and the
        #: flight recorder enabled by passing a configured bundle). Every
        #: span this machine causes lands in this bundle and no other.
        self.obs = obs if obs is not None else Observability()
        # Boot runs under its own span so profiler samples taken during
        # machine construction (pKVM init, carveout setup, the first
        # abstraction recording) attribute to a named phase instead of
        # falling into the (no-span) bucket.
        with self.obs.tracer.span("machine:boot", "machine", cpus=nr_cpus):
            self.mem = PhysicalMemory(
                memory_map or default_memory_map(dram_size)
            )
            self.cpus = [Cpu(i) for i in range(nr_cpus)]
            self.bugs = bugs or Bugs()
            self.pkvm = PKvm(
                self.mem,
                self.cpus,
                self.bugs,
                carveout_pages=carveout_pages,
                obs=self.obs,
            )
            self.host = Host(self.mem, self.cpus, self.pkvm)
            self.checker = None
            if ghost:
                from repro.ghost.checker import GhostChecker

                self.checker = GhostChecker(
                    self, oracle_cache=oracle_cache, paranoid=paranoid
                )
                self.checker.attach()
        self.boot_seconds = time.perf_counter() - started
        self.obs.metrics.gauge("machine_boot_seconds").set(
            round(self.boot_seconds, 6)
        )

    @classmethod
    def boot(cls, **kwargs) -> "Machine":
        """Boot a machine with the default configuration."""
        return cls(**kwargs)

    @property
    def ghost_enabled(self) -> bool:
        return self.checker is not None

    def cpu(self, index: int) -> Cpu:
        return self.cpus[index]
