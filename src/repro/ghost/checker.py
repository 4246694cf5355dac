"""The runtime test oracle: recording, non-interference, separation, and
the ternary pre/recorded-post/computed-post comparison.

This is the paper's Fig. 6 timeline, generalised to every handler:

- (1) handler entry: record the thread-local pre-state;
- (2,3) each lock acquire: record the abstraction of the protected state
  into the pre-state, after checking it has not changed since the last
  time it was recorded (the §4.4 non-interference invariant);
- (4,5) each lock release: record the abstraction into the post-state and
  commit it as the new shared reference copy;
- (6) handler exit: record the thread-local post-state and the call data;
- (7) run the pure specification function on pre + call data;
- (8) compare. "This comparison is really a ternary check between the
  pre, recorded-post, and computed-post states: where the computed-post is
  not partial it must be equal to the recorded-post, and everywhere else
  must be the same in the pre-state and the recorded-post."

Locks that are re-acquired within a single handler (the paper's "phased"
hypercalls, §1) are recorded but their components are excluded from the
check — the same scoping decision the paper makes.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

from repro.arch.cpu import Cpu
from repro.arch.exceptions import Syndrome
from repro.ghost.abstraction import (
    AbstractionError,
    host_view,
    record_abstraction_vms,
    record_cpu_local,
    record_globals,
)
from repro.arch.defs import Stage
from repro.ghost.arena import arena
from repro.ghost.cache import AbstractionCache, ParanoidMismatchError
from repro.ghost.calldata import GhostCallData
from repro.ghost.diff import diff_components
from repro.ghost.isolation import IsolationSweep
from repro.ghost.spec import SpecAccessError, compute_post_trap, spec_name_for
from repro.ghost.state import (
    GhostIommu,
    GhostIommuDomain,
    GhostPkvm,
    GhostState,
    local_key,
    vm_pgt_key,
)
from repro.obs import Observability
from repro.obs.metrics import LATENCY_BUCKETS_US
from repro.pkvm.defs import s64


class SpecViolation(Exception):
    """The implementation's behaviour disagrees with the specification."""

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail
        super().__init__(f"[{kind}] {detail}")


@dataclass
class Violation:
    kind: str
    detail: str
    component: str = ""

    def __str__(self) -> str:
        where = f" ({self.component})" if self.component else ""
        return f"[{self.kind}]{where} {self.detail}"


@dataclass(frozen=True)
class FrameObservation:
    """One handler's observed ghost diff, exported via the checker's
    ``frame_hook`` for cross-validation against the declared frame
    manifests (``repro.analysis.frame``) and as the campaign's coverage
    points (``repro.testing.campaign.worker.oracle_class``)."""

    #: The dispatched specification function ("" when none applied).
    spec_name: str
    #: Component keys whose recorded post differs from the effective pre.
    changed: frozenset
    #: Component keys the spec's SpecResult claimed to constrain.
    touched: frozenset
    #: Components excluded from the ternary check (re-acquired locks).
    multiphase: frozenset
    #: The implementation's return value.
    ret: int = 0


@dataclass
class GhostCallRecord:
    """Everything recorded for one in-flight exception on one CPU."""

    cpu_index: int
    call: GhostCallData
    pre: dict[str, object] = field(default_factory=dict)
    post: dict[str, object] = field(default_factory=dict)
    #: Components whose lock was taken or released more than once — the
    #: "phased" cases whose check is skipped.
    multiphase: set[str] = field(default_factory=set)
    #: Set when a fail-fast violation already fired mid-handler, so the
    #: exit-time check must not mask the original exception with another.
    aborted: bool = False


class GhostChecker:
    """Attachable oracle for one machine."""

    def __init__(
        self,
        machine,
        *,
        fail_fast: bool = True,
        loose_host: bool = True,
        oracle_cache: bool = True,
        paranoid: bool = False,
    ):
        # Weak: the machine owns its checker (``Machine.checker``,
        # ``PKvm.ghost``), so a checked machine stays free of reference
        # cycles and dies by reference counting, like a bare one.
        self._machine = weakref.ref(machine)
        self.fail_fast = fail_fast
        #: The paper's host-abstraction looseness. False is an ablation:
        #: an over-fitted host abstraction that sees demand mapping.
        self.loose_host = loose_host
        #: The machine's observability bundle: metrics registry (the only
        #: home of the oracle's counters, e.g.
        #: ``obs.metrics.value("oracle_checks_run")``), span tracer, and
        #: flight recorder (dumped on any violation).
        self.obs: Observability = machine.obs
        #: Incremental abstraction cache (invalidation by footprint).
        #: ``oracle_cache=False`` restores the pre-refactor full-recompute
        #: path; ``paranoid=True`` recomputes every hit and asserts the
        #: cached value matches (debug mode, loud on divergence).
        self.cache = AbstractionCache(
            machine.mem, enabled=oracle_cache, paranoid=paranoid, obs=self.obs
        )
        metrics = self.obs.metrics
        self._m_checks_run = metrics.counter("oracle_checks_run")
        self._m_checks_passed = metrics.counter("oracle_checks_passed")
        self._m_checks_skipped = metrics.counter("oracle_checks_skipped")
        self._m_multiphase_skips = metrics.counter(
            "oracle_components_skipped_multiphase"
        )
        self._m_isolation_runs = metrics.counter("oracle_isolation_checks_run")
        self._m_isolation_skips = metrics.counter(
            "oracle_isolation_sweeps_skipped"
        )
        self._m_violations = metrics.counter("oracle_violations")
        self._m_check_latency = metrics.histogram(
            "oracle_check_latency_us", LATENCY_BUCKETS_US
        )
        self._m_ghost_bytes = metrics.gauge("ghost_memory_bytes")
        self._m_ghost_peak = metrics.gauge("ghost_memory_peak_bytes")
        arena.restart_peak()
        self.globals_ = record_globals(machine)
        #: The single shared reference copy of the ghost state used for
        #: the non-interference check (§4.4), per component.
        self.committed: dict[str, object] = {}
        self._records: dict[int, GhostCallRecord] = {}
        self.violations: list[Violation] = []
        #: Cross-component isolation invariant (§3.1's partition), checked
        #: at quiescent handler exits.
        self.check_isolation = True
        # Identity-stamp over the committed dict: the §3.1 isolation sweep
        # only depends on committed component objects, so if none of them
        # changed (by identity) since the last clean sweep, the sweep
        # would recompute the same verdict and can be skipped.
        self._isolation_clean = False
        #: The sweep's state between sweeps (what it last checked clean).
        self._isolation = IsolationSweep()
        #: UART-backed report printer (attached with the machine's UART).
        self.console = None
        #: Optional export hook: called with a :class:`FrameObservation`
        #: after every valid spec check, so external tooling (the frame
        #: analysis' dynamic cross-validation, the campaign's oracle
        #: coverage) can audit the observed ghost diffs without
        #: re-running the oracle.
        self.frame_hook = None

    @property
    def machine(self):
        return self._machine()

    # -- attachment -------------------------------------------------------

    def attach(self) -> None:
        """Hook the locks, install init-time invariant checks, and commit
        the baseline abstraction."""
        from repro.ghost.console import GhostConsole

        pkvm = self.machine.pkvm
        pkvm.ghost = self
        uart = next(
            (r for r in self.machine.mem.regions if r.name == "uart"), None
        )
        if uart is not None:
            self.console = GhostConsole(self.machine.mem, uart.base)
        mp = pkvm.mp
        self._hook(mp.host_lock, "host", self._record_host)
        self._hook(mp.pkvm_lock, "pkvm", self._record_pkvm)
        self._hook(
            pkvm.vm_table.lock,
            "vms",
            lambda: record_abstraction_vms(self.machine.pkvm.vm_table),
        )
        self._hook(pkvm.iommu.iommu_lock, "iommu", self._record_iommu)
        # Baseline for non-interference, as if each lock had been released.
        self.committed["host"] = self._record_host()
        self.committed["pkvm"] = self._record_pkvm()
        self.committed["vms"] = record_abstraction_vms(pkvm.vm_table)
        self.committed["iommu"] = self._record_iommu()
        self._check_init_invariants()

    # -- cached recorders -------------------------------------------------
    #
    # The page-table-backed components go through the abstraction cache:
    # the traversal's footprint is exactly its read set, so a cached result
    # is valid until the root changes or the memory journal shows a write
    # to a footprint page. The vms and cpu-local components read live
    # Python objects (not memory), so there is nothing to invalidate on —
    # they are always recomputed (and are cheap).

    def _record_host(self):
        root = self.machine.pkvm.mp.host_mmu.root
        return self.cache.record(
            "host", root, Stage.STAGE2, lambda pgt: host_view(pgt, self.loose_host)
        )

    def _record_pkvm(self):
        root = self.machine.pkvm.mp.pkvm_pgd.root
        return self.cache.record(
            "pkvm", root, Stage.STAGE1, lambda pgt: GhostPkvm(present=True, pgt=pgt)
        )

    def _record_iommu(self):
        # The refcounts and device sets are live Python objects (always
        # recomputed, cheap); only each domain's shadow stage-2 traversal
        # goes through the cache, keyed per domain like the guest pgts.
        iommu = self.machine.pkvm.iommu
        domains: dict[int, GhostIommuDomain] = {}
        for domain_id in sorted(iommu.domains):
            domain = iommu.domains[domain_id]
            pgt = self.cache.record(
                f"iommu:{domain_id}", domain.s2.root, Stage.STAGE2
            )
            domains[domain_id] = GhostIommuDomain(
                refcount=domain.refcount,
                devices=tuple(sorted(domain.devices)),
                pgt=pgt,
            )
        return GhostIommu(present=True, domains=domains)

    def _hook(self, lock, key: str, recorder) -> None:
        lock.on_acquire.append(
            lambda _lock, cpu_index: self._on_acquire(key, recorder, cpu_index)
        )
        lock.on_release.append(
            lambda _lock, cpu_index: self._on_release(key, recorder, cpu_index)
        )

    def on_vm_created(self, cpu_index: int, vm) -> None:
        """Called (under the vm_table lock) when ``cpu_index``'s handler
        inserts a VM: hook its stage 2 lock and commit its (empty)
        baseline abstraction."""
        key, pgt = vm_pgt_key(vm.handle), vm.pgt
        # The recorder hangs off ``vm.lock``: capturing ``vm`` itself
        # would make a cycle through the lock's hook list.
        recorder = lambda: self.cache.record(key, pgt.root, Stage.STAGE2)  # noqa: E731
        self._hook(vm.lock, key, recorder)
        snapshot = recorder()
        self.committed[key] = snapshot
        self._isolation_clean = False
        record = self._records.get(cpu_index)
        if record is not None:
            record.post[key] = snapshot

    def on_iommu_domain_freed(self, domain_id: int) -> None:
        """Called (under the iommu lock) after ``free_domain`` succeeds:
        drop the domain's cached shadow abstraction — its root page went
        back to the pool and a later domain with the same id gets a new
        tree."""
        self.cache.drop(f"iommu:{domain_id}")
        self._isolation_clean = False

    # -- init-time invariants (catches paper bug 5) --------------------------

    def _check_init_invariants(self) -> None:
        """Sanity-check the freshly booted hyp stage 1.

        Every mapping inside the linear-map VA range must be the linear
        map (va == phys + offset, normal memory); pKVM's private mappings
        (the UART) must lie outside it. The pre-fix linear-map
        initialisation (paper bug 5) violates exactly this on machines
        with enough physical memory.
        """
        pkvm_abs = self.committed["pkvm"]
        offset = self.globals_.hyp_va_offset
        linear_lo = self.globals_.carveout[0] + offset
        linear_hi = self.globals_.carveout[1] + offset
        for maplet in pkvm_abs.pgt.mapping:
            overlaps_linear = maplet.va < linear_hi and maplet.end > linear_lo
            if not overlaps_linear:
                continue
            is_linear = (
                maplet.target.kind == "mapped"
                and maplet.target.oa == maplet.va - offset
                and maplet.target.memtype.value == "M"
            )
            if not is_linear:
                self._report(
                    "init-invariant",
                    "non-linear mapping inside the hyp linear-map range: "
                    + maplet.describe(),
                    component="pkvm",
                )

    # -- lock hooks -------------------------------------------------------

    def _on_acquire(self, key: str, recorder, cpu_index: int) -> None:
        try:
            with self.obs.tracer.span(
                f"oracle:record:{key}", "oracle", tid=cpu_index, at="acquire"
            ):
                snapshot = recorder()
        except AbstractionError as exc:
            self._report("abstraction", str(exc), component=key)
            return
        committed = self.committed.get(key)
        if committed is not None and committed != snapshot:
            self._report(
                "non-interference",
                f"state protected by {key} changed outside its lock:\n"
                + "\n".join(diff_components(key, committed, snapshot)),
                component=key,
            )
            # Accept the new state as the baseline so one corruption does
            # not cascade into every later check.
            self.committed[key] = snapshot
            self._isolation_clean = False
        record = self._records.get(cpu_index)
        if record is None:
            return
        if key in record.pre:
            record.multiphase.add(key)
        else:
            record.pre[key] = snapshot

    def _on_release(self, key: str, recorder, cpu_index: int) -> None:
        try:
            with self.obs.tracer.span(
                f"oracle:record:{key}", "oracle", tid=cpu_index, at="release"
            ):
                snapshot = recorder()
        except AbstractionError as exc:
            self._report("abstraction", str(exc), component=key)
            return
        if self.committed.get(key) is not snapshot:
            self._isolation_clean = False
        self.committed[key] = snapshot
        record = self._records.get(cpu_index)
        if record is None:
            return
        if key in record.post:
            record.multiphase.add(key)
        record.post[key] = snapshot

    # -- handler hooks ------------------------------------------------------

    def on_handler_entry(self, cpu: Cpu, syndrome: Syndrome) -> None:
        record = GhostCallRecord(
            cpu_index=cpu.index, call=GhostCallData.from_syndrome(syndrome)
        )
        record.pre[local_key(cpu.index)] = record_cpu_local(
            cpu, self.machine.pkvm.mp.host_mmu.root
        )
        self._records[cpu.index] = record
        arena.account_state(2)  # the pre/post recording buffers

    # READ_ONCE values, guest events and new VMs belong to the handler
    # running on the CPU that names itself: several CPUs can be
    # mid-handler at once.

    def on_read_once(self, cpu_index: int, phys: int, value: int) -> None:
        record = self._records.get(cpu_index)
        if record is not None:
            record.call.read_once.append((phys, value))

    def on_guest_event(self, cpu_index: int, event) -> None:
        record = self._records.get(cpu_index)
        if record is not None:
            record.call.guest_events.append(event)

    def on_handler_exit(self, cpu: Cpu) -> None:
        record = self._records.pop(cpu.index, None)
        if record is None:
            return
        if record.aborted:
            # A violation already fired (and is propagating) from inside
            # this handler; do not mask it with a second exception.
            arena.release_state(2)
            return
        record.post[local_key(cpu.index)] = record_cpu_local(
            cpu, self.machine.pkvm.mp.host_mmu.root
        )
        record.call.impl_ret = s64(cpu.saved_el1.regs[1])
        record.call.impl_aux = cpu.saved_el1.regs[2]
        vcpu = cpu.loaded_vcpu
        record.call.memcache_after = (
            tuple(vcpu.memcache.pages)
            if vcpu is not None and vcpu.memcache is not None
            else None
        )
        try:
            self._check_record(record)
        finally:
            arena.release_state(2)

    # -- the ternary check ----------------------------------------------------

    def _check_record(self, record: GhostCallRecord) -> None:
        started_ns = time.perf_counter_ns()
        try:
            with self.obs.tracer.span(
                "oracle:check", "oracle", tid=record.cpu_index
            ):
                self._check_record_timed(record)
        finally:
            self._m_check_latency.observe(
                (time.perf_counter_ns() - started_ns) // 1000
            )
            self._m_ghost_bytes.set(arena.live_bytes())
            self._m_ghost_peak.set(arena.peak_bytes)

    def _check_record_timed(self, record: GhostCallRecord) -> None:
        self._m_checks_run.inc()
        g_pre = self._effective_pre(record)
        g_post = GhostState.blank(self.globals_)
        try:
            result = compute_post_trap(
                g_post, g_pre, record.call, record.cpu_index
            )
        except SpecAccessError as exc:
            self._report("spec-access", str(exc))
            return
        if not result.valid:
            self._m_checks_skipped.inc()
            self.obs.metrics.counter(
                "oracle_checks_skipped_by_reason", {"reason": result.note}
            ).inc()
            return
        if self.frame_hook is not None:
            changed = {
                key
                for key in record.post
                if record.post[key] != record.pre.get(key, self.committed.get(key))
            }
            self.frame_hook(
                FrameObservation(
                    spec_name=spec_name_for(g_pre, record.call, record.cpu_index),
                    changed=frozenset(changed),
                    touched=frozenset(result.touched),
                    multiphase=frozenset(record.multiphase),
                    ret=record.call.impl_ret,
                )
            )

        ok = True
        for key in sorted(result.touched | set(record.post)):
            if key in record.multiphase:
                self._m_multiphase_skips.inc()
                continue
            effective_pre = record.pre.get(key, self.committed.get(key))
            if key in result.touched:
                computed = g_post.get_component(key)
                actual = record.post.get(key, effective_pre)
                if computed != actual:
                    ok = False
                    self._report(
                        "post-mismatch",
                        f"{key}: recorded post differs from computed post "
                        f"(impl ret {record.call.impl_ret}, "
                        f"spec ret {result.ret}{'; ' + result.note if result.note else ''}):\n"
                        + "\n".join(diff_components(key, computed, actual)),
                        component=key,
                    )
            else:
                recorded_post = record.post.get(key)
                if recorded_post is not None and recorded_post != effective_pre:
                    ok = False
                    self._report(
                        "frame-violation",
                        f"{key}: changed by a handler whose spec does not "
                        "touch it:\n"
                        + "\n".join(
                            diff_components(key, effective_pre, recorded_post)
                        ),
                        component=key,
                    )
        self._check_separation(record)
        if self.check_isolation and not self._records:
            # Quiescent (no other handler in flight): the committed state
            # must satisfy the global ownership partition. If no committed
            # component object changed since the last clean sweep, the
            # partition verdict is unchanged — skip.
            if self._isolation_clean:
                self._m_isolation_skips.inc()
            else:
                with self.obs.tracer.span(
                    "oracle:isolation-sweep", "oracle", tid=record.cpu_index
                ):
                    self._check_isolation()
                self._isolation_clean = True
        if ok:
            self._m_checks_passed.inc()

    def _effective_pre(self, record: GhostCallRecord) -> GhostState:
        """Assemble the spec's pre-state: recorded components, falling back
        to the committed copies (valid by the non-interference invariant)."""
        g = GhostState.blank(self.globals_)
        for key, value in self.committed.items():
            g.set_component(key, value)
        for key, value in record.pre.items():
            g.set_component(key, value)
        return g

    def _check_separation(self, record: GhostCallRecord) -> None:
        """§4.4: footprints of distinct page tables stay pairwise disjoint."""
        footprints: dict[str, frozenset[int]] = {}
        merged = dict(self.committed)
        merged.update(record.post)
        for key, value in merged.items():
            fp = getattr(value, "footprint", None)
            if fp is None and hasattr(value, "pgt"):
                fp = value.pgt.footprint
            if fp:
                footprints[key] = fp
        keys = sorted(footprints)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                overlap = footprints[a] & footprints[b]
                if overlap:
                    self._report(
                        "separation",
                        f"page-table footprints of {a} and {b} overlap at "
                        + ", ".join(f"{p:#x}" for p in sorted(overlap)),
                        component=a,
                    )

    def _check_isolation(self) -> None:
        """The §3.1 memory-isolation property over the committed state
        (the six pairings are listed in :mod:`repro.ghost.isolation`).

        Incremental: after a clean sweep, only the dirty windows, the
        pages where a sweep input moved, are re-checked. The full sweep
        runs on the first sweep, after a sweep that reported (so a
        standing violation is reported again) and with the abstraction
        cache off (the reference path). Paranoid mode also runs the full
        sweep after every incremental one and fails loudly
        (:class:`ParanoidMismatchError`) if their verdicts differ.
        """
        self._m_isolation_runs.inc()
        offset = self.globals_.hyp_va_offset
        # With the cache off every sweep is a machine's first: full.
        sweep = self._isolation if self.cache.enabled else IsolationSweep()
        found, windows = sweep.run(self.committed, offset, self.cache.changes)
        if windows is not None and self.cache.paranoid:
            full, _ = IsolationSweep().run(self.committed, offset)
            if full != found:
                flight = self.obs.flight
                flight.record(
                    "paranoid-mismatch", component="isolation", what="sweep"
                )
                flight.dump(
                    "paranoid-mismatch",
                    extra={"component": "isolation", "what": "sweep"},
                )
                raise ParanoidMismatchError(
                    f"incremental isolation sweep over {len(windows)} "
                    "window(s) disagrees with the full sweep.\n"
                    f"incremental: {found!r}\nfull:        {full!r}"
                )
        for kind, detail, component in found:
            self._report(kind, detail, component=component)

    # -- reporting --------------------------------------------------------

    def _report(self, kind: str, detail: str, component: str = "") -> None:
        violation = Violation(kind=kind, detail=detail, component=component)
        self.violations.append(violation)
        self._m_violations.inc()
        flight = self.obs.flight
        if flight.enabled:
            # The post-mortem path: leave the violation as the final ring
            # event, then write the whole ring to an artifact before the
            # exception unwinds the campaign/test machinery above us.
            flight.record(
                "violation",
                vkind=kind,
                component=component,
                detail=detail[:500],
            )
            flight.dump(
                f"violation-{kind}",
                extra={"component": component, "detail": detail},
            )
        if self.console is not None and not self.console.lock.held:
            self.console.print_violation(violation)
        if self.fail_fast:
            for record in self._records.values():
                record.aborted = True
            raise SpecViolation(kind, detail)
