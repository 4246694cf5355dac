"""Reified specification functions: the intended effect of every pKVM
exception handler, as a computable function over ghost state.

Each ``compute_post__*`` function is the paper's Fig. 5 shape:

- it reads ONLY the ghost pre-state and the ghost call data — never the
  implementation state (the spec/impl hygiene boundary);
- it writes the expected post-state into ``g_post``, touching only the
  components the hypercall owns, and declares exactly which (the
  partiality that the checker's ternary comparison interprets);
- it returns a :class:`SpecResult` whose ``valid`` is False when no valid
  specification applies (the paper's *gradual specification* escape: at
  present the looseness cases are implementation ``-ENOMEM`` failures and
  READ_ONCE divergence).

Determinism recovery (paper §4.3): values pKVM read from host-racy memory
are replayed from ``call.read_once``; the implementation return value is
consulted only for the permitted-looseness cases; the loaded vCPU's
memcache after a guest map is taken from ``call.memcache_after`` (which
table pages a guest mapping consumed is not a function of the extensional
pre-state).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.arch.defs import PAGE_SIZE, MemType, Perms
from repro.arch.exceptions import EsrEc
from repro.arch.pte import PageState
from repro.ghost.calldata import GhostCallData
from repro.ghost.maplets import MapletTarget
from repro.ghost.registry import spec_for_hypercall
from repro.ghost.state import (
    AbstractPgtable,
    GhostLoadedVcpu,
    GhostState,
    GhostVcpuRef,
    GhostVm,
    local_key,
    vm_pgt_key,
)
from repro.pkvm.defs import (
    E2BIG,
    EBUSY,
    EINVAL,
    ENOENT,
    ENOMEM,
    EPERM,
    MEMCACHE_CAPACITY,
    MEMCACHE_TOPUP_MAX,
    HypercallId,
    OwnerId,
    u64,
)
from repro.pkvm.vm import HANDLE_OFFSET, MAX_VCPUS, MAX_VMS

#: Hypercalls permitted by the loose spec to fail with -ENOMEM at the
#: implementation's discretion (paper §4.3).
OOM_PERMITTED = {
    HypercallId.HOST_SHARE_HYP,
    HypercallId.HOST_UNSHARE_HYP,
    HypercallId.HOST_MAP_GUEST,
    HypercallId.HOST_SHARE_GUEST,
    HypercallId.INIT_VM,
    HypercallId.INIT_VCPU,
    HypercallId.MEMCACHE_TOPUP,
}


@dataclass
class SpecResult:
    """Outcome of one specification function."""

    valid: bool
    #: Component keys the computed post-state constrains.
    touched: set[str]
    #: Expected return value (informational; the authoritative value is
    #: in the post-state registers).
    ret: int = 0
    note: str = ""

    @staticmethod
    def skip(note: str) -> "SpecResult":
        return SpecResult(valid=False, touched=set(), note=note)


class SpecAccessError(Exception):
    """The spec needed a ghost component that was never recorded — an
    instrumentation gap, reported as its own violation category."""


@dataclass(frozen=True)
class Frame:
    """The declared ghost-state footprint of one specification function.

    ``reads`` and ``writes`` are access-path prefixes over the ghost
    state, dotted and rooted at its components: ``"host"``,
    ``"host.shared"``, ``"pkvm.pgt.mapping"``, ``"vms"``, ``"vm_pgts"``,
    ``"local"``, ``"globals"``. A declared prefix covers every access
    underneath it. The frame analysis (``python -m repro.analysis
    frame``) proves the function body — through every helper it calls —
    stays inside the declaration, and the runtime cross-validation proves
    the recorded ghost diffs of the tier-1 suite do too.
    """

    reads: frozenset
    writes: frozenset


@dataclass(frozen=True)
class OwnershipRule:
    """The declared page-state transition system of one hypervisor op.

    One rule per ``do_*`` operation in ``repro.pkvm.mem_protect`` (plus
    the host-abort demand mapper). Fields are keyed by page table —
    ``"host_mmu"``, ``"pkvm_pgd"``, or ``"guest"`` — and describe what a
    *correct* implementation does:

    - ``checks``: the ``PageState`` the op must verify per table before
      mutating anything (``{"host_mmu": "OWNED"}`` means the host
      stage-2 entry must be checked to be OWNED first).
    - ``success``: the effect each table receives on every successful
      path, as ``"map:<STATE>"``, ``"unmap"``, or ``"set_owner:<WHO>"``
      (``<WHO>`` is an ``OwnerId`` name or ``"caller"`` for the
      guest-handle parameter).
    - ``rollback``: effects additionally permitted on *error* paths
      only — the undo writes of a failed second half.
    - ``paired``: tables whose effects are atomic as a group — a
      success path applying one must apply all (the paper's
      share/unshare pairing of host stage-2 with hyp stage-1).
    - ``locks``: the ``HypSpinLock`` names that must be held around
      every one of the op's page-table writes.

    Only ``success`` is required. Like :class:`Frame` manifests, values
    are pure literals: the ownership analysis reads them from this
    module's AST without importing it, with this class as the schema.
    """

    success: dict
    checks: dict = field(default_factory=dict)
    rollback: dict = field(default_factory=dict)
    paired: tuple = ()
    locks: tuple = ()


# ---------------------------------------------------------------------------
# Shared helpers (ghost-state-only, mirroring the paper's auxiliaries)
# ---------------------------------------------------------------------------


def is_owned_exclusively_by_host(g: GhostState, phys: int) -> bool:
    """Fig. 5's ``is_owned_exclusively_by(g_pre, GHOST_HOST, phys)``:
    not annotated to another owner and not in any sharing relation."""
    _require(g.host.present, "host")
    return g.host.annot.lookup(phys) is None and g.host.shared.lookup(phys) is None


def _require(present: bool, what: str) -> None:
    if not present:
        raise SpecAccessError(f"ghost component {what!r} unavailable to spec")


def host_shared_target(g: GhostState, phys: int, state: PageState) -> MapletTarget:
    """Host stage 2 attributes for a page entering a sharing relation."""
    is_memory = g.globals_.addr_is_allowed_memory(phys)
    if is_memory:
        return MapletTarget.mapped(phys, Perms.rwx(), MemType.NORMAL, state)
    return MapletTarget.mapped(phys, Perms.rw(), MemType.DEVICE, state)


def hyp_target(g: GhostState, phys: int, state: PageState) -> MapletTarget:
    """pKVM stage 1 attributes (the diff example's ``SB RW- M``)."""
    is_memory = g.globals_.addr_is_allowed_memory(phys)
    memtype = MemType.NORMAL if is_memory else MemType.DEVICE
    return MapletTarget.mapped(phys, Perms.rw(), memtype, state)


def guest_target(phys: int, state: PageState) -> MapletTarget:
    return MapletTarget.mapped(phys, Perms.rwx(), MemType.NORMAL, state)


def _epilogue(
    g_post: GhostState,
    g_pre: GhostState,
    cpu: int,
    ret: int,
    aux: int = 0,
) -> None:
    """Write the host-visible return convention into the post locals:
    x0/x3 cleared, x1 = return code, x2 = auxiliary value; the loaded-vCPU
    metadata carries over unless the spec already replaced it."""
    pre_local = g_pre.locals_[cpu]
    post_local = g_post.local(cpu)
    regs = list(pre_local.regs)
    regs[0] = 0
    regs[1] = u64(ret)
    regs[2] = aux
    regs[3] = 0
    post_local.regs = tuple(regs)
    post_local.present = True
    # Default: the loaded vCPU carries over; specs that transfer vCPU
    # ownership overwrite this after the epilogue runs.
    post_local.loaded_vcpu = pre_local.loaded_vcpu
    # Every handler returns to the host, so the host's stage 2 must be
    # the installed translation regime again on exit.
    post_local.stage2_is_host = True


def _result(
    g_post: GhostState,
    g_pre: GhostState,
    cpu: int,
    call: GhostCallData,
    ret: int,
    touched: set[str],
    *,
    aux: int = 0,
    hcall: HypercallId | None = None,
) -> SpecResult:
    """Common tail: epilogue + the ENOMEM looseness rule."""
    if (
        hcall in OOM_PERMITTED
        and call.impl_ret == -ENOMEM
        and ret != -ENOMEM
    ):
        # The implementation exercised its licence to fail with OOM at a
        # point the abstract state cannot predict; no valid deterministic
        # spec applies (gradual specification).
        return SpecResult.skip("implementation returned -ENOMEM (loose)")
    _epilogue(g_post, g_pre, cpu, ret, aux)
    touched = set(touched) | {local_key(cpu)}
    return SpecResult(valid=True, touched=touched, ret=ret)


# ---------------------------------------------------------------------------
# Top-level dispatch
# ---------------------------------------------------------------------------


def compute_post_trap(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    """The specification of pKVM's top-level exception handler."""
    if call.ec is EsrEc.HVC64:
        return _compute_post_hcall(g_post, g_pre, call, cpu)
    if call.ec in (EsrEc.DATA_ABORT_LOWER, EsrEc.INSTR_ABORT_LOWER):
        return compute_post__host_mem_abort(g_post, g_pre, call, cpu)
    return SpecResult.skip(f"no spec for exception class {call.ec}")


def _compute_post_hcall(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    # repro.ghost.registry merges every subsystem's HYPERCALL_SPECS.
    spec = spec_for_hypercall(g_pre.read_gpr(cpu, 0))
    if spec is None:
        # Unknown hypercall numbers fail cleanly with -EINVAL.
        return _result(g_post, g_pre, cpu, call, -EINVAL, set())
    return spec(g_post, g_pre, call, cpu)


# ---------------------------------------------------------------------------
# host_share_hyp — the paper's Fig. 5, transcribed
# ---------------------------------------------------------------------------


def compute_post__pkvm_host_share_hyp(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    # (1) Address space conversions.
    pfn = g_pre.read_gpr(cpu, 1)
    nr = max(1, g_pre.read_gpr(cpu, 2))
    phys = pfn * PAGE_SIZE
    hyp_addr = g_pre.globals_.hyp_va(phys)

    # (2) Permissions checks — over the whole requested range.
    pages = [phys + i * PAGE_SIZE for i in range(nr)]
    if not all(g_pre.globals_.addr_is_allowed_memory(p) for p in pages):
        return _result(
            g_post, g_pre, cpu, call, -EINVAL, set(),
            hcall=HypercallId.HOST_SHARE_HYP,
        )
    if not all(is_owned_exclusively_by_host(g_pre, p) for p in pages):
        return _result(
            g_post, g_pre, cpu, call, -EPERM, set(),
            hcall=HypercallId.HOST_SHARE_HYP,
        )
    _require(g_pre.pkvm.present, "pkvm")
    if any(
        g_pre.pkvm.pgt.mapping.lookup(g_pre.globals_.hyp_va(p)) is not None
        for p in pages
    ):
        return _result(
            g_post, g_pre, cpu, call, -EBUSY, set(),
            hcall=HypercallId.HOST_SHARE_HYP,
        )

    # (3) Initialisation of the (partial) post-state.
    g_post.copy_abstraction_host(g_pre)
    g_post.copy_abstraction_pkvm(g_pre)

    # (4)+(5) Construct attributes and update the abstract mappings.
    g_post.host.shared.insert(
        phys, nr, host_shared_target(g_pre, phys, PageState.SHARED_OWNED)
    )
    g_post.pkvm.pgt.mapping.insert(
        hyp_addr, nr, hyp_target(g_pre, phys, PageState.SHARED_BORROWED)
    )

    # (6) Epilogue: update the host register state.
    return _result(
        g_post, g_pre, cpu, call, 0, {"host", "pkvm"},
        hcall=HypercallId.HOST_SHARE_HYP,
    )


def compute_post__pkvm_host_unshare_hyp(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    pfn = g_pre.read_gpr(cpu, 1)
    nr = max(1, g_pre.read_gpr(cpu, 2))
    phys = pfn * PAGE_SIZE
    hyp_addr = g_pre.globals_.hyp_va(phys)
    hcall = HypercallId.HOST_UNSHARE_HYP

    pages = [phys + i * PAGE_SIZE for i in range(nr)]
    if not all(g_pre.globals_.addr_is_allowed_memory(p) for p in pages):
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    _require(g_pre.host.present, "host")
    _require(g_pre.pkvm.present, "pkvm")
    for p in pages:
        shared = g_pre.host.shared.lookup(p)
        if shared is None or shared.page_state is not PageState.SHARED_OWNED:
            return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)
        borrowed = g_pre.pkvm.pgt.mapping.lookup(g_pre.globals_.hyp_va(p))
        if (
            borrowed is None
            or borrowed.page_state is not PageState.SHARED_BORROWED
        ):
            return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)

    g_post.copy_abstraction_host(g_pre)
    g_post.copy_abstraction_pkvm(g_pre)
    g_post.host.shared.remove(phys, nr)
    g_post.pkvm.pgt.mapping.remove(hyp_addr, nr)
    return _result(g_post, g_pre, cpu, call, 0, {"host", "pkvm"}, hcall=hcall)


# ---------------------------------------------------------------------------
# Donation helper shared by init_vm / init_vcpu / memcache_topup specs
# ---------------------------------------------------------------------------


def _spec_donate_hyp(g_post: GhostState, g_pre_like: GhostState, phys: int) -> int:
    """Apply a host->hyp donation to the post-state being built.

    ``g_pre_like`` supplies the globals; the checks and updates run
    against ``g_post``, which the caller has already seeded with copies of
    the host and pkvm components (donations accumulate in multi-page
    hypercalls like memcache topup).
    """
    if not g_pre_like.globals_.addr_is_allowed_memory(phys):
        return -EINVAL
    if (
        g_post.host.annot.lookup(phys) is not None
        or g_post.host.shared.lookup(phys) is not None
    ):
        return -EPERM
    hyp_addr = g_pre_like.globals_.hyp_va(phys)
    if g_post.pkvm.pgt.mapping.lookup(hyp_addr) is not None:
        return -EBUSY
    g_post.host.annot.insert(phys, 1, MapletTarget.annotated(int(OwnerId.HYP)))
    g_post.pkvm.pgt.mapping.insert(
        hyp_addr, 1, hyp_target(g_pre_like, phys, PageState.OWNED)
    )
    return 0


# ---------------------------------------------------------------------------
# VM lifecycle
# ---------------------------------------------------------------------------


def compute_post__pkvm_init_vm(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    hcall = HypercallId.INIT_VM
    params_pfn = g_pre.read_gpr(cpu, 1)
    params_phys = params_pfn * PAGE_SIZE

    if not g_pre.globals_.addr_is_allowed_memory(params_phys):
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    _require(g_pre.pkvm.present, "pkvm")
    params_map = g_pre.pkvm.pgt.mapping.lookup(
        g_pre.globals_.hyp_va(params_phys)
    )
    if params_map is None or params_map.page_state is not PageState.SHARED_BORROWED:
        return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)

    reads = call.read_once_values()
    if len(reads) < 3:
        return SpecResult.skip("READ_ONCE divergence in init_vm")
    nr_vcpus, protected, pgd_pfn = reads[0], reads[1], reads[2]
    if not 1 <= nr_vcpus <= MAX_VCPUS:
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    pgd_phys = pgd_pfn * PAGE_SIZE

    # Phase 1: the donation of the stage 2 root.
    g_post.copy_abstraction_host(g_pre)
    g_post.copy_abstraction_pkvm(g_pre)
    ret = _spec_donate_hyp(g_post, g_pre, pgd_phys)
    if ret:
        return _result(g_post, g_pre, cpu, call, ret, set(), hcall=hcall)

    # Phase 2: insertion into the VM table.
    _require(g_pre.vms.present, "vms")
    g_post.copy_abstraction_vms(g_pre)
    used = {vm.index for vm in g_pre.vms.vms.values()}
    free = [i for i in range(MAX_VMS) if i not in used]
    if not free:
        # The donation stands (the implementation does not roll it back);
        # only the table insertion fails.
        return _result(
            g_post, g_pre, cpu, call, -ENOMEM, {"host", "pkvm", "vms"},
            hcall=hcall,
        )
    handle = HANDLE_OFFSET + g_pre.vms.nr_created
    g_post.vms.vms[handle] = GhostVm(
        handle=handle,
        index=free[0],
        protected=bool(protected),
        nr_vcpus=int(nr_vcpus),
        vcpus=(),
        donated_pages=(pgd_phys,),
    )
    g_post.vms.nr_created = g_pre.vms.nr_created + 1
    g_post.vm_pgts[handle] = AbstractPgtable(footprint=frozenset({pgd_phys}))
    return _result(
        g_post,
        g_pre,
        cpu,
        call,
        handle,
        {"host", "pkvm", "vms", vm_pgt_key(handle)},
        hcall=hcall,
    )


def compute_post__pkvm_init_vcpu(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    hcall = HypercallId.INIT_VCPU
    handle = g_pre.read_gpr(cpu, 1)
    donated_phys = g_pre.read_gpr(cpu, 2) * PAGE_SIZE

    # Phase 1: the donation of the vCPU metadata page.
    _require(g_pre.host.present, "host")
    _require(g_pre.pkvm.present, "pkvm")
    g_post.copy_abstraction_host(g_pre)
    g_post.copy_abstraction_pkvm(g_pre)
    ret = _spec_donate_hyp(g_post, g_pre, donated_phys)
    if ret:
        return _result(g_post, g_pre, cpu, call, ret, set(), hcall=hcall)

    # Phase 2: vCPU creation in the table.
    _require(g_pre.vms.present, "vms")
    g_post.copy_abstraction_vms(g_pre)
    vm = g_pre.vms.vms.get(handle)
    if vm is None:
        ret = -ENOENT
    elif len(vm.vcpus) >= vm.nr_vcpus:
        ret = -EINVAL
    else:
        index = len(vm.vcpus)
        new_ref = GhostVcpuRef(
            index=index, initialized=True, loaded_on=None, memcache_pages=()
        )
        g_post.vms.vms[handle] = replace(
            vm,
            vcpus=vm.vcpus + (new_ref,),
            donated_pages=vm.donated_pages + (donated_phys,),
        )
        ret = index
    return _result(
        g_post, g_pre, cpu, call, ret, {"host", "pkvm", "vms"}, hcall=hcall
    )


def compute_post__pkvm_teardown_vm(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    handle = g_pre.read_gpr(cpu, 1)
    _require(g_pre.vms.present, "vms")
    vm = g_pre.vms.vms.get(handle)
    if vm is None:
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())
    if any(ref.loaded_on is not None for ref in vm.vcpus):
        return _result(g_post, g_pre, cpu, call, -EBUSY, set())
    pgt = g_pre.vm_pgts.get(handle)
    if pgt is None:
        raise SpecAccessError(f"ghost vm pgt for {handle:#x} unavailable")

    g_post.copy_abstraction_vms(g_pre)
    del g_post.vms.vms[handle]
    owner = int(OwnerId.GUEST) + vm.index
    for maplet in pgt.mapping:
        if maplet.target.kind != "mapped":
            continue
        borrowed = maplet.target.page_state is PageState.SHARED_BORROWED
        for i in range(maplet.nr_pages):
            ipa = maplet.va + i * PAGE_SIZE
            phys = maplet.target.oa + i * PAGE_SIZE
            if borrowed:
                # a page the host lent in: reclaim = withdraw the share
                g_post.vms.reclaimable[phys] = ("hostshare", ipa, handle)
            else:
                g_post.vms.reclaimable[phys] = ("guest", owner, ipa, handle)
    # The stage 2 pagetable's own pages (the donated root plus tables in
    # the footprint) are released last: their entries carry the handle so
    # reclaim can refuse them while guest pages are still pending.
    pgt_pages = set(pgt.footprint) | {vm.donated_pages[0]}
    for phys in vm.donated_pages:
        if phys in pgt_pages:
            g_post.vms.reclaimable[phys] = ("pgt", handle)
        else:
            g_post.vms.reclaimable[phys] = ("hyp",)
    for ref in vm.vcpus:
        for phys in ref.memcache_pages or ():
            g_post.vms.reclaimable[phys] = ("hyp",)
    for phys in pgt_pages - set(vm.donated_pages):
        g_post.vms.reclaimable[phys] = ("pgt", handle)
    return _result(g_post, g_pre, cpu, call, 0, {"vms"})


def compute_post__pkvm_host_reclaim_page(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    phys = g_pre.read_gpr(cpu, 1) * PAGE_SIZE
    _require(g_pre.vms.present, "vms")
    entry = g_pre.vms.reclaimable.get(phys)
    if entry is None:
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())

    _require(g_pre.host.present, "host")
    if entry[0] == "guest":
        _kind, owner, ipa, handle = entry
        pgt = g_pre.vm_pgts.get(handle)
        if pgt is None:
            raise SpecAccessError(f"ghost vm pgt for {handle:#x} unavailable")
        annot = g_pre.host.annot.lookup(phys)
        borrowed = g_pre.host.shared.lookup(phys)
        annotated_ok = annot is not None and annot.owner_id == owner
        borrowed_ok = (
            borrowed is not None
            and borrowed.page_state is PageState.SHARED_BORROWED
        )
        if not (annotated_ok or borrowed_ok):
            return _result(g_post, g_pre, cpu, call, -ENOENT, set())
        g_post.copy_abstraction_host(g_pre)
        g_post.copy_abstraction_vms(g_pre)
        g_post.vm_pgts[handle] = pgt.copy()
        if annotated_ok:
            g_post.host.annot.remove(phys, 1)
        else:
            g_post.host.shared.remove(phys, 1)
        g_post.vm_pgts[handle].mapping.remove_if_present(ipa, 1)
        del g_post.vms.reclaimable[phys]
        return _result(
            g_post, g_pre, cpu, call, 0, {"host", "vms", vm_pgt_key(handle)}
        )

    if entry[0] == "hostshare":
        # Withdrawing a share the host had extended to the dead guest.
        _kind, ipa, handle = entry
        pgt = g_pre.vm_pgts.get(handle)
        if pgt is None:
            raise SpecAccessError(f"ghost vm pgt for {handle:#x} unavailable")
        shared = g_pre.host.shared.lookup(phys)
        if shared is None or shared.page_state is not PageState.SHARED_OWNED:
            return _result(g_post, g_pre, cpu, call, -EPERM, set())
        g_post.copy_abstraction_host(g_pre)
        g_post.copy_abstraction_vms(g_pre)
        g_post.vm_pgts[handle] = pgt.copy()
        g_post.host.shared.remove(phys, 1)
        g_post.vm_pgts[handle].mapping.remove_if_present(ipa, 1)
        del g_post.vms.reclaimable[phys]
        return _result(
            g_post, g_pre, cpu, call, 0, {"host", "vms", vm_pgt_key(handle)}
        )

    if entry[0] == "pgt":
        # A page of the dead VM's stage 2 pagetable: refused while any of
        # that VM's guest pages is still pending (their reclaim walks the
        # pagetable these pages make up).
        _kind, handle = entry
        if any(
            e[0] in ("guest", "hostshare") and e[-1] == handle
            for e in g_pre.vms.reclaimable.values()
        ):
            return _result(g_post, g_pre, cpu, call, -EBUSY, set())
        _require(g_pre.pkvm.present, "pkvm")
        annot = g_pre.host.annot.lookup(phys)
        if annot is None or annot.owner_id != int(OwnerId.HYP):
            return _result(g_post, g_pre, cpu, call, -EPERM, set())
        g_post.copy_abstraction_host(g_pre)
        g_post.copy_abstraction_pkvm(g_pre)
        g_post.copy_abstraction_vms(g_pre)
        g_post.host.annot.remove(phys, 1)
        g_post.pkvm.pgt.mapping.remove_if_present(
            g_pre.globals_.hyp_va(phys), 1
        )
        del g_post.vms.reclaimable[phys]
        return _result(g_post, g_pre, cpu, call, 0, {"host", "pkvm", "vms"})

    # A pKVM-owned (metadata/table/memcache) page of a dead VM.
    _require(g_pre.pkvm.present, "pkvm")
    annot = g_pre.host.annot.lookup(phys)
    if annot is None or annot.owner_id != int(OwnerId.HYP):
        return _result(g_post, g_pre, cpu, call, -EPERM, set())
    g_post.copy_abstraction_host(g_pre)
    g_post.copy_abstraction_pkvm(g_pre)
    g_post.copy_abstraction_vms(g_pre)
    g_post.host.annot.remove(phys, 1)
    g_post.pkvm.pgt.mapping.remove_if_present(g_pre.globals_.hyp_va(phys), 1)
    del g_post.vms.reclaimable[phys]
    return _result(g_post, g_pre, cpu, call, 0, {"host", "pkvm", "vms"})


# ---------------------------------------------------------------------------
# vCPU load / put / run, guest mapping, memcache
# ---------------------------------------------------------------------------


def compute_post__pkvm_vcpu_load(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    handle = g_pre.read_gpr(cpu, 1)
    vcpu_idx = g_pre.read_gpr(cpu, 2)
    _require(g_pre.vms.present, "vms")
    local = g_pre.locals_[cpu]
    vm = g_pre.vms.vms.get(handle)
    if vm is None:
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())
    if local.loaded_vcpu is not None:
        return _result(g_post, g_pre, cpu, call, -EBUSY, set())
    if vcpu_idx >= len(vm.vcpus):
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())
    ref = vm.vcpus[vcpu_idx]
    if not ref.initialized:
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())
    if ref.loaded_on is not None:
        return _result(g_post, g_pre, cpu, call, -EBUSY, set())

    g_post.copy_abstraction_vms(g_pre)
    vcpus = list(vm.vcpus)
    vcpus[vcpu_idx] = replace(ref, loaded_on=cpu, memcache_pages=None)
    g_post.vms.vms[handle] = replace(vm, vcpus=tuple(vcpus))
    res = _result(g_post, g_pre, cpu, call, 0, {"vms"})
    # Ownership transfer: the vCPU metadata moves into this thread's local.
    g_post.locals_[cpu].loaded_vcpu = GhostLoadedVcpu(
        vm_handle=handle,
        index=vcpu_idx,
        memcache_pages=ref.memcache_pages or (),
    )
    return res


def compute_post__pkvm_vcpu_put(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    local = g_pre.locals_[cpu]
    if local.loaded_vcpu is None:
        return _result(g_post, g_pre, cpu, call, -EINVAL, set())
    _require(g_pre.vms.present, "vms")
    loaded = local.loaded_vcpu
    vm = g_pre.vms.vms.get(loaded.vm_handle)
    if vm is None:
        return SpecResult.skip("loaded vCPU's VM vanished")
    g_post.copy_abstraction_vms(g_pre)
    vcpus = list(vm.vcpus)
    ref = vcpus[loaded.index]
    vcpus[loaded.index] = replace(
        ref, loaded_on=None, memcache_pages=loaded.memcache_pages
    )
    g_post.vms.vms[loaded.vm_handle] = replace(vm, vcpus=tuple(vcpus))
    res = _result(g_post, g_pre, cpu, call, 0, {"vms"})
    g_post.locals_[cpu].loaded_vcpu = None
    return res


def compute_post__pkvm_vcpu_run(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    local = g_pre.locals_[cpu]
    if local.loaded_vcpu is None:
        return _result(g_post, g_pre, cpu, call, -EINVAL, set())
    handle = local.loaded_vcpu.vm_handle
    touched: set[str] = set()

    if call.guest_events:
        pgt = g_pre.vm_pgts.get(handle)
        if pgt is None:
            raise SpecAccessError(f"ghost vm pgt for {handle:#x} unavailable")
        _require(g_pre.host.present, "host")
        _require(g_pre.vms.present, "vms")
        vm = g_pre.vms.vms.get(handle)
        if vm is None:
            return SpecResult.skip("loaded vCPU's VM vanished")
        g_post.copy_abstraction_host(g_pre)
        g_post.vm_pgts[handle] = pgt.copy()
        touched |= {"host", vm_pgt_key(handle)}
        for ev in call.guest_events:
            self_ret = _spec_guest_event(g_post, g_pre, handle, vm.index, ev)
            if self_ret != ev.ret:
                # The implementation allowed/refused a guest share the
                # abstract state says it shouldn't have.
                return SpecResult(
                    valid=True,
                    touched=touched | {local_key(cpu)},
                    ret=ev.ret,
                    note=f"guest event ret mismatch: spec {self_ret}, impl {ev.ret}",
                )

    # Exit reason and faulting IPA come from the environment (the guest's
    # own behaviour), so the spec is parametric on them.
    return _result(
        g_post, g_pre, cpu, call, call.impl_ret, touched, aux=call.impl_aux
    )


def _spec_guest_event(
    g_post: GhostState, g_pre: GhostState, handle: int, vm_index: int, ev
) -> int:
    """Apply one guest share/unshare to the post-state; return expected ret.

    On share, the host-side guest-owner annotation becomes a borrowed
    mapping; on unshare the annotation comes back — ownership information
    is never dropped.
    """
    pgt = g_post.vm_pgts[handle]
    owner = int(OwnerId.GUEST) + vm_index
    entry = pgt.mapping.lookup(ev.ipa)
    if entry is None or entry.kind != "mapped":
        return -ENOENT
    phys = entry.oa
    if ev.kind == "share":
        if entry.page_state is not PageState.OWNED:
            return -EPERM
        pgt.mapping.remove(ev.ipa, 1)
        pgt.mapping.insert(ev.ipa, 1, guest_target(phys, PageState.SHARED_OWNED))
        g_post.host.annot.remove(phys, 1)
        g_post.host.shared.insert(
            phys, 1, host_shared_target(g_pre, phys, PageState.SHARED_BORROWED)
        )
        return 0
    if ev.kind == "unshare":
        if entry.page_state is not PageState.SHARED_OWNED:
            return -EPERM
        borrowed = g_post.host.shared.lookup(phys)
        if borrowed is None or borrowed.page_state is not PageState.SHARED_BORROWED:
            return -EPERM
        pgt.mapping.remove(ev.ipa, 1)
        pgt.mapping.insert(ev.ipa, 1, guest_target(phys, PageState.OWNED))
        g_post.host.shared.remove(phys, 1)
        g_post.host.annot.insert(phys, 1, MapletTarget.annotated(owner))
        return 0
    return -EINVAL


def compute_post__pkvm_host_map_guest(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    hcall = HypercallId.HOST_MAP_GUEST
    local = g_pre.locals_[cpu]
    if local.loaded_vcpu is None:
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    phys = g_pre.read_gpr(cpu, 1) * PAGE_SIZE
    ipa = g_pre.read_gpr(cpu, 2) * PAGE_SIZE
    handle = local.loaded_vcpu.vm_handle
    pgt = g_pre.vm_pgts.get(handle)
    if pgt is None:
        raise SpecAccessError(f"ghost vm pgt for {handle:#x} unavailable")
    vm = g_pre.vms.vms.get(handle) if g_pre.vms.present else None
    index = (
        vm.index
        if vm is not None
        else _owner_index_from_committed(g_pre, handle)
    )

    if not g_pre.globals_.addr_is_allowed_memory(phys):
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    if not is_owned_exclusively_by_host(g_pre, phys):
        return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)
    if pgt.mapping.lookup(ipa) is not None:
        return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)

    g_post.copy_abstraction_host(g_pre)
    g_post.vm_pgts[handle] = pgt.copy()
    g_post.vm_pgts[handle].mapping.insert(
        ipa, 1, guest_target(phys, PageState.OWNED)
    )
    g_post.host.annot.insert(
        phys, 1, MapletTarget.annotated(int(OwnerId.GUEST) + index)
    )

    # Table pages consumed from the memcache are not a function of the
    # extensional pre-state (they depend on the tree shape), so the
    # post-memcache is taken from the call data (§4.3); it must only ever
    # shrink, and only into the table footprint (the separation check
    # polices where those pages ended up).
    after = call.memcache_after
    if after is None:
        return SpecResult.skip("no memcache call data for map_guest")
    before = local.loaded_vcpu.memcache_pages
    if not set(after) <= set(before):
        return SpecResult(
            valid=True,
            touched={"host", vm_pgt_key(handle), local_key(cpu)},
            ret=-EINVAL,
            note="implementation memcache grew during map_guest",
        )
    res = _result(
        g_post, g_pre, cpu, call, 0, {"host", vm_pgt_key(handle)},
        hcall=hcall,
    )
    if res.valid:
        g_post.locals_[cpu].loaded_vcpu = replace(
            local.loaded_vcpu, memcache_pages=tuple(after)
        )
    return res


def compute_post__pkvm_host_share_guest(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    """Lend a host page to the loaded non-protected guest: the host keeps
    the page (SHARED_OWNED), the guest borrows it."""
    hcall = HypercallId.HOST_SHARE_GUEST
    local = g_pre.locals_[cpu]
    if local.loaded_vcpu is None:
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    handle = local.loaded_vcpu.vm_handle
    _require(g_pre.vms.present, "vms")
    vm = g_pre.vms.vms.get(handle)
    if vm is None:
        return SpecResult.skip("loaded vCPU's VM vanished")
    if vm.protected:
        return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)
    phys = g_pre.read_gpr(cpu, 1) * PAGE_SIZE
    ipa = g_pre.read_gpr(cpu, 2) * PAGE_SIZE
    pgt = g_pre.vm_pgts.get(handle)
    if pgt is None:
        raise SpecAccessError(f"ghost vm pgt for {handle:#x} unavailable")

    if not g_pre.globals_.addr_is_allowed_memory(phys):
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    if not is_owned_exclusively_by_host(g_pre, phys):
        return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)
    if pgt.mapping.lookup(ipa) is not None:
        return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)

    g_post.copy_abstraction_host(g_pre)
    g_post.vm_pgts[handle] = pgt.copy()
    g_post.host.shared.insert(
        phys, 1, host_shared_target(g_pre, phys, PageState.SHARED_OWNED)
    )
    g_post.vm_pgts[handle].mapping.insert(
        ipa, 1, guest_target(phys, PageState.SHARED_BORROWED)
    )

    after = call.memcache_after
    if after is None:
        return SpecResult.skip("no memcache call data for share_guest")
    before = local.loaded_vcpu.memcache_pages
    if not set(after) <= set(before):
        return SpecResult(
            valid=True,
            touched={"host", vm_pgt_key(handle), local_key(cpu)},
            ret=-EINVAL,
            note="implementation memcache grew during share_guest",
        )
    res = _result(
        g_post, g_pre, cpu, call, 0, {"host", vm_pgt_key(handle)}, hcall=hcall
    )
    if res.valid:
        g_post.locals_[cpu].loaded_vcpu = replace(
            local.loaded_vcpu, memcache_pages=tuple(after)
        )
    return res


def compute_post__pkvm_host_unshare_guest(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    hcall = HypercallId.HOST_UNSHARE_GUEST
    local = g_pre.locals_[cpu]
    if local.loaded_vcpu is None:
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    handle = local.loaded_vcpu.vm_handle
    phys = g_pre.read_gpr(cpu, 1) * PAGE_SIZE
    ipa = g_pre.read_gpr(cpu, 2) * PAGE_SIZE
    pgt = g_pre.vm_pgts.get(handle)
    if pgt is None:
        raise SpecAccessError(f"ghost vm pgt for {handle:#x} unavailable")
    _require(g_pre.host.present, "host")

    shared = g_pre.host.shared.lookup(phys)
    if shared is None or shared.page_state is not PageState.SHARED_OWNED:
        return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)
    entry = pgt.mapping.lookup(ipa)
    if (
        entry is None
        or entry.kind != "mapped"
        or entry.page_state is not PageState.SHARED_BORROWED
        or entry.oa != phys
    ):
        return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)

    g_post.copy_abstraction_host(g_pre)
    g_post.vm_pgts[handle] = pgt.copy()
    g_post.host.shared.remove(phys, 1)
    g_post.vm_pgts[handle].mapping.remove(ipa, 1)

    # Table pages freed by the unmap flow back into the memcache; how
    # many is tree-shape-dependent, so the post-memcache comes from the
    # call data — it may only grow.
    after = call.memcache_after
    if after is None:
        return SpecResult.skip("no memcache call data for unshare_guest")
    before = local.loaded_vcpu.memcache_pages
    if not set(before) <= set(after):
        return SpecResult(
            valid=True,
            touched={"host", vm_pgt_key(handle), local_key(cpu)},
            ret=-EINVAL,
            note="implementation memcache shrank during unshare_guest",
        )
    res = _result(
        g_post, g_pre, cpu, call, 0, {"host", vm_pgt_key(handle)}, hcall=hcall
    )
    if res.valid:
        g_post.locals_[cpu].loaded_vcpu = replace(
            local.loaded_vcpu, memcache_pages=tuple(after)
        )
    return res


def _owner_index_from_committed(g_pre: GhostState, handle: int) -> int:
    # A VM's slot index is recoverable from any of its ghost records; as a
    # last resort (vms component absent) the handle ordering is unique but
    # the index is not derivable, so fail loudly.
    raise SpecAccessError(f"vm metadata for handle {handle:#x} unavailable")


def compute_post__pkvm_memcache_topup(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    hcall = HypercallId.MEMCACHE_TOPUP
    local = g_pre.locals_[cpu]
    if local.loaded_vcpu is None:
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    list_phys = g_pre.read_gpr(cpu, 1) * PAGE_SIZE
    nr = g_pre.read_gpr(cpu, 2)

    if not g_pre.globals_.addr_is_allowed_memory(list_phys):
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    _require(g_pre.pkvm.present, "pkvm")
    entry = g_pre.pkvm.pgt.mapping.lookup(g_pre.globals_.hyp_va(list_phys))
    if entry is None or entry.page_state is not PageState.SHARED_BORROWED:
        return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)
    if nr > MEMCACHE_TOPUP_MAX:
        # The *fixed* bound check: huge nr fails up-front with no state
        # change. A buggy implementation that overflows its way past this
        # check diverges here, and the oracle reports it.
        return _result(g_post, g_pre, cpu, call, -E2BIG, set(), hcall=hcall)

    _require(g_pre.host.present, "host")
    g_post.copy_abstraction_host(g_pre)
    g_post.copy_abstraction_pkvm(g_pre)
    reads = call.read_once_values()
    memcache = list(local.loaded_vcpu.memcache_pages)
    ret = 0
    for i in range(nr):
        if len(memcache) >= MEMCACHE_CAPACITY:
            ret = -ENOMEM
            break
        if i >= len(reads):
            return SpecResult.skip("READ_ONCE divergence in memcache_topup")
        addr = reads[i]
        if addr % PAGE_SIZE:
            ret = -EINVAL
            break
        ret = _spec_donate_hyp(g_post, g_pre, addr)
        if ret:
            break
        memcache.append(addr)
    res = _result(
        g_post, g_pre, cpu, call, ret, {"host", "pkvm"}, hcall=hcall
    )
    if res.valid:
        g_post.locals_[cpu].loaded_vcpu = replace(
            local.loaded_vcpu, memcache_pages=tuple(memcache)
        )
    return res


# ---------------------------------------------------------------------------
# Host stage 2 aborts: the loose map-on-demand spec
# ---------------------------------------------------------------------------


def compute_post__host_mem_abort(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    """The deliberately loose demand-map spec (paper §3.1, §4.3).

    The handler may install *any legal* host mapping, so the ghost host
    component (annot + shared) must be unchanged; the only constrained
    observable is whether the fault is resolved (the host logically owns
    the address) or injected back.
    """
    page = call.fault_ipa & ~(PAGE_SIZE - 1)
    _require(g_pre.host.present, "host")
    in_some_region = g_pre.globals_.addr_is_allowed_memory(
        page
    ) or g_pre.globals_.addr_is_device(page)
    hostile = g_pre.host.annot.lookup(page) is not None
    resolved = in_some_region and not hostile

    pre_local = g_pre.locals_[cpu]
    post_local = g_post.local(cpu)
    regs = list(pre_local.regs)
    regs[1] = 0 if resolved else 1
    post_local.regs = tuple(regs)
    post_local.present = True
    post_local.loaded_vcpu = pre_local.loaded_vcpu
    post_local.stage2_is_host = True
    return SpecResult(
        valid=True,
        touched={local_key(cpu)},
        ret=0 if resolved else 1,
    )


# ---------------------------------------------------------------------------
# Dispatch table and frame manifests
# ---------------------------------------------------------------------------

#: Which specification function handles each hypercall; merged into
#: the cross-subsystem dispatch table by repro.ghost.registry.
HYPERCALL_SPECS = {
    HypercallId.HOST_SHARE_HYP: compute_post__pkvm_host_share_hyp,
    HypercallId.HOST_UNSHARE_HYP: compute_post__pkvm_host_unshare_hyp,
    HypercallId.HOST_RECLAIM_PAGE: compute_post__pkvm_host_reclaim_page,
    HypercallId.HOST_MAP_GUEST: compute_post__pkvm_host_map_guest,
    HypercallId.INIT_VM: compute_post__pkvm_init_vm,
    HypercallId.INIT_VCPU: compute_post__pkvm_init_vcpu,
    HypercallId.TEARDOWN_VM: compute_post__pkvm_teardown_vm,
    HypercallId.VCPU_LOAD: compute_post__pkvm_vcpu_load,
    HypercallId.VCPU_PUT: compute_post__pkvm_vcpu_put,
    HypercallId.VCPU_RUN: compute_post__pkvm_vcpu_run,
    HypercallId.MEMCACHE_TOPUP: compute_post__pkvm_memcache_topup,
    HypercallId.HOST_SHARE_GUEST: compute_post__pkvm_host_share_guest,
    HypercallId.HOST_UNSHARE_GUEST: compute_post__pkvm_host_unshare_guest,
}


def spec_name_for(g_pre: GhostState, call: GhostCallData, cpu: int) -> str:
    """Name of the specification function :func:`compute_post_trap` will
    dispatch to, or "" when no spec applies (unknown hypercall/EC)."""
    if call.ec is EsrEc.HVC64:
        try:
            spec = spec_for_hypercall(g_pre.read_gpr(cpu, 0))
        except (KeyError, IndexError):
            return ""
        return spec.__name__ if spec is not None else ""
    if call.ec in (EsrEc.DATA_ABORT_LOWER, EsrEc.INSTR_ABORT_LOWER):
        return "compute_post__host_mem_abort"
    return ""


#: The declared footprint of every specification function, co-located
#: with the specs so a new hypercall ships with its frame. Checked two
#: ways: statically (interprocedural footprint inference over this
#: module's AST) and dynamically (recorded ghost diffs must stay inside
#: the declared write frame) — see docs/SPEC_GUIDE.md, "Declaring a
#: frame". Keep values literal: the static pass parses them without
#: importing this module.
FRAME_MANIFESTS = {
    "compute_post__pkvm_host_share_hyp": Frame(
        reads={"globals", "host", "pkvm", "local"},
        writes={"host", "pkvm", "local"},
    ),
    "compute_post__pkvm_host_unshare_hyp": Frame(
        reads={"globals", "host", "pkvm", "local"},
        writes={"host", "pkvm", "local"},
    ),
    "compute_post__pkvm_host_reclaim_page": Frame(
        reads={"globals", "host", "pkvm", "vms", "vm_pgts", "local"},
        writes={"host", "pkvm", "vms", "vm_pgts", "local"},
    ),
    "compute_post__pkvm_host_map_guest": Frame(
        reads={"globals", "host", "vms", "vm_pgts", "local"},
        writes={"host", "vm_pgts", "local"},
    ),
    "compute_post__pkvm_init_vm": Frame(
        reads={"globals", "host", "pkvm", "vms", "local"},
        writes={"host", "pkvm", "vms", "vm_pgts", "local"},
    ),
    "compute_post__pkvm_init_vcpu": Frame(
        reads={"globals", "host", "pkvm", "vms", "local"},
        writes={"host", "pkvm", "vms", "local"},
    ),
    "compute_post__pkvm_teardown_vm": Frame(
        reads={"vms", "vm_pgts", "local"},
        writes={"vms", "local"},
    ),
    "compute_post__pkvm_vcpu_load": Frame(
        reads={"vms", "local"},
        writes={"vms", "local"},
    ),
    "compute_post__pkvm_vcpu_put": Frame(
        reads={"vms", "local"},
        writes={"vms", "local"},
    ),
    "compute_post__pkvm_vcpu_run": Frame(
        reads={"globals", "host", "vms", "vm_pgts", "local"},
        writes={"host", "vm_pgts", "local"},
    ),
    "compute_post__pkvm_memcache_topup": Frame(
        reads={"globals", "host", "pkvm", "local"},
        writes={"host", "pkvm", "local"},
    ),
    "compute_post__pkvm_host_share_guest": Frame(
        reads={"globals", "host", "vms", "vm_pgts", "local"},
        writes={"host", "vm_pgts", "local"},
    ),
    "compute_post__pkvm_host_unshare_guest": Frame(
        reads={"host", "vm_pgts", "local"},
        writes={"host", "vm_pgts", "local"},
    ),
    "compute_post__host_mem_abort": Frame(
        reads={"globals", "host", "local"},
        writes={"local"},
    ),
}


#: The declared page-ownership transition system, one rule per
#: ``repro.pkvm.mem_protect`` operation. This is the static twin of the
#: dynamic ownership checks above: the ``ownership`` analysis pass
#: (``python -m repro.analysis ownership``) abstractly interprets each
#: op's paths and verifies every page-table write is an allowed edge,
#: dominated by its declared check, paired with its partner table on
#: success paths, and covered by the declared locks — see
#: docs/SPEC_GUIDE.md, "Declaring an ownership edge". Keep values
#: literal: the static pass parses them without importing this module.
OWNERSHIP_EDGES = {
    "do_share_hyp": OwnershipRule(
        checks={"host_mmu": "OWNED"},
        success={
            "host_mmu": "map:SHARED_OWNED",
            "pkvm_pgd": "map:SHARED_BORROWED",
        },
        rollback={"host_mmu": "map:OWNED"},
        paired=("host_mmu", "pkvm_pgd"),
        locks=("host_mmu", "pkvm_pgd"),
    ),
    "do_unshare_hyp": OwnershipRule(
        checks={"host_mmu": "SHARED_OWNED"},
        success={"host_mmu": "map:OWNED", "pkvm_pgd": "unmap"},
        rollback={},
        paired=("host_mmu", "pkvm_pgd"),
        locks=("host_mmu", "pkvm_pgd"),
    ),
    "do_donate_hyp": OwnershipRule(
        checks={"host_mmu": "OWNED"},
        success={"host_mmu": "set_owner:HYP", "pkvm_pgd": "map:OWNED"},
        rollback={"host_mmu": "set_owner:HOST"},
        paired=("host_mmu", "pkvm_pgd"),
        locks=("host_mmu", "pkvm_pgd"),
    ),
    "do_reclaim_from_hyp": OwnershipRule(
        checks={},
        success={"pkvm_pgd": "unmap", "host_mmu": "map:OWNED"},
        rollback={},
        paired=("host_mmu", "pkvm_pgd"),
        locks=("host_mmu", "pkvm_pgd"),
    ),
    "do_donate_guest": OwnershipRule(
        checks={"host_mmu": "OWNED"},
        success={"guest": "map:OWNED", "host_mmu": "set_owner:caller"},
        rollback={"guest": "unmap"},
        paired=("guest", "host_mmu"),
        locks=("host_mmu", "vm"),
    ),
    "do_guest_share_host": OwnershipRule(
        checks={},
        success={
            "guest": "map:SHARED_OWNED",
            "host_mmu": "map:SHARED_BORROWED",
        },
        rollback={"guest": "map:OWNED"},
        paired=("guest", "host_mmu"),
        locks=("host_mmu", "vm"),
    ),
    "do_guest_unshare_host": OwnershipRule(
        checks={},
        success={"guest": "map:OWNED", "host_mmu": "set_owner:caller"},
        rollback={},
        paired=("guest", "host_mmu"),
        locks=("host_mmu", "vm"),
    ),
    "do_share_guest": OwnershipRule(
        checks={"host_mmu": "OWNED"},
        success={
            "guest": "map:SHARED_BORROWED",
            "host_mmu": "map:SHARED_OWNED",
        },
        rollback={"guest": "unmap"},
        paired=("guest", "host_mmu"),
        locks=("host_mmu", "vm"),
    ),
    "do_unshare_guest": OwnershipRule(
        checks={},
        success={"guest": "unmap", "host_mmu": "map:OWNED"},
        rollback={},
        paired=("guest", "host_mmu"),
        locks=("host_mmu", "vm"),
    ),
    "do_reclaim_from_guest": OwnershipRule(
        checks={},
        success={"guest": "unmap", "host_mmu": "map:OWNED"},
        rollback={},
        paired=("guest", "host_mmu"),
        locks=("host_mmu", "vm"),
    ),
    "host_handle_mem_abort": OwnershipRule(
        checks={},
        success={"host_mmu": "map:OWNED"},
        rollback={},
        paired=(),
        locks=("host_mmu",),
    ),
}


#: Handler -> spec pairing for the symbolic refinement pass
#: (``python -m repro.analysis refinement``): each key names a handler
#: function in ``repro.pkvm``; the value names the ghost function in this
#: module whose return codes and ``g_post`` effects that handler must
#: refine. The pass extracts the spec summary *statically* (return-code
#: ladder via ``_result(...)``'s ret argument or plain returns, success
#: effects via ``g_post.<ghost path>.insert/remove(...)`` calls, a direct
#: ``.regs`` store as the write-back obligation) — keep both sides
#: literal so the pairing is parseable without importing this module.
#: See docs/SPEC_GUIDE.md, "What the refinement pass assumes".
REFINEMENT_SPECS = {
    "do_share_hyp": "compute_post__pkvm_host_share_hyp",
    "do_unshare_hyp": "compute_post__pkvm_host_unshare_hyp",
    "do_donate_hyp": "_spec_donate_hyp",
    "_finish_hcall": "_epilogue",
}
