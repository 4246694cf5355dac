"""The incremental §3.1 isolation sweep against the full one and the per-page
reference.

Random committed states are built page by page from *roles*: each
physical page is host-exclusive, shared with pKVM, a guest or a device,
donated to pKVM or a guest, lent to the host by a guest, awaiting
reclaim, or corrupted so that one of the six pairings breaks. Runs of
pages often repeat a role, so maplets coalesce across pages in every
table. A state is followed by a few more, each re-rolling a few pages
and sometimes tearing a VM down or bringing it back; tables whose pages
did not change stay the same objects. After each state, three sweeps
must give the same (kind, detail, component) list in the same order,
with ``fail_fast`` off:

- the incremental sweep, which has swept every earlier state (its
  windows come from diffing the tables: these states never went through
  the abstraction cache);
- the full sweep of the state;
- :func:`reference_sweep`, the per-page sweep the checker ran before the
  sweep became incremental, kept here verbatim as the reference.
"""

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.arch.defs import PAGE_SIZE, Perms
from repro.arch.pte import PageState
from repro.ghost.isolation import IsolationSweep
from repro.ghost.maplets import Mapping, MapletTarget
from repro.ghost.state import (
    AbstractPgtable,
    GhostHost,
    GhostIommu,
    GhostIommuDomain,
    GhostPkvm,
    GhostVm,
    GhostVms,
    vm_pgt_key,
)
from repro.pkvm.defs import HYP_VA_OFFSET, OwnerId

OFFSET = HYP_VA_OFFSET
BASE = 0x4000_0000
NR_PAGES = 16
#: Guest IPAs and device IOVAs are pages from here, 2 * NR_PAGES of them.
IPA_BASE = 0x8000_0000
HYP = int(OwnerId.HYP)
GUEST = int(OwnerId.GUEST)
OWNED, LENT, BORROWED = (
    PageState.OWNED,
    PageState.SHARED_OWNED,
    PageState.SHARED_BORROWED,
)

#: Roles that keep every pairing.
CLEAN = (
    "host",
    "host",
    "hyp-share",
    "hyp-donate",
    "guest-donate",
    "guest-share",
    "guest-lend",
    "dma",
    "pending-share",
    "pending-borrow",
    "pending-donate",
)
#: Roles that break a pairing (the guest ones also when their VM is torn
#: down), plus a guest mapping a page at two IPAs.
CORRUPT = (
    "overlap",
    "dma-unshared",
    "share-no-borrower",
    "share-bare",
    "borrow-no-lender",
    "hyp-unmapped",
    "guest-unmapped",
    "alias",
)

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def page(n: int) -> int:
    return BASE + n * PAGE_SIZE


def mapped(oa: int, state: PageState) -> MapletTarget:
    return MapletTarget.mapped(oa, Perms(True, True, False), page_state=state)


class World:
    """The VMs and DMA domains a run of states shares. A page's recipe is
    ``(role, guest or domain, input page, state)``."""

    def __init__(self, vms, domains):
        #: (handle, VM-table slot); live VMs hold distinct slots.
        self.vms = vms
        self.domains = domains

    @staticmethod
    def draw(draw) -> "World":
        slots = draw(st.permutations(range(4)))[: draw(st.integers(0, 3))]
        domains = sorted(draw(st.sets(st.integers(0, 7), max_size=3)))
        return World([(n + 1, slot) for n, slot in enumerate(slots)], domains)

    def guest(self, who: int):
        return self.vms[who % len(self.vms)] if self.vms else None

    def domain(self, who: int):
        return self.domains[who % len(self.domains)] if self.domains else None


def recipe(draw, corrupt_odds: int):
    roles = CLEAN + CORRUPT if draw(st.integers(0, corrupt_odds)) == 0 else CLEAN
    return (
        draw(st.sampled_from(roles)),
        draw(st.integers(0, 2)),
        draw(st.integers(0, 2 * NR_PAGES - 1)),
        draw(st.sampled_from([OWNED, LENT, BORROWED])),
    )


def recipes(draw, corrupt_odds: int) -> list:
    """A recipe per page; a page often continues the one before it, with
    the next input page, so its maplets coalesce with its neighbour's."""
    pages = [recipe(draw, corrupt_odds)]
    for _ in range(NR_PAGES - 1):
        if draw(st.integers(0, 2)) == 0:
            role, who, where, state = pages[-1]
            pages.append((role, who, (where + 1) % (2 * NR_PAGES), state))
        else:
            pages.append(recipe(draw, corrupt_odds))
    return pages


def build(world: World, recipes, live, reuse: dict) -> dict:
    """The committed dict for ``recipes`` with the VMs of handles in
    ``live`` alive. A table whose inserts match the last one built under
    its name in ``reuse`` is that same object."""
    annot, shared, hyp, reclaimable = [], [], [], {}
    guests = {h: [] for h, _ in world.vms}
    dma = {d: [] for d in world.domains}

    def map_at(maps, where, oa, state):
        # the first free input page from ``where`` on
        taken = {ipa for ipa, _oa, _state in maps}
        ipa = next(
            ipa
            for k in range(2 * NR_PAGES)
            if (ipa := IPA_BASE + (where + k) % (2 * NR_PAGES) * PAGE_SIZE)
            not in taken
        )
        maps.append((ipa, oa, state))

    def guest_map(who, where, oa, state):
        map_at(guests[world.guest(who)[0]], where, oa, state)

    for n, (role, who, where, state) in enumerate(recipes):
        p = page(n)
        vm = world.guest(who)
        if (vm is None and "guest" in role) or (
            world.domain(who) is None and "dma" in role
        ):
            role = "host"
        owner = GUEST + (vm[1] if vm else 0)
        if role == "hyp-share":
            shared.append((p, mapped(p, LENT)))
            hyp.append((p + OFFSET, mapped(p, BORROWED)))
        elif role == "hyp-donate":
            annot.append((p, MapletTarget.annotated(HYP)))
            hyp.append((p + OFFSET, mapped(p, OWNED)))
        elif role == "guest-donate":
            annot.append((p, MapletTarget.annotated(owner)))
            guest_map(who, where, p, OWNED)
        elif role == "guest-share":
            shared.append((p, mapped(p, LENT)))
            guest_map(who, where, p, BORROWED)
        elif role == "guest-lend":
            shared.append((p, mapped(p, BORROWED)))
            guest_map(who, where, p, LENT)
        elif role == "dma":
            shared.append((p, mapped(p, LENT)))
            map_at(dma[world.domain(who)], where, p, BORROWED)
        elif role == "pending-share":
            shared.append((p, mapped(p, LENT)))
            reclaimable[p] = ("hostshare", where, 1)
        elif role == "pending-borrow":
            shared.append((p, mapped(p, BORROWED)))
            reclaimable[p] = ("guest", owner, where, 1)
        elif role == "pending-donate":
            annot.append((p, MapletTarget.annotated(owner)))
            reclaimable[p] = ("guest", owner, where, 1)
        elif role == "overlap":
            annot.append((p, MapletTarget.annotated(HYP)))
            shared.append((p, mapped(p, LENT)))
            hyp.append((p + OFFSET, mapped(p, state)))
        elif role == "dma-unshared":
            if state is not OWNED:
                annot.append((p, MapletTarget.annotated(owner)))
            map_at(dma[world.domain(who)], where, p, state)
        elif role == "share-no-borrower":
            shared.append((p, mapped(p, LENT)))
            hyp.append((p + OFFSET, mapped(p, OWNED)))
        elif role == "share-bare":
            shared.append((p, mapped(p, state if state is not OWNED else LENT)))
        elif role == "borrow-no-lender":
            shared.append((p, mapped(p, BORROWED)))
            if vm is not None:
                guest_map(who, where, p, state if state is not LENT else OWNED)
        elif role == "hyp-unmapped":
            annot.append((p, MapletTarget.annotated(HYP)))
            if state is not OWNED:
                hyp.append((p + OFFSET, mapped(p, state)))
        elif role == "guest-unmapped":
            annot.append((p, MapletTarget.annotated(owner)))
            if state is not OWNED and vm is not None:
                guest_map(who, where, p, state)
        elif role == "alias" and vm is not None:
            # donated, and mapped at two IPAs: the higher one decides
            annot.append((p, MapletTarget.annotated(owner)))
            guest_map(who, where, p, OWNED)
            guest_map(who, where, p, state)

    def table(name, inserts, wrap=lambda mapping: mapping):
        inserts = tuple(inserts)
        known = reuse.get(name)
        if known is None or known[0] != inserts:
            mapping = Mapping()
            for va, target in inserts:
                mapping.insert(va, 1, target)
            reuse[name] = (inserts, wrap(mapping))
        return reuse[name][1]

    committed = {
        "host": GhostHost(
            present=True, annot=table("annot", annot), shared=table("shared", shared)
        ),
        "pkvm": table(
            "hyp", hyp, lambda m: GhostPkvm(present=True, pgt=AbstractPgtable(m))
        ),
        "vms": GhostVms(
            present=True,
            vms={
                h: GhostVm(handle=h, index=slot, protected=True, nr_vcpus=1)
                for h, slot in world.vms
                if h in live
            },
            reclaimable=reclaimable,
        ),
    }
    for h, maps in guests.items():
        inserts = [(ipa, mapped(oa, state)) for ipa, oa, state in maps]
        committed[vm_pgt_key(h)] = table(f"vm{h}", inserts, AbstractPgtable)
    committed["iommu"] = GhostIommu(
        present=True,
        domains={
            d: GhostIommuDomain(
                refcount=1,
                devices=(),
                pgt=table(
                    f"dma{d}",
                    [(iova, mapped(oa, state)) for iova, oa, state in dma[d]],
                    AbstractPgtable,
                ),
            )
            for d in world.domains
        },
    )
    return committed


def reference_sweep(committed: dict, offset: int) -> list[tuple[str, str, str]]:
    """The per-page §3.1 sweep as the checker ran it before the sweep
    became incremental, reporting into a list instead of raising."""
    found = []

    def report(kind, detail, component):
        found.append((kind, detail, component))

    host = committed.get("host")
    pkvm = committed.get("pkvm")
    vms = committed.get("vms")
    if host is None or pkvm is None or vms is None:
        return found
    hyp_map = pkvm.pgt.mapping

    if host.annot.domain_overlaps(host.shared):
        report(
            "isolation",
            "a page is both annotated away from the host and in a "
            "host sharing relation",
            "host",
        )

    guest_phys: dict[int, dict[int, PageState]] = {}
    for vm in vms.vms.values():
        pgt = committed.get(vm_pgt_key(vm.handle))
        if pgt is None:
            continue
        owner = int(OwnerId.GUEST) + vm.index
        pages = guest_phys.setdefault(owner, {})
        for maplet in pgt.mapping:
            if maplet.target.kind != "mapped":
                continue
            for i in range(maplet.nr_pages):
                pages[maplet.target.oa + i * PAGE_SIZE] = maplet.target.page_state

    iommu = committed.get("iommu")
    dma_borrowed: set[int] = set()
    if iommu is not None:
        for domain_id, domain in iommu.domains.items():
            for maplet in domain.pgt.mapping:
                if maplet.target.kind != "mapped":
                    continue
                for i in range(maplet.nr_pages):
                    phys = maplet.target.oa + i * PAGE_SIZE
                    if maplet.target.page_state is PageState.SHARED_BORROWED:
                        dma_borrowed.add(phys)
                    host_side = host.shared.lookup(phys)
                    lent = (
                        maplet.target.page_state is PageState.SHARED_BORROWED
                        and host_side is not None
                        and host_side.page_state is PageState.SHARED_OWNED
                        and host.annot.lookup(phys) is None
                    )
                    if not lent:
                        report(
                            "isolation",
                            f"device in iommu domain {domain_id} can "
                            f"DMA to {phys:#x}, which the host does "
                            "not share-and-own",
                            "iommu",
                        )

    for maplet in host.shared:
        for i in range(maplet.nr_pages):
            phys = maplet.va + i * PAGE_SIZE
            state = maplet.target.page_state
            if state is PageState.SHARED_OWNED:
                hyp_side = hyp_map.lookup(phys + offset)
                hyp_borrows = (
                    hyp_side is not None
                    and hyp_side.page_state is PageState.SHARED_BORROWED
                )
                guest_borrows = any(
                    pages.get(phys) is PageState.SHARED_BORROWED
                    for pages in guest_phys.values()
                )
                pending = phys in vms.reclaimable
                iommu_borrows = phys in dma_borrowed
                if not (hyp_borrows or guest_borrows or iommu_borrows or pending):
                    report(
                        "isolation",
                        f"host shares {phys:#x} but no one borrows it",
                        "host",
                    )
            elif state is PageState.SHARED_BORROWED:
                lender = any(
                    pages.get(phys) is PageState.SHARED_OWNED
                    for pages in guest_phys.values()
                )
                if not lender and phys not in vms.reclaimable:
                    report(
                        "isolation",
                        f"host borrows {phys:#x} but no guest shares it",
                        "host",
                    )

    for maplet in host.annot:
        owner = maplet.target.owner_id
        if owner == int(OwnerId.HYP):
            covered = 0
            for _va, run_nr, target in hyp_map.runs_in(
                maplet.va + offset, maplet.nr_pages
            ):
                if target.kind == "mapped" and target.page_state is PageState.OWNED:
                    covered += run_nr
            if covered != maplet.nr_pages:
                report(
                    "isolation",
                    f"pages annotated to pKVM at {maplet.va:#x} "
                    f"(+{maplet.nr_pages}p) are not all owned in its "
                    "stage 1",
                    "pkvm",
                )
            continue
        if owner >= int(OwnerId.GUEST):
            for i in range(maplet.nr_pages):
                phys = maplet.va + i * PAGE_SIZE
                owned = guest_phys.get(owner, {}).get(phys)
                reclaimable = phys in vms.reclaimable
                if owned is not PageState.OWNED and not reclaimable:
                    report(
                        "isolation",
                        f"{phys:#x} is annotated to guest owner "
                        f"{owner} but not in that guest's stage 2 "
                        "(and not awaiting reclaim)",
                        "vms",
                    )
    return found


def sweep_each(states) -> list:
    """Sweep ``states`` in turn with one incremental sweep; after each,
    check it against the full and the reference sweeps. Returns what each
    incremental sweep found and whether it swept windows only."""
    sweep = IsolationSweep()
    runs = []
    for committed in states:
        found, windows = sweep.run(committed, OFFSET)
        full, _ = IsolationSweep().run(committed, OFFSET)
        assert found == full == reference_sweep(committed, OFFSET)
        runs.append((found, windows is not None))
    return runs


@given(st.data())
@SETTINGS
def test_incremental_full_and_reference_sweeps_agree(data):
    draw = data.draw
    world = World.draw(draw)
    live = {h for h, _ in world.vms}
    pages = recipes(draw, corrupt_odds=8)
    reuse: dict = {}
    states = [build(world, pages, live, reuse)]
    for _ in range(3):
        pages = list(pages)
        for _ in range(draw(st.integers(1, 4))):
            pages[draw(st.integers(0, NR_PAGES - 1))] = recipe(draw, corrupt_odds=3)
        if world.vms and draw(st.integers(0, 3)) == 0:
            live ^= {world.vms[draw(st.integers(0, len(world.vms) - 1))][0]}
        states.append(build(world, pages, live, reuse))
    runs = sweep_each(states)
    for _found, incremental in runs[1:]:
        event("incremental" if incremental else "full (the sweep before reported)")
    event(f"{sum(bool(found) for found, _ in runs)} of 4 states violating")


DONATED = [("guest-donate", 0, n, OWNED) for n in range(4)]

#: Clean states, then one that breaks a pairing through one input only:
#: (name, states, VMs live in the last, start of the violation's text).
TRANSITIONS = [
    (
        "host: annotated and shared",
        [DONATED, [("overlap", 0, 0, BORROWED)] + DONATED[1:]],
        {1},
        "a page is both annotated away",
    ),
    (
        "hyp stage 1: borrower gone",
        [
            [("hyp-share", 0, 0, OWNED)] + DONATED[1:],
            [("share-no-borrower", 0, 0, OWNED)] + DONATED[1:],
        ],
        {1},
        "host shares 0x40000000",
    ),
    (
        "hyp stage 1: two holes in one run annotated to pKVM",
        [
            [("hyp-donate", 0, 0, OWNED)] * 5,
            [("hyp-donate", 0, 0, OWNED), ("hyp-unmapped", 0, 0, BORROWED)] * 2
            + [("hyp-donate", 0, 0, OWNED)],
        ],
        {1},
        "pages annotated to pKVM at 0x40000000 (+5p)",
    ),
    (
        "guest stage 2: donated page unmapped",
        [DONATED, DONATED[:2] + [("guest-unmapped", 0, 2, OWNED)] + DONATED[3:]],
        {1},
        "0x40002000 is annotated to guest owner 18",
    ),
    (
        "guest stage 2: lender stops lending",
        [
            [("guest-lend", 0, 8, OWNED)] + DONATED[1:],
            [("borrow-no-lender", 0, 8, OWNED)] + DONATED[1:],
        ],
        {1},
        "host borrows 0x40000000",
    ),
    (
        "guest stage 2: a run grows by a page, then loses its first",
        [
            [DONATED[0], ("host", 0, 0, OWNED)] + DONATED[2:],
            DONATED,
            [("guest-unmapped", 0, 0, OWNED)] + DONATED[1:],
        ],
        {1},
        "0x40000000 is annotated to guest owner 18",
    ),
    (
        "DMA domain: reaches a donated page",
        [DONATED, DONATED[:3] + [("dma-unshared", 0, 9, BORROWED)]],
        {1},
        "device in iommu domain 5 can DMA to 0x40003000",
    ),
    (
        "reclaim set: pending page reclaimed",
        [
            [("pending-share", 0, 0, OWNED)] + DONATED[1:],
            [("share-bare", 0, 0, LENT)] + DONATED[1:],
        ],
        {1},
        "host shares 0x40000000",
    ),
    (
        "VMs: guest torn down",
        [DONATED, DONATED],
        set(),
        "0x40000000 is annotated to guest owner 18",
    ),
]


@pytest.mark.parametrize(
    "states, live, text", [t[1:] for t in TRANSITIONS], ids=[t[0] for t in TRANSITIONS]
)
def test_each_input_moves_the_windows(states, live, text):
    """Each kind of sweep input, moved alone after clean sweeps, points
    the incremental sweep at the pairing it breaks."""
    world = World(vms=[(1, 2)], domains=[5])
    reuse: dict = {}
    built = [build(world, pages, {1}, reuse) for pages in states[:-1]]
    built.append(build(world, states[-1], live, reuse))
    runs = sweep_each(built)
    assert all(found == [] for found, _ in runs[:-1])
    found, incremental = runs[-1]
    assert incremental
    assert any(detail.startswith(text) for _kind, detail, _c in found)
