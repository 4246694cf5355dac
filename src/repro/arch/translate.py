"""The hardware translation-table walk.

This is the implicit consumer of the page tables pKVM manages: every memory
access by the host or a guest is translated through it. The ghost
specification interprets the same tables *extensionally* (as finite maps);
this module is the *intensional* walk for a single input address, following
the Arm-A translation-table-walk algorithm for the 4KB granule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.defs import (
    LEAF_LEVEL,
    START_LEVEL,
    MemType,
    Perms,
    Stage,
    level_index,
    level_shift,
)
from repro.arch.memory import PhysicalMemory
from repro.arch.pte import (
    OA_MASK,
    PTE_TYPE,
    PTE_VALID,
    DecodedPte,
    EntryKind,
    PageState,
    decode_descriptor,
)

#: Valid and type bits both set: a table descriptor above the leaf level.
_TABLE_BITS = PTE_VALID | PTE_TYPE


class TranslationFault(Exception):
    """A stage of translation failed.

    ``level`` is the level at which the walk stopped; ``is_permission`` is
    True for a permission fault on a valid leaf (vs a translation fault on
    an invalid entry).
    """

    def __init__(
        self,
        ia: int,
        level: int,
        stage: Stage,
        *,
        is_permission: bool = False,
        write: bool = False,
    ):
        self.ia = ia
        self.level = level
        self.stage = stage
        self.is_permission = is_permission
        self.write = write
        kind = "permission" if is_permission else "translation"
        super().__init__(
            f"stage {stage.value} {kind} fault at IA {ia:#x}, level {level}"
        )


@dataclass(frozen=True)
class TranslationResult:
    """A successful single-stage translation."""

    ia: int
    oa: int
    level: int
    perms: Perms
    memtype: MemType
    page_state: PageState


def walk(
    mem: PhysicalMemory,
    root: int,
    ia: int,
    stage: Stage,
    *,
    write: bool = False,
    execute: bool = False,
) -> TranslationResult:
    """Translate input address ``ia`` through the table rooted at ``root``.

    Raises :class:`TranslationFault` on an invalid entry or insufficient
    permissions, recording the faulting level as the hardware would report
    it in the syndrome register.
    """
    table = root
    for level in range(START_LEVEL, LEAF_LEVEL + 1):
        raw = mem.read64(table + 8 * level_index(ia, level))
        if raw & _TABLE_BITS == _TABLE_BITS and level < LEAF_LEVEL:
            # a table descriptor: follow it without a full decode
            table = raw & OA_MASK
            continue
        pte = decode_descriptor(raw, level, stage)
        if pte.kind in (EntryKind.INVALID, EntryKind.INVALID_ANNOTATED):
            raise TranslationFault(ia, level, stage, write=write)
        return _leaf_result(pte, ia, stage, write=write, execute=execute)
    raise AssertionError("walk fell off the end of the table levels")


def _leaf_result(
    pte: DecodedPte, ia: int, stage: Stage, *, write: bool, execute: bool
) -> TranslationResult:
    if not pte.perms.allows(write=write, execute=execute):
        raise TranslationFault(
            ia, pte.level, stage, is_permission=True, write=write
        )
    offset = ia & ((1 << level_shift(pte.level)) - 1)
    return TranslationResult(
        ia=ia,
        oa=pte.oa | offset,
        level=pte.level,
        perms=pte.perms,
        memtype=pte.memtype,
        page_state=pte.page_state,
    )


def walk_two_stage(
    mem: PhysicalMemory,
    s1_root: int | None,
    s2_root: int,
    va: int,
    *,
    write: bool = False,
    execute: bool = False,
) -> TranslationResult:
    """Full two-stage translation as the host/guest hardware performs it.

    ``s1_root`` of None models stage 1 off (identity), which is how we run
    the simulated host: its "virtual" addresses are intermediate-physical
    addresses, translated only by the pKVM-managed stage 2. The fault the
    caller sees is then exactly the stage 2 abort pKVM must handle.
    """
    if s1_root is not None:
        s1 = walk(mem, s1_root, va, Stage.STAGE1, write=write, execute=execute)
        ipa = s1.oa
    else:
        ipa = va
    return walk(mem, s2_root, ipa, Stage.STAGE2, write=write, execute=execute)
