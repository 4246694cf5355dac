"""Symbolic bit-level verifier for the Arm PTE codec.

The ghost abstraction function and the paper's diff output both trust
``repro.arch.pte`` to round-trip descriptor fields faithfully: a page
state written into the software bits must come back out as the same
page state, an output address must not bleed into the attribute bits,
and an annotated-invalid owner must never make the descriptor look
valid. A one-bit mistake in a shift silently corrupts every verdict
downstream, so this pass proves the layout instead of spot-checking it.

Three layers of checking, over any module exporting the codec's names
(the real ``repro.arch.pte`` by default; fixtures via ``--pte-module``):

**Field algebra** (``field-overlap``) — a symbolic-bit engine assigns
each field definition a symbol and lays the fields of every descriptor
form (stage-1/2 page, stage-1/2 block per level, table, annotated
invalid) onto a 64-slot word. A slot claimed by two symbols is an
overlap: the encode of one field corrupts the decode of the other. The
``valid``/``type`` classifier bits are laid into every form, so an OA or
software-bit mask that reaches bits 1:0 — which would silently change
``entry_kind`` — is caught the same way.

**Mask shape** (``oa-mask-mismatch``, ``software-bit-escape``) — the
per-level OA mask must equal bits ``[47:level_shift(level)]`` exactly
and nest monotonically across levels, and the page-state field must sit
wholly inside the architecture's software-defined bits 58:55 while
being wide enough for every ``PageState`` value.

**Round-trip identity** (``roundtrip-mismatch``, ``codec-error``) —
encode→decode→encode is the identity for every descriptor kind, level,
and stage: all discrete field values (perms × memtype × page state ×
stage, every owner id) are enumerated exhaustively, and the OA field is
probed bit-by-bit. Bit probes suffice *because* the field algebra above
proved the fields independent — each OA bit can only interact with
itself — which is what makes the exhaustive claim sound without 2^64
trials. Classification probes pin the reserved encodings (block where
no block is architecturally allowed decodes as invalid).
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import itertools
from pathlib import Path

from repro.analysis.astutil import ParsedModule, apply_pragmas, load_module_ast
from repro.analysis.report import Finding
from repro.arch.defs import LEAF_LEVEL, MemType, Perms, Stage, level_shift

#: The architecture's software-defined descriptor bits (58:55 inclusive).
SW_BITS_LOW, SW_BITS_HIGH = 55, 58

#: Descriptor classifier bits: every form must keep these unclaimed by
#: any other field.
_VALID_BIT = 1 << 0
_TYPE_BIT = 1 << 1


def bits_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(64) if mask >> i & 1)


class SymbolicLayout:
    """A 64-slot word; each slot remembers which field symbols claim it."""

    def __init__(self, form: str):
        self.form = form
        self.slots: list[list[str]] = [[] for _ in range(64)]

    def claim(self, symbol: str, mask: int) -> list[tuple[int, str, str]]:
        """Claim ``mask``'s bits for ``symbol``; return collisions as
        (bit, earlier symbol, this symbol)."""
        collisions = []
        for bit in bits_of(mask):
            for earlier in self.slots[bit]:
                collisions.append((bit, earlier, symbol))
            self.slots[bit].append(symbol)
        return collisions


class _Codec:
    """The module under test, with line numbers for its definitions."""

    def __init__(self, module, parsed: ParsedModule):
        self.module = module
        self.parsed = parsed
        self.lines: dict[str, int] = {}
        for node in parsed.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.lines[node.name] = node.lineno
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.lines[target.id] = node.lineno
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.lines[node.target.id] = node.lineno

    def get(self, name: str, default=None):
        return getattr(self.module, name, default)

    def line(self, name: str) -> int:
        return self.lines.get(name, 0)


def load_codec(module_path: str | Path | None = None) -> _Codec:
    if module_path is None:
        module = importlib.import_module("repro.arch.pte")
        path = Path(module.__file__)
    else:
        path = Path(module_path)
        spec = importlib.util.spec_from_file_location(
            f"_bitfields_target_{path.stem}", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return _Codec(module, load_module_ast(path))


class _Checker:
    def __init__(self, codec: _Codec):
        self.codec = codec
        self.findings: list[Finding] = []

    def report(self, rule: str, message: str, anchor: str = "") -> None:
        self.findings.append(
            Finding(
                analysis="bitfields",
                rule=rule,
                message=message,
                file=self.codec.parsed.path,
                line=self.codec.line(anchor),
                function=anchor,
            )
        )

    # -- field algebra -----------------------------------------------------

    def _attr_fields(self, stage: Stage) -> list[tuple[str, int]]:
        c = self.codec.get
        fields = [("PTE_AF", c("PTE_AF", 0)), ("PTE_XN", c("PTE_XN", 0))]
        if stage is Stage.STAGE1:
            fields += [
                ("S1_ATTRIDX_MASK", c("S1_ATTRIDX_MASK", 0)),
                ("S1_AP_RDONLY", c("S1_AP_RDONLY", 0)),
            ]
        else:
            fields += [
                ("S2_MEMATTR_MASK", c("S2_MEMATTR_MASK", 0)),
                ("S2AP_R", c("S2AP_R", 0)),
                ("S2AP_W", c("S2AP_W", 0)),
            ]
        fields.append(("SW_PAGE_STATE_MASK", c("SW_PAGE_STATE_MASK", 0)))
        return fields

    def check_field_algebra(self) -> None:
        c = self.codec.get
        oa_for_level = c("oa_mask_for_level")
        forms: list[tuple[str, list[tuple[str, int]]]] = []
        for stage in Stage:
            forms.append(
                (
                    f"{stage.name.lower()} page",
                    self._attr_fields(stage) + [("OA_MASK", c("OA_MASK", 0))],
                )
            )
            for level in (1, 2):
                if oa_for_level is None:
                    continue
                try:
                    oa_mask = oa_for_level(level)
                except Exception as exc:  # noqa: BLE001
                    self.report(
                        "codec-error",
                        f"oa_mask_for_level({level}) raised {exc!r}",
                        "oa_mask_for_level",
                    )
                    continue
                forms.append(
                    (
                        f"{stage.name.lower()} level-{level} block",
                        self._attr_fields(stage)
                        + [(f"oa_mask_for_level({level})", oa_mask)],
                    )
                )
        forms.append(("table", [("OA_MASK", c("OA_MASK", 0))]))
        forms.append(
            ("annotated invalid", [("INVALID_OWNER_MASK", c("INVALID_OWNER_MASK", 0))])
        )
        seen: set[tuple] = set()
        for form, fields in forms:
            layout = SymbolicLayout(form)
            layout.claim("PTE_VALID", c("PTE_VALID", _VALID_BIT))
            if "block" not in form and "invalid" not in form:
                layout.claim("PTE_TYPE", c("PTE_TYPE", _TYPE_BIT))
            else:
                # TYPE must stay clear in these forms; claim the bit so a
                # field reaching it is reported as a classifier collision.
                layout.claim("PTE_TYPE (must stay 0)", c("PTE_TYPE", _TYPE_BIT))
            for name, mask in fields:
                for bit, a, b in layout.claim(name, mask):
                    key = (bit, a, b)
                    if key in seen:
                        continue
                    seen.add(key)
                    anchor = b if b in self.codec.lines else a
                    self.report(
                        "field-overlap",
                        f"{form} descriptor: bit {bit} is claimed by both "
                        f"{a} and {b}; encoding one corrupts decoding the "
                        "other",
                        anchor,
                    )

    # -- mask shape --------------------------------------------------------

    def check_oa_masks(self) -> None:
        c = self.codec.get
        oa_for_level = c("oa_mask_for_level")
        if oa_for_level is None:
            return
        previous = None
        for level in range(LEAF_LEVEL + 1):
            expected = ((1 << 48) - 1) & ~((1 << level_shift(level)) - 1)
            try:
                actual = oa_for_level(level)
            except Exception as exc:  # noqa: BLE001
                self.report(
                    "codec-error",
                    f"oa_mask_for_level({level}) raised {exc!r}",
                    "oa_mask_for_level",
                )
                continue
            if actual != expected:
                self.report(
                    "oa-mask-mismatch",
                    f"oa_mask_for_level({level}) = {actual:#x}, but a "
                    f"level-{level} leaf maps {1 << level_shift(level):#x}"
                    f"-byte regions so its OA field is bits "
                    f"[47:{level_shift(level)}] = {expected:#x}",
                    "oa_mask_for_level",
                )
            if previous is not None and previous & ~actual:
                self.report(
                    "oa-mask-mismatch",
                    f"oa_mask_for_level({level - 1}) is not a subset of "
                    f"oa_mask_for_level({level}): coarser levels must "
                    "constrain strictly fewer OA bits",
                    "oa_mask_for_level",
                )
            previous = actual
        oa_mask = c("OA_MASK")
        if oa_mask is not None:
            try:
                leaf = oa_for_level(LEAF_LEVEL)
            except Exception:  # noqa: BLE001 — reported above
                return
            if oa_mask != leaf:
                self.report(
                    "oa-mask-mismatch",
                    f"OA_MASK ({oa_mask:#x}) must equal "
                    f"oa_mask_for_level({LEAF_LEVEL}) ({leaf:#x})",
                    "OA_MASK",
                )

    def check_software_bits(self) -> None:
        c = self.codec.get
        mask = c("SW_PAGE_STATE_MASK")
        shift = c("SW_PAGE_STATE_SHIFT")
        if mask is None or shift is None:
            return
        sw_window = sum(1 << b for b in range(SW_BITS_LOW, SW_BITS_HIGH + 1))
        stray = mask & ~sw_window
        if stray:
            self.report(
                "software-bit-escape",
                f"SW_PAGE_STATE_MASK claims bits {bits_of(stray)} outside "
                f"the architecture's software-defined bits "
                f"{SW_BITS_HIGH}:{SW_BITS_LOW}; the hardware interprets "
                "those bits",
                "SW_PAGE_STATE_MASK",
            )
        states = c("PageState")
        if states is not None:
            for state in states:
                encoded = int(state) << shift
                if encoded & ~mask:
                    self.report(
                        "software-bit-escape",
                        f"PageState.{state.name} ({int(state)}) shifted by "
                        f"SW_PAGE_STATE_SHIFT escapes SW_PAGE_STATE_MASK: "
                        "the state would be truncated on decode",
                        "SW_PAGE_STATE_MASK",
                    )

    # -- round-trip identity ----------------------------------------------

    def _probe_oas(self, mask: int) -> list[int]:
        return [0, mask] + [1 << b for b in bits_of(mask)]

    def check_roundtrip(self) -> None:
        c = self.codec.get
        decode = c("decode_descriptor")
        if decode is None:
            return  # constants-only module: layout checks are the ceiling
        kinds = c("EntryKind")
        states = c("PageState")
        make_table = c("make_table_descriptor")
        make_page = c("make_page_descriptor")
        make_block = c("make_block_descriptor")
        make_annot = c("make_invalid_annotated")
        oa_for_level = c("oa_mask_for_level")

        def run(anchor: str, what: str, fn):
            try:
                return fn()
            except Exception as exc:  # noqa: BLE001
                self.report("codec-error", f"{what} raised {exc!r}", anchor)
                return None

        def check_leaf(anchor, what, pte, level, stage, oa, perms, memtype, state, reencode):
            dec = run(anchor, f"decode of {what}", lambda: decode(pte, level, stage))
            if dec is None:
                return
            expect_kind = kinds.PAGE if level == LEAF_LEVEL else kinds.BLOCK
            fields = [
                ("kind", dec.kind, expect_kind),
                ("oa", dec.oa, oa),
                ("perms", dec.perms, perms),
                ("memtype", dec.memtype, memtype),
                ("page_state", dec.page_state, state),
                ("af", dec.af, True),
            ]
            for field_name, got, want in fields:
                if got != want:
                    self.report(
                        "roundtrip-mismatch",
                        f"{what}: decoded {field_name} is {got!r}, "
                        f"encoded {want!r}",
                        anchor,
                    )
                    return
            pte2 = run(anchor, f"re-encode of {what}", lambda: reencode(dec))
            if pte2 is not None and pte2 != pte:
                self.report(
                    "roundtrip-mismatch",
                    f"{what}: encode∘decode is not the identity "
                    f"({pte:#x} -> {pte2:#x})",
                    anchor,
                )

        # Tables: every OA bit probe, decoded at each non-leaf level.
        if make_table is not None and kinds is not None:
            oa_mask = c("OA_MASK", 0)
            for oa in self._probe_oas(oa_mask):
                pte = run("make_table_descriptor", f"table oa={oa:#x}",
                          lambda oa=oa: make_table(oa))
                if pte is None:
                    continue
                for level in range(LEAF_LEVEL):
                    dec = run("decode_descriptor", f"decode table L{level}",
                              lambda pte=pte, level=level: decode(pte, level, Stage.STAGE2))
                    if dec is None:
                        continue
                    if dec.kind is not kinds.TABLE or dec.oa != oa:
                        self.report(
                            "roundtrip-mismatch",
                            f"table descriptor oa={oa:#x} at level {level} "
                            f"decoded as {dec.kind} oa={dec.oa:#x}",
                            "make_table_descriptor",
                        )
                        break
                    pte2 = run("make_table_descriptor", "re-encode table",
                               lambda dec=dec: make_table(dec.oa))
                    if pte2 is not None and pte2 != pte:
                        self.report(
                            "roundtrip-mismatch",
                            f"table descriptor {pte:#x} re-encodes as {pte2:#x}",
                            "make_table_descriptor",
                        )
                        break

        all_perms = [Perms(*c) for c in itertools.product((False, True), repeat=3)]
        discrete = list(
            itertools.product(
                list(Stage),
                all_perms,
                list(MemType),
                list(states) if states is not None else [],
            )
        )

        # Pages: exhaustive discrete fields at oa=0, then OA bit probes at
        # one representative attribute combination (sound: fields proven
        # disjoint above, so OA bits cannot interact with attributes).
        if make_page is not None and kinds is not None and states is not None:
            def page_reencode(dec, stage):
                return make_page(dec.oa, stage, dec.perms, dec.memtype, dec.page_state)

            for stage, perms, memtype, state in discrete:
                what = f"page({stage.name}, {perms}, {memtype.name}, {state.name})"
                try:
                    pte = make_page(0, stage, perms, memtype, state)
                except ValueError:
                    continue  # rejected combination (e.g. stage-1 non-readable)
                except Exception as exc:  # noqa: BLE001
                    self.report("codec-error", f"{what} raised {exc!r}", "make_page_descriptor")
                    continue
                check_leaf(
                    "make_page_descriptor", what, pte, LEAF_LEVEL, stage,
                    0, perms, memtype, state,
                    lambda dec, stage=stage: page_reencode(dec, stage),
                )
            for stage in Stage:
                for oa in self._probe_oas(c("OA_MASK", 0)):
                    what = f"page({stage.name}, oa={oa:#x})"
                    pte = run("make_page_descriptor", what,
                              lambda oa=oa, stage=stage: make_page(
                                  oa, stage, Perms.rw(), MemType.NORMAL,
                                  states(0)))
                    if pte is None:
                        continue
                    check_leaf(
                        "make_page_descriptor", what, pte, LEAF_LEVEL, stage,
                        oa, Perms.rw(), MemType.NORMAL, states(0),
                        lambda dec, stage=stage: page_reencode(dec, stage),
                    )

        # Blocks: same scheme per block level.
        if make_block is not None and kinds is not None and states is not None and oa_for_level is not None:
            for level in (1, 2):
                try:
                    level_mask = oa_for_level(level)
                except Exception:  # noqa: BLE001 — reported in mask checks
                    continue

                def block_reencode(dec, level=level):
                    return make_block(
                        dec.oa, level, stage_box[0], dec.perms, dec.memtype,
                        dec.page_state,
                    )

                stage_box = [Stage.STAGE2]
                for stage, perms, memtype, state in discrete:
                    stage_box[0] = stage
                    what = f"block(L{level}, {stage.name}, {perms}, {memtype.name}, {state.name})"
                    try:
                        pte = make_block(0, level, stage, perms, memtype, state)
                    except ValueError:
                        continue
                    except Exception as exc:  # noqa: BLE001
                        self.report("codec-error", f"{what} raised {exc!r}", "make_block_descriptor")
                        continue
                    check_leaf(
                        "make_block_descriptor", what, pte, level, stage,
                        0, perms, memtype, state, block_reencode,
                    )
                stage_box[0] = Stage.STAGE2
                for oa in self._probe_oas(level_mask):
                    what = f"block(L{level}, oa={oa:#x})"
                    pte = run("make_block_descriptor", what,
                              lambda oa=oa, level=level: make_block(
                                  oa, level, Stage.STAGE2, Perms.rw(),
                                  MemType.NORMAL, states(0)))
                    if pte is None:
                        continue
                    check_leaf(
                        "make_block_descriptor", what, pte, level, Stage.STAGE2,
                        oa, Perms.rw(), MemType.NORMAL, states(0), block_reencode,
                    )

        # Annotated invalid: every owner id, at every level.
        if make_annot is not None and kinds is not None:
            for owner in range(1, 0x100):
                pte = run("make_invalid_annotated", f"annotation owner={owner}",
                          lambda owner=owner: make_annot(owner))
                if pte is None:
                    break
                for level in range(LEAF_LEVEL + 1):
                    dec = run("decode_descriptor", f"decode annotation L{level}",
                              lambda pte=pte, level=level: decode(pte, level, Stage.STAGE2))
                    if dec is None:
                        break
                    if dec.kind is not kinds.INVALID_ANNOTATED or dec.owner_id != owner:
                        self.report(
                            "roundtrip-mismatch",
                            f"annotated invalid owner={owner} at level "
                            f"{level} decoded as {dec.kind} "
                            f"owner_id={dec.owner_id}",
                            "make_invalid_annotated",
                        )
                        break
                    pte2 = run("make_invalid_annotated", "re-encode annotation",
                               lambda dec=dec: make_annot(dec.owner_id))
                    if pte2 is not None and pte2 != pte:
                        self.report(
                            "roundtrip-mismatch",
                            f"annotation {pte:#x} re-encodes as {pte2:#x}",
                            "make_invalid_annotated",
                        )
                        break
                else:
                    continue
                break

        # Classification probes for the reserved encodings.
        if kinds is not None:
            probes = [
                (0, 0, kinds.INVALID, "all-zero descriptor"),
                (c("PTE_VALID", 1), 0, kinds.INVALID,
                 "valid TYPE=0 at level 0 (no level-0 blocks)"),
                (c("PTE_VALID", 1), LEAF_LEVEL, kinds.INVALID,
                 "valid TYPE=0 at the leaf level (no level-3 blocks)"),
            ]
            for pte, level, want, label in probes:
                dec = run("decode_descriptor", f"decode of {label}",
                          lambda pte=pte, level=level: decode(pte, level, Stage.STAGE2))
                if dec is not None and dec.kind is not want:
                    self.report(
                        "roundtrip-mismatch",
                        f"{label} must classify as {want}, got {dec.kind}",
                        "decode_descriptor",
                    )


def check_pte_codec(module_path: str | Path | None = None) -> list[Finding]:
    """Run every bitfield check against the codec module."""
    codec = load_codec(module_path)
    checker = _Checker(codec)
    checker.check_field_algebra()
    checker.check_oa_masks()
    checker.check_software_bits()
    checker.check_roundtrip()
    return apply_pragmas(checker.findings, codec.parsed)
