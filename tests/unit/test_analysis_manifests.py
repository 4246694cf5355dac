"""The one manifest reader (repro.analysis.astutil.read_manifest), table
driven over the four literal manifests the passes read, and the rule
that a broken manifest is reported whatever pragma sits on it."""

import importlib
import textwrap

import pytest

from repro.analysis.astutil import load_module_ast, read_manifest, spec_module_path
from repro.analysis.frame import check_frames
from repro.analysis.ownership import check_ownership
from repro.analysis.refinement import check_refinement
from repro.ghost.registry import SUBSYSTEMS
from repro.ghost.spec import Frame, OwnershipRule

#: manifest -> (the pass that reads it, the schema it reads it with).
MANIFESTS = {
    "FRAME_MANIFESTS": ("frame", Frame),
    "OWNERSHIP_EDGES": ("ownership", OwnershipRule),
    "REFINEMENT_SPECS": ("refinement", str),
    "OOM_PERMITTED": ("refinement", frozenset),
}

#: (manifest, case) -> (source, findings as (line, column, words the
#: message names besides the manifest), entries as key -> (value, line)).
CASES = {
    **{
        (manifest, "absent"): ("X = {}", [], {})
        for manifest in MANIFESTS
    },
    ("FRAME_MANIFESTS", "computed"): ("FRAME_MANIFESTS = build()", [(1, 19, ())], {}),
    ("FRAME_MANIFESTS", "non-string-key"): (
        """
        FRAME_MANIFESTS = {
            1: Frame(reads={"a"}, writes={"a"}),
        }
        """,
        [(2, 5, ())],
        {},
    ),
    ("FRAME_MANIFESTS", "unpacking"): (
        """
        FRAME_MANIFESTS = {
            **OTHER,
        }
        """,
        [(1, 19, ())],
        {},
    ),
    ("FRAME_MANIFESTS", "wrong-constructor"): (
        """
        FRAME_MANIFESTS = {
            "f": Footprint(reads={"a"}, writes={"a"}),
        }
        """,
        [(2, 10, ("f", "Frame"))],
        {},
    ),
    ("FRAME_MANIFESTS", "non-literal-field"): (
        """
        FRAME_MANIFESTS = {
            "f": Frame(reads={READS}, writes={"a"}),
        }
        """,
        [(2, 22, ("f", "reads"))],
        {},
    ),
    ("FRAME_MANIFESTS", "unknown-field"): (
        """
        FRAME_MANIFESTS = {
            "f": Frame(reads={"a"}, writes={"a"}, mode={"x"}),
        }
        """,
        [(2, 10, ("f", "mode"))],
        {},
    ),
    ("FRAME_MANIFESTS", "missing-field"): (
        """
        FRAME_MANIFESTS = {
            "f": Frame(reads={"a"}),
        }
        """,
        [(2, 10, ("f", "writes="))],
        {},
    ),
    ("FRAME_MANIFESTS", "round-trip"): (
        """
        FRAME_MANIFESTS = {
            "f": Frame(reads={"host", "local"}, writes=("local",)),
        }
        """,
        [],
        {"f": (Frame(reads=frozenset({"host", "local"}), writes=frozenset({"local"})), 2)},
    ),
    ("OWNERSHIP_EDGES", "computed"): ("OWNERSHIP_EDGES = build()", [(1, 19, ())], {}),
    ("OWNERSHIP_EDGES", "non-string-key"): (
        """
        OWNERSHIP_EDGES = {
            OP: OwnershipRule(success={"t": "unmap"}),
        }
        """,
        [(2, 5, ())],
        {},
    ),
    ("OWNERSHIP_EDGES", "unpacking"): (
        """
        OWNERSHIP_EDGES = {
            **OTHER,
        }
        """,
        [(1, 19, ())],
        {},
    ),
    ("OWNERSHIP_EDGES", "wrong-constructor"): (
        """
        OWNERSHIP_EDGES = {
            "op": dict(success={"t": "unmap"}),
        }
        """,
        [(2, 11, ("op", "OwnershipRule"))],
        {},
    ),
    ("OWNERSHIP_EDGES", "non-literal-field"): (
        """
        OWNERSHIP_EDGES = {
            "op": OwnershipRule(success={"t": STATE}),
        }
        """,
        [(2, 33, ("op", "success"))],
        {},
    ),
    ("OWNERSHIP_EDGES", "unknown-field"): (
        """
        OWNERSHIP_EDGES = {
            "op": OwnershipRule(success={"t": "unmap"}, undo={}),
        }
        """,
        [(2, 11, ("op", "undo"))],
        {},
    ),
    ("OWNERSHIP_EDGES", "missing-field"): (
        """
        OWNERSHIP_EDGES = {
            "op": OwnershipRule(checks={}),
        }
        """,
        [(2, 11, ("op", "success="))],
        {},
    ),
    ("OWNERSHIP_EDGES", "round-trip"): (
        """
        OWNERSHIP_EDGES = {
            "op": OwnershipRule(
                checks={"host_mmu": "OWNED"},
                success={"host_mmu": "unmap"},
                paired=["host_mmu"],
                locks=("host_mmu",),
            ),
        }
        """,
        [],
        {
            "op": (
                OwnershipRule(
                    checks={"host_mmu": "OWNED"},
                    success={"host_mmu": "unmap"},
                    paired=("host_mmu",),
                    locks=("host_mmu",),
                ),
                2,
            )
        },
    ),
    ("REFINEMENT_SPECS", "computed"): ("REFINEMENT_SPECS = build()", [(1, 20, ())], {}),
    ("REFINEMENT_SPECS", "non-string-key"): (
        """
        REFINEMENT_SPECS = {
            do_share: "spec_share",
        }
        """,
        [(2, 5, ())],
        {},
    ),
    ("REFINEMENT_SPECS", "unpacking"): (
        """
        REFINEMENT_SPECS = {
            **OTHER,
        }
        """,
        [(1, 20, ())],
        {},
    ),
    ("REFINEMENT_SPECS", "non-string-value"): (
        """
        REFINEMENT_SPECS = {
            "do_share": spec_share,
        }
        """,
        [(2, 17, ("do_share",))],
        {},
    ),
    ("REFINEMENT_SPECS", "round-trip"): (
        """
        REFINEMENT_SPECS = {
            "do_share": "spec_share",
        }
        """,
        [],
        {"do_share": ("spec_share", 2)},
    ),
    ("OOM_PERMITTED", "computed"): (
        "OOM_PERMITTED = frozenset({HypercallId.HOST_SHARE_HYP})",
        [(1, 17, ())],
        {},
    ),
    ("OOM_PERMITTED", "non-literal-member"): (
        """
        OOM_PERMITTED = {
            HypercallId.HOST_SHARE_HYP,
            3,
            f(x),
        }
        """,
        [(3, 5, ()), (4, 5, ())],
        {"HOST_SHARE_HYP": ("HOST_SHARE_HYP", 2)},
    ),
    ("OOM_PERMITTED", "round-trip"): (
        'OOM_PERMITTED = [HypercallId.HOST_SHARE_HYP, "INIT_VM"]',
        [],
        {"HOST_SHARE_HYP": ("HOST_SHARE_HYP", 1), "INIT_VM": ("INIT_VM", 1)},
    ),
}


def _read(path, manifest):
    analysis, schema = MANIFESTS[manifest]
    return read_manifest(load_module_ast(path), manifest, analysis, schema)


@pytest.mark.parametrize("manifest, case", sorted(CASES))
def test_manifest_reader(tmp_path, manifest, case):
    source, expected, entries = CASES[manifest, case]
    path = tmp_path / "spec.py"
    path.write_text(textwrap.dedent(source).lstrip())
    got, lines, findings = _read(path, manifest)
    analysis, _schema = MANIFESTS[manifest]
    assert [(f.analysis, f.rule, f.line, f.column) for f in findings] == [
        (analysis, "manifest-parse", line, column) for line, column, _ in expected
    ]
    for finding, (_line, _column, words) in zip(findings, expected):
        assert finding.message.startswith(f"{manifest}: ")
        assert all(word in finding.message for word in words), finding.message
    assert {key: (value, lines[key]) for key, value in got.items()} == entries


@pytest.mark.parametrize("manifest", sorted(MANIFESTS))
@pytest.mark.parametrize("sub", SUBSYSTEMS, ids=lambda sub: sub.name)
def test_reads_match_imports(sub, manifest):
    """Each registered spec module reads clean, and the reader sees what
    importing the module gives."""
    entries, _lines, findings = _read(spec_module_path(sub.spec_module), manifest)
    assert findings == []
    imported = getattr(importlib.import_module(sub.spec_module), manifest)
    if manifest == "OOM_PERMITTED":
        imported = {member.name: member.name for member in imported}
    assert entries == imported


PASSES = {
    "FRAME_MANIFESTS": check_frames,
    "OWNERSHIP_EDGES": check_ownership,
    "REFINEMENT_SPECS": check_refinement,
}


@pytest.mark.parametrize("manifest", sorted(PASSES))
def test_a_pragma_cannot_silence_a_broken_manifest(tmp_path, manifest):
    path = tmp_path / "spec.py"
    path.write_text(
        f"{manifest} = build()  # analysis: allow[manifest-parse] reason\n"
    )
    findings = PASSES[manifest](path)
    assert [(f.rule, f.line, f.column) for f in findings] == [
        ("manifest-parse", 1, len(f"{manifest} = ") + 1)
    ]
