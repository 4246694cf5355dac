"""Unit tests for the LoC accounting behind the spec-size experiment."""

from pathlib import Path

from repro.testing.loc import (
    CATEGORIES,
    PKG_ROOT,
    breakdown,
    count_file,
    format_table,
    spec_vs_impl,
)


def test_all_categorised_files_exist():
    for category, files in CATEGORIES.items():
        for rel in files:
            assert (PKG_ROOT / rel).exists(), f"{category}: {rel} missing"


def test_count_file_skips_comments_and_docstrings(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        '"""docstring\nspanning lines\n"""\n# comment\n\nx = 1\ny = 2\n'
    )
    raw, code = count_file(src)
    assert raw == 7
    assert code == 2


def test_breakdown_is_nonempty():
    entries = breakdown()
    assert all(e.raw_lines > 0 for e in entries)
    assert all(e.code_lines <= e.raw_lines for e in entries)


def test_spec_vs_impl_shape():
    numbers = spec_vs_impl()
    assert numbers["impl_loc"] > 1000
    assert numbers["spec_loc"] > 1000
    # the paper's shape: spec is the same order of magnitude as the impl
    assert 0.3 < numbers["ratio"] < 3.0


def test_format_table_mentions_ratio():
    assert "spec/impl ratio" in format_table()


def test_format_table_ends_with_the_total():
    entries = breakdown()
    (total,) = [row for row in format_table().splitlines() if row.startswith("total")]
    assert total.split()[1:] == [
        str(sum(e.files for e in entries)),
        str(sum(e.raw_lines for e in entries)),
        str(sum(e.code_lines for e in entries)),
    ]


def test_every_package_module_is_categorised():
    """Every source module in the library belongs to exactly one LoC
    category (so the size table is a partition, not a sample). Only
    ``__init__.py`` files are exempt."""
    categorised = [rel for files in CATEGORIES.values() for rel in files]
    assert len(categorised) == len(set(categorised)), "module counted twice"
    all_modules = {
        str(p.relative_to(PKG_ROOT))
        for p in Path(PKG_ROOT).rglob("*.py")
        if p.name != "__init__.py" and "__pycache__" not in p.parts
    }
    uncategorised = all_modules - set(categorised)
    assert not uncategorised, f"uncategorised modules: {uncategorised}"
