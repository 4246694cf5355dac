"""Property-based tests: the coalescing range map against a page-level
model dictionary.

The Mapping class invariant — sorted, disjoint, maximally coalesced — and
its extensional equality are the foundations the whole specification
stands on, so they get the heaviest property coverage.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.arch.defs import PAGE_SIZE, MemType, Perms
from repro.arch.pte import PageState
from repro.ghost.maplets import Maplet, Mapping, MapletTarget, MappingError

PAGES = st.integers(min_value=0, max_value=63)
RUNS = st.integers(min_value=1, max_value=8)
STATES = st.sampled_from(list(PageState))
OWNERS = st.integers(min_value=1, max_value=20)


def target_for(kind: str, oa_page: int, state: PageState, owner: int):
    if kind == "annotated":
        return MapletTarget.annotated(owner)
    return MapletTarget.mapped(
        oa_page * PAGE_SIZE, Perms.rwx(), page_state=state
    )


KINDS = st.sampled_from(["mapped", "annotated"])
#: A splice's replacement segment: (gap pages, run pages, target) pieces
#: laid out in ascending order from the start of the spliced range.
SEGMENTS = st.lists(
    st.tuples(st.integers(0, 3), RUNS, KINDS, PAGES, STATES, OWNERS),
    max_size=4,
)

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove", "splice"]),
        PAGES,
        RUNS,
        KINDS,
        PAGES,
        STATES,
        OWNERS,
        SEGMENTS,
    ),
    max_size=40,
)


def build_segment(va: int, pieces) -> tuple[Maplet, ...]:
    """An in-order, coalesced run of maplets starting at or after ``va``,
    built the way the abstraction traversal builds one."""
    segment = Mapping()
    cursor = va
    for gap, nr, kind, oa_page, state, owner in pieces:
        cursor += gap * PAGE_SIZE
        segment.extend_coalesce(cursor, nr, target_for(kind, oa_page, state, owner))
        cursor += nr * PAGE_SIZE
    return tuple(segment)


def apply_ops(op_list):
    """Apply to both the Mapping and a page-level model dict."""
    mapping = Mapping()
    model: dict[int, MapletTarget] = {}
    for op, va_page, nr, kind, oa_page, state, owner, pieces in op_list:
        va = va_page * PAGE_SIZE
        target = target_for(kind, oa_page, state, owner)
        if op == "insert":
            mapping.insert(va, nr, target, overwrite=True)
            for i in range(nr):
                model[va + i * PAGE_SIZE] = target.at_offset(i * PAGE_SIZE)
        elif op == "remove":
            mapping.remove_if_present(va, nr)
            for i in range(nr):
                model.pop(va + i * PAGE_SIZE, None)
        else:
            segment = build_segment(va, pieces)
            end = max(va + nr * PAGE_SIZE, segment[-1].end if segment else va)
            mapping.splice(va, end, segment)
            for page in range(va, end, PAGE_SIZE):
                model.pop(page, None)
            for m in segment:
                for page in range(m.va, m.end, PAGE_SIZE):
                    model[page] = m.target_at(page)
    return mapping, model


@given(ops)
@settings(max_examples=200)
def test_mapping_agrees_with_model(op_list):
    mapping, model = apply_ops(op_list)
    domain = {p * PAGE_SIZE for p in range(120)}
    for page in domain:
        assert mapping.lookup(page) == model.get(page)
    assert mapping.nr_pages() == len(model)


@given(ops)
@settings(max_examples=200)
def test_normal_form_invariant(op_list):
    """Sorted, disjoint, maximally coalesced."""
    mapping, _model = apply_ops(op_list)
    maplets = list(mapping)
    for a, b in zip(maplets, maplets[1:]):
        assert a.end <= b.va, "not sorted/disjoint"
        if a.end == b.va:
            assert not b.target.continues(a.target, b.va - a.va), (
                "adjacent compatible maplets not coalesced"
            )


@given(ops, ops)
@settings(max_examples=100)
def test_equality_is_extensional(ops_a, ops_b):
    a, model_a = apply_ops(ops_a)
    b, model_b = apply_ops(ops_b)
    assert (a == b) == (model_a == model_b)


@given(ops)
@settings(max_examples=100)
def test_copy_equal_and_independent(op_list):
    mapping, _ = apply_ops(op_list)
    clone = mapping.copy()
    assert clone == mapping
    # Mutating the (copy-on-write) clone never leaks into the original...
    before = mapping.lookup(70 * PAGE_SIZE)
    clone.insert(70 * PAGE_SIZE, 1, MapletTarget.annotated(99), overwrite=True)
    assert mapping.lookup(70 * PAGE_SIZE) == before
    assert clone.lookup(70 * PAGE_SIZE) == MapletTarget.annotated(99)
    # ... and mutating the original never leaks into the clone.
    mapping.insert(71 * PAGE_SIZE, 1, MapletTarget.annotated(98), overwrite=True)
    assert clone.lookup(71 * PAGE_SIZE) != MapletTarget.annotated(98)


@given(ops)
@settings(max_examples=100)
def test_diff_roundtrip(op_list):
    """Applying a diff's removals and additions transforms pre into post."""
    mapping, _ = apply_ops(op_list)
    other = Mapping.singleton(3 * PAGE_SIZE, 2, MapletTarget.annotated(9))
    removed, added = mapping.diff(other)
    rebuilt = mapping.copy()
    for m in removed:
        rebuilt.remove_if_present(m.va, m.nr_pages)
    for m in added:
        rebuilt.insert(m.va, m.nr_pages, m.target, overwrite=True)
    assert rebuilt == other


def page_difference(a: Mapping, b: Mapping) -> list[Maplet]:
    """The per-page reference for one side of :meth:`Mapping.diff`: one
    lookup and one one-page insert per page of ``a``."""
    result = Mapping()
    for m in a:
        for page in range(m.va, m.end, PAGE_SIZE):
            target = m.target_at(page)
            if b.lookup(page) != target:
                result.insert(page, 1, target)
    return list(result)


@given(ops, ops, st.booleans())
@settings(max_examples=200)
def test_diff_matches_page_by_page_reference(ops_a, ops_b, related):
    """The range-wise diff equals the per-page one, maplet for maplet.
    ``related`` builds ``b`` by editing ``a``, so most pieces agree."""
    a, _ = apply_ops(ops_a)
    b, _ = apply_ops(ops_a + ops_b if related else ops_b)
    removed, added = a.diff(b)
    assert removed == page_difference(a, b)
    assert added == page_difference(b, a)


@given(PAGES, RUNS, STATES)
@settings(max_examples=50)
def test_insert_remove_roundtrip(va_page, nr, state):
    va = va_page * PAGE_SIZE
    m = Mapping()
    target = MapletTarget.mapped(0, Perms.rwx(), page_state=state)
    m.insert(va, nr, target)
    m.remove(va, nr)
    assert not m


@given(ops)
@settings(max_examples=100)
def test_overlapping_insert_always_rejected(op_list):
    mapping, model = apply_ops(op_list)
    if not model:
        return
    some_page = next(iter(model))
    try:
        mapping.insert(some_page, 1, MapletTarget.annotated(2))
        raised = False
    except MappingError:
        raised = True
    assert raised


TARGETS = st.one_of(
    st.builds(
        MapletTarget.mapped,
        st.integers(0, 16).map(lambda page: page * PAGE_SIZE),
        st.builds(Perms, st.booleans(), st.booleans(), st.booleans()),
        st.sampled_from(list(MemType)),
        STATES,
    ),
    st.builds(MapletTarget.annotated, st.integers(1, 3)),
)


@given(
    TARGETS,
    TARGETS,
    st.integers(0, 8).map(lambda pages: pages * PAGE_SIZE),
    st.sampled_from(["as drawn", "same oa run", "continuation"]),
)
@settings(max_examples=400)
def test_continues_agrees_with_at_offset(target, earlier, offset, shape):
    """``continues`` compares fields instead of building the shifted
    target; it must mean exactly ``target == earlier.at_offset(offset)``,
    for mapped, annotated and mixed pairs, continuations and near misses."""
    if shape == "continuation":
        target = earlier.at_offset(offset)
    elif shape == "same oa run" and target.kind == earlier.kind == "mapped":
        target = replace(target, oa=earlier.oa + offset)
    assert target.continues(earlier, offset) == (
        target == earlier.at_offset(offset)
    )
