import ast
import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_colorings, small_specs
from rainbowk.bounds import random_coloring
from rainbowk.core import (
    Coloring,
    PartitionSpec,
    SchemaError,
    VerificationReport,
    WitnessFamily,
    family_is_valid,
    is_rainbow_path,
    json_text,
    path_colors,
    twin_classes,
)

# The 3-color triangle coloring on K_{1,1,1}: parts A={0}, B={1}, X={2}.
TRIANGLE = Coloring(
    PartitionSpec((1, 1, 1)), 3, {(0, 1): 2, (0, 2): 1, (1, 2): 3}
)

ONE_COLOR_K22 = Coloring(
    PartitionSpec((2, 2)), 1, {(0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1}
)


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec((5,))
    with pytest.raises(ValueError):
        PartitionSpec((2, 0))
    # int() would read these as (2, 3), (1, 2) and (2, 3).
    for sizes in ((2.7, 3), (True, 2), ("2", 3)):
        with pytest.raises(ValueError, match="part sizes must be integers"):
            PartitionSpec(sizes)


def test_part_blocks():
    spec = PartitionSpec((2, 3, 1))
    assert [spec.part_of(v) for v in range(6)] == [0, 0, 1, 1, 1, 2]
    assert list(spec.part_members(1)) == [2, 3, 4]
    assert spec.edge_count() == 2 * 3 + 2 * 1 + 3 * 1
    with pytest.raises(ValueError, match="vertex 6 out of range 0..5"):
        spec.part_of(6)


def test_report_reads_its_verdict_off_the_counts():
    # The failing pair is the lex-first short pair, whatever the dict order.
    counts = {(1, 2): 1, (0, 3): 0, (0, 1): 2}
    report = VerificationReport(k=2, counts=counts, capped=True)
    assert report.failing_pair == (0, 3) and not report.ok
    assert report.to_json_dict()["failing_pair"] == [0, 3]
    report = VerificationReport(k=1, counts=counts, capped=False)
    assert report.failing_pair == (0, 3)
    passing = VerificationReport(k=1, counts={(0, 1): 1}, capped=True)
    assert passing.ok and passing.failing_pair is None
    assert "failing_pair" not in passing.to_json_dict()


def test_same_part_color_query_is_error():
    with pytest.raises(ValueError):
        ONE_COLOR_K22.color(0, 1)
    with pytest.raises(ValueError):
        ONE_COLOR_K22.color(0, 0)


@pytest.mark.parametrize("u, v", [(-1, 2), (2, -1), (4, 0), (0, 4)])
def test_out_of_range_color_query_is_error(u, v):
    # rows[-1] would silently answer for the last vertex.
    with pytest.raises(ValueError, match="out of range"):
        ONE_COLOR_K22.color(u, v)


@st.composite
def drawn_assignments(draw):
    """(spec, num_colors, assignment) with each key drawn as (u, v) or (v, u)."""
    spec = draw(small_specs)
    num_colors = draw(st.integers(1, 4))
    assignment = {
        (e if draw(st.booleans()) else e[::-1]): draw(st.integers(1, num_colors))
        for e in spec.edges()
    }
    return spec, num_colors, assignment


@given(drawn_assignments())
def test_row_table_matches_assignment(drawn):
    # Checked against the dict the coloring was built from, not against
    # the `assignment` view, which is derived from `rows`.
    spec, num_colors, given_colors = drawn
    coloring = Coloring(spec, num_colors, given_colors)
    expected = {(min(e), max(e)): col for e, col in given_colors.items()}
    assert coloring.assignment == expected
    assert list(coloring.assignment) == list(spec.edges())
    rows = coloring.rows
    assert len(rows) == spec.n and all(len(row) == spec.n for row in rows)
    for u in range(spec.n):
        for v in range(spec.n):
            assert rows[u][v] == rows[v][u]
            assert (rows[u][v] == 0) == (spec.part_of(u) == spec.part_of(v))
    for (u, v), col in expected.items():
        assert rows[u][v] == col == coloring.color(v, u)
    assert coloring.used_colors() == set(expected.values())


@given(drawn_assignments(), st.data())
def test_coloring_equality_compares_the_table(drawn, data):
    spec, num_colors, given_colors = drawn
    coloring = Coloring(spec, num_colors, given_colors)
    triples = [[u, v, col] for (u, v), col in given_colors.items()]
    assert Coloring(spec, num_colors, triples) == coloring
    assert Coloring(spec, num_colors + 1, given_colors) != coloring
    if num_colors >= 2:
        edge = data.draw(st.sampled_from(sorted(given_colors)))
        recolored = dict(given_colors)
        recolored[edge] = given_colors[edge] % num_colors + 1
        assert Coloring(spec, num_colors, recolored) != coloring


@given(drawn_assignments())
def test_tight_is_derived_not_stored(drawn):
    spec, num_colors, given_colors = drawn
    coloring = Coloring(spec, num_colors, given_colors)
    assert [f.name for f in dataclasses.fields(Coloring)] == ["spec", "num_colors", "rows"]
    assert coloring.tight == (set(given_colors.values()) == set(range(1, num_colors + 1)))


@pytest.mark.parametrize("key", [(0,), 5, (0, 1, 2)])
def test_dict_key_that_is_not_a_pair_is_a_schema_error(key):
    with pytest.raises(SchemaError, match="edge 0: .* is not \\[u,v,color\\]"):
        Coloring(PartitionSpec((1, 1)), 1, {key: 1})


def test_coloring_must_be_total():
    with pytest.raises(ValueError, match="total"):
        Coloring(PartitionSpec((2, 2)), 1, {(0, 2): 1})


def test_coloring_rejects_out_of_range_color():
    with pytest.raises(ValueError):
        Coloring(
            PartitionSpec((1, 1)), 2, {(0, 1): 3}
        )


@st.composite
def edge_order_colors(draw):
    """(spec, num_colors, one color per edge of spec.edge_list): t = 2..5
    parts of 1-6 vertices, the largest part first, in the middle or last."""
    t = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(1, 6), min_size=t, max_size=t))
    largest = sizes.pop(sizes.index(max(sizes)))
    sizes.insert(draw(st.sampled_from([0, t // 2, t - 1])), largest)
    spec = PartitionSpec(tuple(sizes))
    num_colors = draw(st.integers(1, 4))
    m = spec.edge_count()
    return spec, num_colors, draw(st.lists(st.integers(1, num_colors), min_size=m, max_size=m))


@given(edge_order_colors(), st.randoms())
def test_edge_order_colors_fill_the_rows_of_the_other_forms(drawn, rnd):
    spec, num_colors, colors = drawn
    triples = [[u, v, col] for (u, v), col in zip(spec.edge_list, colors)]
    rnd.shuffle(triples)
    expected = Coloring(spec, num_colors, triples).rows
    assert Coloring(spec, num_colors, dict(zip(spec.edge_list, colors))).rows == expected
    for form in (colors, tuple(colors), bytes(colors)):
        rows = Coloring(spec, num_colors, colors=form).rows
        assert rows == expected
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        assert {type(col) for row in rows for col in row} == {int}


@given(edge_order_colors(), st.data())
def test_edge_order_colors_name_the_first_bad_position(drawn, data):
    spec, num_colors, colors = drawn
    i = data.draw(st.integers(0, len(colors) - 1))
    for bad in (0, num_colors + 1, True, 2.0, "1", None):
        given = [*colors[:i], bad, *colors[i + 1:]]
        forms = [given, tuple(given)] + ([bytes(given)] if type(bad) is int else [])
        for form in forms:
            with pytest.raises(SchemaError, match=f"^edge {i}: color {bad!r} "):
                Coloring(spec, num_colors, colors=form)
    m = len(colors)
    for given in (colors[:-1], [*colors, 1], []):
        with pytest.raises(SchemaError, match=f"^{len(given)} colors for {m} edges: "):
            Coloring(spec, num_colors, colors=given)


def test_a_coloring_takes_one_input_form():
    spec = PartitionSpec((1, 1))
    with pytest.raises(TypeError, match="one of assignment and colors"):
        Coloring(spec, 1)
    with pytest.raises(TypeError, match="one of assignment and colors"):
        Coloring(spec, 1, {(0, 1): 1}, colors=[1])
    with pytest.raises(SchemaError, match="num_colors must be an integer >= 1, got 0"):
        Coloring(spec, 0, colors=[1])


def test_is_rainbow_path_on_triangle():
    # A-vertex, X-vertex, B-vertex traverses colors (1, 3).
    assert is_rainbow_path(TRIANGLE, (0, 2, 1))
    assert path_colors(TRIANGLE, (0, 2, 1)) == (1, 3)


def test_is_rainbow_path_malformed_sequences():
    assert not is_rainbow_path(TRIANGLE, (0, 1, 0))  # repeated vertex
    assert not is_rainbow_path(TRIANGLE, (0,))  # too short
    assert not is_rainbow_path(TRIANGLE, (0, 9))  # invalid id
    assert not is_rainbow_path(ONE_COLOR_K22, (0, 1))  # same-part step
    # Unhashable vertices are no vertices either, and must not reach set().
    assert not is_rainbow_path(TRIANGLE, [[0], [2]])
    assert not is_rainbow_path(TRIANGLE, [0, {}])
    assert not family_is_valid(TRIANGLE, WitnessFamily(0, 1, ([0, [2], 1],), "test"), 1)
    assert family_is_valid(TRIANGLE, WitnessFamily(0, 1, ([0, 2, 1],), "test"), 1)


def test_single_color_paths_never_rainbow_beyond_one_edge():
    assert is_rainbow_path(ONE_COLOR_K22, (0, 2))
    assert not is_rainbow_path(ONE_COLOR_K22, (0, 2, 1))


def test_family_is_valid_rejects_shared_interior():
    fam = WitnessFamily(0, 1, ((0, 2, 1), (0, 2, 1)), "test")
    assert not family_is_valid(TRIANGLE, fam, 2)


def test_family_is_valid_rejects_cardinality_shortfall():
    fam = WitnessFamily(0, 1, ((0, 2, 1),), "test")
    assert not family_is_valid(TRIANGLE, fam, 2)
    assert family_is_valid(TRIANGLE, fam, 1)


def test_family_is_valid_reads_list_paths_and_refuses_other_objects():
    # A list path is what `to_json_dict` writes and a JSON reader returns.
    coloring = random_coloring(PartitionSpec((2, 2, 2)), 3, 1)
    assert family_is_valid(coloring, WitnessFamily(0, 2, ((0, 2),), "x"), 1)
    assert family_is_valid(coloring, WitnessFamily(0, 2, [[0, 2]], "x"), 1)
    for paths in ((None,), (5,)):
        assert not family_is_valid(coloring, WitnessFamily(0, 2, paths, "x"), 1)


def test_family_is_valid_rejects_endpoint_mismatch():
    fam = WitnessFamily(0, 1, ((0, 2),), "test")
    assert not family_is_valid(TRIANGLE, fam, 1)


def test_family_is_valid_rejects_interior_touching_endpoint():
    spec = PartitionSpec((2, 2))
    coloring = Coloring(spec, 4, {(0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4})
    fam = WitnessFamily(0, 1, ((0, 2, 1), (0, 3, 1)), "test")
    assert family_is_valid(coloring, fam, 2)
    bad = WitnessFamily(0, 2, ((0, 2), (0, 3, 1, 2)), "test")
    assert family_is_valid(coloring, bad, 2)


@given(small_colorings(), st.data())
def test_pigeonhole_length_cap(coloring, data):
    n = coloring.spec.n
    length = coloring.num_colors + data.draw(st.integers(2, 4))
    seq = data.draw(
        st.lists(st.integers(0, n - 1), min_size=length, max_size=length)
    )
    assert not is_rainbow_path(coloring, tuple(seq))


@given(small_specs)
def test_part_of_partitions_ids(spec):
    blocks = [list(spec.part_members(i)) for i in range(spec.t)]
    flat = [v for block in blocks for v in block]
    assert flat == list(range(spec.n))
    for i, block in enumerate(blocks):
        assert len(block) == spec.sizes[i]
        assert all(spec.part_of(v) == i for v in block)


@given(small_colorings())
def test_json_round_trip(coloring):
    doc = coloring.to_json_dict()
    back = Coloring.from_json_dict(json.loads(json.dumps(doc)))
    assert back == coloring
    assert back.to_json_text() == coloring.to_json_text()


def _k22_doc(**overrides):
    doc = {
        "parts": [2, 2],
        "num_colors": 2,
        "tight": True,
        "edges": [[0, 2, 1], [0, 3, 2], [1, 2, 2], [1, 3, 1]],
    }
    doc.update(overrides)
    return doc


def test_loader_rejects_duplicates():
    doc = _k22_doc(edges=[[0, 2, 1], [2, 0, 2], [0, 3, 2], [1, 2, 2], [1, 3, 1]])
    with pytest.raises(SchemaError, match="duplicate"):
        Coloring.from_json_dict(doc)


def test_loader_rejects_same_part_pairs():
    doc = _k22_doc(edges=[[0, 1, 1], [0, 3, 2], [1, 2, 2], [1, 3, 1]])
    with pytest.raises(SchemaError, match="share part"):
        Coloring.from_json_dict(doc)


def test_loader_rejects_colors_outside_palette():
    doc = _k22_doc(edges=[[0, 2, 5], [0, 3, 2], [1, 2, 2], [1, 3, 1]])
    with pytest.raises(SchemaError, match="outside"):
        Coloring.from_json_dict(doc)


def test_loader_rejects_partial_colorings():
    doc = _k22_doc(edges=[[0, 2, 1], [0, 3, 2], [1, 2, 2]])
    with pytest.raises(SchemaError, match="not total"):
        Coloring.from_json_dict(doc)


@pytest.mark.parametrize("source", ["dict", "json"])
def test_short_coloring_is_rejected_before_the_table_is_allocated(source):
    # The n x n table of K_{1500,1} takes about 18 MB; one edge of 1500
    # must be rejected without allocating it.
    spec = PartitionSpec((1500, 1))
    spec.n, spec._part_table  # cached before measuring
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match="not total"):
            if source == "dict":
                Coloring(spec, 1, {(0, 1500): 1})
            else:
                Coloring.from_json_dict({"parts": [1500, 1], "num_colors": 1,
                                         "edges": [[0, 1500, 1]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"edges": 5}, "bad edges"),
        ({"edges": [5, [0, 3, 2], [1, 2, 2], [1, 3, 1]]}, "edge 0"),
        ({"num_colors": True}, "num_colors"),
        ({"edges": [[0, 2, 1.7], [0, 3, 2], [1, 2, 2], [1, 3, 1]]}, "edge 0"),
        ({"edges": [[0, 2, 1], [0, 3, True], [1, 2, 2], [1, 3, 1]]}, "edge 1"),
        ({"edges": [[0, 2, 1], [0, 3, 2], [-1, 2, 2], [1, 3, 1]]}, "edge 2"),
        ({"tight": "false"}, "tight"),
        ({"parts": "22"}, "bad parts"),
        ({"parts": [2, 2.5]}, "bad parts"),
    ],
)
def test_loader_rejects_mistyped_fields(overrides, message):
    with pytest.raises(SchemaError, match=message):
        Coloring.from_json_dict(_k22_doc(**overrides))


@pytest.mark.parametrize("overrides", [{"tight": False}, {"num_colors": 3}])
def test_loader_rejects_a_tight_that_contradicts_the_edges(overrides):
    # _k22_doc uses colors 1 and 2: tight on a palette of 2, not of 3.
    with pytest.raises(SchemaError, match="tight is (true|false) but the edges use colors"):
        Coloring.from_json_dict(_k22_doc(**overrides))
    doc = _k22_doc(**overrides)
    del doc["tight"]
    assert Coloring.from_json_dict(doc).tight == (doc["num_colors"] == 2)


def test_loader_rejects_missing_keys_and_bad_json():
    with pytest.raises(SchemaError):
        Coloring.from_json_dict({"parts": [2, 2]})
    with pytest.raises(SchemaError):
        Coloring.from_json_text("{not json")
    with pytest.raises(SchemaError):
        Coloring.from_json_text("[1,2]")


def test_loader_refuses_json_nested_too_deep_for_the_parser():
    # json.loads raises RecursionError past its depth limit.
    with pytest.raises(SchemaError, match="^invalid JSON: "):
        Coloring.from_json_text("[" * 100_000 + "]" * 100_000)


def test_permuted_requires_bijection():
    with pytest.raises(ValueError):
        TRIANGLE.permuted({1: 1, 2: 1, 3: 3})
    # A key that is no color gets the same line, not a TypeError from sorting.
    with pytest.raises(ValueError, match="sigma must be a bijection of 1..num_colors"):
        TRIANGLE.permuted({1: 1, 2: 2, "3": 3})
    flipped = TRIANGLE.permuted({1: 3, 2: 2, 3: 1})
    assert flipped.color(0, 2) == 3
    assert flipped.permuted({1: 3, 2: 2, 3: 1}) == TRIANGLE


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so a check written as one silently stops
    # running; real checks raise instead.
    import rainbowk

    package = Path(rainbowk.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _sets_rows_or_calls_new(node) -> bool:
    """Whether an AST node sets a `rows` attribute (an assignment, a
    `rows=` keyword, a "rows" name handed to setattr or a __dict__) or
    reaches `__new__`."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__new__" or (node.attr == "rows" and not isinstance(node.ctx, ast.Load))
    return (isinstance(node, ast.keyword) and node.arg == "rows"
            or isinstance(node, ast.Constant) and node.value == "rows")


def test_only_coloring_init_sets_rows_and_builds_colorings():
    # `Coloring.__init__` is the one place that runs the validator and sets
    # `rows`, and the benchmark's tracer counts colorings built by wrapping
    # it: a coloring made through `object.__new__` would skip both.
    import rainbowk

    package = Path(rainbowk.__file__).parent
    found, in_init = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        init = [fn for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Coloring"
                for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
        allowed = {id(node) for fn in init for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if _sets_rows_or_calls_new(node):
                (in_init if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    assert found == []
    assert in_init  # the scan recognises the one place that does set rows


@given(small_colorings())
def test_twin_classes_group_equal_rows_within_parts(coloring):
    # Classes partition the vertices, ascending and ordered by their
    # smallest member; members share a row and a part, and classes differ
    # in their rows.
    spec, rows = coloring.spec, coloring.rows
    classes = twin_classes(coloring)
    assert sorted(a for c in classes for a in c) == list(spec.vertices())
    assert all(c == sorted(c) for c in classes)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    for c in classes:
        assert len({rows[a] for a in c}) == 1
        assert len({spec.part_of(a) for a in c}) == 1
    assert len({rows[c[0]] for c in classes}) == len(classes)


class _Int(int):
    pass


class _Str(str):
    pass


# Values json.dumps writes in ways the writer's fast paths must not copy:
# bools (never `1`), int and str subclasses, nan/inf, None.
_TRICKY_TEXT = st.text(st.sampled_from('ab"\\\n\t\u00e9\u2028\U0001f600[]{},: '), max_size=6)
_INTISH = st.one_of(st.integers(), st.integers(), st.integers(), st.booleans(),
                    st.integers(-3, 3).map(_Int))
_SCALARS = st.one_of(_INTISH, st.none(), st.floats(allow_nan=True, allow_infinity=True),
                     _TRICKY_TEXT, _TRICKY_TEXT.map(_Str))
_KEYS = st.one_of(_TRICKY_TEXT, _TRICKY_TEXT, _TRICKY_TEXT, st.integers(-2, 2), st.booleans(),
                  st.none(), st.floats(allow_nan=True), _TRICKY_TEXT.map(_Str))


def _tables(rows):
    """Equal-length tables (rows of one width, possibly 0) and ragged ones,
    as lists and as tuples, rows mixing lists and tuples too."""
    equal = st.integers(0, 3).flatmap(lambda w: st.lists(
        st.lists(rows, min_size=w, max_size=w).flatmap(
            lambda r: st.sampled_from([r, tuple(r)])), max_size=4))
    ragged = st.lists(st.lists(rows, max_size=3), max_size=4)
    return st.one_of(equal, ragged).flatmap(lambda t: st.sampled_from([t, tuple(t)]))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TRICKY_TEXT, children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=3),
        st.lists(st.integers(), max_size=5),
        st.lists(_INTISH, max_size=5),
        _tables(st.integers()),
        _tables(_INTISH),
        st.lists(st.dictionaries(st.integers(0, 1), st.integers(), min_size=1, max_size=1),
                 min_size=1, max_size=3),  # rows that are not lists
        # One object placed twice at one depth, and at two depths: a memo
        # keyed on the object alone writes the deeper one at the wrong indent.
        st.one_of(st.lists(children, max_size=3),
                  st.dictionaries(_TRICKY_TEXT, children, max_size=3)).flatmap(
            lambda x: st.sampled_from([[x, x], {"a": x, "b": x},
                                       {"at": x, "below": [x, {"x": x}]}])),
        # Certificates sharing one params dict, as a lower-bound run writes them.
        st.dictionaries(_TRICKY_TEXT, children, max_size=3).map(
            lambda params: [{"scenario": "s", "params": params, "twins": [i, i + 1]}
                            for i in range(3)]),
    )


_DOCUMENTS = st.recursive(_SCALARS, _containers, max_leaves=30).map(
    lambda x: [{"a": ({"b": [x, {}]},)}, []])  # always depth 4 or more


@settings(max_examples=600)
@given(_DOCUMENTS)
def test_json_text_matches_indented_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_json_text_refuses_what_json_dumps_refuses():
    cycle: list = [1, [2]]
    cycle[1].append(cycle)
    for bad, error in (([1, {"a": {1, 2}}], TypeError), ({(0, 1): 2}, TypeError),
                       ({"a": cycle}, ValueError)):
        with pytest.raises(error) as expected:
            json.dumps(bad, indent=2)
        with pytest.raises(error) as got:
            json_text(bad)
        assert str(got.value) == str(expected.value)


def test_json_text_refuses_a_document_too_deep_for_json_dumps():
    deep: list = []
    for _ in range(10_000):
        deep = [deep]
    with pytest.raises(RecursionError):
        json.dumps(deep, indent=2)
    with pytest.raises(ValueError, match="^the document is nested too deep to write as JSON$"):
        json_text(deep)
