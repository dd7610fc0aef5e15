import logging
import random
import re
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    canonical_form,
    oracle_walk,
    rc_1_closed_form,
    reference_first_failing_pair,
    unbroken_rc_k_exact,
    unpruned_rc_k_exact,
)
from rainbowk.constructions import color_ctk, color_mnn
from rainbowk.core import (
    Coloring,
    PartitionSpec,
    WitnessFamily,
    all_pairs,
    family_is_valid,
    is_rainbow_path,
)
from rainbowk.oracle import (
    BudgetExceeded,
    enumerate_colorings_canonical,
    family_holds,
    path_by_edge,
    rc_k_exact,
)
from rainbowk.verifier import (
    PairQuery,
    _settle,
    max_disjoint_rainbow,
    structural_connectivity,
    verify_rainbow_k_connected,
)


def test_canonical_enumeration_counts():
    # Restricted-growth strings over e edges with at most c colors count
    # sum_{j<=c} S(e, j): 1 for a single edge; 1+7=8 for K_{2,2} with 2
    # colors; Bell(3)=5 for the triangle with 3 colors.
    assert sum(1 for _ in enumerate_colorings_canonical(PartitionSpec((1, 1)), 3)) == 1
    assert sum(1 for _ in enumerate_colorings_canonical(PartitionSpec((2, 2)), 2)) == 8
    assert (
        sum(1 for _ in enumerate_colorings_canonical(PartitionSpec((1, 1, 1)), 3)) == 5
    )


def test_min_colors_cuts_exactly_the_colorings_with_fewer_colors():
    # The cut branches are those that could only end below min_colors: the
    # rest come out in the same order, Stirling S(4, L) of them on K_{2,2}.
    spec = PartitionSpec((2, 2))
    for num_colors, stirling in ((1, 1), (2, 7), (3, 6), (4, 1)):
        full = [c for c in enumerate_colorings_canonical(spec, num_colors)
                if c.num_colors == num_colors]
        cut = list(enumerate_colorings_canonical(spec, num_colors, min_colors=num_colors))
        assert cut == full and len(cut) == stirling


def test_canonical_colorings_are_tight_and_first_edge_is_color_one():
    first_edge = next(iter(PartitionSpec((2, 2)).edges()))
    for coloring in enumerate_colorings_canonical(PartitionSpec((2, 2)), 3):
        assert coloring.tight
        assert coloring.used_colors() == set(range(1, coloring.num_colors + 1))
        assert coloring.color(*first_edge) == 1


def test_canonical_form_round_trip_under_color_bijections():
    rng = random.Random(5)
    for coloring in enumerate_colorings_canonical(PartitionSpec((1, 1, 2)), 3):
        perm = list(range(1, coloring.num_colors + 1))
        rng.shuffle(perm)
        sigma = {i + 1: perm[i] for i in range(coloring.num_colors)}
        assert canonical_form(coloring.permuted(sigma)) == coloring


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        list(enumerate_colorings_canonical(PartitionSpec((5, 5)), 2))
    with pytest.raises(BudgetExceeded):
        rc_k_exact(PartitionSpec((5, 5)), 1, 2)


def test_rc_k_rejects_underconnected_graphs():
    with pytest.raises(ValueError, match="connectivity"):
        rc_k_exact(PartitionSpec((1, 1)), 2, 2)


def test_rc_1_values():
    assert rc_k_exact(PartitionSpec((1, 1, 1)), 1, 3).num_colors == 1
    result = rc_k_exact(PartitionSpec((2, 2)), 1, 4)
    assert result.num_colors == 2
    assert verify_rainbow_k_connected(result, 1).ok


def test_rc_2_of_k22_needs_all_four_colors():
    # Every cross pair of K_{2,2} has only the direct edge and one length-3
    # alternative; making all four alternatives rainbow forces the four edge
    # colors to be pairwise distinct, so rc_2 is exactly 4.
    result = rc_k_exact(PartitionSpec((2, 2)), 2, 4)
    assert result.num_colors == 4
    assert result.used_colors() == {1, 2, 3, 4}
    assert verify_rainbow_k_connected(result, 2).ok
    assert rc_k_exact(PartitionSpec((2, 2)), 2, 3) is None


def test_rc_1_values_on_three_part_shapes():
    # The same-part pair of K_{1,1,2} needs a 2-edge rainbow path.
    assert rc_k_exact(PartitionSpec((1, 1, 2)), 1, 3).num_colors == 2
    assert rc_k_exact(PartitionSpec((1, 2)), 1, 3).num_colors == 2


def test_rc_reports_exhaustion():
    # One color can never rainbow-connect a same-part pair in K_{2,2}.
    assert rc_k_exact(PartitionSpec((2, 2)), 1, 1) is None


def test_rc_monotone_in_k():
    spec = PartitionSpec((2, 2))
    rc1 = rc_k_exact(spec, 1, 4).num_colors
    rc2 = rc_k_exact(spec, 2, 4).num_colors
    assert rc1 is not None and rc2 is not None
    assert rc1 <= rc2


def test_oracle_consistent_with_constructions():
    spec = PartitionSpec((1, 1, 1))
    construction, _ = color_ctk(spec, 1)
    assert verify_rainbow_k_connected(construction, 1).ok
    value = rc_k_exact(spec, 1, 3).num_colors
    assert value <= construction.num_colors

    spec = PartitionSpec((2, 2, 2))
    construction, _ = color_mnn(2, 2)
    result = rc_k_exact(spec, 2, 2)
    assert result.num_colors == 2 == construction.num_colors
    assert verify_rainbow_k_connected(result, 2).ok


@st.composite
def colorings_with_a_prefix(draw):
    """A small spec, a full coloring with palette 1..L and a prefix length
    of the lex edge list."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    spec = PartitionSpec(tuple(sizes))
    num_colors = draw(st.integers(1, 4))
    edges = list(spec.edges())
    colors = draw(st.lists(st.integers(1, num_colors),
                           min_size=len(edges), max_size=len(edges)))
    prefix = draw(st.integers(0, len(edges)))
    return Coloring(spec, num_colors, dict(zip(edges, colors))), prefix


def _relaxation(coloring, prefix):
    """The oracle's relaxation of a prefix of the coloring's lex edges: the
    prefix keeps its colors, every later edge gets its own fresh color > L."""
    num_colors = coloring.num_colors
    edges = list(coloring.spec.edges())
    colors = [coloring.color(*e) for e in edges[:prefix]]
    colors += range(num_colors + 1, num_colors + 1 + len(edges) - prefix)
    return Coloring(coloring.spec, num_colors + len(edges) - prefix,
                    dict(zip(edges, colors)))


@settings(max_examples=60)
@given(colorings_with_a_prefix())
def test_the_relaxation_bounds_every_completion(instance):
    # The oracle's relaxation, built from its definition: the prefix
    # keeps its colors, every later edge gets its own fresh color > L. Its
    # packing over paths of at most L edges is an upper bound for every
    # completion's, this coloring's among them.
    coloring, prefix = instance
    num_colors = coloring.num_colors
    relaxation = _relaxation(coloring, prefix)
    for pair in all_pairs(coloring.spec):
        full, _ = max_disjoint_rainbow(coloring, PairQuery(*pair))
        relaxed = _settle(relaxation, *pair, None, num_colors)
        assert len(relaxed) >= full, pair


@settings(max_examples=150)
@given(colorings_with_a_prefix(), st.data())
def test_an_inherited_family_is_kept_only_while_it_settles_its_pair(instance, data):
    # A node at depth i colors e = edges[i - 1]; the families it inherits
    # were found in a relaxation that agrees with it on edges[:i - 1]: its
    # parent (depth i - 1), or a node below an earlier sibling, which colors
    # e and maybe later edges otherwise. A family the rule keeps must be a
    # valid k-family within the cap at the node; one it rejects must have
    # a path that is no longer rainbow there.
    coloring, prefix = instance
    edges = list(coloring.spec.edges())
    i = max(prefix, 1)
    num_colors = coloring.num_colors
    node_color = data.draw(st.integers(1, num_colors), label="color of e at the node")
    node = _relaxation(Coloring(coloring.spec, num_colors, {
        **coloring.assignment, edges[i - 1]: node_color}), i)
    found_at = data.draw(st.integers(i - 1, len(edges)), label="depth of the earlier node")
    earlier = _relaxation(coloring, found_at)
    for pair in all_pairs(coloring.spec):
        for k in (1, 2, 3):
            picked = _settle(earlier, *pair, k, num_colors)
            if len(picked) < k:
                continue
            family = WitnessFamily(*pair, tuple(picked), "test")
            by_edge = path_by_edge(family.paths)
            assert len(by_edge) == sum(len(p) - 1 for p in family.paths)
            if family_holds(node, by_edge, edges[i - 1]):
                assert family_is_valid(node, family, k), (pair, k)
                assert all(len(p) - 1 <= num_colors for p in family.paths)
            else:
                assert not all(is_rainbow_path(node, p) for p in family.paths), (pair, k)


CROSS_CHECK = [
    (order, k)
    for shape in [(1, 2, 3), (2, 2, 2), (3, 3), (1, 1, 1, 1, 1), (2, 2), (1, 1, 3)]
    for order in sorted(set(permutations(shape)))
    for k in range(1, structural_connectivity(PartitionSpec(order)) + 1)
] + [
    (order, 2)
    for shape in [(2, 3), (1, 1, 4)]
    for order in sorted(set(permutations(shape)))
]


@pytest.mark.parametrize("order, k", CROSS_CHECK,
                         ids=[f"{''.join(map(str, o))}-k{k}" for o, k in CROSS_CHECK])
def test_pruned_oracle_matches_the_unpruned_enumeration(order, k):
    # Cut subtrees hold no passing leaf, so the value and the witness, the
    # first passing coloring in restricted-growth order, are unchanged.
    spec = PartitionSpec(order)
    result = rc_k_exact(spec, k, 3)
    value, witness = unpruned_rc_k_exact(spec, k, 3)
    if witness is None:
        assert result is None and value is None
    else:
        assert result.num_colors == value
        assert result.to_json_text() == witness.to_json_text()


@pytest.mark.parametrize("sizes, max_colors, expected", [
    ((1, 1, 3), 4, 3),
    ((1, 1, 4), 4, 4),
    ((2, 3), 3, 3),
    ((2, 4), 3, None),
    ((1, 1, 5), 4, None),
])
def test_rc_2_values_on_lopsided_graphs(sizes, max_colors, expected):
    result = rc_k_exact(PartitionSpec(sizes), 2, max_colors)
    if expected is None:
        assert result is None
    else:
        assert result.num_colors == expected
        assert verify_rainbow_k_connected(result, 2).ok


@pytest.mark.parametrize("sizes", [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 9), (2, 10), (3, 3), (3, 4),
    (3, 9), (1, 1, 2), (1, 1, 4), (1, 1, 5), (1, 1, 6), (6, 1, 1), (1, 2, 2), (1, 2, 3),
    (2, 2, 2), (2, 2, 3), (1, 1, 1, 1), (8, 1, 1, 1), (1, 1, 1, 9),
], ids=lambda sizes: "K_" + "_".join(map(str, sizes)))
def test_rc_1_matches_the_published_closed_form(sizes):
    # K_{2,10}, K_{3,9} and K_{1,1,1,9} sit at the pigeonhole boundary
    # b = L^a + 1, so each value also rests on a "no coloring with one
    # color less" that the walk exhausts.
    witness = rc_k_exact(PartitionSpec(sizes), 1, 4, max_edges=40)
    assert witness.num_colors == rc_1_closed_form(sizes)
    assert verify_rainbow_k_connected(witness, 1).ok


@pytest.mark.parametrize("sizes, k, max_colors, expected", [
    ((3, 9), 2, 3, 3),
    ((3, 10), 2, 3, None),
    ((4, 9), 3, 3, 3),
    ((4, 10), 3, 3, None),
], ids=lambda v: "K_" + "_".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_three_colors_meet_the_singleton_bound_on_k_a_b(sizes, k, max_colors, expected):
    # With at most 3 colors a rainbow path between two vertices of K_{a,b}'s
    # big part has 2 edges, so the b profiles form a ternary code of
    # distance >= k, and Singleton gives b <= 3^(a-k+1). It is met at
    # (a, k) = (3, 2) and (4, 3): b = 9 passes, b = 10 has no coloring.
    result = rc_k_exact(PartitionSpec(sizes), k, max_colors, max_edges=40)
    if expected is None:
        assert result is None
    else:
        assert result.num_colors == expected
        assert verify_rainbow_k_connected(result, k).ok


def test_rc_1_closed_form_cases():
    assert [rc_1_closed_form((2, t)) for t in (2, 4, 5, 9, 10, 17)] == [2, 2, 3, 3, 4, 4]
    assert rc_1_closed_form((3, 8)) == 2 and rc_1_closed_form((3, 9)) == 3
    assert rc_1_closed_form((1, 1, 1)) == 1
    assert rc_1_closed_form((2, 3, 4)) == 2  # s = 5 > m = 4
    assert rc_1_closed_form((1, 1, 1, 9)) == 3 and rc_1_closed_form((1, 1, 1, 8)) == 2
    with pytest.raises(ValueError):
        rc_1_closed_form((1, 5))


def test_oracle_logs_its_search_per_palette_size(caplog):
    with caplog.at_level(logging.DEBUG, logger="rainbowk.oracle"):
        result = rc_k_exact(PartitionSpec((2, 2)), 2, 4)
    assert result.num_colors == 4
    # With 4 colors no node fails, so its 5 nodes look at all 6 pairs each,
    # and the families carried from 3 colors settle all 6 at the root: no
    # query, and 30 pairs settled by an inherited family. Each of those
    # families covers all 4 edges, so each is re-checked below the root.
    assert caplog.messages == [
        f"rck-exact: {L} colors: {nodes} nodes checked, {cut} subtrees cut, "
        f"{lex} lex cuts, {leaves} leaves reached, {queries} pair queries, "
        f"{inherited} pairs settled by an inherited family, {rechecked} "
        f"kept-family paths re-checked"
        for L, nodes, cut, lex, leaves, queries, inherited, rechecked in [
            (1, 1, 1, 0, 0, 1, 0, 0), (2, 1, 1, 0, 0, 2, 0, 0), (3, 6, 2, 4, 0, 7, 23, 24),
            (4, 5, 0, 0, 1, 0, 30, 24)]
    ]


# The oracle-exhaust instances of the benchmark in every distinct part
# order, (sizes, k, max colors) -> one row per palette size of its debug
# line: (L, nodes, cuts, lex cuts, leaves, queries, inherited, re-checked).
ORACLE_EXHAUST_COUNTS = {
    ((2, 2, 2), 3, 3): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 15, 6, 3, 0, 24, 156, 75),
                        (3, 37, 15, 5, 3, 37, 369, 189)],
    ((3, 3), 3, 3): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 1, 1, 0, 0, 3, 0, 0),
                     (3, 14, 2, 8, 2, 27, 156, 125)],
    ((3, 3), 2, 3): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 1, 1, 0, 0, 3, 0, 0),
                     (3, 18, 4, 1, 4, 49, 160, 111)],
    ((1, 2, 3), 2, 3): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 15, 5, 5, 0, 28, 177, 70),
                        (3, 20, 4, 1, 4, 30, 231, 101)],
    ((1, 3, 2), 2, 3): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 24, 9, 6, 0, 36, 245, 92),
                        (3, 22, 5, 2, 4, 30, 233, 110)],
    ((2, 1, 3), 2, 3): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 59, 22, 11, 2, 70, 671, 233),
                        (3, 20, 4, 1, 4, 19, 238, 78)],
    ((2, 3, 1), 2, 3): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 50, 21, 8, 0, 56, 565, 200),
                        (3, 20, 4, 1, 4, 25, 230, 87)],
    ((3, 1, 2), 2, 3): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 70, 26, 18, 0, 80, 707, 244),
                        (3, 16, 4, 3, 1, 14, 185, 61)],
    ((3, 2, 1), 2, 3): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 65, 24, 17, 0, 77, 638, 236),
                        (3, 17, 5, 2, 1, 15, 182, 69)],
    ((1, 1, 1, 1, 1), 3, 3): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 32, 10, 6, 1, 37, 231, 150)],
    ((1, 1, 1), 1, 1): [(1, 4, 0, 0, 1, 3, 9, 3)],
    ((2, 2), 1, 2): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 5, 0, 0, 1, 8, 22, 11)],
    ((2, 2, 2), 2, 2): [(1, 1, 1, 0, 0, 1, 0, 0), (2, 16, 3, 1, 1, 36, 166, 76)],
}


@pytest.mark.parametrize("instance", ORACLE_EXHAUST_COUNTS, ids=lambda i: (
    f"{''.join(map(str, i[0]))}-k{i[1]}-L{i[2]}"))
def test_the_walk_keeps_its_counts_on_the_benchmark_instances(instance, caplog):
    # The counts of the walk with lex cuts and families carried from one
    # palette size to the next; a change in either shows here.
    sizes, k, max_colors = instance
    with caplog.at_level(logging.DEBUG, logger="rainbowk.oracle"):
        witness = rc_k_exact(PartitionSpec(sizes), k, max_colors)
    rows = ORACLE_EXHAUST_COUNTS[instance]
    assert witness.num_colors == len(rows)
    assert [tuple(map(int, re.findall(r"\d+", m))) for m in caplog.messages] == rows


@st.composite
def small_walks(draw):
    """A spec of 2-4 parts of 1-3 vertices with at most 12 edges, a k up
    to 3 it can reach and a palette size of 1-3."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(
        lambda sizes: PartitionSpec(tuple(sizes)).edge_count() <= 12))
    spec = PartitionSpec(tuple(sizes))
    k = draw(st.integers(1, min(3, structural_connectivity(spec))))
    return spec, k, draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(small_walks())
@example((PartitionSpec((3, 9)), 2, 3))
@example((PartitionSpec((3, 10)), 2, 3))
@example((PartitionSpec((2, 2, 6)), 2, 3))
@example((PartitionSpec((4, 9)), 3, 3))
@example((PartitionSpec((1, 1, 1, 8)), 1, 3))
def test_the_walk_is_the_walk_that_rechecks_every_kept_family(instance):
    # Against the reference loop, which keeps its families in a dict by
    # pair and calls `family_holds` on each: the same witness and the same
    # counts at every palette size, the re-checks included, so a family
    # kept at the wrong rank, a skipped family with a path through the
    # recolored edge, or a stale family carried from a smaller palette
    # shows as an extra query or re-check. The drawn walks stop at 12
    # edges; the explicit rows have 27 to 36 edges and 45 to 78 pairs.
    spec, k, max_colors = instance
    witness, lines = oracle_walk(spec, k, max_colors, max_edges=40)
    reference, reference_lines = oracle_walk(spec, k, max_colors,
                                             reference_first_failing_pair, max_edges=40)
    assert lines == reference_lines
    assert (witness and witness.to_json_text()) == (reference and reference.to_json_text())


@settings(max_examples=200, deadline=None)
@given(small_walks())
def test_lex_cuts_and_carried_families_keep_the_witness(instance):
    # The walk that cuts non-leaders and carries its families from one
    # palette size to the next returns the witness bytes of the walk with
    # neither, or None as it does. Up to 9 edges, where the unpruned
    # enumeration is affordable, that witness is also the enumeration's.
    spec, k, max_colors = instance
    result = rc_k_exact(spec, k, max_colors)
    reference = unbroken_rc_k_exact(spec, k, max_colors)
    assert (result and result.to_json_text()) == (reference and reference.to_json_text())
    if spec.edge_count() <= 9:
        _, unpruned = unpruned_rc_k_exact(spec, k, max_colors)
        assert (result and result.to_json_text()) == (unpruned and unpruned.to_json_text())
