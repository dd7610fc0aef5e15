import logging
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import unpruned_rc_k_exact
from rainbowk.constructions import color_ctk, color_mnn
from rainbowk.core import Coloring, PartitionSpec, all_pairs
from rainbowk.oracle import (
    BudgetExceeded,
    canonical_form,
    enumerate_colorings_canonical,
    rc_k_exact,
)
from rainbowk.verifier import (
    pair_count,
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
    assert rc_k_exact(PartitionSpec((1, 1, 1)), 1, 3).value == 1
    result = rc_k_exact(PartitionSpec((2, 2)), 1, 4)
    assert result.value == 2
    assert verify_rainbow_k_connected(result.witness, 1).ok


def test_rc_2_of_k22_needs_all_four_colors():
    # Every cross pair of K_{2,2} has only the direct edge and one length-3
    # alternative; making all four alternatives rainbow forces the four edge
    # colors to be pairwise distinct, so rc_2 is exactly 4.
    result = rc_k_exact(PartitionSpec((2, 2)), 2, 4)
    assert result.value == 4
    assert result.witness.used_colors() == {1, 2, 3, 4}
    assert verify_rainbow_k_connected(result.witness, 2).ok
    assert rc_k_exact(PartitionSpec((2, 2)), 2, 3).value is None


def test_rc_1_values_on_three_part_shapes():
    # The same-part pair of K_{1,1,2} needs a 2-edge rainbow path.
    assert rc_k_exact(PartitionSpec((1, 1, 2)), 1, 3).value == 2
    assert rc_k_exact(PartitionSpec((1, 2)), 1, 3).value == 2


def test_rc_reports_exhaustion():
    # One color can never rainbow-connect a same-part pair in K_{2,2}.
    result = rc_k_exact(PartitionSpec((2, 2)), 1, 1)
    assert result.value is None
    assert str(result) == "> 1"


def test_rc_monotone_in_k():
    spec = PartitionSpec((2, 2))
    rc1 = rc_k_exact(spec, 1, 4).value
    rc2 = rc_k_exact(spec, 2, 4).value
    assert rc1 is not None and rc2 is not None
    assert rc1 <= rc2


def test_oracle_consistent_with_constructions():
    spec = PartitionSpec((1, 1, 1))
    construction, _ = color_ctk(spec, 1)
    assert verify_rainbow_k_connected(construction, 1).ok
    value = rc_k_exact(spec, 1, 3).value
    assert value <= construction.num_colors

    spec = PartitionSpec((2, 2, 2))
    construction, _ = color_mnn(2, 2)
    result = rc_k_exact(spec, 2, 2)
    assert result.value == 2 == construction.num_colors
    assert verify_rainbow_k_connected(result.witness, 2).ok


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


@settings(max_examples=60)
@given(colorings_with_a_prefix())
def test_the_relaxation_bounds_every_completion(instance):
    # The oracle's relaxation, built here from its definition: the prefix
    # keeps its colors, every later edge gets its own fresh color > L. Its
    # packing over paths of at most L edges is an upper bound for every
    # completion's, this coloring's among them.
    coloring, prefix = instance
    num_colors = coloring.num_colors
    edges = list(coloring.spec.edges())
    colors = [coloring.color(*e) for e in edges[:prefix]]
    colors += range(num_colors + 1, num_colors + 1 + len(edges) - prefix)
    relaxation = Coloring(coloring.spec, num_colors + len(edges) - prefix,
                          dict(zip(edges, colors)))
    for pair in all_pairs(coloring.spec):
        full, _ = pair_count(coloring, 1, "maximize", pair)
        relaxed, _ = pair_count(relaxation, 1, "maximize", pair, max_len=num_colors)
        assert relaxed >= full, pair


CROSS_CHECK = [
    (order, k)
    for shape in [(1, 2, 3), (2, 2, 2), (3, 3), (1, 1, 1, 1, 1), (2, 2), (1, 1, 3)]
    for order in sorted(set(permutations(shape)))
    for k in range(1, structural_connectivity(PartitionSpec(order)) + 1)
]


@pytest.mark.parametrize("order, k", CROSS_CHECK,
                         ids=[f"{''.join(map(str, o))}-k{k}" for o, k in CROSS_CHECK])
def test_pruned_oracle_matches_the_unpruned_enumeration(order, k):
    # Cut subtrees hold no passing leaf, so the value and the witness, the
    # first passing coloring in restricted-growth order, are unchanged.
    spec = PartitionSpec(order)
    result = rc_k_exact(spec, k, 3)
    value, witness = unpruned_rc_k_exact(spec, k, 3)
    assert result.value == value
    if witness is None:
        assert result.witness is None
    else:
        assert result.witness.to_json_text() == witness.to_json_text()


@pytest.mark.parametrize("sizes, max_colors, expected", [
    ((1, 1, 3), 4, 3),
    ((1, 1, 4), 4, 4),
    ((2, 3), 3, 3),
    ((2, 4), 3, None),
    ((1, 1, 5), 4, None),
])
def test_rc_2_values_on_lopsided_graphs(sizes, max_colors, expected):
    result = rc_k_exact(PartitionSpec(sizes), 2, max_colors)
    assert result.value == expected
    if expected is not None:
        assert verify_rainbow_k_connected(result.witness, 2).ok


def test_oracle_logs_its_search_per_palette_size(caplog):
    with caplog.at_level(logging.DEBUG, logger="rainbowk.oracle"):
        result = rc_k_exact(PartitionSpec((2, 2)), 2, 4)
    assert result.value == 4
    assert caplog.messages == [
        f"rck-exact: {L} colors: {nodes} nodes checked, {cut} subtrees cut, "
        f"{leaves} leaves reached"
        for L, nodes, cut, leaves in [(1, 1, 1, 0), (2, 1, 1, 0), (3, 10, 3, 3), (4, 5, 0, 1)]
    ]
