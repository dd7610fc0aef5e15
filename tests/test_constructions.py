import hashlib
from itertools import combinations, permutations

import pytest

from rainbowk.bounds import f_formula
from rainbowk.cli import coloring_document
from rainbowk.constructions import (
    _k2416_tau,
    color_2_4_16,
    color_bipartite4,
    color_ctk,
    color_extension,
    color_mnn,
    read_meta,
    witness_paths,
)
from rainbowk.core import (
    PartitionSpec,
    WitnessFamily,
    ceil_div,
    family_is_valid,
    json_text,
    path_colors,
)
from rainbowk.verifier import PairQuery, max_disjoint_rainbow, verify_rainbow_k_connected


def grid_valid(coloring, meta, k):
    for u, v in combinations(range(coloring.spec.n), 2):
        fam = witness_paths(meta, coloring, u, v, k)
        assert family_is_valid(coloring, fam, k), (u, v, fam)


# -- bipartite4 ---------------------------------------------------------------


def test_bipartite4_k22_is_the_four_color_square():
    coloring, meta = color_bipartite4(2, 2, 1)
    assert coloring.assignment == {(0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4}
    assert coloring.num_colors == 4 and coloring.tight


def test_bipartite4_rejects_small_sides():
    with pytest.raises(ValueError):
        color_bipartite4(3, 4, 2)
    with pytest.raises(ValueError):
        color_bipartite4(4, 4, 0)


def test_bipartite4_balanced_split():
    _, meta = color_bipartite4(5, 7, 2)
    blocks = meta["labeling"]["blocks"]
    assert [len(blocks[b]) for b in ("A1", "A2", "B1", "B2")] == [3, 2, 4, 3]


def test_bipartite4_case1_paths_exactly_match():
    coloring, meta = color_bipartite4(4, 4, 2)
    fam = witness_paths(meta, coloring, 0, 1, 2)
    assert fam.paths == ((0, 4, 2, 6, 1), (0, 5, 3, 7, 1))
    assert path_colors(coloring, fam.paths[0]) == (1, 3, 4, 2)
    assert "Case 1" in fam.provenance
    assert family_is_valid(coloring, fam, 2)


def test_bipartite4_case2_and_case3():
    coloring, meta = color_bipartite4(4, 4, 2)
    fam2 = witness_paths(meta, coloring, 0, 2, 2)  # u in A1, v in A2
    assert "Case 2" in fam2.provenance
    assert all(len(p) == 3 for p in fam2.paths)
    assert family_is_valid(coloring, fam2, 2)
    fam3 = witness_paths(meta, coloring, 0, 4, 2)  # u in A1, v in B1
    assert "Case 3" in fam3.provenance
    assert family_is_valid(coloring, fam3, 2)


def test_bipartite4_every_position_class():
    coloring, meta = color_bipartite4(5, 7, 2)
    grid_valid(coloring, meta, 2)


def test_bipartite4_witness_k_exceeding_blocks():
    coloring, meta = color_bipartite4(4, 4, 2)
    with pytest.raises(ValueError):
        witness_paths(meta, coloring, 0, 1, 3)


# -- ctk ----------------------------------------------------------------------


def test_ctk_triangle_matches_hand_expansion():
    coloring, _ = color_ctk(PartitionSpec((1, 1, 1)), 1)
    assert coloring.assignment == {(0, 1): 2, (0, 2): 1, (1, 2): 3}
    assert coloring.used_colors() == {1, 2, 3}


def test_ctk_two_parts_is_the_single_matched_color():
    coloring, _ = color_ctk(PartitionSpec((1, 1)), 5)
    assert coloring.assignment == {(0, 1): 2}
    assert coloring.used_colors() == {2}
    assert not coloring.tight


def test_ctk_color_image():
    for sizes in ((2, 2, 2), (1, 1, 1, 1), (2, 2, 2, 2, 2), (3, 1, 4)):
        coloring, _ = color_ctk(PartitionSpec(sizes), 2)
        assert coloring.used_colors() == {1, 2, 3}, sizes
        assert coloring.num_colors == 3


def test_ctk_nine_singleton_parts_color_classes():
    # One vertex per part: pairs (A_i, B_i) on parts (2i-2, 2i-1), X last.
    coloring, meta = color_ctk(PartitionSpec(tuple([1] * 9)), 2)
    a = {i: 2 * i for i in range(4)}  # vertex of A_{i+1}
    b = {i: 2 * i + 1 for i in range(4)}
    x = 8
    for i in range(4):
        assert coloring.color(a[i], b[i]) == 2  # matched pair
        assert coloring.color(x, a[i]) == 1
        assert coloring.color(x, b[i]) == 3
        for j in range(4):
            if i != j:
                assert coloring.color(a[i], b[j]) == 3  # crossed pair
                assert coloring.color(a[i], a[j]) == 1  # within side A
                assert coloring.color(b[i], b[j]) == 1  # within side B


def test_ctk_even_labeling_pairs_parts_in_order():
    _, meta = color_ctk(PartitionSpec((1, 2, 3, 4)), 1)
    assert meta["labeling"]["pairs"] == [[0, 1], [2, 3]]
    assert meta["labeling"]["x_part"] is None
    _, meta = color_ctk(PartitionSpec((1, 2, 3)), 1)
    assert meta["labeling"]["pairs"] == [[0, 1]]
    assert meta["labeling"]["x_part"] == 2


def test_ctk_witnesses_error_for_two_parts():
    coloring, meta = color_ctk(PartitionSpec((3, 3)), 1)
    with pytest.raises(ValueError, match="t >= 3"):
        witness_paths(meta, coloring, 0, 3, 1)


def test_ctk_witnesses_error_below_designated_size():
    coloring, meta = color_ctk(PartitionSpec((1, 1, 1)), 2)
    with pytest.raises(ValueError, match="part size"):
        witness_paths(meta, coloring, 0, 1, 2)


def test_ctk_witness_grids_odd_and_even():
    for sizes, k in (((2, 2, 2), 2), ((2, 2, 2, 2), 3), ((1, 1, 1, 1, 1), 2)):
        coloring, meta = color_ctk(PartitionSpec(sizes), k)
        grid_valid(coloring, meta, k)


def _even_case1_tally(sizes, k):
    coloring, meta = color_ctk(PartitionSpec(sizes), k)
    t = len(sizes)
    s = ceil_div(2 * k, t - 1)
    part0 = list(coloring.spec.part_members(0))
    tallies = []
    for u, v in combinations(part0, 2):
        fam = witness_paths(meta, coloring, u, v, k)
        assert "even-t Case 1" in fam.provenance
        assert family_is_valid(coloring, fam, k)
        assert len(fam.paths) >= k
        assert all(len(p) == 4 for p in fam.paths)
        internal = set().union(*fam.internal_sets())
        tallies.append(len(internal))
    expected = (t - 1) * s - (1 if s % 2 == 1 else 0)
    assert all(tally == expected for tally in tallies)
    assert expected >= (t - 1) * s - 1


def test_even_case1_internal_vertex_tally_even_s():
    _even_case1_tally((2, 2, 2, 2), 2)  # s = ceil(4/3) = 2
    _even_case1_tally((4, 4, 4, 4), 6)  # s = ceil(12/3) = 4


def test_even_case1_internal_vertex_tally_odd_s():
    # t=4, k=4 gives s = ceil(8/3) = 3, the odd case: b_{1,s_1} is skipped.
    sizes, k = (3, 3, 3, 3), 4
    coloring, meta = color_ctk(PartitionSpec(sizes), k)
    u, v = 0, 1
    fam = witness_paths(meta, coloring, u, v, k)
    internal = set().union(*fam.internal_sets())
    s = ceil_div(2 * k, 3)
    assert s == 3
    assert len(internal) == 3 * s - 1
    # The skipped vertex is the s_1-th designated one on the opposite side of
    # u's pair: id offset s_1 - 1 within part 1.
    s1 = ceil_div(s, 2)
    skipped = coloring.spec.offsets[1] + (s1 - 1)
    assert skipped not in internal


def test_ctk_unbalanced_parts_still_witness():
    coloring, meta = color_ctk(PartitionSpec((2, 2, 2, 4)), 3)
    grid_valid(coloring, meta, 3)


@pytest.mark.parametrize("t, s", [
    *((t, s) for t in (3, 4) for s in range(2, 7)),
    *((5, s) for s in range(2, 6)),
    (6, 3), (6, 4),
])
def test_ctk_margin_is_the_closed_form(t, s):
    # On balanced K_{s,...,s} the smallest pair maximum is floor((t-1)s/2),
    # which is >= k exactly when s >= ceil(2k/(t-1)): the construction's
    # margin is the paper's threshold. The coloring does not depend on k,
    # and its 3 colors keep every path to two interior vertices, so the
    # maximize counts are matchings.
    coloring, _ = color_ctk(PartitionSpec((s,) * t), 1)
    report = verify_rainbow_k_connected(coloring, 1, mode="maximize")
    assert min(report.counts.values()) == (t - 1) * s // 2


# -- mnn ----------------------------------------------------------------------


def test_mnn_m1_n2_exact_colors():
    coloring, meta = color_mnn(1, 2)
    assert meta["labeling"]["strings"] == ["10"]
    # a_1=0, b_1=1, b_2=2, c_1=3, c_2=4; bits stored as {0:1, 1:2}.
    assert coloring.color(0, 1) == 2 and coloring.color(0, 2) == 2  # bit 1
    assert coloring.color(0, 3) == 1 and coloring.color(0, 4) == 1  # bit 2
    assert coloring.color(1, 3) == 1 and coloring.color(2, 4) == 1  # matched
    assert coloring.color(1, 4) == 2 and coloring.color(2, 3) == 2


def test_mnn_bounds():
    with pytest.raises(ValueError):
        color_mnn(5, 2)
    with pytest.raises(ValueError):
        color_mnn(1, 1)
    color_mnn(4, 2)  # boundary m = 4^1 is fine


def test_mnn_strings_distinct_and_include_lead():
    for m, n in [(1, 2), (4, 2), (5, 4), (16, 4), (3, 5), (4, 3)]:
        _, meta = color_mnn(m, n)
        strings = meta["labeling"]["strings"]
        s = meta["params"]["s"]
        assert len(strings) == m == len(set(strings))
        assert strings[0] == "1" * s + "0" * s
        assert all(len(x) == 2 * s for x in strings)


def test_mnn_case1_example():
    coloring, meta = color_mnn(2, 2)
    fam = witness_paths(meta, coloring, 2, 3, 2)  # b_1, b_2
    assert fam.paths == ((2, 4, 3), (2, 5, 3))
    assert path_colors(coloring, fam.paths[0]) == (1, 2)
    assert path_colors(coloring, fam.paths[1]) == (2, 1)
    assert "Case 1" in fam.provenance


def test_mnn_witness_grids_including_odd_n():
    for m, n in [(1, 2), (4, 2), (3, 3), (5, 4), (2, 5)]:
        coloring, meta = color_mnn(m, n)
        grid_valid(coloring, meta, 2)


def test_mnn_witness_rejects_other_k():
    coloring, meta = color_mnn(2, 2)
    with pytest.raises(ValueError, match="k = 2"):
        witness_paths(meta, coloring, 0, 1, 3)


# -- k2416 --------------------------------------------------------------------


def test_k2416_shape():
    coloring, meta = color_2_4_16()
    assert coloring.spec.sizes == (2, 4, 16)
    assert len(coloring.assignment) == 104
    assert coloring.num_colors == 2
    assert meta["labeling"]["strings"] == [
        "0001", "0010", "0100", "0111", "1000", "1011", "1101", "1110",
    ]


def test_k2416_c_and_cprime_share_colors_toward_b():
    coloring, _ = color_2_4_16()
    for j in range(4):
        for i in range(8):
            b, c, cp = 2 + j, 6 + i, 14 + i
            assert coloring.color(b, c) == coloring.color(b, cp)


def test_k2416_case5_example():
    coloring, meta = color_2_4_16()
    fam = witness_paths(meta, coloring, 6, 14, 2)  # c_1, c_1'
    assert fam.paths == ((6, 0, 14), (6, 1, 14))
    assert "Case 5" in fam.provenance


def test_k2416_case4_uses_lex_smallest_differing_string():
    coloring, meta = color_2_4_16()
    fam = witness_paths(meta, coloring, 2, 3, 2)  # b_1, b_2
    # Strings differing at bit positions 1 and 2: lex-smallest is 0100 (#3).
    assert fam.paths == ((2, 6 + 2, 3), (2, 14 + 2, 3))
    assert family_is_valid(coloring, fam, 2)


def test_k2416_automorphism_dispatch_for_a2():
    coloring, meta = color_2_4_16()
    fam = witness_paths(meta, coloring, 1, 2, 2)  # a_2, b_1
    assert family_is_valid(coloring, fam, 2)
    assert "automorphism" in fam.provenance


def test_k2416_full_grid():
    coloring, meta = color_2_4_16()
    grid_valid(coloring, meta, 2)


# -- extension ----------------------------------------------------------------


def test_extension_requires_three_parts_and_two_colors():
    base, _ = color_bipartite4(4, 4, 2)
    with pytest.raises(ValueError):
        color_extension(base, 0, 1)
    base3, _ = color_ctk(PartitionSpec((2, 2, 2)), 2)
    with pytest.raises(ValueError, match="2-colored"):
        color_extension(base3, 0, 1)


def test_extension_restriction_equals_possibly_transposed_base():
    base, base_meta = color_mnn(2, 2)
    new, meta = color_extension(base, 0, 1, base_meta=base_meta)
    assert new.spec.sizes == (3, 3, 2)
    id_map = meta["labeling"]["id_map"]
    transposed = meta["labeling"]["transposed"]
    reference = base.permuted({1: 2, 2: 1}) if transposed else base
    for (u, v), c in reference.assignment.items():
        assert new.color(id_map[u], id_map[v]) == c


def test_extension_special_edges():
    base, base_meta = color_mnn(2, 2)
    new, meta = color_extension(base, 0, 1, base_meta=base_meta)
    a1, a2 = meta["labeling"]["new_vertices"]
    anchor1, anchor2 = meta["labeling"]["anchors"]
    assert new.color(a1, a2) == 1
    assert new.color(a1, anchor2) == 2
    assert new.color(anchor1, a2) == 2
    assert new.color(anchor1, anchor2) == 1  # transposition target


def test_extension_anchor_pair_without_base_meta():
    base, _ = color_mnn(2, 2)
    new, meta = color_extension(base, 0, 1)
    a1, a2 = meta["labeling"]["new_vertices"]
    anchor1, anchor2 = meta["labeling"]["anchors"]
    fam = witness_paths(meta, new, a1, anchor1, 2)
    assert family_is_valid(new, fam, 2)
    with pytest.raises(ValueError, match="base"):
        witness_paths(meta, new, 0, a2, 2)


def test_extension_chain_witness_grid():
    coloring, meta = color_mnn(2, 2)
    for expected in ((3, 3, 2), (4, 4, 2)):
        coloring, meta = color_extension(coloring, 0, 1, base_meta=meta)
        assert coloring.spec.sizes == expected
        grid_valid(coloring, meta, 2)


def test_extension_growing_other_parts():
    base, base_meta = color_mnn(2, 2)
    new, meta = color_extension(base, 2, 0, base_meta=base_meta)
    assert new.spec.sizes == (3, 2, 3)
    grid_valid(new, meta, 2)


def test_extension_witness_routed_through_anchor_image():
    # The pair (a_1, c_1) embeds into the base as (a_1', c_1), whose family
    # routes through b_1 = a_2'; transport must swap that interior to a_2 and
    # the resulting path picks up the special edge a_1 a_2 of color 1.
    base, base_meta = color_mnn(2, 2)
    new, meta = color_extension(base, 0, 1, base_meta=base_meta)
    a1, a2 = meta["labeling"]["new_vertices"]
    c1 = new.spec.offsets[2]
    fam = witness_paths(meta, new, a1, c1, 2)
    assert family_is_valid(new, fam, 2)
    assert (a1, a2, c1) in fam.paths
    assert new.color(a1, a2) == 1


# -- meta serialization and shared validation ---------------------------------


def test_meta_json_round_trip_all_families():
    base, base_meta = color_mnn(2, 2)
    ext, ext_meta = color_extension(base, 0, 1, base_meta=base_meta)
    cases = [
        color_bipartite4(4, 5, 2),
        color_ctk(PartitionSpec((2, 2, 2)), 2),
        color_mnn(3, 2),
        color_2_4_16(),
        (ext, ext_meta),
    ]
    for coloring, meta in cases:
        doc = meta
        back = read_meta(doc)
        assert back == doc
        # Witnesses regenerate identically from the deserialized meta.
        fam1 = witness_paths(meta, coloring, 0, coloring.spec.n - 1, 2)
        fam2 = witness_paths(back, coloring, 0, coloring.spec.n - 1, 2)
        assert fam1 == fam2


def test_witness_paths_validates_inputs():
    coloring, meta = color_bipartite4(4, 4, 2)
    with pytest.raises(ValueError):
        witness_paths(meta, coloring, 3, 3, 2)
    other, _ = color_bipartite4(4, 5, 2)
    with pytest.raises(ValueError, match="does not match"):
        witness_paths(meta, other, 0, 1, 2)
    for k in (2.5, True, "2"):
        with pytest.raises(ValueError, match=f"k must be an integer >= 1, got {k!r}"):
            witness_paths(meta, coloring, 0, 4, k)


def test_a_bool_endpoint_is_neither_a_witness_pair_nor_a_valid_family():
    # True == 1 but is no vertex id: unchecked, witness_paths answered for
    # (True, 2) with [[true, 5, 2], [true, 6, 2]] and the checker passed it.
    coloring, meta = color_mnn(3, 2)
    with pytest.raises(ValueError, match=r"pair endpoints must be integers, got \(True, 2\)"):
        witness_paths(meta, coloring, True, 2, 2)
    family = WitnessFamily(True, 2, ((True, 5, 2), (True, 6, 2)), "mnn Case 4")
    assert not family_is_valid(coloring, family, 2)
    assert family_is_valid(coloring, witness_paths(meta, coloring, 1, 2, 2), 2)


def test_witness_dominance_verifier_never_undercounts():
    cases = [
        color_bipartite4(4, 4, 2),
        color_ctk(PartitionSpec((2, 2, 2)), 2),
        color_mnn(4, 2),
    ]
    for coloring, meta in cases:
        for u, v in combinations(range(coloring.spec.n), 2):
            fam = witness_paths(meta, coloring, u, v, 2)
            count, _ = max_disjoint_rainbow(coloring, PairQuery(u, v))
            assert count >= len(fam.paths)


def test_f_formula_equals_ctk_designated_size():
    for t, k in ((3, 2), (4, 3), (5, 4), (8, 7)):
        _, meta = color_ctk(PartitionSpec(tuple([4] * t)), k)
        assert meta["params"]["s"] == f_formula(k, t)


def test_witnesses_at_lower_k_than_construction():
    coloring, meta = color_bipartite4(6, 6, 3)
    for k in (1, 2, 3):
        fam = witness_paths(meta, coloring, 0, 1, k)
        assert len(fam.paths) == k
        assert family_is_valid(coloring, fam, k)
    coloring, meta = color_ctk(PartitionSpec((3, 3, 3)), 3)
    for k in (1, 2, 3):
        fam = witness_paths(meta, coloring, 0, 1, k)
        assert family_is_valid(coloring, fam, k)


# -- pinned bytes ---------------------------------------------------------------


def _extension_chain():
    coloring, meta = color_mnn(3, 2)
    coloring, meta = color_extension(coloring, 0, 1, base_meta=meta)
    return color_extension(coloring, 2, 1, base_meta=meta)


# (instance, the k values its witnesses are asked for): ctk with odd and even
# t and unequal parts, both bipartite4 shapes, mnn with odd and even n, k2416
# and a two-step extension chain.
PINNED_INSTANCES = [
    (lambda: color_ctk(PartitionSpec((2, 3, 2)), 2), (1, 2)),
    (lambda: color_ctk(PartitionSpec((3, 3, 4)), 3), (1, 2, 3)),
    (lambda: color_ctk(PartitionSpec((2, 2, 3, 2)), 3), (1, 2, 3)),
    (lambda: color_ctk(PartitionSpec((1, 2, 1, 1, 2)), 2), (1, 2)),
    (lambda: color_ctk(PartitionSpec((2, 2, 2, 2, 2, 3)), 4), (1, 2, 3, 4)),
    (lambda: color_bipartite4(4, 5, 2), (1, 2)),
    (lambda: color_bipartite4(7, 6, 3), (1, 2, 3)),
    (lambda: color_mnn(3, 2), (2,)),
    (lambda: color_mnn(5, 4), (2,)),
    (lambda: color_mnn(4, 5), (2,)),
    (color_2_4_16, (2,)),
    (_extension_chain, (2,)),
]


def test_construction_and_witness_bytes_are_pinned():
    # Every construct document, then the witness family of every ordered pair
    # at each k, as the `construct` and `witness` commands write them. A
    # change to any labeling, case order or provenance string moves the
    # digest; the value was recorded before the labelings were refactored.
    digest = hashlib.sha256()
    for build, ks in PINNED_INSTANCES:
        coloring, meta = build()
        digest.update(coloring_document(coloring, meta).encode())
        for u, v in permutations(coloring.spec.vertices(), 2):
            for k in ks:
                family = witness_paths(meta, coloring, u, v, k)
                assert family_is_valid(coloring, family, k), (meta["tag"], u, v, k)
                digest.update(json_text(family.to_json_dict()).encode())
    assert digest.hexdigest() == (
        "f568ebeeaac64e5df0a01239bf3c4e1f7d31c9ef37345ef45ad872d0867b74f1")


def _grown(build, p, q, with_meta=True):
    base, base_meta = build()
    return color_extension(base, p, q, base_meta=base_meta if with_meta else None)


# (instance, the k values its witnesses are asked for): the extension shapes
# the pinned digest above does not reach, and a larger mnn. k = 1 and k = 3
# are refused on every 2-colouring; their one-line refusals are pinned too.
PINNED_REFUSALS = [
    (lambda: _grown(lambda: color_mnn(3, 2), 0, 2), (1, 2, 3)),  # untransposed
    (lambda: _grown(color_2_4_16, 2, 0), (2,)),  # p > q
    # No base meta: only the two anchor pairs (both ways) have families.
    (lambda: _grown(lambda: color_mnn(3, 2), 0, 1, with_meta=False), (2,)),
    (lambda: color_mnn(12, 5), (2,)),
    (lambda: color_mnn(3, 3), (1, 3)),
    (color_2_4_16, (1, 3)),
]


def test_extension_and_refusal_bytes_are_pinned():
    # As the digest above, with each refused pair's one-line error in place
    # of its family. The value was recorded before the vertex maps of the
    # 2-colourings were restated as one map each.
    digest = hashlib.sha256()
    for build, ks in PINNED_REFUSALS:
        coloring, meta = build()
        digest.update(coloring_document(coloring, meta).encode())
        for u, v in permutations(coloring.spec.vertices(), 2):
            for k in ks:
                try:
                    family = witness_paths(meta, coloring, u, v, k)
                except ValueError as exc:
                    digest.update(f"refused: {exc}\n".encode())
                    continue
                assert family_is_valid(coloring, family, k), (meta["tag"], u, v, k)
                digest.update(json_text(family.to_json_dict()).encode())
    assert digest.hexdigest() == (
        "1b649c95fa76efe50e877d8076a656f030244022ec61756c67ce0a33b8331134")


def test_k2416_tau_is_a_colour_automorphism():
    coloring, _ = color_2_4_16()
    vertices = coloring.spec.vertices()
    assert [_k2416_tau(_k2416_tau(w)) for w in vertices] == list(vertices)
    assert len(coloring.assignment) == 104
    for (u, v), c in coloring.assignment.items():
        assert coloring.color(_k2416_tau(u), _k2416_tau(v)) == c


@pytest.mark.parametrize("build, p, q", [
    (lambda: color_mnn(3, 2), 0, 2),
    (lambda: color_mnn(2, 2), 0, 1),
    (lambda: color_mnn(4, 3), 1, 0),
    (color_2_4_16, 2, 0),
    (color_2_4_16, 0, 1),
])
def test_extension_edges_copy_the_base_at_their_projection(build, p, q):
    base, _ = build()
    new, meta = color_extension(base, p, q)
    lab = meta["labeling"]
    reference = base.permuted({1: 2, 2: 1}) if lab["transposed"] else base
    # Old vertices project to their base ids, each new vertex to its anchor.
    proj = {w: old for old, w in enumerate(lab["id_map"])}
    proj.update(zip(lab["new_vertices"], lab["anchors_old"]))
    a1, a2 = lab["new_vertices"]
    anchor1, anchor2 = lab["anchors"]
    recolored = [{a1, anchor2}, {a2, anchor1}]
    assert len(new.assignment) == new.spec.edge_count()
    for (u, v), c in new.assignment.items():
        expected = 2 if {u, v} in recolored else reference.color(proj[u], proj[v])
        assert c == expected, (u, v)
