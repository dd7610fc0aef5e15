import concurrent.futures
import json
import logging
import os
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import small_colorings
from helpers import (
    all_colorings,
    assert_vertex_connectivity,
    brute_force_rainbow_paths,
    full_pair_report,
    naive_max_disjoint,
    unpruned_max_packing,
)
from rainbowk import verifier
from rainbowk.bounds import find_color_twins, random_coloring
from rainbowk.constructions import (
    color_2_4_16,
    color_bipartite4,
    color_ctk,
    color_extension,
    color_mnn,
)
from rainbowk.core import Coloring, PartitionSpec, all_pairs, family_is_valid, twin_classes
from rainbowk.oracle import first_failing_pair
from rainbowk.verifier import (
    PairQuery,
    _capacity_bound,
    _capacity_tables,
    _first_fit,
    _max_matching,
    _max_packing,
    _path_cap,
    _settle,
    enumerate_rainbow_paths,
    fan_out,
    max_disjoint_rainbow,
    structural_connectivity,
    verify_rainbow_k_connected,
)

ONE_COLOR_K22 = Coloring(
    PartitionSpec((2, 2)), 1, {(0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1}
)


def test_enumerate_one_color_adjacent_pair():
    assert enumerate_rainbow_paths(ONE_COLOR_K22, 0, 2) == [(0, 2)]


def test_enumerate_k22_block_coloring():
    # The 4-block coloring of K_{2,2}: between the two A-vertices there are
    # exactly two rainbow paths, both of length 2 (frozen from the
    # brute-force oracle; a 4-vertex graph has no room for longer u,v-paths).
    coloring, _ = color_bipartite4(2, 2, 1)
    paths = enumerate_rainbow_paths(coloring, 0, 1)
    assert paths == brute_force_rainbow_paths(coloring, 0, 1, 4)
    assert paths == [(0, 2, 1), (0, 3, 1)]


def test_enumerate_respects_max_len():
    coloring, _ = color_bipartite4(4, 4, 2)
    assert enumerate_rainbow_paths(coloring, 0, 1, max_len=1) == []


def test_enumerate_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        enumerate_rainbow_paths(ONE_COLOR_K22, 1, 1)


@st.composite
def lopsided_colorings(draw):
    """Colorings with one big last part, 1..5 colors: most last steps of a
    path toward a big-part vertex land in its own part."""
    spec = PartitionSpec(draw(st.sampled_from([(1, 6), (2, 2, 5), (3, 9)])))
    num_colors = draw(st.integers(1, 5))
    return Coloring(spec, num_colors,
                    {e: draw(st.integers(1, num_colors)) for e in spec.edges()})


@st.composite
def planted_twin_colorings(draw):
    """A lopsided coloring with 3..5 colors and planted color twins in its
    big part: the rows of two drawn members are overwritten by a third's."""
    spec = PartitionSpec(draw(st.sampled_from([(2, 9), (9, 2), (5, 1, 1), (1, 1, 5)])))
    num_colors = draw(st.integers(3, 5))
    colors = {e: draw(st.integers(1, num_colors)) for e in spec.edges()}
    members = spec.part_members(max(range(spec.t), key=lambda i: spec.sizes[i]))
    source, *copies = draw(st.lists(st.sampled_from(members), min_size=3, max_size=3,
                                    unique=True))
    rows = Coloring(spec, num_colors, colors).rows
    return Coloring.from_function(spec, num_colors, lambda u, v: rows[
        source if u in copies else u][source if v in copies else v])


def _big_part_pairs(coloring):
    """The first and the last pair inside the big part, and its first twin
    pair, the pair a lower-bound certificate queries."""
    spec = coloring.spec
    members = spec.part_members(max(range(spec.t), key=lambda i: spec.sizes[i]))
    twins = [tuple(c[:2]) for c in twin_classes(coloring)
             if len(c) >= 2 and c[0] in members]
    return {tuple(members[:2]), tuple(members[-2:])} | set(twins[:1])


@given(st.one_of(small_colorings(), lopsided_colorings(), planted_twin_colorings()))
@settings(max_examples=120)
def test_enumeration_matches_brute_force(coloring):
    # Pairs inside the big part and twin pairs reach the two-step close
    # through the few vertices outside that part.
    n = coloring.spec.n
    pairs = {(0, n - 1), (n - 2, n - 1)}
    if len(set(coloring.spec.sizes)) > 1:
        pairs |= _big_part_pairs(coloring)
    for u, v in pairs:
        assert enumerate_rainbow_paths(coloring, u, v) == brute_force_rainbow_paths(
            coloring, u, v, coloring.num_colors
        )
        # Every smaller cap too, and 1..3 at least: the last two edges the
        # cap allows are closed in place, and that must hold at each depth.
        for max_len in range(1, max(coloring.num_colors, 4)):
            got = enumerate_rainbow_paths(coloring, u, v, max_len)
            assert got == brute_force_rainbow_paths(coloring, u, v, max_len)


@given(small_colorings())
@settings(max_examples=40)
def test_enumeration_cap_beyond_palette_changes_nothing(coloring):
    u, v = 0, coloring.spec.n - 1
    base = enumerate_rainbow_paths(coloring, u, v, max_len=coloring.num_colors)
    assert enumerate_rainbow_paths(coloring, u, v, max_len=coloring.num_colors + 3) == base


def test_max_disjoint_same_part_pair_with_one_color():
    count, family = max_disjoint_rainbow(ONE_COLOR_K22, PairQuery(0, 1))
    assert count == 0
    assert family.paths == ()


def test_max_disjoint_decision_caps_at_k():
    coloring, _ = color_bipartite4(6, 6, 3)
    count, family = max_disjoint_rainbow(coloring, PairQuery(0, 6, k=2))
    assert count == 2
    assert family_is_valid(coloring, family, 2)


def test_max_disjoint_k2416_pairs():
    coloring, _ = color_2_4_16()
    for u, v in [(0, 1), (2, 3), (6, 14), (6, 7), (0, 9), (3, 20)]:
        count, family = max_disjoint_rainbow(coloring, PairQuery(u, v, k=2))
        assert count == 2
        assert family_is_valid(coloring, family, 2)


def test_pair_query_validation():
    # The query is a plain record; the walks refuse its values.
    with pytest.raises(ValueError):
        max_disjoint_rainbow(ONE_COLOR_K22, PairQuery(1, 1))
    with pytest.raises(ValueError, match="k >= 1"):
        max_disjoint_rainbow(ONE_COLOR_K22, PairQuery(0, 1, k=0))
    # A float k was never reached as a cap, and a bool is no k.
    for k in (2.5, True):
        with pytest.raises(ValueError, match=f"k must be an integer >= 1, got {k}"):
            max_disjoint_rainbow(ONE_COLOR_K22, PairQuery(0, 1, k=k))
    with pytest.raises(TypeError):
        PairQuery(0, 1, mode="maximize")  # the mode is read off k


def test_verify_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'guess'"):
        verify_rainbow_k_connected(ONE_COLOR_K22, 1, mode="guess")


def test_max_len_caps_the_paths_a_query_packs():
    # K_{2,2} rainbow: the cross pair (0, 2) has its edge and 0-3-1-2.
    coloring = Coloring.from_function(PartitionSpec((2, 2)), 4,
                                      lambda u, v: 2 * u + v - 1)
    assert max_disjoint_rainbow(coloring, PairQuery(0, 2))[0] == 2
    assert _settle(coloring, 0, 2, None, 2) == [(0, 2)]


def test_exhaustive_oracle_agreement():
    # Every coloring of K_{2,2} and K_{1,1,2} with up to 3 colors: the
    # branch-and-bound packing equals the subset brute force for every pair.
    for sizes in ((2, 2), (1, 1, 2)):
        spec = PartitionSpec(sizes)
        for coloring in all_colorings(spec, 3):
            for u, v in all_pairs(spec):
                count, family = max_disjoint_rainbow(coloring, PairQuery(u, v))
                paths = enumerate_rainbow_paths(coloring, u, v)
                assert count == naive_max_disjoint(paths)
                assert family_is_valid(coloring, family, count)


def test_verify_pass_and_fail():
    coloring, _ = color_bipartite4(4, 4, 2)
    assert verify_rainbow_k_connected(coloring, 2).ok

    report = verify_rainbow_k_connected(ONE_COLOR_K22, 1)
    assert not report.ok
    assert report.failing_pair == (0, 1)  # first same-part pair
    assert report.failing_family.paths == ()
    doc = report.to_json_dict()
    assert doc["verdict"] == "fail" and doc["failing_pair"] == [0, 1]


def test_verify_ctk_odd_small():
    coloring, _ = color_ctk(PartitionSpec((2, 2, 2)), 2)
    report = verify_rainbow_k_connected(coloring, 2)
    assert report.ok
    assert coloring.used_colors() == {1, 2, 3}


def test_verify_monotone_in_k():
    coloring, _ = color_bipartite4(6, 6, 3)
    assert verify_rainbow_k_connected(coloring, 3).ok
    assert verify_rainbow_k_connected(coloring, 2).ok
    assert verify_rainbow_k_connected(coloring, 1).ok


@given(small_colorings(), st.integers(1, 3))
@settings(max_examples=30)
def test_monotonicity_property(coloring, k):
    if verify_rainbow_k_connected(coloring, k + 1).ok:
        assert verify_rainbow_k_connected(coloring, k).ok


@given(small_colorings(), st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_color_permutation_invariance(coloring, rng):
    perm = list(range(1, coloring.num_colors + 1))
    rng.shuffle(perm)
    sigma = {i + 1: perm[i] for i in range(coloring.num_colors)}
    for k in (1, 2):
        original = verify_rainbow_k_connected(coloring, k)
        permuted = verify_rainbow_k_connected(coloring.permuted(sigma), k)
        assert original.ok == permuted.ok
        assert original.counts == permuted.counts


@given(small_colorings())
@settings(max_examples=30)
def test_soundness_of_returned_families(coloring):
    u, v = 0, coloring.spec.n - 1
    count, family = max_disjoint_rainbow(coloring, PairQuery(u, v))
    assert family_is_valid(coloring, family, count)


def test_parallel_matches_sequential():
    coloring = random_coloring(PartitionSpec((3, 3, 2)), 3, seed=7)
    seq = verify_rainbow_k_connected(coloring, 2, jobs=1)
    par = verify_rainbow_k_connected(coloring, 2, jobs=2)
    assert seq.ok == par.ok
    assert seq.counts == par.counts
    assert seq.failing_pair == par.failing_pair
    # A failing report (k=3) is the same document for any jobs count, more
    # workers than pairs included.
    docs = [
        verify_rainbow_k_connected(coloring, 3, jobs=jobs).to_json_dict()
        for jobs in (1, 2, len(seq.counts) + 5)
    ]
    assert docs[0]["verdict"] == "fail"
    assert docs[0] == docs[1] == docs[2]


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    workers: list[int] = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        assert chunksize >= 1
        return map(fn, items)


def test_fan_out_caps_workers(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "workers", [])
    items = range(-5, 5)
    assert fan_out(abs, items, jobs=10_000) == list(map(abs, items))
    assert all(w <= (os.cpu_count() or 1) for w in _SerialPool.workers)
    # With more CPUs than items, the item count is the cap.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert fan_out(abs, items, jobs=10_000) == list(map(abs, items))
    assert _SerialPool.workers[-1] == len(items)
    # One worker's worth of work never starts a pool.
    monkeypatch.setattr(_SerialPool, "workers", [])
    assert fan_out(abs, [-1], jobs=8) == [1]
    assert fan_out(abs, items, jobs=1) == list(map(abs, items))
    assert _SerialPool.workers == []


@given(small_colorings(), st.integers(1, 3))
@settings(max_examples=60)
def test_fail_first_search_agrees_with_full_verification(coloring, k):
    failing = first_failing_pair(coloring, k)
    assert (failing is None) == verify_rainbow_k_connected(coloring, k).ok
    if failing is not None:
        count, _ = max_disjoint_rainbow(coloring, PairQuery(*failing))
        assert count < k


def test_structural_connectivity_values():
    assert structural_connectivity(PartitionSpec((1, 1))) == 1
    assert structural_connectivity(PartitionSpec((17, 2))) == 2
    assert structural_connectivity(PartitionSpec((2, 2, 2))) == 4


def test_structural_connectivity_against_cut_search():
    for sizes in ((1, 1), (2, 2), (2, 2, 2), (17, 2), (1, 2, 3)):
        spec = PartitionSpec(sizes)
        assert_vertex_connectivity(spec, structural_connectivity(spec))


def test_packing_matches_subset_oracle_on_random_instances():
    # Seeded random colorings on shapes large enough to produce real
    # branching in the packing search.
    import random as _random

    rng = _random.Random(99)
    shapes = [(3, 3), (2, 2, 2), (4, 3), (2, 3, 2), (5, 4)]
    for trial in range(40):
        spec = PartitionSpec(shapes[trial % len(shapes)])
        coloring = random_coloring(spec, rng.randint(2, 4), seed=trial)
        u = rng.randrange(spec.n)
        v = rng.randrange(spec.n)
        if u == v:
            continue
        paths = enumerate_rainbow_paths(coloring, u, v)
        if len(paths) > 14:
            continue  # keep the subset oracle affordable
        count, family = max_disjoint_rainbow(coloring, PairQuery(u, v))
        assert count == naive_max_disjoint(paths)
        assert family_is_valid(coloring, family, count)
        # Decision mode enumerates and packs only when the first-fit walk
        # falls short of k; either way it must agree with the subset oracle.
        for k in range(1, count + 2):
            got, family = max_disjoint_rainbow(coloring, PairQuery(u, v, k=k))
            assert got == min(k, count)
            assert family_is_valid(coloring, family, got)


@st.composite
def packing_pairs(draw, max_paths: int = 100):
    """A seeded random coloring on 8 to 12 vertices and a pair with at most
    max_paths rainbow paths, with those paths. Seeded colorings rather than
    drawn edge colors: shrinking toward one color leaves no paths."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5)
                 .filter(lambda sizes: 8 <= sum(sizes) <= 12))
    spec = PartitionSpec(tuple(sizes))
    coloring = random_coloring(spec, draw(st.integers(4, 5)), draw(st.integers(0, 2**32)))
    u, v = draw(st.sampled_from(list(all_pairs(spec))))
    paths = enumerate_rainbow_paths(coloring, u, v)
    assume(len(paths) <= max_paths)
    return coloring, u, v, paths


def _greedy(paths):
    """The indices greedy first-fit picks from paths, in list order."""
    picked, used = [], set()
    for i, p in enumerate(paths):
        if used.isdisjoint(p[1:-1]):
            picked.append(i)
            used.update(p[1:-1])
    return picked


def _indices(paths, family):
    """The list indices of a family's paths, in family order."""
    return [paths.index(p) for p in family.paths]


def _assert_packs_like_the_unpruned_search(paths, got, target):
    """Indices of a packing of paths (capped at target) against the
    unpruned search. A path set with a path of three or more interior
    vertices is searched, and its indices are the unpruned search's, in
    list order. Shorter paths are matched (module docstring), and a
    matching may pick another maximum family: there the count is the
    unpruned search's, the indices ascend and the interiors are pairwise
    disjoint, and greedy's picks come back whenever they are maximum."""
    expected = unpruned_max_packing(paths, target)
    if any(len(p) > 4 for p in paths):
        assert got == sorted(expected)
        return
    assert len(got) == len(expected)
    assert got == sorted(set(got))
    used = set()
    for i in got:
        assert used.isdisjoint(paths[i][1:-1])
        used.update(paths[i][1:-1])
    greedy = _greedy(paths)[:target]
    if len(greedy) == len(expected):
        assert got == greedy


@given(packing_pairs())
@settings(max_examples=150)
def test_bounded_search_matches_unpruned_search(instance):
    # The capacity bound only cuts subtrees that cannot beat the best
    # packing, so count and family equal the unpruned search's, in both
    # modes and for every k up to one past the maximum; a matched path set
    # keeps the count (`_assert_packs_like_the_unpruned_search`).
    coloring, u, v, paths = instance
    count, family = max_disjoint_rainbow(coloring, PairQuery(u, v))
    _assert_packs_like_the_unpruned_search(paths, _indices(paths, family), None)
    for k in range(1, count + 2):
        got, family = max_disjoint_rainbow(coloring, PairQuery(u, v, k=k))
        assert got == min(k, count)
        _assert_packs_like_the_unpruned_search(paths, _indices(paths, family), k)


@given(packing_pairs())
@settings(max_examples=150)
def test_every_packing_lists_its_paths_in_list_order(instance):
    # Greedy, the matching and the search all return ascending indices, at
    # most target of them, at every target up to one past the maximum.
    coloring, _, _, paths = instance
    part_masks = coloring.spec.part_masks
    count = len(_max_packing(paths, None, part_masks))
    for target in (None, *range(1, count + 2)):
        got = _max_packing(paths, target, part_masks)
        assert all(a < b for a, b in zip(got, got[1:])), (target, got)
        assert target is None or len(got) <= target


def test_a_searched_family_comes_back_in_list_order():
    # A pair whose paths reach the search, which picks them in branch order.
    coloring = random_coloring(PartitionSpec((3, 3, 1, 4)), 4, 0)
    paths = enumerate_rainbow_paths(coloring, 5, 7)
    assert _max_packing(paths, None, coloring.spec.part_masks) == [4, 7, 10, 16, 17, 25]
    _, family = max_disjoint_rainbow(coloring, PairQuery(5, 7))
    assert _indices(paths, family) == [4, 7, 10, 16, 17, 25]


def _regions_built(monkeypatch):
    """Record the region of every capacity table `_max_packing` draws, and
    of every table set its capacity bound is taken over."""
    regions, bounds = [], []
    tables, bound = verifier._capacity_tables, verifier._capacity_bound

    def recorded_tables(masks, part_masks):
        for table in tables(masks, part_masks):
            regions.append(table[0])
            yield table

    def recorded_bound(over, avail, cand):
        bounds.append([region for region, _ in over])
        return bound(over, avail, cand)

    monkeypatch.setattr(verifier, "_capacity_tables", recorded_tables)
    monkeypatch.setattr(verifier, "_capacity_bound", recorded_bound)
    return regions, bounds


# Paths between 0 and 1 of K_{2,1,1,1} (parts {0, 1}, {2}, {3}, {4}) or
# K_{2,2,2} (parts {0, 1}, {2, 3}, {4, 5}). Greedy picks the first path only.
# Each case but one has a 4-edge path, so its root is the search's.
ROOT_CASES = {
    # Every interior holds 2: part {2} has room for one path.
    "a part settles": ((2, 1, 1, 1), [(0, 2, 3, 1), (0, 2, 4, 1), (0, 4, 2, 1),
                                      (0, 2, 3, 4, 1)], 2),
    # A triangle on 2, 3, 4: each part has room for one path plus the one
    # that misses it, the whole set (3 vertices, 2 or 3 per path) for one.
    "the whole set settles": ((2, 1, 1, 1), [(0, 2, 3, 1), (0, 3, 4, 1), (0, 2, 4, 1),
                                             (0, 2, 3, 4, 1)], 5),
    # Each region has room for two paths, and two fit: the search runs. The
    # 4-edge path weighs 2 in {4, 5} and 3 in all.
    "the search runs": ((2, 2, 2), [(0, 2, 4, 1), (0, 2, 5, 1), (0, 3, 4, 1),
                                    (0, 3, 5, 4, 1)], 4),
    # The same without the 4-edge path: the matching runs, and draws no
    # table.
    "the matching runs": ((2, 2, 2), [(0, 2, 4, 1), (0, 2, 5, 1), (0, 3, 4, 1)], 0),
}


@pytest.mark.parametrize("case", ROOT_CASES)
def test_packing_root_settles_at_the_first_region_that_can(monkeypatch, case):
    # The search's root returns greedy's paths at the first region whose
    # term is at most their count, and builds no table after it; only when
    # no region settles it does the search run, with every table. The
    # matching builds none.
    sizes, paths, drawn = ROOT_CASES[case]
    part_masks = PartitionSpec(sizes).part_masks
    regions, bounds = _regions_built(monkeypatch)
    for target in (None, 2, 3):
        regions.clear(), bounds.clear()
        got = _max_packing(paths, target, part_masks)
        _assert_packs_like_the_unpruned_search(paths, got, target)
        assert len(regions) == drawn
        # One bound per region at the root, each over its own table; the
        # search's bounds take every table.
        assert bounds[:drawn] == [[region] for region in regions]
        searched = bounds[drawn:]
        assert all(over == regions for over in searched)
        assert bool(searched) == (case == "the search runs")
        assert len(got) == (1 if case.endswith("settles") else 2)


# Paths between 0 and 1 whose graph H has the edges 34, 56, 47, 35, 67, 24,
# 26. Greedy takes 34 and 56 and leaves 2 and 7 exposed; every augmenting
# path from 2 runs through the odd cycle 3-4-7-6-5-3.
BLOSSOM = [(0, 3, 4, 1), (0, 5, 6, 1), (0, 4, 7, 1), (0, 3, 5, 1), (0, 6, 7, 1),
           (0, 2, 4, 1), (0, 2, 6, 1)]


@st.composite
def short_path_lists(draw):
    """Distinct paths between 0 and 1 through vertices 2..7, each with 0, 1
    or 2 interior vertices, in drawn order. Both orders of a pair give two
    paths with one interior. Random lists seldom need a blossom, so half of
    them have BLOSSOM's paths, relabelled by a drawn permutation of 2..7,
    mixed in at drawn places."""
    interiors = draw(st.lists(st.lists(st.integers(2, 7), max_size=2, unique=True),
                              max_size=12))
    if draw(st.booleans()):
        relabel = dict(zip(range(2, 8), draw(st.permutations(range(2, 8)))))
        for _, x, y, _ in BLOSSOM:
            interiors.insert(draw(st.integers(0, len(interiors))), [relabel[x], relabel[y]])
    return list(dict.fromkeys((0, *interior, 1) for interior in interiors))


@given(short_path_lists())
@settings(max_examples=300)
def test_matching_packs_as_many_paths_as_the_unpruned_search(paths):
    # Directly, from greedy's picks, and through `_max_packing`, at every
    # target: above greedy's count, as a fallback calls it, and at or below
    # it, where the early exits stop at the target too.
    part_masks = PartitionSpec((2, 2, 2, 2)).part_masks
    greedy = _greedy(paths)
    for target in (None, 1, 2, 3, 4):
        _assert_packs_like_the_unpruned_search(
            paths, _max_matching(paths, greedy, target), target)
        _assert_packs_like_the_unpruned_search(
            paths, _max_packing(paths, target, part_masks), target)


@pytest.mark.parametrize("paths, part_masks", [
    # Greedy takes every path.
    ([(0, 1), (0, 2, 1)], (0b1, 0b110)),
    # Greedy takes 2 of 3, and the capacity bound settles the root.
    ([(0, 2, 1), (0, 3, 1), (0, 2, 3, 4, 1)], PartitionSpec((2, 1, 1, 1)).part_masks),
])
def test_the_early_exits_stop_at_the_target(paths, part_masks):
    assert _max_packing(paths, None, part_masks) == [0, 1]
    assert _max_packing(paths, 1, part_masks) == [0]
    assert _max_packing(paths, 2, part_masks) == [0, 1]


def test_matching_contracts_an_odd_cycle():
    # A matching that does not contract BLOSSOM's odd cycle stops at
    # greedy's 2 paths.
    paths = BLOSSOM
    assert _greedy(paths) == [0, 1]
    assert len(unpruned_max_packing(paths, None)) == 3
    got = _max_packing(paths, None, PartitionSpec((2, 1, 1, 1, 1, 1, 1)).part_masks)
    _assert_packs_like_the_unpruned_search(paths, got, None)
    assert len(got) == 3


@pytest.mark.parametrize("sizes, palette, k", [
    ((2, 17), 4, 2), ((10, 1, 1), 3, 2), ((2, 2, 82), 3, 3),
])
def test_packing_of_twin_paths_matches_the_unpruned_search(sizes, palette, k):
    # The twin queries of the lower-bound sampler: at 4 colors the search's
    # root that does not return at greedy settles at a small part, before
    # the later tables; at 3 colors the paths are matched, and greedy's
    # picks, maximum on every one of these, come back.
    spec = PartitionSpec(sizes)
    big = sizes.index(max(sizes))
    for seed in range(40):
        coloring = random_coloring(spec, palette, seed)
        paths = enumerate_rainbow_paths(coloring, *find_color_twins(coloring, big))
        for target in (None, k):
            assert _max_packing(paths, target, spec.part_masks) == unpruned_max_packing(
                paths, target)


def _assert_first_fit_is_greedy(coloring, pairs):
    """The walk picks what greedy first-fit picks from the full path list
    (module docstring), so decision counts and families, fallback included,
    are those of enumeration plus the unpruned search, at every cap and k
    (`_assert_packs_like_the_unpruned_search`)."""
    for u, v in pairs:
        for max_len in (None, 2, 3):
            paths = enumerate_rainbow_paths(coloring, u, v, max_len)
            greedy = _greedy(paths)
            cap = _path_cap(coloring, max_len)
            for k in (1, 2, 3):
                assert _first_fit(coloring, u, v, k, cap) == [paths[i] for i in greedy[:k]]
                picked = _settle(coloring, u, v, k, cap)
                _assert_packs_like_the_unpruned_search(paths, list(map(paths.index, picked)), k)


@given(st.lists(st.integers(1, 4), min_size=2, max_size=4), st.integers(1, 5),
       st.integers(0, 2**32))
@settings(max_examples=250)
def test_first_fit_walk_matches_the_full_enumeration(sizes, num_colors, seed):
    # Palettes of 1 and 2 and max_len 2 reach the walk's cap = 1 and
    # cap = 2 branches.
    coloring = random_coloring(PartitionSpec(tuple(sizes)), num_colors, seed)
    _assert_first_fit_is_greedy(coloring, all_pairs(coloring.spec))


@given(st.one_of(
    lopsided_colorings(),
    st.builds(random_coloring, st.just(PartitionSpec((2, 17))), st.just(4),
              st.integers(0, 2**32)),
    st.builds(random_coloring, st.just(PartitionSpec((10, 1, 1))), st.just(3),
              st.integers(0, 2**32)),
))
@settings(max_examples=60, deadline=None)
def test_first_fit_walk_matches_the_full_enumeration_on_lopsided_graphs(coloring):
    # The lower-bound shapes: the close step toward a big-part vertex scans
    # only the vertices outside its part, and twin queries join two of them.
    spec = coloring.spec
    big = max(range(spec.t), key=lambda i: spec.sizes[i])
    members = spec.part_members(big)
    inside = [(a, b) for a in members for b in members if a < b]
    across = [(0, spec.n - 1), (spec.n - 1, 0)]
    _assert_first_fit_is_greedy(coloring, inside + across)


@pytest.mark.parametrize("k", [0, -1, 2.5, True])
def test_first_fit_refuses_k_below_one(k):
    # Unchecked, k = 0 lets the walk pick two paths for this pair, and
    # k = 2.5 lets it pick three for the pair (0, 2).
    coloring = random_coloring(PartitionSpec((2, 2, 2)), 3, 1)
    integer = type(k) is int
    with pytest.raises(ValueError, match="decision mode needs k >= 1" if integer
                       else f"k must be an integer >= 1, got {k}"):
        max_disjoint_rainbow(coloring, PairQuery(0, 1, k=k))
    # verify's own line for an integer k is the one the CLI prints.
    with pytest.raises(ValueError, match="^k must be >= 1$" if integer
                       else f"k must be an integer >= 1, got {k}"):
        verify_rainbow_k_connected(coloring, k)


WALKS = [
    pytest.param(enumerate_rainbow_paths, id="enumerate"),
    pytest.param(lambda coloring, u, v: max_disjoint_rainbow(coloring, PairQuery(u, v, k=2)),
                 id="decision"),
    pytest.param(lambda coloring, u, v: max_disjoint_rainbow(coloring, PairQuery(u, v)),
                 id="maximize"),
]


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("u, v", [(0, True), (True, 3), (5.0, 0), (0, 5.0), (0, "1")])
def test_walks_refuse_ids_that_are_not_ints(walk, u, v):
    # Unchecked, True indexes rows as vertex 1 and 5.0 fails in tuple indexing.
    coloring = random_coloring(PartitionSpec((2, 2, 2)), 3, seed=2)
    with pytest.raises(ValueError, match="must be integers"):
        walk(coloring, u, v)


# The checked entries that take a cap, each through the one cap rule.
CAPPED_WALKS = [
    pytest.param(lambda coloring, max_len: enumerate_rainbow_paths(coloring, 0, 3, max_len),
                 id="enumerate"),
    pytest.param(lambda coloring, max_len: first_failing_pair(coloring, 2, max_len=max_len),
                 id="first-failing-pair"),
]


@pytest.mark.parametrize("walk", CAPPED_WALKS)
@pytest.mark.parametrize("max_len", [0, -2, 2.0, True])
def test_walks_refuse_caps_that_are_not_positive_ints(walk, max_len):
    # Unchecked, max_len = 0 lists no path, where the cap rule refuses it.
    coloring = random_coloring(PartitionSpec((2, 2, 2)), 3, seed=2)
    with pytest.raises(ValueError, match="max_len must be an integer >= 1"):
        walk(coloring, max_len)


@pytest.mark.parametrize("max_len, cap", [(None, 3), (1, 1), (2, 2), (3, 3), (5, 3)])
def test_the_path_cap_is_the_palette_or_a_smaller_max_len(max_len, cap):
    coloring = random_coloring(PartitionSpec((2, 2, 2)), 3, seed=2)
    assert _path_cap(coloring, max_len) == cap


@pytest.mark.parametrize("mode", ["decision", "maximize"])
@pytest.mark.parametrize("u, v", [(-1, 3), (3, -1), (0, 6), (6, 0)])
def test_pair_query_refuses_ids_out_of_range(mode, u, v):
    # n = 6: rows[-1] would answer silently, rows[6] with an IndexError.
    coloring = random_coloring(PartitionSpec((2, 2, 2)), 3, seed=2)
    query = PairQuery(u, v, k=2 if mode == "decision" else None)
    with pytest.raises(ValueError, match="out of range 0..5"):
        max_disjoint_rainbow(coloring, query)


@given(packing_pairs(max_paths=60), st.data())
@settings(max_examples=150)
def test_capacity_bound_is_never_below_the_optimum(instance, data):
    coloring, _, _, paths = instance
    chosen = sorted(data.draw(st.sets(st.sampled_from(range(len(paths)))))
                    if paths else [])
    masks = [sum(1 << w for w in p[1:-1]) for p in paths]
    cand = avail = 0
    for i in chosen:
        cand |= 1 << i
        avail |= masks[i]
    bound = _capacity_bound(_capacity_tables(masks, coloring.spec.part_masks), avail, cand)
    optimum = len(unpruned_max_packing([paths[i] for i in chosen], None))
    assert optimum <= bound <= len(chosen)


def test_bipartite4_k10_10_maximize_at_k5():
    # Every pair's maximum is at least k and comes with a valid family.
    # Without the capacity bound the search took 54 s on this instance
    # (2-vCPU Xeon, Python 3.11); with it, well under a second.
    coloring, _ = color_bipartite4(10, 10, 5)
    for u, v in all_pairs(coloring.spec):
        count, family = max_disjoint_rainbow(coloring, PairQuery(u, v))
        assert count >= 5
        assert family_is_valid(coloring, family, count)


def test_maximize_counts_match_the_benchmark_record():
    # The benchmark's maximize instances, unrelabelled, against the per-pair
    # counts perfbench/expected.json records in lexicographic pair order.
    instances = {
        "bipartite4-7-7": (color_bipartite4(7, 7, 3), 3),
        "bipartite4-7-8": (color_bipartite4(7, 8, 3), 3),
        "ctk-3-3-3-3": (color_ctk(PartitionSpec((3, 3, 3, 3)), 3), 3),
        "ctk-3-3-3-4": (color_ctk(PartitionSpec((3, 3, 3, 4)), 4), 4),
        "ctk-5-5-5": (color_ctk(PartitionSpec((5, 5, 5)), 4), 4),
    }
    record = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    expected = json.loads(record.read_text())
    assert sorted(expected) == sorted(instances)
    for name, ((coloring, _), k) in instances.items():
        report = verify_rainbow_k_connected(coloring, k, mode="maximize")
        assert [report.counts[p] for p in sorted(report.counts)] == expected[name], name


@st.composite
def twinned_colorings(draw):
    """A small random coloring with planted color twins: in each part, the
    rows of some members are overwritten by one member's row (its colors
    toward every vertex outside the part)."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)
                 .filter(lambda sizes: sum(sizes) <= 8))
    spec = PartitionSpec(tuple(sizes))
    num_colors = draw(st.integers(1, 4))
    colors = {e: draw(st.integers(1, num_colors)) for e in spec.edges()}
    copy_of = {}
    for i in range(spec.t):
        members = list(spec.part_members(i))
        source = draw(st.sampled_from(members))
        for a in draw(st.sets(st.sampled_from(members))) - {source}:
            copy_of[a] = source
    planted = {}
    for u, v in spec.edges():
        a, b = copy_of.get(u, u), copy_of.get(v, v)
        planted[(u, v)] = colors[(min(a, b), max(a, b))]
    return Coloring(spec, num_colors, planted)


@given(twinned_colorings(), st.sampled_from(["decision", "maximize"]),
       st.integers(1, 3))
@settings(max_examples=60)
def test_twin_quotient_matches_the_full_pair_loop(coloring, pool_mode, pool_k):
    # One query per twin orbit, counts copied: the report document equals
    # the one from querying every pair, failing pair and family included.
    # Every mode and k runs with jobs=1; one drawn pair of them with jobs=2
    # too, since each pool costs a process start.
    for mode in ("decision", "maximize"):
        for k in (1, 2, 3):
            expected = full_pair_report(coloring, k, mode).to_json_dict()
            jobs_list = (1, 2) if (mode, k) == (pool_mode, pool_k) else (1,)
            for jobs in jobs_list:
                got = verify_rainbow_k_connected(coloring, k, mode=mode, jobs=jobs)
                assert got.to_json_dict() == expected, (mode, k, jobs)


def _count_calls(monkeypatch, name):
    """Record the arguments of every call of verifier.<name>."""
    calls = []
    original = getattr(verifier, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verifier, name, counted)
    return calls


def _representatives(coloring):
    """The lex-first pair of each twin orbit, from the classes directly."""
    classes = twin_classes(coloring)
    reps = [(c[0], c[1]) for c in classes if len(c) >= 2]
    reps += [(min(c[0], d[0]), max(c[0], d[0])) for c, d in combinations(classes, 2)]
    return sorted(reps)


def _planted_twin_coloring():
    """Twins planted in a seeded coloring: verify fails at k = 3 on a pair
    whose orbit holds more than one pair."""
    base = random_coloring(PartitionSpec((3, 3, 2)), 3, seed=7)
    rows = base.rows
    return Coloring.from_function(
        base.spec, 3, lambda u, v: rows[0 if u == 1 else u][0 if v == 1 else v])


def test_each_representative_pair_is_queried_once(monkeypatch):
    coloring = _planted_twin_coloring()
    reps = _representatives(coloring)
    assert len(reps) < len(list(all_pairs(coloring.spec)))

    calls = _count_calls(monkeypatch, "_loop_query")
    report = verify_rainbow_k_connected(coloring, 3, mode="maximize")
    assert not report.ok
    # Maximize mode keeps the failing pair's family from its own query.
    assert sorted(pair for *_, pair in calls) == reps
    assert all(not capped for _, _, capped, _ in calls)

    calls.clear()
    report = verify_rainbow_k_connected(coloring, 3)
    assert not report.ok
    # Decision mode too: the failing pair's family comes from its own query.
    assert sorted((*pair, capped) for _, _, capped, pair in calls) == [
        (u, v, True) for u, v in reps]


@pytest.mark.parametrize("build, k", [
    pytest.param(lambda: (_planted_twin_coloring(), None), 3, id="planted-twins"),
    pytest.param(lambda: color_bipartite4(8, 8, 4), 4, id="bipartite4-8-8"),
])
@pytest.mark.parametrize("mode", ["decision", "maximize"])
def test_the_loop_keeps_a_family_only_below_k(monkeypatch, build, k, mode):
    coloring, _ = build()
    returned = []
    original = verifier.fan_out

    def spied(*args):
        returned.extend(original(*args))
        return returned

    monkeypatch.setattr(verifier, "fan_out", spied)
    report = verify_rainbow_k_connected(coloring, k, mode=mode)
    assert len(returned) == len(_representatives(coloring))
    assert all((family is None) == (count >= k) for count, family in returned)
    assert any(family is not None for _, family in returned) == (not report.ok)


@pytest.mark.parametrize("build, k, queries", [
    (lambda: color_bipartite4(8, 8, 4), 4, 10),  # 120 pairs
    (lambda: color_ctk(PartitionSpec((6, 6, 6)), 4), 4, 6),  # 153 pairs
    (lambda: color_mnn(16, 6), 2, 378),  # twin-free: every pair
])
def test_pair_queries_on_construction_instances(monkeypatch, build, k, queries):
    coloring, _ = build()
    calls = _count_calls(monkeypatch, "_loop_query")
    assert verify_rainbow_k_connected(coloring, k).ok
    assert len(calls) == queries


def _count_builds(monkeypatch, name):
    """Record every object verifier.<name> builds."""
    built = []
    original = getattr(verifier, name)

    def counted(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verifier, name, counted)
    return built


@pytest.mark.parametrize("mode", ["decision", "maximize"])
def test_the_loop_builds_queries_and_families_only_below_k(monkeypatch, mode):
    queries = _count_builds(monkeypatch, "PairQuery")
    families = _count_builds(monkeypatch, "WitnessFamily")
    for build, k in ((lambda: color_bipartite4(8, 8, 4), 4), (lambda: color_mnn(16, 6), 2)):
        coloring, _ = build()
        assert verify_rainbow_k_connected(coloring, k, mode=mode).ok
    assert queries == [] and families == []

    coloring = _planted_twin_coloring()
    report = verify_rainbow_k_connected(coloring, 3, mode=mode)
    below = [pair for pair in _representatives(coloring) if report.counts[pair] < 3]
    assert queries == []
    assert [(f.u, f.v) for f in families] == below
    assert report.failing_family is families[0]
    assert families[0].provenance == "verifier maximize"


def _extension_chain():
    coloring, meta = color_mnn(2, 2)
    for _ in range(3):
        coloring, meta = color_extension(coloring, 0, 1, base_meta=meta)
    return coloring, meta


@pytest.mark.parametrize("build, k", [
    pytest.param(lambda: color_bipartite4(8, 8, 4), 4, id="bipartite4-8-8"),
    pytest.param(lambda: color_bipartite4(9, 9, 4), 4, id="bipartite4-9-9"),
    pytest.param(lambda: color_ctk(PartitionSpec((6, 6, 6)), 4), 4, id="ctk-6-6-6"),
    pytest.param(lambda: color_ctk(PartitionSpec((3, 3, 3, 3, 3)), 4), 4,
                 id="ctk-3-3-3-3-3"),
    pytest.param(lambda: color_mnn(16, 6), 2, id="mnn-16-6-6"),
    pytest.param(lambda: color_mnn(24, 6), 2, id="mnn-24-6-6"),
    pytest.param(color_2_4_16, 2, id="k2416"),
    pytest.param(_extension_chain, 2, id="extension-5-5-2"),
])
def test_the_loop_counts_what_the_checked_query_counts(build, k):
    # The loop's unchecked query against the public, checked one, on every
    # representative pair of the decision benchmark's instances.
    coloring, _ = build()
    report = verify_rainbow_k_connected(coloring, k)
    for u, v in _representatives(coloring):
        assert report.counts[u, v] == max_disjoint_rainbow(coloring, PairQuery(u, v, k=k))[0]


def test_verify_logs_its_pair_and_class_counts(caplog):
    coloring, _ = color_bipartite4(8, 8, 4)
    with caplog.at_level(logging.DEBUG, logger="rainbowk.verifier"):
        verify_rainbow_k_connected(coloring, 4)
    assert caplog.messages == [
        "verify: 120 pairs, 4 twin classes, 10 representative pairs"]


@pytest.mark.parametrize("palette, seed, failing, fallbacks", [
    # 3 colors: every path has at most two interior vertices.
    (3, 2, (0, 3), ["pair (0, 1): first fit stopped at 2 of 3 paths; 6 enumerated paths matched",
                    "pair (0, 3): first fit stopped at 2 of 3 paths; 2 enumerated paths matched"]),
    # 4 colors: the same-part pair (2, 3) has 4-edge paths, (4, 5) has none.
    (4, 3, (2, 3), ["pair (2, 3): first fit stopped at 2 of 3 paths; 10 enumerated paths searched",
                    "pair (4, 5): first fit stopped at 2 of 3 paths; 6 enumerated paths matched"]),
])
def test_verify_logs_each_decision_fallback(caplog, palette, seed, failing, fallbacks):
    # Two representative pairs are left short of k = 3 by the first-fit
    # walk, and each line names the route that packs its paths; the failing
    # pair's family is its fallback's, with no further query.
    coloring = random_coloring(PartitionSpec((2, 2, 2)), palette, seed=seed)
    with caplog.at_level(logging.DEBUG, logger="rainbowk.verifier"):
        report = verify_rainbow_k_connected(coloring, 3)
    assert report.failing_pair == failing
    assert caplog.messages == [
        "verify: 15 pairs, 6 twin classes, 15 representative pairs", *fallbacks]
