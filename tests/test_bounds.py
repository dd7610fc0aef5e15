import json
import logging
import re
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import brute_force_rainbow_paths, randrange_coloring, unpruned_max_packing
from rainbowk.bounds import (
    SCENARIOS,
    _twin_plan,
    certify_bipartite_lower,
    certify_multipartite_lower,
    f_formula,
    find_color_twins,
    random_coloring,
    sample_certificates,
)
from rainbowk.constructions import color_bipartite4
from rainbowk.core import Coloring, InvariantError, PartitionSpec, json_text
from rainbowk.verifier import (
    PairQuery,
    _capacity_bound,
    _capacity_tables,
    enumerate_rainbow_paths,
    max_disjoint_rainbow,
    verify_rainbow_k_connected,
)


def test_f_formula_values():
    assert f_formula(2, 2) == 4
    assert f_formula(2, 3) == 2
    assert f_formula(7, 8) == 2
    assert f_formula(3, 4) == 2
    assert f_formula(4, 5) == 2


def test_f_formula_domain():
    with pytest.raises(ValueError):
        f_formula(1, 3)
    with pytest.raises(ValueError):
        f_formula(2, 1)


def test_find_color_twins_in_block_coloring():
    # Within A1 all rows toward B are identical by construction.
    coloring, _ = color_bipartite4(4, 4, 2)
    assert find_color_twins(coloring, 0) == (0, 1)


def test_find_color_twins_none_when_profiles_distinct():
    # K_{4,2} with 4 distinct profiles over 2 B-vertices.
    spec = PartitionSpec((4, 2))
    profiles = [(1, 1), (1, 2), (2, 1), (2, 2)]
    assignment = {}
    for a in range(4):
        assignment[(a, 4)] = profiles[a][0]
        assignment[(a, 5)] = profiles[a][1]
    coloring = Coloring(spec, 2, assignment)
    assert find_color_twins(coloring, 0) is None


def test_twin_certificate_failures_raise_invariant_error(monkeypatch):
    import rainbowk.bounds

    # A search that finds k = 2 disjoint twin paths leaves nothing to certify.
    coloring = random_coloring(PartitionSpec((2, 17)), 4, seed=0)
    monkeypatch.setattr(rainbowk.bounds, "max_disjoint_rainbow", lambda c, q: (2, None))
    with pytest.raises(InvariantError, match="certificate construction failed"):
        certify_bipartite_lower(2, coloring)
    monkeypatch.undo()
    monkeypatch.setattr(rainbowk.bounds, "find_color_twins", lambda c, part: None)
    with pytest.raises(InvariantError, match="no color twins"):
        certify_bipartite_lower(2, coloring)
    # On K_{3,65} at k = 3 the interior bound is 3 // 2 = 1, so a count of
    # 2 is below k yet contradicts the twin-path argument.
    monkeypatch.undo()
    monkeypatch.setattr(rainbowk.bounds, "max_disjoint_rainbow", lambda c, q: (2, None))
    with pytest.raises(InvariantError, match="interior bound 1"):
        certify_bipartite_lower(3, random_coloring(PartitionSpec((3, 65)), 4, seed=0))


def test_find_color_twins_forced_by_pigeonhole():
    spec = PartitionSpec((17, 2))
    for seed in range(20):
        coloring = random_coloring(spec, 4, seed)
        assert find_color_twins(coloring, 0) is not None


def test_certify_bipartite_examples():
    spec = PartitionSpec((2, 17))
    for seed in range(25):
        cert = certify_bipartite_lower(2, random_coloring(spec, 4, seed))
        assert cert["max_disjoint_rainbow_paths"] <= 1
        assert cert["scenario"] == "bipartite5"
    spec = PartitionSpec((3, 65))
    cert = certify_bipartite_lower(2, random_coloring(spec, 4, 0))
    assert cert["max_disjoint_rainbow_paths"] <= 1


def test_certify_bipartite_rejects_bad_hypotheses():
    spec = PartitionSpec((4, 17))
    coloring = random_coloring(spec, 4, 0)
    with pytest.raises(ValueError):
        certify_bipartite_lower(2, coloring)  # s > 2k-1
    with pytest.raises(ValueError):
        certify_bipartite_lower(2, random_coloring(PartitionSpec((1, 17)), 4, 0))  # s < k
    spec_small = PartitionSpec((2, 16))
    with pytest.raises(ValueError):
        certify_bipartite_lower(2, random_coloring(spec_small, 4, 0))


def test_bipartite_twin_paths_all_have_length_four():
    spec = PartitionSpec((2, 17))
    for seed in range(10):
        coloring = random_coloring(spec, 4, seed)
        a1, a2 = find_color_twins(coloring, 1)
        paths = enumerate_rainbow_paths(coloring, a1, a2)
        assert all(len(p) == 5 for p in paths)  # 4 edges each


def test_certify_multipartite_examples():
    spec = PartitionSpec((10, 1, 1))
    for seed in range(25):
        cert = certify_multipartite_lower(2, random_coloring(spec, 3, seed))
        assert cert["max_disjoint_rainbow_paths"] <= 1
        assert cert["scenario"] == "multipartite4"
    spec = PartitionSpec((82, 2, 2))
    cert = certify_multipartite_lower(3, random_coloring(spec, 3, 1))
    assert cert["max_disjoint_rainbow_paths"] <= 2


def test_certify_multipartite_rejects_bad_hypotheses():
    spec = PartitionSpec((10, 2, 1))
    coloring = random_coloring(spec, 3, 0)
    with pytest.raises(ValueError):
        certify_multipartite_lower(2, coloring)  # s_1 = 2 > 1
    spec_small = PartitionSpec((9, 1, 1))
    with pytest.raises(ValueError):
        certify_multipartite_lower(2, random_coloring(spec_small, 3, 0))


def test_multipartite_twin_paths_have_length_three_outside_big_part():
    spec = PartitionSpec((10, 1, 1))
    for seed in range(10):
        coloring = random_coloring(spec, 3, seed)
        a1, a2 = find_color_twins(coloring, 0)
        for p in enumerate_rainbow_paths(coloring, a1, a2):
            assert len(p) == 4  # 3 edges
            assert all(spec.part_of(w) != 0 for w in p[1:-1])


def test_certificates_confirmed_by_verifier():
    certs = sample_certificates("bipartite5", 2, (2, 17), 5, seed=100)
    for i, cert in enumerate(certs):
        coloring = random_coloring(PartitionSpec((2, 17)), 4, 100 + i)
        count, _ = max_disjoint_rainbow(coloring, PairQuery(*cert["twins"]))
        assert count == cert["max_disjoint_rainbow_paths"] < 2
        assert not verify_rainbow_k_connected(coloring, 2).ok


def test_random_coloring_is_deterministic():
    spec = PartitionSpec((2, 17))
    a = random_coloring(spec, 4, 42)
    b = random_coloring(spec, 4, 42)
    assert a == b
    assert a != random_coloring(spec, 4, 43)
    assert len(a.assignment) == 34
    assert a.used_colors() <= {1, 2, 3, 4}


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(1, 40),
    st.integers(0, 4),
    st.one_of(st.integers(1, 9), st.sampled_from([128, 255, 256, 300])),
    st.integers(0, 2**32),
)
@settings(max_examples=150)
# Benchmark sizes: K_{2,2,82} at 3 colors; K_{3,65} at 4 and K_{2,17} at a
# palette of 128, which rejects half the bytes, with seeds whose first
# round of words falls short.
@example([2, 2], 82, 2, 3, 0)
@example([3], 65, 1, 4, 255)
@example([2], 17, 1, 128, 105)
def test_random_coloring_draws_the_randrange_stream(small, big, at, num_colors, seed):
    # t = 2..4 parts, one of them big, in any position; palettes up to 255
    # take the byte draw, 256 and 300 the randrange fallback.
    sizes = small[:at] + [big] + small[at:]
    spec = PartitionSpec(tuple(sizes))
    got = random_coloring(spec, num_colors, seed)
    assert got.rows == randrange_coloring(spec, num_colors, seed).rows


@pytest.mark.parametrize("sizes", [(1, 1), (2, 17), (10, 1, 1), (2, 3, 1, 2)])
def test_edge_list_is_the_lex_edge_order(sizes):
    spec = PartitionSpec(sizes)
    assert spec.edge_list == tuple(spec.edges())
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    assert spec.edge_list == tuple(
        (u, v) for u in range(spec.n) for v in range(u + 1, spec.n) if part[u] != part[v]
    )


@given(
    st.integers(2, 3),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
@settings(max_examples=40)
def test_pigeonhole_guarantee_property(num_colors, b_size, seed):
    # Whenever m > num_colors^|B|, twins exist for every coloring.
    m = num_colors**b_size + 1
    spec = PartitionSpec((m, b_size))
    coloring = random_coloring(spec, num_colors, seed)
    assert find_color_twins(coloring, 0) is not None


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=3),
    st.integers(1, 6),
    st.integers(0, 3),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=300)
def test_find_color_twins_is_the_brute_force_lex_first_pair(small, big, at, num_colors, data):
    # The searched part first, in the middle or last, among parts of 1..6
    # vertices; the lex-first pair of its members with equal rows, or None.
    at = min(at, len(small))
    spec = PartitionSpec(tuple(small[:at] + [big] + small[at:]))
    colors = data.draw(st.lists(st.integers(1, num_colors), min_size=spec.edge_count(),
                                max_size=spec.edge_count()))
    coloring = Coloring(spec, num_colors, colors=colors)
    rows = coloring.rows
    expected = min(((a, b) for a, b in combinations(spec.part_members(at), 2)
                    if rows[a] == rows[b]), default=None)
    assert find_color_twins(coloring, at) == expected


def test_find_color_twins_takes_the_class_with_the_smallest_first_member():
    # Rows 1, 2 repeat first, but 0 and 3 are twins too: (0, 3) comes first.
    coloring = Coloring(PartitionSpec((4, 1)), 2, colors=[1, 2, 2, 1])
    assert find_color_twins(coloring, 0) == (0, 3)


def test_twin_search_respects_declared_part():
    coloring, _ = color_bipartite4(4, 4, 2)
    assert find_color_twins(coloring, 1) == (4, 5)
    with pytest.raises(ValueError):
        find_color_twins(coloring, 5)


def test_twin_search_is_per_part():
    spec = PartitionSpec((4, 2))
    # Distinct rows and distinct columns: no twins anywhere.
    profiles = [(1, 1), (1, 2), (2, 1), (2, 2)]
    assignment = {}
    for a in range(4):
        assignment[(a, 4)] = profiles[a][0]
        assignment[(a, 5)] = profiles[a][1]
    coloring = Coloring(spec, 2, assignment)
    assert find_color_twins(coloring, 0) is None
    assert find_color_twins(coloring, 1) is None
    # Distinct rows but equal columns: only the 2-part has twins, and the
    # search reports them only when asked for that part.
    paired = Coloring(spec, 4, {(a, b): a + 1 for a in range(4) for b in (4, 5)})
    assert find_color_twins(paired, 0) is None
    assert find_color_twins(paired, 1) == (4, 5)


def test_certificates_share_their_params_and_write_as_json_dumps():
    certs = sample_certificates("multipartite4", 2, (10, 1, 1), 3, seed=0)
    doc = {"certificates": certs}
    first, *rest = (entry["params"] for entry in doc["certificates"])
    assert all(params is first for params in rest)
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_sample_certificates_parallel_matches_sequential():
    seq = sample_certificates("multipartite4", 2, (10, 1, 1), 6, seed=3)
    par = sample_certificates("multipartite4", 2, (10, 1, 1), 6, seed=3, jobs=2)
    assert seq == par


@pytest.mark.parametrize("scenario, k, sizes, samples", [
    ("bipartite5", 2, (2, 17), 60),
    ("multipartite4", 2, (10, 1, 1), 60),
    ("bipartite5", 3, (3, 65), 4),
    ("multipartite4", 3, (2, 2, 82), 8),
])
def test_sampler_certifies_each_seed_as_the_certifiers_do(scenario, k, sizes, samples):
    # The sampler checks its scenario once per run; each sample must still
    # get the certificate the public certifier gives its coloring.
    certify = {"bipartite5": certify_bipartite_lower,
               "multipartite4": certify_multipartite_lower}[scenario]
    spec = PartitionSpec(sizes)
    seeds = range(11, 11 + samples)
    expected = [certify(k, random_coloring(spec, SCENARIOS[scenario][0], s)) for s in seeds]
    assert sample_certificates(scenario, k, sizes, samples, seed=11) == expected


@pytest.mark.parametrize("scenario, k, sizes, message", [
    ("bipartite5", 2, (4, 17), "need k <= s <= 2k-1, got k=2, s=4"),
    ("bipartite5", 2, (2, 16), "need m >= 4^s + 1 = 17, got m=16"),
    ("bipartite5", 1.5, (2, 17), "k must be an integer >= 2, got 1.5"),
    ("multipartite4", 2, (10, 2, 1), "small part sizes [2] outside [1, 1]"),
    ("multipartite4", 2, (10, 1), "multipartite4 needs t >= 3 parts, got 2"),
])
def test_sampler_refuses_bad_hypotheses_before_drawing(monkeypatch, scenario, k, sizes,
                                                       message):
    import rainbowk.bounds

    def no_draw(*args):
        raise AssertionError("a coloring was drawn for a usage error")

    monkeypatch.setattr(rainbowk.bounds, "random_coloring", no_draw)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_certificates(scenario, k, sizes, 3, seed=0)


@pytest.mark.parametrize("scenario, k, sizes", [
    ("bipartite5", 2, (2, 17)),
    ("multipartite4", 2, (10, 1, 1)),
])
def test_twin_certificates_match_the_unpruned_brute_force_count(scenario, k, sizes):
    # The twin query closes each path through the vertices outside the
    # big part only; its count must still be the maximum packing of every
    # rainbow twin path.
    palette = SCENARIOS[scenario][0]
    spec = PartitionSpec(sizes)
    certs = sample_certificates(scenario, k, sizes, 20, seed=7)
    for seed, cert in enumerate(certs, start=7):
        coloring = random_coloring(spec, palette, seed)
        paths = brute_force_rainbow_paths(coloring, *cert["twins"], palette)
        assert cert["max_disjoint_rainbow_paths"] == len(unpruned_max_packing(paths, None))


@pytest.mark.parametrize("scenario, k, sizes, samples", [
    ("bipartite5", 2, (2, 17), 60),
    ("multipartite4", 2, (10, 1, 1), 60),
    ("bipartite5", 3, (3, 65), 20),
    ("multipartite4", 3, (2, 2, 82), 40),
])
def test_the_arithmetic_bound_is_a_capacity_term_of_the_twin_paths(scenario, k, sizes,
                                                                    samples):
    # `_twin_plan`'s docstring: the bound is the verifier's capacity term of
    # one region on the twin pair's paths (the small part on K_{s,m}, the
    # whole vertex set on t >= 3 parts), equal to it when every small-part
    # vertex lies on a twin path.
    spec = PartitionSpec(sizes)
    plan = _twin_plan(scenario, k, spec)
    small = sum(spec.part_masks) - spec.part_masks[plan.big]
    region = small if spec.t == 2 else sum(spec.part_masks)
    covered = 0
    for seed, cert in enumerate(sample_certificates(scenario, k, sizes, samples, seed=0)):
        coloring = random_coloring(spec, plan.palette, seed)
        masks = [sum(1 << w for w in p[1:-1])
                 for p in enumerate_rainbow_paths(coloring, *cert["twins"])]
        table = next(t for t in _capacity_tables(masks, spec.part_masks) if t[0] == region)
        avail = reduce(or_, masks, 0)
        term = _capacity_bound((table,), avail, (1 << len(masks)) - 1)
        bound = cert["arithmetic_bound"]
        assert cert["max_disjoint_rainbow_paths"] <= term <= bound, seed
        if avail & small == small:
            covered += 1
            assert term == bound, seed
    assert covered > 0  # the equality case was reached


def test_sample_certificates_logs_its_run(caplog):
    with caplog.at_level(logging.DEBUG, logger="rainbowk.bounds"):
        sample_certificates("bipartite5", 2, (2, 17), 20, seed=0)
    assert caplog.messages == [
        "lower-bound: bipartite5 on (2, 17) at k = 2: 20 samples, twin counts {0: 6, 1: 14}"]
