"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
All checks are combinatorial and exact; there are no tolerances to tune.
"""

import time
from contextlib import contextmanager
from itertools import combinations

from rainbowk.bounds import f_formula, random_coloring, sample_certificates
from rainbowk.constructions import (
    color_2_4_16,
    color_bipartite4,
    color_ctk,
    color_extension,
    color_mnn,
    witness_paths,
)
from rainbowk.core import PartitionSpec, ceil_div, family_is_valid
from rainbowk.oracle import rc_k_exact
from rainbowk.verifier import verify_rainbow_k_connected

CTK_GRID = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 4)]


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description} ({time.time() - start:.1f}s)")
        raise
    print(f"PASS criterion {number}: {description} ({time.time() - start:.1f}s)")


def bipartite_grid():
    for k in (1, 2, 3):
        for a, b in ((2 * k, 2 * k), (2 * k, 2 * k + 1), (2 * k + 1, 2 * k + 3)):
            yield a, b, k


def ctk_grid():
    for t, k in CTK_GRID:
        f = f_formula(k, t)
        for sizes in (tuple([f] * t), tuple([f] * (t - 1) + [f + 2])):
            yield sizes, t, k


def mnn_grid():
    for m in (1, 2, 3, 4):
        yield m, 2
    for m in (1, 5, 16):
        yield m, 4


def extension_chain():
    coloring, meta = color_mnn(2, 2)
    for _ in range(3):
        coloring, meta = color_extension(coloring, 0, 1, base_meta=meta)
        yield coloring, meta


def test_criterion_1_bipartite_upper_bound():
    with criterion(1, "bipartite block coloring verifies at k with exactly 4 colors"):
        for a, b, k in bipartite_grid():
            coloring, _ = color_bipartite4(a, b, k)
            assert coloring.num_colors == 4
            assert coloring.used_colors() == {1, 2, 3, 4}
            assert verify_rainbow_k_connected(coloring, k).ok, (a, b, k)


def test_criterion_2_multipartite_upper_bound():
    with criterion(2, "paired-part coloring verifies at k with at most 3 colors"):
        for sizes, t, k in ctk_grid():
            assert min(sizes) == f_formula(k, t)
            coloring, _ = color_ctk(PartitionSpec(sizes), k)
            assert coloring.num_colors <= 3
            assert verify_rainbow_k_connected(coloring, k).ok, (sizes, k)


def test_criterion_3_even_t_case1_path_count():
    with criterion(3, "even-t same-block families hit the exact interior tally"):
        checked = 0
        for sizes, t, k in ctk_grid():
            if t % 2 == 1:
                continue
            coloring, meta = color_ctk(PartitionSpec(sizes), k)
            s = ceil_div(2 * k, t - 1)
            expected = (t - 1) * s - (1 if s % 2 == 1 else 0)
            part0 = list(coloring.spec.part_members(0))
            for u, v in combinations(part0, 2):
                fam = witness_paths(meta, coloring, u, v, k)
                assert "even-t Case 1" in fam.provenance
                assert family_is_valid(coloring, fam, k)
                assert len(fam.paths) >= k
                tally = len(set().union(*fam.internal_sets()))
                assert tally == expected, (sizes, k, u, v, tally, expected)
                assert tally >= (t - 1) * s - 1
                checked += 1
        assert checked > 0


def test_criterion_4_bipartite_lower_bound_1000_samples():
    with criterion(4, "1000 random 4-colorings of K_{2,17} all certified below k=2"):
        certs = sample_certificates("bipartite5", 2, (2, 17), 1000, seed=0)
        assert len(certs) == 1000
        assert all(c["max_disjoint_rainbow_paths"] <= 1 for c in certs)


def test_criterion_5_multipartite_lower_bound_1000_samples():
    with criterion(5, "1000 random 3-colorings of K_{10,1,1} all certified below k=2"):
        certs = sample_certificates("multipartite4", 2, (10, 1, 1), 1000, seed=0)
        assert len(certs) == 1000
        assert all(c["max_disjoint_rainbow_paths"] <= 1 for c in certs)


def test_criterion_6_rc2_equals_2_families():
    with criterion(6, "bit-string families verify at k=2 with exactly 2 colors"):
        for m, n in mnn_grid():
            coloring, _ = color_mnn(m, n)
            assert coloring.num_colors == 2
            assert coloring.used_colors() == {1, 2}
            assert verify_rainbow_k_connected(coloring, 2).ok, (m, n)
        coloring, _ = color_2_4_16()
        assert coloring.num_colors == 2
        assert coloring.used_colors() == {1, 2}
        assert verify_rainbow_k_connected(coloring, 2).ok


def test_criterion_7_extension_chain():
    with criterion(7, "three extensions of K_{2,2,2} stay rainbow 2-connected"):
        expected = [(3, 3, 2), (4, 4, 2), (5, 5, 2)]
        for (coloring, _), sizes in zip(extension_chain(), expected):
            assert coloring.spec.sizes == sizes
            assert coloring.num_colors == 2
            assert verify_rainbow_k_connected(coloring, 2).ok, sizes


def test_criterion_8_oracle_cross_checks():
    with criterion(8, "exhaustive oracle values match and witnesses re-verify"):
        cases = [
            (PartitionSpec((1, 1, 1)), 1, 3, 1, color_ctk(PartitionSpec((1, 1, 1)), 1)[0]),
            (PartitionSpec((2, 2)), 1, 4, 2, color_bipartite4(2, 2, 1)[0]),
            (PartitionSpec((2, 2, 2)), 2, 2, 2, color_mnn(2, 2)[0]),
        ]
        for spec, k, max_colors, expected, construction in cases:
            result = rc_k_exact(spec, k, max_colors)
            assert result.num_colors == expected, (spec.sizes, k)
            assert result.num_colors <= construction.num_colors
            assert verify_rainbow_k_connected(result, k).ok
            assert verify_rainbow_k_connected(construction, k).ok


def _random_spec(rng) -> PartitionSpec:
    t = rng.randint(2, 3)
    return PartitionSpec(tuple(rng.randint(1, 3) for _ in range(t)))


def test_criterion_9_property_suites():
    import random

    with criterion(9, "witness grids, invariance, monotonicity, pigeonhole"):
        # Witness validity over the full grids of criteria 1-2 and 6-7.
        metas = []
        for a, b, k in bipartite_grid():
            coloring, meta = color_bipartite4(a, b, k)
            metas.append((coloring, meta, k))
        for sizes, t, k in ctk_grid():
            coloring, meta = color_ctk(PartitionSpec(sizes), k)
            metas.append((coloring, meta, k))
        for m, n in mnn_grid():
            coloring, meta = color_mnn(m, n)
            metas.append((coloring, meta, 2))
        coloring, meta = color_2_4_16()
        metas.append((coloring, meta, 2))
        for coloring, meta in extension_chain():
            metas.append((coloring, meta, 2))
        for coloring, meta, k in metas:
            for u, v in combinations(range(coloring.spec.n), 2):
                fam = witness_paths(meta, coloring, u, v, k)
                assert family_is_valid(coloring, fam, k), (meta["tag"], u, v)

        # Color-permutation invariance of verification on 100 random colorings.
        rng = random.Random(2024)
        for i in range(100):
            spec = _random_spec(rng)
            num_colors = rng.randint(1, 4)
            coloring = random_coloring(spec, num_colors, seed=i)
            perm = list(range(1, num_colors + 1))
            rng.shuffle(perm)
            sigma = {j + 1: perm[j] for j in range(num_colors)}
            k = rng.randint(1, 2)
            a = verify_rainbow_k_connected(coloring, k)
            b = verify_rainbow_k_connected(coloring.permuted(sigma), k)
            assert a.ok == b.ok and a.counts == b.counts

        # Monotonicity in k on 100 random colorings.
        for i in range(100):
            spec = _random_spec(rng)
            coloring = random_coloring(spec, rng.randint(1, 4), seed=1000 + i)
            k = rng.randint(1, 3)
            if verify_rainbow_k_connected(coloring, k + 1).ok:
                assert verify_rainbow_k_connected(coloring, k).ok

        # Pigeonhole twin guarantee on 200 random colorings with m > L^|B|.
        from rainbowk.bounds import find_color_twins

        for i in range(200):
            num_colors = rng.randint(2, 4)
            b_size = rng.randint(1, 2)
            m = num_colors**b_size + rng.randint(1, 3)
            spec = PartitionSpec((m, b_size))
            coloring = random_coloring(spec, num_colors, seed=2000 + i)
            assert find_color_twins(coloring, 0) is not None
