"""Independent oracles used to cross-check the library, written from the
definitions without reusing library internals, and unpruned references for
the library's pruned loops (`unpruned_max_packing`, `full_pair_report`,
`reference_first_failing_pair`, `unpruned_rc_k_exact`), which reuse only
the per-pair query or the enumerator they do not prune, and of its batched
draw (`randrange_coloring`). `oracle_walk` runs the oracle's walk at one
palette size, with the reference pair loop if asked, and reads its counts.
`canonical_form` is the normal form that enumerator's orbits are checked
against. `rc_1_closed_form` is a published value the oracle is checked
against. `child_env` is the environment for tests that run a child process."""

import logging
import os
import random
from itertools import combinations, permutations
from pathlib import Path
from unittest.mock import patch

import rainbowk
from rainbowk import oracle
from rainbowk.core import Coloring, PartitionSpec, VerificationReport, all_pairs
from rainbowk.oracle import enumerate_colorings_canonical, family_holds, path_by_edge
from rainbowk.verifier import PairQuery, _path_cap, _settle, max_disjoint_rainbow

# The directory holding the rainbowk under test: this checkout's `src`, an
# other tree's on PYTHONPATH, or the installed package's.
SRC = Path(rainbowk.__file__).resolve().parents[1]


def child_env(drop=()):
    """os.environ without the names in `drop`, with the directory of the
    rainbowk under test (`SRC`) first on PYTHONPATH, so a child process
    imports the same package as the tests."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def brute_force_rainbow_paths(coloring: Coloring, u: int, v: int, max_len: int):
    """All rainbow u->v paths with at most max_len edges, by filtering every
    injective vertex tuple.

    The path logic is independent of the library. The colors come from
    `coloring.assignment`, a view of the coloring's row table; that the
    table holds the colors the coloring was built from is checked by
    tests/test_core.py::test_row_table_matches_assignment."""
    spec = coloring.spec
    assignment = coloring.assignment
    others = [w for w in range(spec.n) if w not in (u, v)]
    found = []
    for length in range(1, max_len + 1):
        for mids in permutations(others, length - 1):
            seq = (u,) + mids + (v,)
            colors = []
            ok = True
            for a, b in zip(seq, seq[1:]):
                if spec.part_of(a) == spec.part_of(b):
                    ok = False
                    break
                colors.append(assignment[(a, b) if a < b else (b, a)])
            if ok and len(set(colors)) == len(colors):
                found.append(seq)
    return sorted(found)


def naive_max_disjoint(paths) -> int:
    """Maximum number of paths with pairwise disjoint interiors, by checking
    every subset."""
    interiors = [set(p[1:-1]) for p in paths]
    best = 0
    for r in range(len(paths), 0, -1):
        if r <= best:
            break
        for subset in combinations(range(len(paths)), r):
            if all(
                not (interiors[i] & interiors[j])
                for i, j in combinations(subset, 2)
            ):
                best = max(best, r)
                break
    return best


def unpruned_max_packing(paths, target):
    """Indices of a maximum subset of paths with pairwise disjoint interiors:
    the verifier's branch and bound with its only cut the trivial one, that
    the chosen paths plus every candidate cannot beat the best packing. The
    reference the capacity-bounded search is compared against, indices
    included: picked in branch order here, sorted there."""
    m = len(paths)
    masks = [0] * m
    for i, p in enumerate(paths):
        for w in p[1:-1]:
            masks[i] |= 1 << w

    # Greedy first-fit seed.
    best = []
    used = 0
    for i in range(m):
        if masks[i] & used == 0:
            best.append(i)
            used |= masks[i]
            if target is not None and len(best) >= target:
                return best[:target]

    conflicts = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if masks[i] & masks[j]:
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    through = {}
    for i, p in enumerate(paths):
        for w in p[1:-1]:
            through[w] = through.get(w, 0) | 1 << i
    contended = sorted(through)

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def search(cand, chosen):
        nonlocal best
        if target is not None and len(best) >= target:
            return
        if len(chosen) + cand.bit_count() <= len(best):
            return
        pivot = None
        for w in contended:
            if (through[w] & cand).bit_count() >= 2:
                pivot = w
                break
        if pivot is None:
            # Remaining candidates are pairwise disjoint: take them all.
            full = chosen + list(bits(cand))
            if len(full) > len(best):
                best = full
            return
        tm = through[pivot] & cand
        for i in bits(tm):
            search(cand & ~conflicts[i] & ~(1 << i), chosen + [i])
            if target is not None and len(best) >= target:
                return
        search(cand & ~tm, chosen)

    search((1 << m) - 1, [])
    if target is not None:
        return best[:target]
    return best


def full_pair_report(coloring: Coloring, k: int, mode: str) -> VerificationReport:
    """The verifier's report from a query of every pair, with no twin
    quotient: the reference the one-pair-per-orbit loop is compared
    against. The failing pair's family comes from a maximize query."""
    counts = {}
    for u, v in all_pairs(coloring.spec):
        query = PairQuery(u, v, k=k if mode == "decision" else None)
        counts[(u, v)] = max_disjoint_rainbow(coloring, query)[0]
    failing = next((p for p in counts if counts[p] < k), None)
    best = None
    if failing is not None:
        _, best = max_disjoint_rainbow(coloring, PairQuery(*failing))
    return VerificationReport(k=k, counts=counts, capped=(mode == "decision"),
                              failing_family=best)


def canonical_form(coloring: Coloring) -> Coloring:
    """Relabel colors by first appearance along the lex edge order (the
    restricted-growth normal form of the coloring's orbit)."""
    relabel: dict[int, int] = {}
    assignment = {}
    for e in coloring.spec.edges():
        c = coloring.color(*e)
        if c not in relabel:
            relabel[c] = len(relabel) + 1
        assignment[e] = relabel[c]
    return Coloring(coloring.spec, len(relabel), assignment)


def reference_first_failing_pair(coloring, k, max_len=None, settled=None, recolored=None):
    """`oracle.first_failing_pair` without its edge-to-pair index: every
    pair in lex order, each settled by its kept family (kept in a dict by
    pair, `settled.by_pair`) while `family_holds`, else by a query. It
    adds the same counts to `settled`: pairs queried, pairs inherited, and
    the kept families with a path through `recolored`, which
    `family_holds` checks. It shares `family_holds` and `path_by_edge`
    with the oracle, and queries through `verifier._settle` at the cap
    `verifier._path_cap` gives, as the oracle does: what it checks is the
    index, which pairs a node visits."""
    families = {} if settled is None else vars(settled).setdefault("by_pair", {})
    failing, queried, inherited, rechecked = None, 0, 0, 0
    for pair in all_pairs(coloring.spec):
        kept = families.get(pair)
        if kept is not None:
            rechecked += recolored in kept
            if family_holds(coloring, kept, recolored):
                inherited += 1
                continue
        queried += 1
        picked = _settle(coloring, *pair, k, _path_cap(coloring, max_len))
        if len(picked) < k:
            failing = pair
            break
        families[pair] = path_by_edge(picked)
    if settled is not None:
        settled.queried += queried
        settled.inherited += inherited
        settled.rechecked += rechecked
    return failing


def oracle_walk(spec: PartitionSpec, k: int, num_colors: int, loop=None):
    """(witness or None, debug lines) of the oracle's walk with exactly
    num_colors colors, `oracle._first_passing`, with `loop` in place of
    `first_failing_pair` when given."""
    lines = []
    handler = logging.Handler()
    handler.emit = lambda record: lines.append(record.getMessage())
    logger = logging.getLogger("rainbowk.oracle")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        with patch.object(oracle, "first_failing_pair", loop or oracle.first_failing_pair):
            witness = oracle._first_passing(spec, k, num_colors)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return witness, lines


def unpruned_rc_k_exact(spec: PartitionSpec, k: int, max_colors: int):
    """(value, witness) of the oracle without the relaxation cut: for each
    palette size, every restricted-growth coloring with exactly that many
    colors, checked one by one by the reference pair loop, the first that
    passes being the witness. (None, None) when none passes up to
    max_colors."""
    for num_colors in range(1, max_colors + 1):
        for coloring in enumerate_colorings_canonical(spec, num_colors,
                                                      min_colors=num_colors):
            if reference_first_failing_pair(coloring, k) is None:
                return num_colors, coloring
    return None, None


def randrange_coloring(spec: PartitionSpec, num_colors: int, seed: int) -> Coloring:
    """`bounds.random_coloring` as one randrange call per edge, in lex edge
    order: the stream the batched draw must reproduce."""
    rng = random.Random(seed)
    return Coloring(spec, num_colors,
                    {e: rng.randrange(1, num_colors + 1) for e in spec.edges()})


def _connected_after_removal(spec: PartitionSpec, removed: set) -> bool:
    remaining = [w for w in range(spec.n) if w not in removed]
    if len(remaining) <= 1:
        return True
    seen = {remaining[0]}
    stack = [remaining[0]]
    while stack:
        w = stack.pop()
        for x in remaining:
            if x not in seen and spec.part_of(x) != spec.part_of(w):
                seen.add(x)
                stack.append(x)
    return len(seen) == len(remaining)


def assert_vertex_connectivity(spec: PartitionSpec, claim: int) -> None:
    """No cutset smaller than `claim` exists, and one of size `claim` does
    (or the graph is complete and claim == n - 1)."""
    vertices = list(range(spec.n))
    for size in range(claim):
        for subset in combinations(vertices, size):
            assert _connected_after_removal(spec, set(subset)), (
                f"cutset {subset} smaller than claimed connectivity {claim}"
            )
    if claim >= spec.n - 1:
        return  # complete graph: connectivity is n - 1 by convention
    assert any(
        not _connected_after_removal(spec, set(subset))
        for subset in combinations(vertices, claim)
    ), f"no cutset of size {claim} found"


def all_colorings(spec: PartitionSpec, num_colors: int):
    """Every coloring of the spec with palette exactly 1..num_colors
    (image may be smaller)."""
    from itertools import product

    edges = list(spec.edges())
    for colors in product(range(1, num_colors + 1), repeat=len(edges)):
        yield Coloring(spec, num_colors, dict(zip(edges, colors)))


def _ceil_root(b: int, a: int) -> int:
    """ceil(b^(1/a)) in integers: the least r with r^a >= b."""
    r = 1
    while r**a < b:
        r += 1
    return r


def rc_1_closed_form(sizes) -> int:
    """rc_1 = rc of the complete multipartite graph with these part sizes,
    from Chartrand, Johns, McKeon & Zhang 2008, "Rainbow connection in
    graphs" (Math. Bohemica 133):
    - K_{s,t} with 2 <= s <= t: min(ceil(t^(1/s)), 4);
    - t >= 3 parts, the largest of size m and the others summing to s:
      1 if m = 1, 2 if m >= 2 and s > m, min(ceil(m^(1/s)), 3) otherwise.
    Raises ValueError on a bipartite graph with a part of one vertex, which
    the form does not cover."""
    sizes = sorted(sizes)
    if len(sizes) == 2:
        s, t = sizes
        if s < 2:
            raise ValueError(f"K_{{{s},{t}}} is outside the closed form")
        return min(_ceil_root(t, s), 4)
    m, s = sizes[-1], sum(sizes[:-1])
    if m == 1:
        return 1
    if s > m:
        return 2
    return min(_ceil_root(m, s), 3)
