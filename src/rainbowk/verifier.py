"""Exact decision of rainbow k-connectivity for arbitrary colorings.

Per vertex pair: enumerate every rainbow path (length capped at the palette
size, which is safe by pigeonhole), then compute a maximum packing of paths
with pairwise disjoint interiors. Packing is a small set-packing instance
solved exactly by branch and bound over the enumerated path list, branching
on the lowest-id internal vertex still in contention. A greedy first-fit
pass seeds the bound, so the explicit constructions verify without search.

`pair_count` is the one per-pair query (the oracle maps it over its own
pair order) and `fan_out` the one process fan-out (the lower-bound sampler
maps its seeds through it).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .core import (
    Coloring,
    PartitionSpec,
    VerificationReport,
    VertexPath,
    WitnessFamily,
    all_pairs,
    ceil_div,
)


@dataclass(frozen=True)
class PairQuery:
    """One pair to check: decide `count >= k` or maximize the packing size."""

    u: int
    v: int
    mode: str = "decision"
    k: int | None = None

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError("pair endpoints must differ")
        if self.mode not in ("decision", "maximize"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "decision" and (self.k is None or self.k < 1):
            raise ValueError("decision mode needs k >= 1")


def enumerate_rainbow_paths(
    coloring: Coloring, u: int, v: int, max_len: int | None = None
) -> list[VertexPath]:
    """All rainbow u->v paths with at most max_len edges, in lexicographic
    vertex order. Each path is reported once, oriented from u to v.

    Colors come from `coloring.rows` by index. A path one edge short of the
    cap is only tried against v, since any other step could not end there.
    Steps from a partial path P go in ascending x, so P + (v,) follows the
    paths through P + (x,) for x < v and precedes those for x > v; no path
    runs past v, so the output is lexicographic without a sort."""
    spec = coloring.spec
    if u == v:
        raise ValueError("pair endpoints must differ")
    spec.part_of(u), spec.part_of(v)  # id validation
    cap = coloring.num_colors
    if max_len is not None:
        cap = min(max_len, cap)
    rows = coloring.rows
    out: list[VertexPath] = []

    def extend(path: tuple[int, ...], used_colors: frozenset[int]) -> None:
        w = path[-1]
        if len(path) == cap:
            # The next edge is the last one allowed: only the step to v counts.
            col = rows[w][v]
            if col and col not in used_colors:
                out.append(path + (v,))
            return
        # Color 0 marks same-part pairs, the step back to w included.
        for x, col in enumerate(rows[w]):
            if not col or col in used_colors or x in path:
                continue
            if x == v:
                out.append(path + (x,))
            else:
                extend(path + (x,), used_colors | {col})

    if cap >= 1:
        extend((u,), frozenset())
    return out


def _max_packing(
    paths: list[VertexPath], target: int | None
) -> list[int]:
    """Indices of a maximum subset of paths with pairwise disjoint interiors.

    Exact branch and bound; with a target it stops as soon as `target`
    pairwise disjoint paths are found. A greedy first-fit pass runs first,
    and the conflict matrix, the per-vertex path sets and the pivot order
    are built only when it falls short of the target (or there is none):
    only `search` reads them, so a target the greedy pass reaches returns
    the same paths without them.
    """
    m = len(paths)
    masks = [0] * m
    for i, p in enumerate(paths):
        for w in p[1:-1]:
            masks[i] |= 1 << w

    # Greedy first-fit seed.
    best: list[int] = []
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
    through: dict[int, int] = {}
    for i, p in enumerate(paths):
        for w in p[1:-1]:
            through[w] = through.get(w, 0) | 1 << i
    contended = sorted(through)

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def search(cand: int, chosen: list[int]) -> None:
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


def max_disjoint_rainbow(
    coloring: Coloring, query: PairQuery
) -> tuple[int, WitnessFamily]:
    """Size of a maximum packing of internally disjoint rainbow u,v-paths,
    plus a family attaining it. Decision mode caps the count at k."""
    paths = enumerate_rainbow_paths(coloring, query.u, query.v)
    target = query.k if query.mode == "decision" else None
    picked = _max_packing(paths, target)
    family = WitnessFamily(
        query.u,
        query.v,
        tuple(paths[i] for i in picked),
        provenance=f"verifier {query.mode}",
    )
    return len(picked), family


def pair_count(
    coloring: Coloring, k: int, mode: str, pair: tuple[int, int]
) -> int:
    """Disjoint rainbow path count of one pair: capped at k in decision
    mode, the maximum in maximize mode."""
    query = PairQuery(pair[0], pair[1], mode=mode, k=k if mode == "decision" else None)
    return max_disjoint_rainbow(coloring, query)[0]


def fan_out(work, items, jobs: int) -> list:
    """`list(map(work, items))`, spread over a process pool when jobs > 1.

    `work` must be picklable (a module-level function or a partial of one).
    Workers are capped at the item count and the CPU count: every item is
    computed the same way wherever it runs and results come back in item
    order, so the list is identical for any jobs count."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(work, items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, items, chunksize=ceil_div(len(items), 4 * workers)))


def verify_rainbow_k_connected(
    coloring: Coloring, k: int, mode: str = "decision", jobs: int = 1
) -> VerificationReport:
    """Check that every unordered vertex pair admits k pairwise internally
    disjoint rainbow paths. Results are identical for any jobs count."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pairs = list(all_pairs(coloring.spec))
    counts = dict(zip(pairs, fan_out(partial(pair_count, coloring, k, mode), pairs, jobs)))
    failing = next((p for p in pairs if counts[p] < k), None)
    best = None
    if failing is not None:
        _, best = max_disjoint_rainbow(
            coloring, PairQuery(failing[0], failing[1], mode="maximize")
        )
    return VerificationReport(
        k=k,
        ok=failing is None,
        counts=counts,
        capped=(mode == "decision"),
        failing_pair=failing,
        failing_family=best,
    )


def structural_connectivity(spec: PartitionSpec) -> int:
    """Vertex connectivity of the complete multipartite graph: n - max n_i.

    Removing all parts but the largest isolates it, and no smaller cut
    works because any two leftover vertices share a neighbor or an edge.
    Used to pre-reject k for which rainbow k-connectivity is impossible.
    """
    return spec.n - max(spec.sizes)
