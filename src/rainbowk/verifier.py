"""Exact decision of rainbow k-connectivity for arbitrary colorings.

Per vertex pair: enumerate every rainbow path (length capped at the palette
size, which is safe by pigeonhole), then compute a maximum packing of paths
with pairwise disjoint interiors. A greedy first-fit pass over the list
seeds the best packing. When every path has at most two interior vertices
(every path of a coloring with at most 3 colors), packing is a maximum
matching, solved exactly in polynomial time; otherwise it is a small
set-packing instance solved exactly by branch and bound over the path
list, branching on the lowest-id internal vertex still in contention.

A decision query (target k) first runs that first-fit without the list:
`_first_fit` walks the depth-first search of
`enumerate_rainbow_paths`, in the same lexicographic order, and picks each
path it reaches, until it holds k. It differs from the full search in two
ways, and neither changes which paths are picked:
- It never steps onto a vertex in the interior of a picked path. Every path
  through such a step has that vertex in its interior, and first-fit
  rejects a path whose interior meets a picked one; picked interiors only
  grow, so the whole subtree is rejected. The endpoints are in no interior,
  so the step onto v is never skipped.
- After each pick it goes back to the root and on to the next neighbour of
  u. A pick (u, x, ..., v) with x != v puts x among the picked interiors,
  so every later path in x's subtree is rejected. The direct edge (u, v) is
  the only path of its root step, at position v, where the list has it too.
Each skipped path is one first-fit rejects, and the walk reaches the others
in list order, so it picks the paths, in the order, that the greedy pass
over the full list picks. When it holds k paths the query is settled with
them, the family the enumerate-and-pack route returns (the packing stops at
its greedy seed); when it ends short of k, the query falls back to that
route, whose search may still find k.

Each walk closes a path at the last step the cap allows: from a partial
path two edges short of the cap, each step x is tested together with its
edge xv. That step scans only `_close_steps`, v and the vertices outside
v's part, not the whole row of the path's last vertex, and the result is
the same:
- Colorings are total, so the edge xv exists exactly when x lies outside
  v's part; no other x != v can close the path.
- v lies inside its own part's block of ids, so the direct step onto v
  keeps its place between the steps x < v and x > v.
So the narrowed scan meets the same candidates in the same ascending order,
and the first-fit walk picks the same paths. On K_{2,2,82} a path toward a
big-part vertex has 5 such candidates where its row has 86 entries.

The enumeration closes the last two steps in place. From a partial path P
three edges short of the cap (the root itself when the cap is 3), each
step x with color c = c(P[-1] x) is followed straight into x's close
candidates y, where the walk one level down would call itself on P + (x,)
with the colors `used` | {c}. The loop runs that call's scan and tests:
- c(xy) is nonzero (y outside x's part, which also rules out y = x), not
  c, and not in `used`: that is c(xy) not in `used` | {c};
- y is not on P: with y != x, that is y not on P + (x,);
- y = v ends the path P + (x, v);
- otherwise c(yv) must not be c(xy), c or in `used`: the call's test of
  c(yv) against c(xy) and `used` | {c}.
The candidates are the same, met in the same ascending order, and appended
where the call would append them, so the list is the same path for path;
the steps x themselves are met as before. Only the call, the tuple P + (x,)
and the set `used` | {c}, one each per step at that level, are gone.

The first-fit walk keeps its one-step close. Every decision query runs it,
most of them at cap 2, and measured prototypes that changed that walk's
loop made cap-2 decision queries 7-17% slower. Its queries with a cap of 4
or more, where a second close level would save calls, are a handful of
twin representatives.

The search prunes with an interior-capacity bound, the verifier's form of
the paper's interior-counting argument. A region R is one part of the
coloring's spec or the whole vertex set; a path's weight in R is the number
of its interior vertices in R; avail(cand) is the union of the interiors of
the candidate paths cand. Paths of a packing drawn from cand have pairwise
disjoint interiors, all inside avail(cand), so their weights in R sum to at
most |avail(cand) & R|. Any c of them weigh at least the c smallest weights
of cand, so the packing has at most as many paths as the smallest weights
that fit that sum (zero-weight paths, such as the direct edge, are free).
The minimum of that count over the regions, and of |cand|, bounds every
packing drawn from cand; `_capacity_bound` computes it.

Paths with at most two interior vertices pack by maximum matching (Edmonds
1965, "Paths, trees, and flowers"). Let H be the graph on the interior
vertices with one edge per path:
- a 3-edge path (u, x, y, v) gives the edge xy;
- a 2-edge path (u, w, v) gives an edge from w to a pendant vertex that
  only w has (no other path is (u, w, v), so the pendant has degree 1);
- the direct edge (u, v) gives none: its interior is empty, so it is
  disjoint from every path and free.
Two paths' interiors meet exactly when their edges share an end: a shared
end is an interior vertex, as no two edges share a pendant, and a shared
interior vertex is an end of both. Two paths with the same interior pair,
(u, x, y, v) and (u, y, x, v), give the same edge and conflict, so no
packing holds both and either may stand for the other; the first in list
order is kept. So packings without the direct edge are the matchings of
H, and the largest packing is nu(H) plus the direct edge when it is
listed. `_max_matching` grows a maximum matching from the greedy packing,
which is a matching of H: greedy never picks a second copy of a pair, as
it conflicts wherever the first did. It searches each exposed vertex once
for an augmenting path, contracting odd cycles into blossoms, and flips
each path it finds. By Berge's theorem a matching is maximum exactly when
no augmenting path is left, and a vertex with no augmenting path keeps
none after later augmentations, so one pass over the vertices ends at a
maximum, in O(V^3) time. When greedy is already maximum nothing augments
and the family is greedy's, the one branch and bound returns too;
otherwise it is a maximum family whose paths may differ from branch and
bound's. Either route lists its family in list order (`_max_packing`),
and counts and verdicts are the same either way.

`verify_rainbow_k_connected` queries one pair per orbit of the coloring's
twin symmetry. Color twins are vertices with equal `rows` entries
(`core.twin_classes`); they lie in one part. The quotient is sound in three
steps:
- The transposition of two twins a, b is a color-preserving automorphism:
  it fixes every part, an edge bw has color rows[b][w] = rows[a][w], the
  color of aw, and the pair ab itself is no edge. It therefore maps the
  rainbow u,v-paths onto the rainbow paths of the image pair, disjoint
  interiors to disjoint interiors, so both pairs have the same maximum.
- These transpositions generate the product of the symmetric groups on the
  twin classes. Its orbits on unordered pairs are C x D for classes C != D
  and the pairs inside C: Sym(C) x Sym(D) is transitive on C x D, Sym(C)
  on the 2-subsets of C, and no element moves a vertex out of its class.
- Maximize mode counts the maximum, decision mode min(k, maximum); both
  are constant on each orbit.
Each orbit is queried at its lexicographically first pair, (min C, min D)
or the two smallest members of C, and its count is copied to the others.
The first failing pair in lexicographic order is then a representative, so
the report is the one the full pair loop gives, failing family included.

The report's failing family is the maximum packing a maximize query of
that pair finds, and the loop takes it from the pair's own query, in
either mode, without a second search. A decision query that ends below k
returns the family of its fallback, `_max_packing(paths, k, ...)`, on the
list a maximize query enumerates. That search never holds k paths, so its
target never stops it: it runs the maximize search step for step (the same
greedy seed, root exits, pivots and cuts, or augmentations), and `best[:k]`
is `best`. Only the label differs, and the loop writes `verifier maximize`.

`max_disjoint_rainbow` is the one public per-pair query: it checks its
query once and settles it with `_settle`. The pair loop calls `_settle`
itself, through `_loop_query`, on values checked once per run (k by
`verify_rainbow_k_connected`, the palette by `Coloring`, the pairs by
`all_pairs`), so it builds no `PairQuery` and a `WitnessFamily` only for a
pair below k. The oracle's `first_failing_pair` calls `_settle` the same
way, with its relaxations' path-length cap (`_path_cap`, the one cap
rule), and builds neither. `fan_out` is the one process fan-out (the
lower-bound sampler maps its seeds through it)."""

from __future__ import annotations

import logging
import os
from collections.abc import Iterator
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
    check_int,
    check_pair,
    twin_classes,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairQuery:
    """One pair to check: decide `count >= k`, or maximize the packing size
    when k is None, over rainbow paths of at most palette-size edges (a cap
    pigeonhole makes safe). A plain record, checked once by
    `max_disjoint_rainbow`: a decision query's k, then its pair
    (`_check_ids`), before the first-fit walk; a maximize query's pair in
    the enumeration. `verify`'s pair loop builds none (`_loop_query`)."""

    u: int
    v: int
    k: int | None = None

    @property
    def mode(self) -> str:
        """"decision" with a k, "maximize" without one."""
        return "maximize" if self.k is None else "decision"


def _check_ids(coloring: Coloring, u: int, v: int) -> None:
    """Raise ValueError unless u and v are distinct vertex ids of the
    coloring (`core.check_pair`, then the spec's range): a bool would pass
    for vertex 0 or 1, and rows[-1] would answer silently."""
    check_pair(u, v)
    coloring.spec.part_of(u), coloring.spec.part_of(v)


def _path_cap(coloring: Coloring, max_len: int | None) -> int:
    """Edge cap of the rainbow paths to search: the palette size, or max_len
    when smaller. Raises ValueError unless max_len is None or an integer
    >= 1 (`core.check_int`), so the cap is at least 1: a float would fail
    only inside the walk."""
    cap = coloring.num_colors
    return cap if max_len is None else min(check_int(max_len, "max_len"), cap)


def _close_steps(coloring: Coloring, v: int) -> list[int]:
    """The vertices that can end the last step of a path toward v, in
    ascending order: v itself and every vertex outside v's part (module
    docstring)."""
    spec = coloring.spec
    part = spec.part_of(v)
    start = spec.offsets[part]
    return [*range(start), v, *range(start + spec.sizes[part], spec.n)]


def enumerate_rainbow_paths(
    coloring: Coloring, u: int, v: int, max_len: int | None = None
) -> list[VertexPath]:
    """All rainbow u->v paths with at most max_len edges, in lexicographic
    vertex order. Each path is reported once, oriented from u to v. Decision
    queries list them only when the first-fit walk falls short of k.

    Colors come from `coloring.rows` by index. The last two steps the cap
    allows are closed in place (module docstring): from a partial path P
    three edges short of the cap, each step x is followed straight into
    its `_close_steps` candidates y, and y != v is kept only together with
    its edge yv, so no call is made for P + (x,) or P + (x, y). Steps from
    a partial path P go in ascending x, so P + (v,) follows the paths
    through P + (x,) for x < v and precedes those for x > v; no path runs
    past v, so the output is lexicographic without a sort."""
    _check_ids(coloring, u, v)
    cap = _path_cap(coloring, max_len)
    rows = coloring.rows
    if cap == 1:
        # One edge: only the direct one can qualify.
        return [(u, v)] if rows[u][v] else []
    to_v = rows[v]
    closers = _close_steps(coloring, v)
    if cap == 2:
        # The root closes in one step: x != v lies outside v's part, so the
        # edge xv exists. Color 0 marks same-part pairs, u itself included.
        row = rows[u]
        return [(u, v) if x == v else (u, x, v)
                for x in closers if row[x] and (x == v or to_v[x] != row[x])]
    out: list[VertexPath] = []

    def extend(path: tuple[int, ...], used_colors: frozenset[int]) -> None:
        close = len(path) == cap - 2
        # Color 0 marks same-part pairs, the step back to path[-1] included.
        for x, col in enumerate(rows[path[-1]]):
            if not col or col in used_colors or x in path:
                continue
            if x == v:
                out.append(path + (x,))
            elif not close:
                extend(path + (x,), used_colors | {col})
            else:
                # The steps xy and yv are the last two allowed: test them
                # here, against col as well as the colors before it.
                row = rows[x]
                for y in closers:
                    mid = row[y]
                    if not mid or mid == col or mid in used_colors or y in path:
                        continue
                    if y == v:
                        out.append(path + (x, y))
                    else:
                        end = to_v[y]
                        if end != mid and end != col and end not in used_colors:
                            out.append(path + (x, y, v))

    extend((u,), frozenset())
    return out


def _first_fit(coloring: Coloring, u: int, v: int, k: int, cap: int) -> list[VertexPath]:
    """The paths, at most k, that greedy first-fit picks from
    `enumerate_rainbow_paths(coloring, u, v, cap)`: each path whose
    interior misses the interiors picked before it, in list order. The
    paths are not listed: the walk of the module docstring searches
    depth-first for the lexicographically first path that avoids the picked
    interiors, one neighbour of u after another, and stops at k picks.
    The values must be checked: k an int >= 1, u and v distinct vertex ids,
    and cap an edge cap `_path_cap` gives."""
    rows = coloring.rows
    if cap == 1:
        return [(u, v)] if rows[u][v] else []
    to_v = rows[v]
    # The cap-2 root closes in place, over all of rows[u]: only deeper
    # walks reach the close level.
    closers = _close_steps(coloring, v) if cap > 2 else ()
    used: set[int] = set()  # interiors of the picked paths

    def first(path: tuple[int, ...], used_colors: frozenset[int]) -> VertexPath | None:
        row = rows[path[-1]]
        if len(path) == cap - 1:
            for x in closers:
                col = row[x]
                if not col or col in used_colors or x in path or x in used:
                    continue
                if x == v:
                    return path + (x,)
                end = to_v[x]
                if end != col and end not in used_colors:
                    return path + (x, v)
            return None
        for x, col in enumerate(row):
            if not col or col in used_colors or x in path or x in used:
                continue
            if x == v:
                return path + (x,)
            found = first(path + (x,), used_colors | {col})
            if found:
                return found
        return None

    picked: list[VertexPath] = []
    for x, col in enumerate(rows[u]):
        if not col or x in used:
            continue
        if x == v:
            found = (u, v)
        elif cap == 2:  # the root step closes in place, as in the enumeration
            end = to_v[x]
            found = (u, x, v) if end and end != col else None
        else:
            found = first((u, x), frozenset((col,)))
        if found:
            picked.append(found)
            if len(picked) == k:
                break
            used.update(found[1:-1])
    return picked


def _capacity_tables(
    masks: list[int], part_masks: tuple[int, ...]
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Per region (each part, then the whole vertex set), its vertex mask and
    the paths grouped by their weight in it, lightest group first. Path i
    is bit i of a group, and masks[i] is the vertex mask of its interior.
    The tables come one region at a time, so a caller can stop at the first
    region that settles its question without building the others."""
    for region in part_masks + (sum(part_masks),):
        groups: dict[int, int] = {}
        for i, mask in enumerate(masks):
            weight = (mask & region).bit_count()
            groups[weight] = groups.get(weight, 0) | 1 << i
        yield region, sorted(groups.items())


def _capacity_bound(tables, avail: int, cand: int) -> int:
    """Upper bound on the size of any packing drawn from the paths in cand:
    the module docstring's interior-capacity bound over the regions of
    `tables`. avail must hold the interior of every path in cand; their
    union gives the tightest bound."""
    bound = cand.bit_count()
    for region, groups in tables:
        room = (avail & region).bit_count()
        fit = 0
        for weight, group in groups:
            have = (group & cand).bit_count()
            take = have if weight == 0 else min(have, room // weight)
            fit += take
            if take < have or fit >= bound:
                break
            room -= take * weight
        bound = min(bound, fit)
    return bound


def _max_packing(
    paths: list[VertexPath], target: int | None, part_masks: tuple[int, ...]
) -> list[int]:
    """Indices of a maximum subset of paths with pairwise disjoint interiors,
    in ascending order: every exit returns the family in list order, at
    most `target` indices.

    Exact: a maximum matching when no path has more than two interior
    vertices (`_max_matching`), branch and bound otherwise; with a target
    either stops as soon as `target` pairwise disjoint paths are found.
    `part_masks` are the parts' vertex masks, the regions of the capacity
    bound beside the whole vertex set.

    A greedy first-fit pass runs first. With a target, this function runs
    only as `_settle`'s fallback, after its first-fit walk fell short of
    the target, so the pass picks the walk's paths again, fewer than the
    target, and the matching or the search starts from them. When
    greedy took every path, no packing has more, and it is returned. Paths
    of at most two interior vertices then go to the matching, which returns
    greedy's picks whenever they are maximum, so the search's capacity exit
    would change no family there. The search has that second root exit, so
    that queries greedy settles build no search tables: greedy reached the
    capacity bound of the whole path set, which holds for every packing
    (module docstring), so none is larger. The exit builds the capacity
    tables one region at a time, the parts first, then the whole vertex set,
    and returns at the first region whose term is at most len(best). That is
    exact: the bound is the minimum of m and the regions' terms, and
    len(best) < m here, so it is at most len(best) exactly when one region's
    term is. The lower-bound sampler's twin queries that reach this exit all
    settle at a small part, most at the first. Only when no region settles
    the root do all the tables exist, and the search takes them.
    Otherwise the per-vertex path sets are built, and from them each path's
    conflicts: the paths through its interior, itself included unless the
    interior is empty, which no branched path's is (each comes from a
    vertex's path set). Each search node is cut when the paths it has
    chosen plus the capacity bound of its candidates cannot beat the best
    packing found so far. Every packing reachable from a node is its chosen
    paths plus a packing drawn from its candidates, so a cut subtree holds
    no packing larger than `best`. `best` changes only on a strict
    improvement, so the search holds the same `best` at every step as the
    same search without cuts, and keeps the same indices. It picks them in
    branch order and sorts them on the way out; greedy's picks and the
    matching's already ascend.
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
    if len(best) == m:
        return best[:target]
    if max(map(len, paths)) <= 4:
        return _max_matching(paths, best, target)
    everything = (1 << m) - 1
    avail = 0
    for mask in masks:
        avail |= mask
    tables = []
    for table in _capacity_tables(masks, part_masks):
        if _capacity_bound((table,), avail, everything) <= len(best):
            return best[:target]
        tables.append(table)

    through: dict[int, int] = {}
    for i, p in enumerate(paths):
        for w in p[1:-1]:
            through[w] = through.get(w, 0) | 1 << i
    conflicts = [0] * m
    for i, p in enumerate(paths):
        for w in p[1:-1]:
            conflicts[i] |= through[w]
    contended = [(w, 1 << w, through[w]) for w in sorted(through)]

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
        avail = 0
        for w, bit, paths_through in contended:
            hit = paths_through & cand
            if hit:
                avail |= bit
                if pivot is None and hit.bit_count() >= 2:
                    pivot = w
        if pivot is None:
            # Remaining candidates are pairwise disjoint: take them all.
            full = chosen + list(bits(cand))
            if len(full) > len(best):
                best = full
            return
        if len(chosen) + _capacity_bound(tables, avail, cand) <= len(best):
            return
        tm = through[pivot] & cand
        for i in bits(tm):
            search(cand & ~conflicts[i], chosen + [i])
            if target is not None and len(best) >= target:
                return
        search(cand & ~tm, chosen)

    search(everything, [])
    return sorted(best[:target])


def _max_matching(paths: list[VertexPath], seed: list[int], target: int | None) -> list[int]:
    """`_max_packing` on paths with at most two interior vertices each: the
    ascending indices of the direct edge and of the paths of a maximum
    matching in the module docstring's graph H, grown from the greedy
    packing `seed` by Edmonds' blossom augmentation. With a target it stops
    augmenting at `target` paths and returns the first `target` indices."""
    node: dict[int, int] = {}  # interior vertex, or -1 - w for w's pendant -> H
    adj: list[list[int]] = []
    edges: list[tuple[int, int, int]] = []  # (a, b, path) per edge ab of H
    pairs: set[tuple[int, int] | int] = set()
    chosen: list[int] = []  # the direct edge, free
    for i, p in enumerate(paths):
        if len(p) == 4:
            x, y = p[1], p[2]
            pair = (x, y) if x < y else (y, x)
        elif len(p) == 3:
            x = p[1]
            y = pair = -1 - x
        else:
            chosen.append(i)
            continue
        if pair in pairs:
            continue  # the first path through the pair stands for both
        pairs.add(pair)
        a = node.get(x)
        if a is None:
            a = node[x] = len(adj)
            adj.append([])
        b = node.get(y)
        if b is None:
            b = node[y] = len(adj)
            adj.append([])
        adj[a].append(b)
        adj[b].append(a)
        edges.append((a, b, i))
    n = len(adj)
    mate = [-1] * n
    seeded = set(seed)
    for a, b, i in edges:
        if i in seeded:
            mate[a], mate[b] = b, a
    size = len(seed)
    for root in range(n):
        if target is not None and size >= target:
            break
        if mate[root] != -1:
            continue
        # An alternating tree from root: parent[y] is the even vertex an odd
        # y was reached from, base[x] the base of the blossom holding x.
        parent = [-1] * n
        base = list(range(n))
        even = [False] * n
        even[root] = True
        queue = [root]
        end = -1
        for x in queue:
            for y in adj[x]:
                if base[x] == base[y] or mate[x] == y:
                    continue
                if y == root or mate[y] != -1 and parent[mate[y]] != -1:
                    # y is even too: the edge closes an odd cycle. Its base is
                    # the first blossom base on x's way to the root that y's
                    # way meets.
                    on_x = [False] * n
                    z = x
                    while True:
                        z = base[z]
                        on_x[z] = True
                        if mate[z] == -1:
                            break
                        z = parent[mate[z]]
                    top = base[y]
                    while not on_x[top]:
                        top = base[parent[mate[top]]]
                    # Link both sides' odd vertices back across the edge, so
                    # they are even now, then contract the cycle into top.
                    inside = [False] * n
                    for z, child in ((x, y), (y, x)):
                        while base[z] != top:
                            inside[base[z]] = inside[base[mate[z]]] = True
                            parent[z] = child
                            child = mate[z]
                            z = parent[child]
                    for z in range(n):
                        if inside[base[z]]:
                            base[z] = top
                            if not even[z]:
                                even[z] = True
                                queue.append(z)
                elif parent[y] == -1:
                    parent[y] = x
                    if mate[y] == -1:
                        end = y
                        break
                    even[mate[y]] = True
                    queue.append(mate[y])
            if end != -1:
                break
        else:
            continue
        # Flip the augmenting path from its exposed end back to the root.
        while end != -1:
            x = parent[end]
            after = mate[x]
            mate[end], mate[x] = x, end
            end = after
        size += 1
    chosen += [i for a, b, i in edges if mate[a] == b]
    chosen.sort()
    return chosen if target is None else chosen[:target]


def _settle(coloring: Coloring, u: int, v: int, k: int | None, cap: int) -> list[VertexPath]:
    """The paths of a maximum packing of internally disjoint rainbow
    u,v-paths of at most cap edges, capped at k paths when k is given, in
    list order. A k is settled by the first-fit walk when it picks k paths;
    only a walk that ends short of k, or a query without k, enumerates the
    paths and searches them (module docstring), and each such fallback is
    logged at debug level.

    With a k, the pair and cap must be checked already: the walk trusts
    them. The enumeration is the public one, which checks both itself."""
    if k is not None:
        picked = _first_fit(coloring, u, v, k, cap)
        if len(picked) == k:
            return picked
    paths = enumerate_rainbow_paths(coloring, u, v, cap)
    if k is not None and logger.isEnabledFor(logging.DEBUG):
        logger.debug("pair (%d, %d): first fit stopped at %d of %d paths; %d enumerated "
                     "paths %s", u, v, len(picked), k, len(paths),
                     "matched" if max(map(len, paths), default=0) <= 4 else "searched")
    return [paths[i] for i in _max_packing(paths, k, coloring.spec.part_masks)]


def max_disjoint_rainbow(
    coloring: Coloring, query: PairQuery
) -> tuple[int, WitnessFamily]:
    """Size of a maximum packing of internally disjoint rainbow u,v-paths,
    plus a family attaining it in list order, both capped at k for a query
    with a k (`_settle`). A decision query's k and pair are checked here,
    before the first-fit walk; a maximize query's pair is checked by the
    enumeration it runs. Either way each value is checked once unless a
    decision query falls back to the enumeration. The cap is the palette
    size, which `Coloring` has checked."""
    u, v, k = query.u, query.v, query.k
    if k is not None:
        check_int(k, "k", below="decision mode needs k >= 1")
        _check_ids(coloring, u, v)
    picked = _settle(coloring, u, v, k, coloring.num_colors)
    return len(picked), WitnessFamily(u, v, tuple(picked), provenance=f"verifier {query.mode}")


def _loop_query(
    coloring: Coloring, k: int, capped: bool, pair: tuple[int, int]
) -> tuple[int, WitnessFamily | None]:
    """The pair loop's query: capped at k, or the maximum when not capped.
    Its values need no check: `verify_rainbow_k_connected` has checked k,
    `Coloring` has checked the palette that gives the cap, and
    `all_pairs` yields distinct in-range int ids. The loop reads only the
    count of a pair that reaches k, so a family is built only for a pair
    below k, in either mode the family of the maximize search (module
    docstring)."""
    u, v = pair
    picked = _settle(coloring, u, v, k if capped else None, coloring.num_colors)
    count = len(picked)
    if count >= k:
        return count, None
    return count, WitnessFamily(u, v, tuple(picked), provenance="verifier maximize")


def fan_out(work, items, jobs: int) -> list:
    """`list(map(work, items))`, spread over a process pool when jobs > 1.

    `work` must be picklable (a module-level function or a partial of one).
    Workers are capped at the item count and the CPU count: every item is
    computed the same way wherever it runs and results come back in item
    order, so the list is identical for any jobs count. The pool is
    imported only when one starts: a process that never fans out does not
    load `multiprocessing`, about a third of the CLI's import time."""
    check_int(jobs, "jobs", below=f"jobs must be >= 1, got {jobs}")
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(work, items))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, items, chunksize=ceil_div(len(items), 4 * workers)))


def verify_rainbow_k_connected(
    coloring: Coloring, k: int, mode: str = "decision", jobs: int = 1
) -> VerificationReport:
    """Check that every unordered vertex pair admits k pairwise internally
    disjoint rainbow paths, querying one pair per twin orbit (module
    docstring). Results are identical for any jobs count."""
    check_int(k, "k", below="k must be >= 1")
    if mode not in ("decision", "maximize"):
        raise ValueError(f"unknown mode {mode!r}")
    pairs = list(all_pairs(coloring.spec))
    classes = twin_classes(coloring)
    class_of = {a: i for i, members in enumerate(classes) for a in members}
    # An orbit is keyed by its unordered class pair. Pairs come in lex
    # order, so the first pair seen of each orbit is its representative.
    reps: dict[tuple[int, int], tuple[int, int]] = {}
    rep_of = []
    for u, v in pairs:
        a, b = class_of[u], class_of[v]
        rep_of.append(reps.setdefault((a, b) if a < b else (b, a), (u, v)))
    logger.debug("verify: %d pairs, %d twin classes, %d representative pairs",
                 len(pairs), len(classes), len(reps))
    rep_pairs = list(reps.values())
    capped = mode == "decision"
    results = dict(zip(rep_pairs, fan_out(partial(_loop_query, coloring, k, capped),
                                          rep_pairs, jobs)))
    counts = {p: results[r][0] for p, r in zip(pairs, rep_of)}
    # The first family held is the first failing pair's, its maximize one.
    best = next((family for _, family in results.values() if family is not None), None)
    return VerificationReport(k=k, counts=counts, capped=capped, failing_family=best)


def structural_connectivity(spec: PartitionSpec) -> int:
    """Vertex connectivity of the complete multipartite graph: n - max n_i.

    Removing all parts but the largest isolates it, and no smaller cut
    works because any two leftover vertices share a neighbor or an edge.
    Used to pre-reject k for which rainbow k-connectivity is impossible.
    """
    return spec.n - max(spec.sizes)
