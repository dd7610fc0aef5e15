"""Independent ground truth: exact rc_k on tiny instances by exhausting all
edge colorings up to color relabeling.

Color-relabeling symmetry is removed with restricted-growth strings over a
fixed lexicographic edge order: each edge's color is at most one more than
the maximum color used on earlier edges, so exactly one representative per
relabeling orbit is generated. `enumerate_colorings_canonical` stops there;
`rc_k_exact`'s walk also removes vertex symmetry (lex-leader cuts, below).
The max_edges guard (16 edges by default, BudgetExceeded beyond) keeps
runtime bounded.

For each palette size L, `rc_k_exact` walks the tree of restricted-growth
prefixes with L colors and cuts a prefix's whole subtree when its
*relaxation* fails. The relaxation of a prefix colors the prefix edges as
the prefix does and gives each uncolored edge its own fresh color L+1,
L+2, ...; it is checked with paths capped at L edges. The walk keeps the
prefix as a list of colors in edge order, so a relaxation's colors are
`[*prefix, L+1, ..., L+left]`, one per edge of `spec.edge_list`, which is
the input form `Coloring` takes as `colors`. The cut is sound:
- Let C be a completion of the prefix with colors in 1..L, and P a rainbow
  path of C. P has at most L edges (pigeonhole). Its prefix edges have
  the same, pairwise distinct, colors <= L in the relaxation, and its other
  edges have fresh colors > L, distinct from each other and from every
  prefix color. So P is a rainbow path of the relaxation within the cap.
- Hence every packing of C's rainbow u,v-paths with disjoint interiors is
  a packing of the relaxation's capped paths, and the relaxation's capped
  maximum bounds C's from above for every pair. A pair with fewer than k
  in the relaxation has fewer than k in every completion, so no leaf
  below the prefix passes.
A leaf has no uncolored edge: its relaxation is the candidate itself, with
palette L, where the cap is the palette's own. One check thus both cuts and
accepts. Prefixes that can only end with fewer than L colors are skipped
unbuilt, as `enumerate_colorings_canonical` skips them under min_colors.
Cut subtrees hold no passing leaf, so the first passing leaf in
restricted-growth order, the witness, is the one that enumerator, unpruned,
yields first.

The walk also skips, unbuilt, each prefix that no orbit leader extends
(lex-leader cuts: Crawford, Ginsberg, Luks & Roy 1996, "Symmetry-breaking
predicates for search problems"). A coloring is a string x of colors over
`spec.edge_list`. A vertex permutation sigma of the graph moves its
positions: (sigma x)[p] = x[perm[p]]. canon(y) renames y's colors by first
occurrence, which makes it restricted growth. The generators
(`_swap_generators`) are the swaps of two adjacent members of a part and
of two adjacent parts of one size, member by member.
- A prefix of depth i is cut when some generator sigma has a first
  position p where x and canon(sigma x) differ such that every position
  0..p of sigma x is colored (perm[q] < i for q <= p, hence p < i) and
  canon(sigma x)[p] < x[p]. Then canon(sigma x) <_lex x for every
  completion x, and canon(sigma x) is in x's orbit under vertex
  permutations and color renamings, so no completion is the lex-least
  member of its orbit, its leader.
- The leader is never cut: canon(y) <=_lex y for every y, so the leader
  m is restricted growth, and m <=_lex canon(sigma m) for every sigma, as
  canon(sigma m) is in m's orbit. So no prefix of m meets the test.
- The witness is unchanged: automorphisms and color renamings keep
  verdicts, so every member of the witness's orbit passes and uses
  exactly L colors. Its leader is then a passing leaf no later in
  restricted-growth order: the witness itself. A palette size with no
  passing coloring still has none.
- Kept families stay sound: a lex-cut node is neither checked nor
  recorded, so every kept family still comes from a relaxation checked at
  a node of the walk, and the argument below runs unchanged.
Each generator's comparison is carried down the tree (`_lex_step`): it is
dropped once canon(sigma x) compares greater, or left pending at the
position p where it waits for an uncolored edge, with its renaming so far.
A node so costs a step per pending generator, not a rescan from
position 0.

Relaxations are rejected fail-first: `first_failing_pair` queries the
pairs in lex order through the verifier's `_settle` and stops at the first
that fails. The walk asks only whether some pair fails, never which, so
the pair order changes only which pairs are queried or settled by a kept
family, not the nodes, cuts, leaves or witness.

A pair is settled without a query when a family found earlier in the walk
still proves it. The walk's `settled` state, one per `rc_k_exact` call,
keeps in `families`, by pair rank (a pair's position in lex order), the
family that last settled it (by edge, `path_by_edge`), or None. A kept
family is k rainbow paths of at most L edges with pairwise disjoint
interiors in some relaxation R' checked before. At a node of depth i
(edges[:i] colored), R' agrees with the node on edges[:i-1]: the parent
passed, so after its check every kept family is rainbow in the parent,
and the relaxations checked since then lie below the node's earlier
siblings, whose prefixes extend the node's edges[:i-1].
Let e = edges[i-1], the edge the node colors. A kept family still settles
its pair at the node when its path through e, if it has one, is rainbow:
- Being rainbow depends only on which edges of a path share a color. At
  the node every edge after e has a fresh color of its own, pairwise
  distinct and above L, and every edge before e has its color in R'. So
  two edges of a path that share a color are both in edges[:i], and one of
  them is e, or they shared it in R' already. A path that avoids e stays
  rainbow.
- Vertices, interiors and lengths do not depend on the coloring, so the
  interiors stay disjoint and the paths stay within the cap L.
`family_holds` checks that one path against the node's `rows`. A pair
settled so passes at the node, as its query would say, so the first
failing pair in lex order is the same pair, and the tree walk and the
witness are those of querying every pair. A queried pair that passes keeps
the family its query found instead. A failing query keeps the old family,
which held in the node's parent.

A node passes over `families` once, in rank order: a kept family with no
path through e holds without a look. Up to the first failing pair (or to
the last pair, when none fails) every pair is queried or settled by its
kept family, so the pairs `inherited` are that stop position minus the
pairs `queried`; `rechecked` counts the kept families' paths checked.
Every call runs this one loop: without a walk state it starts from a
fresh one, no family kept.

`rc_k_exact` hands the walk state of each palette size L-1 on to the next,
L; only its counts start again from 0. A family kept at L-1 is k paths of
at most L-1 edges with pairwise disjoint interiors. L's root relaxation
gives every edge its own color, so the family is rainbow there and within
the cap L: it holds at the root as a family the root's query found would,
and the argument above runs unchanged from the root down. So the root
queries only the pairs with no kept family. Its spot check still queries
every pair of the flipped relaxation, from a fresh state.
"""

from __future__ import annotations

import logging
from types import SimpleNamespace
from typing import Iterable, Iterator

from .core import Coloring, InvariantError, PartitionSpec, VertexPath, all_pairs, check_int
from .verifier import _path_cap, _settle, structural_connectivity, verify_rainbow_k_connected

# Not called here: the walk queries through `_settle`. The benchmark
# harness's own tests (perfbench/test_perfbench.py) expect its tracer to
# find this name bound in every module that used to call it.
from .verifier import max_disjoint_rainbow  # noqa: F401

logger = logging.getLogger(__name__)


class BudgetExceeded(RuntimeError):
    """The instance is too large for exhaustive search."""


def _check_budget(spec: PartitionSpec, max_edges: int) -> None:
    """Raise BudgetExceeded when the graph has more than max_edges edges.
    Every graph has an edge, so a budget below 1 is refused as a usage
    error (ValueError), with the same line."""
    over = f"{spec.edge_count()} edges exceed the budget of {max_edges}"
    if spec.edge_count() > check_int(max_edges, "max_edges", below=over):
        raise BudgetExceeded(over)


def enumerate_colorings_canonical(
    spec: PartitionSpec, max_colors: int, max_edges: int = 16, min_colors: int = 1
) -> Iterator[Coloring]:
    """One representative per orbit of the color-relabeling action: all
    restricted-growth assignments over the lex-ordered edge list that use at
    least min_colors and at most max_colors colors. Raises BudgetExceeded,
    before yielding anything, when the graph has more than max_edges edges.

    Each edge brings in at most one new color, so a prefix that has used
    `used` colors with `left` edges to go ends with at most used + left;
    below min_colors its branch is cut before any coloring is built."""
    _check_budget(spec, max_edges)
    check_int(max_colors, "max_colors"), check_int(min_colors, "min_colors")
    edges = list(spec.edges())

    def rec(i: int, used: int, assignment: dict) -> Iterator[Coloring]:
        if used + len(edges) - i < min_colors:
            return
        if i == len(edges):
            yield Coloring(spec, max(used, 1), assignment)
            return
        for color in range(1, min(used + 1, max_colors) + 1):
            assignment[edges[i]] = color
            yield from rec(i + 1, max(used, color), assignment)
        del assignment[edges[i]]

    return rec(0, 0, {})


Edge = tuple[int, int]


def path_by_edge(paths: Iterable[VertexPath]) -> dict[Edge, VertexPath]:
    """Each edge (x, y), x < y, of the paths, mapped to the path through it.
    Paths with one pair of ends and disjoint interiors share no edge: an
    edge at an interior vertex lies on the one path holding that vertex,
    and the edge between the ends is a whole path."""
    return {(x, y) if x < y else (y, x): p for p in paths for x, y in zip(p, p[1:])}


def family_holds(
    coloring: Coloring, family: dict[Edge, VertexPath], recolored: Edge
) -> bool:
    """Whether a family found in a relaxation that agrees with this one
    before the edge `recolored` (module docstring) is still rainbow here.
    Only a path through that edge can have lost it, so only that path, if
    the family has one, is checked against the coloring's rows."""
    path = family.get(recolored)
    if path is None:
        return True
    # Stops at the first repeated color, without a list or a set of all.
    rows, seen, x = coloring.rows, set(), path[0]
    for y in path[1:]:
        color = rows[x][y]
        if color in seen:
            return False
        seen.add(color)
        x = y
    return True


def _walk_state(spec: PartitionSpec) -> SimpleNamespace:
    """A fresh walk state (module docstring): no family kept, no pair
    counted."""
    pairs = list(all_pairs(spec))
    return SimpleNamespace(pairs=pairs, families=[None] * len(pairs), queried=0,
                           inherited=0, rechecked=0)


def first_failing_pair(
    coloring: Coloring, k: int, max_len: int | None = None,
    settled: SimpleNamespace | None = None, recolored: Edge | None = None,
) -> tuple[int, int] | None:
    """First pair in lex order with fewer than k internally disjoint
    rainbow paths of at most max_len edges, or None when there is none
    (with no cap: the coloring is rainbow k-connected).

    `settled` is the oracle walk's state (`_walk_state`), `recolored` the
    edge the coloring has just colored: a pair whose kept family still
    holds passes without a query, and a queried pair that passes keeps the
    family that settled it (module docstring). Without a state the loop
    starts from a fresh one. k and max_len are checked once per call, the
    cap by the verifier's rule (`_path_cap`); the pairs come from
    `all_pairs`, distinct in-range int ids, so each query goes to `_settle`
    with nothing left to check, as verify's `_loop_query` does."""
    check_int(k, "k", below="k must be >= 1")
    cap = _path_cap(coloring, max_len)
    if settled is None:
        settled = _walk_state(coloring.spec)
    # Counted in locals and added to `settled` once: a namespace attribute
    # costs a few times a local per access, and this loop is the walk's.
    pairs, families = settled.pairs, settled.families
    failing, stop, queried, rechecked = None, len(pairs), 0, 0
    for rank, kept in enumerate(families):
        if kept is not None:
            if recolored not in kept:
                continue
            rechecked += 1
            if family_holds(coloring, kept, recolored):
                continue
        queried += 1
        u, v = pair = pairs[rank]
        picked = _settle(coloring, u, v, k, cap)
        if len(picked) < k:
            failing, stop = pair, rank + 1
            break
        families[rank] = path_by_edge(picked)
    settled.queried += queried
    settled.inherited += stop - queried
    settled.rechecked += rechecked
    return failing


def _swap_generators(spec: PartitionSpec) -> list[tuple[int, ...]]:
    """The vertex swaps of the lex-leader rule (module docstring), each as
    a position map over `spec.edge_list`: position p of the swapped
    coloring holds the color of position perm[p]. They are the swaps of
    adjacent members of a part, and of adjacent parts of one size, member
    by member; each is its own inverse."""
    swaps = [{v: v + 1, v + 1: v} for v in range(spec.n - 1)
             if spec.part_of(v) == spec.part_of(v + 1)]
    for i in range(spec.t - 1):
        if spec.sizes[i] == spec.sizes[i + 1]:
            a, b = spec.part_members(i), spec.part_members(i + 1)
            swaps.append({**dict(zip(a, b)), **dict(zip(b, a))})
    position = {e: p for p, e in enumerate(spec.edge_list)}

    def moved(swap: dict[int, int]) -> Iterator[int]:
        for x, y in spec.edge_list:
            x, y = swap.get(x, x), swap.get(y, y)
            yield position[(x, y) if x < y else (y, x)]

    return [tuple(moved(swap)) for swap in swaps]


def _lex_step(pending: list, prefix: list[int]) -> list | None:
    """The generators still pending after `prefix`, or None when one of
    them shows that no completion is its orbit's leader (module
    docstring). A pending generator is (perm, p, rename, fresh): its
    swapped coloring, renamed by first occurrence, equals the prefix
    before position p, `rename` maps colors (by index) to their new names
    so far, 0 for none, and `fresh` is the next new name. A generator is
    dropped once it compares greater."""
    i, kept = len(prefix), []
    for perm, p, rename, fresh in pending:
        while p < i and perm[p] < i:
            color = prefix[perm[p]]
            image = rename[color]
            if not image:
                image, fresh = fresh, fresh + 1
                rename = rename[:color] + (image,) + rename[color + 1:]
            if image < prefix[p]:
                return None
            if image > prefix[p]:
                break
            p += 1
        else:
            kept.append((perm, p, rename, fresh))
    return kept


def _first_passing(spec: PartitionSpec, k: int, num_colors: int, settled: SimpleNamespace,
                   swaps: list[tuple[int, ...]]) -> Coloring | None:
    """The first rainbow k-connected coloring with exactly num_colors colors
    in restricted-growth order, or None. Walks the prefix tree, skips each
    prefix that no orbit leader extends under the generators `swaps`
    (`_swap_generators`), cuts each prefix whose relaxation fails and
    settles what pairs it can with the families kept in `settled`, a
    smaller palette's walk state or a fresh one (module docstring). Its
    counts start from 0."""
    edges = spec.edge_list
    prefix: list[int] = []  # the colors of edges[:i], in edge order
    settled.queried = settled.inherited = settled.rechecked = 0
    nodes = cut = lex_cut = leaves = 0

    def rec(i: int, used: int, pending: list) -> Coloring | None:
        nonlocal nodes, cut, lex_cut, leaves
        left = len(edges) - i
        if used + left < num_colors:
            return None  # ends with fewer colors; rejected at a lower level
        pending = _lex_step(pending, prefix)
        if pending is None:
            lex_cut += 1
            return None
        relaxation = Coloring(spec, num_colors + left,
                              colors=[*prefix, *range(num_colors + 1, num_colors + left + 1)])
        failing = first_failing_pair(relaxation, k, num_colors, settled,
                                     edges[i - 1] if i else None)
        if nodes == 0:
            # Spot check: verdicts must be invariant under color bijections
            # (the root's palette, L plus one per edge, is never trivial).
            palette = relaxation.num_colors
            flipped = relaxation.permuted({c: palette + 1 - c for c in range(1, palette + 1)})
            if (first_failing_pair(flipped, k, max_len=num_colors) is None) != (failing is None):
                raise InvariantError("verification is not color-relabeling invariant")
        nodes += 1
        leaves += not left
        if failing is not None:
            cut += left > 0
            return None
        if not left:
            return relaxation
        prefix.append(0)
        for color in range(1, min(used + 1, num_colors) + 1):
            prefix[i] = color
            found = rec(i + 1, max(used, color), pending)
            if found is not None:
                return found
        prefix.pop()
        return None

    unset = (0,) * (num_colors + 1)
    found = rec(0, 0, [(perm, 0, unset, 1) for perm in swaps])
    logger.debug("rck-exact: %d colors: %d nodes checked, %d subtrees cut, "
                 "%d lex cuts, %d leaves reached, %d pair queries, %d pairs settled "
                 "by an inherited family, %d kept-family paths re-checked", num_colors,
                 nodes, cut, lex_cut, leaves, settled.queried, settled.inherited,
                 settled.rechecked)
    return found


def rc_k_exact(
    spec: PartitionSpec, k: int, max_colors: int, max_edges: int = 16
) -> Coloring | None:
    """The witness: the first rainbow k-connected coloring, in
    restricted-growth order, of the smallest palette size <= max_colors
    that has one, or None when no size up to max_colors does. rc_k is its
    `num_colors`. Graphs with more than max_edges edges raise
    BudgetExceeded."""
    check_int(k, "k", below="k must be >= 1")
    check_int(max_colors, "max_colors", below="max_colors must be >= 1")
    if structural_connectivity(spec) < k:
        raise ValueError(
            f"rc_{k} undefined: {spec.sizes} has vertex connectivity "
            f"{structural_connectivity(spec)} < {k}"
        )
    _check_budget(spec, max_edges)
    settled, swaps = _walk_state(spec), _swap_generators(spec)
    for num_colors in range(1, max_colors + 1):
        witness = _first_passing(spec, k, num_colors, settled, swaps)
        if witness is not None:
            if not verify_rainbow_k_connected(witness, k).ok:
                raise InvariantError(
                    "the fail-first pair check passed a coloring that "
                    "full verification rejects"
                )
            return witness
    return None
