"""Independent ground truth: exact rc_k on tiny instances by exhausting all
edge colorings up to color relabeling.

Color-relabeling symmetry is removed with restricted-growth strings over a
fixed lexicographic edge order: each edge's color is at most one more than
the maximum color used on earlier edges, so exactly one representative per
relabeling orbit is generated. Graph-automorphism symmetry is deliberately
not removed; the max_edges guard (16 edges by default, BudgetExceeded beyond)
keeps runtime bounded and the simpler enumeration is easier to trust.

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

Relaxations are rejected fail-first: `first_failing_pair` queries the
pairs in lex order through the verifier's `_settle` and stops at the first
that fails. The walk asks only whether some pair fails, never which, so
the pair order changes only which pairs are queried or settled by a kept
family, not the nodes, cuts, leaves or witness.

A pair is settled without a query when a family found earlier in the walk
still proves it. The walk's `settled` state, one per palette size L,
keeps in `families`, by pair rank (a pair's position in lex order), the
family that last settled it (by edge, `path_by_edge`), or None. It indexes
them as int bitmasks over ranks, so ascending bits are lex order: `open`
holds the pairs with no kept family, and `through[e]` the pairs whose kept
family has a path through edge e. A kept family is k rainbow paths of at
most L edges with pairwise disjoint interiors in some relaxation R'
checked before. At a node of depth i (edges[:i] colored), R' agrees with
the node on edges[:i-1]: the parent passed, so after its check every kept
family is rainbow in the parent, and the relaxations checked since then
lie below the node's earlier siblings, whose prefixes extend the node's
edges[:i-1].
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
the family its query found instead: its bit leaves `open` or the old
family's edges and is set on the new family's. A failing query keeps the
old family, which held in the node's parent.

So a node visits only `open | through[e]`, lowest bit first: a pair
outside both has a family with no path through e, which `family_holds`
passes without a look. Up to the first failing pair (or to the last pair,
when none fails) every pair is queried or settled by its kept family, so
the pairs `inherited` are that stop position minus the pairs `queried`;
`rechecked` counts the kept families' paths checked. Every call runs this
one loop: without a walk state it starts from a fresh one, every pair open.
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
    rows = coloring.rows
    colors = [rows[x][y] for x, y in zip(path, path[1:])]
    return len(set(colors)) == len(colors)


def _walk_state(spec: PartitionSpec) -> SimpleNamespace:
    """A fresh walk state (module docstring): every pair open, no family
    kept, no pair counted."""
    pairs = list(all_pairs(spec))
    return SimpleNamespace(pairs=pairs, open=(1 << len(pairs)) - 1, through={},
                           families=[None] * len(pairs), queried=0, inherited=0,
                           rechecked=0)


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
    pairs, families, through, open_ = (settled.pairs, settled.families,
                                       settled.through, settled.open)
    failing, stop, queried, rechecked = None, len(pairs), 0, 0
    visit = open_ | through.get(recolored, 0)
    while visit:
        low = visit & -visit
        visit ^= low
        rank = low.bit_length() - 1
        kept = families[rank]
        if kept is not None:
            rechecked += 1
            if family_holds(coloring, kept, recolored):
                continue
        queried += 1
        u, v = pair = pairs[rank]
        picked = _settle(coloring, u, v, k, cap)
        if len(picked) < k:
            failing, stop = pair, rank + 1
            break
        if kept is None:
            open_ ^= low
        else:
            for edge in kept:
                through[edge] ^= low
        families[rank] = family = path_by_edge(picked)
        for edge in family:
            through[edge] = through.get(edge, 0) | low
    settled.open = open_
    settled.queried += queried
    settled.inherited += stop - queried
    settled.rechecked += rechecked
    return failing


def _first_passing(spec: PartitionSpec, k: int, num_colors: int) -> Coloring | None:
    """The first rainbow k-connected coloring with exactly num_colors colors
    in restricted-growth order, or None. Walks the prefix tree, cuts each
    prefix whose relaxation fails and settles what pairs it can with the
    families found before (module docstring)."""
    edges = spec.edge_list
    prefix: list[int] = []  # the colors of edges[:i], in edge order
    settled = _walk_state(spec)
    nodes = cut = leaves = 0

    def rec(i: int, used: int) -> Coloring | None:
        nonlocal nodes, cut, leaves
        left = len(edges) - i
        if used + left < num_colors:
            return None  # ends with fewer colors; rejected at a lower level
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
            found = rec(i + 1, max(used, color))
            if found is not None:
                return found
        prefix.pop()
        return None

    found = rec(0, 0)
    logger.debug("rck-exact: %d colors: %d nodes checked, %d subtrees cut, "
                 "%d leaves reached, %d pair queries, %d pairs settled by an "
                 "inherited family, %d kept-family paths re-checked", num_colors, nodes,
                 cut, leaves, settled.queried, settled.inherited, settled.rechecked)
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
    for num_colors in range(1, max_colors + 1):
        witness = _first_passing(spec, k, num_colors)
        if witness is not None:
            if not verify_rainbow_k_connected(witness, k).ok:
                raise InvariantError(
                    "the fail-first pair check passed a coloring that "
                    "full verification rejects"
                )
            return witness
    return None
