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

Relaxations are rejected fail-first: `first_failing_pair` maps the
verifier's `max_disjoint_rainbow` over the pairs in lex order and stops at
the first that fails. The walk asks only whether some pair fails, never
which, so the pair order changes only which pairs are queried or settled
by a kept family, not the nodes, cuts, leaves or witness.

A pair is settled without a query when a family found earlier in the walk
still proves it. The walk's `settled` record, one per palette size L,
keeps in `families`, for each pair, the family that last settled it (by
edge, `path_by_edge`), and counts the pairs `queried` and the pairs settled
by an `inherited` family. A kept family is k rainbow paths of at most L edges
with pairwise disjoint interiors in some relaxation R' checked before. At
a node of depth i (edges[:i] colored), R' agrees with the node on
edges[:i-1]: the parent passed, so after its check every kept family is
rainbow in the parent, and the relaxations checked since then lie below
the node's earlier siblings, whose prefixes extend the node's edges[:i-1].
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
the family its query found instead.
"""

from __future__ import annotations

import logging
from types import SimpleNamespace
from typing import Iterator

from .core import Coloring, InvariantError, PartitionSpec, VertexPath, all_pairs, check_int
from .verifier import (
    PairQuery,
    max_disjoint_rainbow,
    structural_connectivity,
    verify_rainbow_k_connected,
)

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


def path_by_edge(paths: tuple[VertexPath, ...]) -> dict[Edge, VertexPath]:
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


def first_failing_pair(
    coloring: Coloring, k: int, max_len: int | None = None,
    settled: SimpleNamespace | None = None, recolored: Edge | None = None,
) -> tuple[int, int] | None:
    """First pair in lex order with fewer than k internally disjoint
    rainbow paths of at most max_len edges, or None when there is none
    (with no cap: the coloring is rainbow k-connected).

    With `settled` (the oracle's walk: a namespace of `families`, `queried`
    and `inherited`), a pair whose kept family still holds
    (`family_holds`, `recolored` being the edge the coloring has just
    colored) passes without a query, and a queried pair that passes keeps
    the family that settled it (module docstring)."""
    # Counted in locals and added to `settled` once: a namespace attribute
    # costs a few times a local per access, and this loop is the walk's.
    families = {} if settled is None else settled.families
    failing, queried, inherited = None, 0, 0
    for pair in all_pairs(coloring.spec):
        kept = families.get(pair)
        if kept is not None and family_holds(coloring, kept, recolored):
            inherited += 1
            continue
        queried += 1
        count, family = max_disjoint_rainbow(coloring, PairQuery(*pair, k=k, max_len=max_len))
        if count < k:
            failing = pair
            break
        if settled is not None:
            families[pair] = path_by_edge(family.paths)
    if settled is not None:
        settled.queried += queried
        settled.inherited += inherited
    return failing


def _first_passing(spec: PartitionSpec, k: int, num_colors: int) -> Coloring | None:
    """The first rainbow k-connected coloring with exactly num_colors colors
    in restricted-growth order, or None. Walks the prefix tree, cuts each
    prefix whose relaxation fails and settles what pairs it can with the
    families found before (module docstring)."""
    edges = spec.edge_list
    prefix: list[int] = []  # the colors of edges[:i], in edge order
    settled = SimpleNamespace(families={}, queried=0, inherited=0)
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
                 "inherited family", num_colors, nodes, cut, leaves, settled.queried,
                 settled.inherited)
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
