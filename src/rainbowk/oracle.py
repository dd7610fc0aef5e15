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
L+2, ...; it is checked with paths capped at L edges. The cut is sound:
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
verifier's `pair_count` over the pairs, starting with the pair that sank
the previous node.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .core import Coloring, InvariantError, PartitionSpec, all_pairs
from .verifier import pair_count, structural_connectivity, verify_rainbow_k_connected

logger = logging.getLogger(__name__)


class BudgetExceeded(RuntimeError):
    """The instance is too large for exhaustive search."""


def _check_budget(spec: PartitionSpec, max_edges: int) -> None:
    if spec.edge_count() > max_edges:
        raise BudgetExceeded(
            f"{spec.edge_count()} edges exceed the budget of {max_edges}"
        )


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


@dataclass(frozen=True)
class RckExactResult:
    """Smallest working palette size, or evidence the budget was exhausted."""

    spec: PartitionSpec
    k: int
    value: int | None
    witness: Coloring | None
    max_colors: int

    def __str__(self) -> str:
        return str(self.value) if self.value is not None else f"> {self.max_colors}"


def first_failing_pair(
    coloring: Coloring, k: int, hint: tuple[int, int] | None = None,
    max_len: int | None = None,
) -> tuple[int, int] | None:
    """First pair with fewer than k internally disjoint rainbow paths of at
    most max_len edges, or None when there is none (with no cap: the
    coloring is rainbow k-connected). The hint is tried before the lex
    order: colorings that share a long prefix with the previous candidate
    tend to fail at the same pair."""
    pairs = all_pairs(coloring.spec)
    if hint is not None:
        pairs = chain([hint], (p for p in pairs if p != hint))
    return next((p for p in pairs
                 if pair_count(coloring, k, "decision", p, max_len)[0] < k), None)


def _first_passing(spec: PartitionSpec, k: int, num_colors: int) -> Coloring | None:
    """The first rainbow k-connected coloring with exactly num_colors colors
    in restricted-growth order, or None. Walks the prefix tree and cuts
    each prefix whose relaxation fails (module docstring)."""
    edges = list(spec.edges())
    assignment: dict[tuple[int, int], int] = {}
    hint: tuple[int, int] | None = None
    nodes = cut = leaves = 0

    def rec(i: int, used: int) -> Coloring | None:
        nonlocal hint, nodes, cut, leaves
        left = len(edges) - i
        if used + left < num_colors:
            return None  # ends with fewer colors; rejected at a lower level
        fresh = dict(zip(edges[i:], range(num_colors + 1, num_colors + left + 1)))
        relaxation = Coloring(spec, num_colors + left, {**assignment, **fresh})
        failing = first_failing_pair(relaxation, k, hint, max_len=num_colors)
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
            hint = failing
            cut += left > 0
            return None
        if not left:
            return relaxation
        for color in range(1, min(used + 1, num_colors) + 1):
            assignment[edges[i]] = color
            found = rec(i + 1, max(used, color))
            if found is not None:
                return found
        del assignment[edges[i]]
        return None

    found = rec(0, 0)
    logger.debug("rck-exact: %d colors: %d nodes checked, %d subtrees cut, "
                 "%d leaves reached", num_colors, nodes, cut, leaves)
    return found


def rc_k_exact(
    spec: PartitionSpec, k: int, max_colors: int, max_edges: int = 16
) -> RckExactResult:
    """Smallest palette size <= max_colors for which some coloring is
    rainbow k-connected, with one witness coloring. Graphs with more than
    max_edges edges raise BudgetExceeded."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_colors < 1:
        raise ValueError("max_colors must be >= 1")
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
            return RckExactResult(spec, k, num_colors, witness, max_colors)
    return RckExactResult(spec, k, None, None, max_colors)
