"""Independent ground truth: exact rc_k on tiny instances by exhausting all
edge colorings up to color relabeling.

Color-relabeling symmetry is removed with restricted-growth strings over a
fixed lexicographic edge order: each edge's color is at most one more than
the maximum color used on earlier edges, so exactly one representative per
relabeling orbit is generated. Graph-automorphism symmetry is deliberately
not removed; the max_edges guard (16 edges by default, BudgetExceeded beyond)
keeps runtime bounded and the simpler enumeration is easier to trust.

Candidates are rejected fail-first: `first_failing_pair` maps the
verifier's `pair_count` over the pairs, starting with the pair that sank
the previous candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .core import Coloring, InvariantError, PartitionSpec, all_pairs
from .verifier import pair_count, structural_connectivity, verify_rainbow_k_connected


class BudgetExceeded(RuntimeError):
    """The instance is too large for exhaustive search."""


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
    if spec.edge_count() > max_edges:
        raise BudgetExceeded(
            f"{spec.edge_count()} edges exceed the budget of {max_edges}"
        )
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
    coloring: Coloring, k: int, hint: tuple[int, int] | None = None
) -> tuple[int, int] | None:
    """First pair with fewer than k internally disjoint rainbow paths, or
    None when the coloring is rainbow k-connected. The hint is tried before
    the lex order: colorings that share a long prefix with the previous
    candidate tend to fail at the same pair."""
    pairs = all_pairs(coloring.spec)
    if hint is not None:
        pairs = chain([hint], (p for p in pairs if p != hint))
    return next((p for p in pairs if pair_count(coloring, k, "decision", p)[0] < k), None)


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
    for num_colors in range(1, max_colors + 1):
        hint: tuple[int, int] | None = None
        checked_symmetry = False
        # Colorings with fewer colors were all rejected at a lower level.
        for coloring in enumerate_colorings_canonical(
            spec, num_colors, max_edges, min_colors=num_colors
        ):
            failing = first_failing_pair(coloring, k, hint)
            ok = failing is None
            hint = failing or hint
            if not checked_symmetry and num_colors > 1:
                # Spot check: verdicts must be invariant under color bijections.
                flipped = coloring.permuted(
                    {c: num_colors + 1 - c for c in range(1, num_colors + 1)}
                )
                ok_flipped = first_failing_pair(flipped, k) is None
                if ok_flipped != ok:
                    raise InvariantError(
                        "verification is not color-relabeling invariant"
                    )
                checked_symmetry = True
            if ok:
                if not verify_rainbow_k_connected(coloring, k).ok:
                    raise InvariantError(
                        "the fail-first pair check passed a coloring that "
                        "full verification rejects"
                    )
                return RckExactResult(spec, k, num_colors, coloring, max_colors)
    return RckExactResult(spec, k, None, None, max_colors)
