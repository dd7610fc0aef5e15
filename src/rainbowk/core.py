"""Core types for edge-colored complete multipartite graphs.

Vertices of K_{n_1,...,n_t} get flat ids 0..n-1, assigned part by part in
input order, so part i owns a contiguous id block. A coloring is a total
symmetric map from cross-part vertex pairs to colors 1..num_colors; querying
a same-part pair is a contract violation (raises), never "no color".

A `Coloring` stores its colors once, as `rows`: a dense n x n table with
rows[u][v] the color of edge uv and 0 on same-part pairs (the diagonal
included). Hot loops (path enumeration, twin scans) read it by index instead
of calling `Coloring.color` per edge. `assignment`, the lex-ordered dict from
pairs (u, v), u < v, to colors, is a view built from `rows` on each access.
Nothing else is stored: `tight` (every palette color occurs) is derived from
`rows` too, and a document's `"tight"` must agree with it.

One validator, `_color_table`, checks the given colors and builds `rows`,
whether the coloring comes from code or from a JSON document; it raises
`SchemaError` naming the offending position. It takes two input forms:
- [u, v, color] entries in any order, or a {(u, v): color} dict (a JSON
  document's `edges`, a caller's own table). Each entry is checked as it
  fills the table: ids, part, duplicate, color, and at the end totality.
- One color per edge of `spec.edge_list`, in that order (`colors=`: the
  sampler's bytes, `from_function`, `permuted`, the oracle's relaxations).
  Such a vector is in range, cross-part, duplicate-free and total by its
  shape, so only its length and its colors are checked, at C speed.
  The rows are then read off the spec's cached layout: row u of part p is
  the colors of the edges (w, u), w in earlier parts, at their positions,
  then p's block of 0s, then the edges (u, v), v in later parts, which are
  one slice of the lex order.
Every coloring is built by `Coloring.__init__`, the one place that calls
the validator and sets `rows`.

Beside `_color_table`, `check_int` states the package's one rule for an
integer argument (k, t, a cap, a count, a seed), and `check_pair` the one rule
for a vertex pair's endpoints. Both test `type(x) is int`, as `_color_table`
does, so a bool, a float or a string never passes for an integer.

All types here are immutable after construction and safe to share across
threads; all operations are pure.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations
from operator import itemgetter
from typing import Callable, Iterator

# A path is an ordered vertex sequence; consecutive vertices must be adjacent.
VertexPath = tuple[int, ...]


class SchemaError(ValueError):
    """A coloring document violates the JSON schema."""


class InvariantError(RuntimeError):
    """A self-check failed: a result contradicts a guarantee the program
    relies on (a bug, not bad input). Raised explicitly, so `python -O`
    cannot strip the check the way it strips `assert`."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def check_int(value, name: str, low: int = 1, below: str | None = None) -> int:
    """Return value if it is a plain int (`type(value) is int`) of at least
    low; raise ValueError otherwise. Any other value gets the one line
    `NAME must be an integer >= LOW, got VALUE`: int() would turn 2.7 into
    2, True into 1 and "2" into 2 without a word, and a float cap is never
    reached. An int below low gets `below` when given (an argument's
    established line), else that same line."""
    if type(value) is int:
        if value >= low:
            return value
        if below is not None:
            raise ValueError(below)
    raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_pair(u, v) -> None:
    """Raise ValueError unless u and v are plain ints that differ: a vertex
    pair's endpoints. Whether they are in range is the spec's to say
    (`PartitionSpec.part_of`)."""
    if type(u) is not int or type(v) is not int:
        raise ValueError(f"pair endpoints must be integers, got ({u!r}, {v!r})")
    if u == v:
        raise ValueError("pair endpoints must differ")


_encode_str = json.encoder.encode_basestring_ascii  # what json.dumps uses


def json_text(obj) -> str:
    """`json.dumps(obj, indent=2) + "\\n"`, byte for byte, in less time.

    With an indent, `json.dumps` runs the pure-Python encoder; this writer
    builds the same text from C-speed pieces. At depth d every line break is
    "\\n" followed by 2d spaces, and each kind of value is written as
    `json.dumps` writes it:
    - a dict whose keys are all `str`: recurse, each key encoded by
      `encode_basestring_ascii`, the function `json.dumps` itself calls;
    - a non-empty list or tuple of plain ints (`type(x) is int`): one join
      of `int.__repr__`;
    - a non-empty list or tuple of equal-length, non-empty lists or tuples
      of plain ints (report `pairs`, coloring `edges`): one `%d` template
      applied once to the flattened values;
    - any other non-empty list or tuple: recurse;
    - a `str` or plain `int` scalar: encoded directly;
    - anything else (bools, None, floats, int and str subclasses, dicts
      with a non-`str` key, empty containers): `json.dumps(sub, indent=2)`
      with its line breaks re-indented to depth d. That is exact, because
      the output at depth d differs from the output at depth 0 only in the
      indent after each line break, and JSON output never holds a raw line
      break inside a string (`json.dumps` escapes it).
    "Plain int" excludes `bool`, so `True` can never be written as `1`. A
    value `json.dumps` refuses raises the same error here, from the same
    call; a cycle exhausts the recursion and is handed to `json.dumps`,
    which reports it. A document nested too deep for `json.dumps` too (an
    extension meta about 490 levels deep) raises ValueError.

    A dict held as a dict's value is written once per depth: met again
    (the same object at the same depth, keyed by `id` and the depth), it
    gets its earlier text. No id is reused meanwhile, since `obj` holds
    every value met for the whole call and the memo lives for that call
    only. A run's certificates share one `params` dict, so it is written
    once; list items are not memoized, which would keep a text per
    certificate until the write ends.
    """
    try:
        return _indented(obj, "\n", {}) + "\n"
    except RecursionError:
        pass
    try:
        return json.dumps(obj, indent=2) + "\n"
    except RecursionError:
        raise ValueError("the document is nested too deep to write as JSON") from None


def _indented(obj, nl: str, memo: dict) -> str:
    """`obj` as `json.dumps(obj, indent=2)` writes it at the depth whose line
    break is `nl`; `memo` maps (id, depth) of each dict written so far as a
    dict's value to its text."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        if set(map(type, obj)) == {str}:
            inner = nl + "  "
            return "{" + inner + ("," + inner).join(
                [_encode_str(key) + ": " + (
                    _shared(value, inner, memo) if type(value) is dict
                    else _indented(value, inner, memo))
                 for key, value in obj.items()]
            ) + nl + "}"
    elif obj and (kind is list or kind is tuple):
        inner = nl + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        if kinds == {int}:
            return "[" + inner + sep.join(map(int.__repr__, obj)) + nl + "]"
        if kinds <= {list, tuple}:
            width = len(obj[0])
            if all(len(row) == width for row in obj):
                flat = tuple(chain.from_iterable(obj))
                if set(map(type, flat)) == {int}:
                    row_nl = inner + "  "
                    row = "[" + row_nl + ("," + row_nl).join(["%d"] * width) + inner + "]"
                    return ("[" + inner + sep.join([row] * len(obj)) + nl + "]") % flat
        return "[" + inner + sep.join([_indented(x, inner, memo) for x in obj]) + nl + "]"
    return json.dumps(obj, indent=2).replace("\n", nl)


def _shared(obj: dict, nl: str, memo: dict) -> str:
    """`_indented` for a dict held as a dict's value: its memoized text."""
    key = (id(obj), len(nl))
    text = memo.get(key)
    if text is None:
        text = memo[key] = _indented(obj, nl, memo)
    return text


@dataclass(frozen=True)
class PartitionSpec:
    """Part sizes (n_1, ..., n_t) of a complete multipartite graph, t >= 2."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if len(self.sizes) < 2:
            raise ValueError("a complete multipartite graph needs t >= 2 parts")
        # A plain int only, as in `_color_table`: int() would turn 2.7 into
        # 2, True into 1 and "2" into 2 without a word.
        if any(type(s) is not int for s in self.sizes):
            raise ValueError(f"part sizes must be integers, got {self.sizes}")
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"part sizes must be positive, got {self.sizes}")

    @property
    def t(self) -> int:
        return len(self.sizes)

    @cached_property
    def n(self) -> int:
        return sum(self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.sizes[:-1], initial=0))

    @cached_property
    def _part_table(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sizes) for _ in range(s))

    @cached_property
    def part_masks(self) -> tuple[int, ...]:
        """Per part, the bitmask with bit w set for each member w."""
        return tuple(((1 << s) - 1) << o for s, o in zip(self.sizes, self.offsets))

    def part_of(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return self._part_table[v]

    def part_members(self, i: int) -> range:
        if not 0 <= i < self.t:
            raise ValueError(f"part index {i} out of range 0..{self.t - 1}")
        return range(self.offsets[i], self.offsets[i] + self.sizes[i])

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All cross-part pairs (u, v) with u < v, in lexicographic order."""
        return iter(self.edge_list)

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """`edges()` as a tuple, built once per spec."""
        table, n = self._part_table, self.n
        return tuple((u, v) for u in range(n) for v in range(u + 1, n) if table[u] != table[v])

    def edge_count(self) -> int:
        """Number of cross-part edges, worked out once per spec."""
        return self._edge_count

    @cached_property
    def _edge_count(self) -> int:
        return (self.n * self.n - sum(s * s for s in self.sizes)) // 2

    @cached_property
    def _row_layout(self) -> tuple[tuple[itemgetter, tuple[int, ...], slice], ...]:
        """Per vertex u of part p, where row u sits in a tuple of one color
        per edge of `edge_list`: (head, zeros, tail), the row being
        `head(colors) + zeros + colors[tail]`.

        - head gets the colors of the edges (w, u), w in the parts before p,
          at their positions;
        - zeros is p's block of 0s, one per member (u included);
        - tail is the slice of the edges (u, v), v in the parts after p,
          which follow each other in the lex order.

        `itemgetter` with one index returns a bare value, and with none
        cannot be built, so a head of fewer than two positions gets a slice
        (an itemgetter of a slice returns a tuple here)."""
        n, part = self.n, self._part_table
        ends = [o + s for o, s in zip(self.offsets, self.sizes)]
        # first[u]: the position of u's first edge to a later part.
        first = list(accumulate((n - ends[part[u]] for u in range(n - 1)), initial=0))
        layout = []
        for u in range(n):
            p = part[u]
            head = [first[w] + u - ends[part[w]] for w in range(self.offsets[p])]
            if len(head) < 2:
                head = [slice(head[0], head[0] + 1) if head else slice(0)]
            tail = slice(first[u], first[u] + n - ends[p])
            layout.append((itemgetter(*head), (0,) * self.sizes[p], tail))
        return tuple(layout)


_BYTE_COLORS = bytes(range(1, 256))  # sliced to a palette's colors 1..L


def _color_table(
    spec: PartitionSpec, num_colors: int, entries, count: int | None
) -> tuple[tuple[int, ...], ...]:
    """The one coloring validator: check num_colors (an integer >= 1) and
    the colors given, and build the row table. Raises SchemaError naming
    the first bad position. The colors come in one of two forms.

    With `count` None, `entries` holds one color per edge of
    `spec.edge_list`, in that order (a list, a tuple or bytes). Its pairs
    are then in range, cross-part, distinct and total by construction, so
    only the length and the colors are checked, at C speed. Bytes hold ints
    by their type, and are in range exactly when deleting the bytes 1..L
    (L = num_colors, at most 255 of them) leaves nothing: one
    `bytes.translate`. A list or a tuple gets one `set` of the types, then
    a `min` and a `max`. Only when a check fails is the vector scanned for
    the first bad color. The rows are then joined from slices of it, as
    `spec._row_layout` says.

    Otherwise `entries` are `count` [u, v, color] entries, in any order,
    checked one by one as they fill the table. Each entry needs integer
    ids in range on different parts, a pair not seen before and a color in
    1..num_colors; together the entries must cover every cross-part pair.
    Fewer than spec.edge_count() entries can never be total: they are
    checked against sparse rows, with parts found in `spec.offsets`, so a
    short document is rejected without building anything sized by n."""
    if type(num_colors) is not int or num_colors < 1:
        raise SchemaError(f"num_colors must be an integer >= 1, got {num_colors!r}")
    if count is None:
        colors = entries
        if len(colors) != spec.edge_count():
            raise SchemaError(f"{len(colors)} colors for {spec.edge_count()} edges: "
                              f"need one per edge, in edge order")
        if type(colors) is bytes:
            # What is left after deleting the colors 1..L is out of range.
            bad = colors.translate(None, _BYTE_COLORS[:num_colors])
        else:
            # Plain ints first, since min() and max() may fail on mixed types.
            bad = (set(map(type, colors)) != {int}
                   or min(colors) < 1 or max(colors) > num_colors)
        if bad:
            for pos, col in enumerate(colors):
                if type(col) is not int:
                    raise SchemaError(f"edge {pos}: color {col!r} is not an integer")
                if not 1 <= col <= num_colors:
                    raise SchemaError(f"edge {pos}: color {col} outside 1..{num_colors}")
        colors = tuple(colors)
        return tuple([head(colors) + zeros + colors[tail]
                      for head, zeros, tail in spec._row_layout])
    n = spec.n
    edge_count = spec.edge_count()
    if count < edge_count:
        # Never total: sparse rows, and the part of each id the entries name
        # found in the offsets, so that nothing sized by n is built.
        entries, part = list(entries), {}
        for entry in entries:
            with suppress(TypeError, ValueError):
                u, v, _ = entry
                part.update((w, bisect_right(spec.offsets, w) - 1)
                            for w in (u, v) if type(w) is int)
        rows = defaultdict(lambda: defaultdict(int))
    else:
        part = spec._part_table
        rows = [[0] * n for _ in range(n)]
    for pos, entry in enumerate(entries):
        try:
            u, v, col = entry
        except (TypeError, ValueError):
            raise SchemaError(f"edge {pos}: {entry!r} is not [u,v,color]") from None
        # type() rather than isinstance(): bools are ints, and floats such
        # as 1.7 must not be truncated.
        if type(u) is not int or type(v) is not int or type(col) is not int:
            raise SchemaError(f"edge {pos}: {entry!r} is not [u,v,color] of integers")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise SchemaError(f"edge {pos}: invalid endpoints [{u},{v}]")
        if part[u] == part[v]:
            raise SchemaError(f"edge {pos}: [{u},{v}] endpoints share part {part[u]}")
        row = rows[u]
        if row[v]:
            raise SchemaError(f"edge {pos}: duplicate pair {[min(u, v), max(u, v)]}")
        if not 1 <= col <= num_colors:
            raise SchemaError(f"edge {pos}: color {col} outside 1..{num_colors}")
        row[v] = rows[v][u] = col
    # Each entry that got here colored a pair no earlier one did.
    missing = edge_count - count
    if missing:
        raise SchemaError(f"coloring not total: {missing} cross-part pairs uncolored")
    return tuple(map(tuple, rows))


@dataclass(frozen=True, init=False)
class Coloring:
    """Total symmetric edge coloring of a complete multipartite graph.

    Built from `assignment`, a dict from each cross-part pair (u, v) to a
    color in 1..num_colors or a list of [u, v, color] triples (the JSON
    `edges` form), or from `colors`, one color per edge of `spec.edge_list`
    in that order (what code that generates colorings passes), which
    `_color_table` checks into `rows`. Only `rows` is stored: rows[u][v] is
    the color of edge uv and 0 on same-part pairs. The `assignment` property
    derives the lex-ordered {(u, v): color} dict, u < v, from it on each
    access, and `tight` whether every color of the palette is actually used,
    as opposed to num_colors being only a bound.
    """

    spec: PartitionSpec
    num_colors: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, spec: PartitionSpec, num_colors: int,
                 assignment: dict[tuple[int, int], int] | list | None = None,
                 *, colors: list[int] | tuple[int, ...] | bytes | None = None) -> None:
        if (assignment is None) == (colors is None):
            raise TypeError("Coloring takes one of assignment and colors")
        if colors is not None:
            rows = _color_table(spec, num_colors, colors, None)
        else:
            entries = assignment
            if isinstance(entries, dict):
                # A non-tuple key stays one item, which the validator rejects.
                entries = ((*key, col) if isinstance(key, tuple) else (key, col)
                           for key, col in entries.items())
            rows = _color_table(spec, num_colors, entries, len(assignment))
        # Frozen: the fields are set past the dataclass __setattr__.
        self.__dict__.update(spec=spec, num_colors=num_colors, rows=rows)

    @property
    def assignment(self) -> dict[tuple[int, int], int]:
        rows = self.rows
        return {(u, v): rows[u][v] for u, v in self.spec.edges()}

    @property
    def tight(self) -> bool:
        # The validator keeps every color in 1..num_colors.
        return len(self.used_colors()) == self.num_colors

    @classmethod
    def from_function(
        cls, spec: PartitionSpec, num_colors: int, rule: Callable[[int, int], int]
    ) -> "Coloring":
        return cls(spec, num_colors, colors=[rule(u, v) for u, v in spec.edge_list])

    def color(self, u: int, v: int) -> int:
        n = self.spec.n
        # Check the range before indexing: rows[-1] would answer silently.
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"pair ({u}, {v}) out of range 0..{n - 1}")
        col = self.rows[u][v]
        if not col:
            raise ValueError(f"pair ({u}, {v}) lies within one part; no edge")
        return col

    def used_colors(self) -> set[int]:
        return set().union(*self.rows) - {0}

    def permuted(self, sigma: dict[int, int]) -> "Coloring":
        """Relabel colors through a bijection of 1..num_colors."""
        # Keys are distinct, so keys equal to the palette set make len(sigma)
        # its size, and values equal to it are then distinct too.
        palette = set(range(1, self.num_colors + 1))
        if set(sigma) != palette or set(sigma.values()) != palette:
            raise ValueError("sigma must be a bijection of 1..num_colors")
        rows = self.rows
        return Coloring(self.spec, self.num_colors,
                        colors=[sigma[rows[u][v]] for u, v in self.spec.edge_list])

    # -- JSON schema -------------------------------------------------------
    # {"parts":[n1,...,nt], "num_colors":L, "tight":bool,
    #  "edges":[[u,v,color],...]}  with u < v, edges sorted lexicographically.

    def to_json_dict(self) -> dict:
        return {
            "parts": list(self.spec.sizes),
            "num_colors": self.num_colors,
            "tight": self.tight,
            "edges": [[u, v, c] for (u, v), c in self.assignment.items()],
        }

    def to_json_text(self) -> str:
        return json_text(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Coloring":
        for key in ("parts", "num_colors", "edges"):
            if key not in doc:
                raise SchemaError(f"missing key {key!r}")
        parts = doc["parts"]
        if not isinstance(parts, list) or any(type(s) is not int for s in parts):
            raise SchemaError(f"bad parts {parts!r}: expected a list of integers")
        try:
            spec = PartitionSpec(tuple(parts))
        except ValueError as exc:
            raise SchemaError(f"bad parts {parts!r}: {exc}") from exc
        edges = doc["edges"]
        if not isinstance(edges, list):
            raise SchemaError(
                f"bad edges: expected a list of [u,v,color], got {type(edges).__name__}"
            )
        if "tight" in doc and type(doc["tight"]) is not bool:
            raise SchemaError(f"tight must be true or false, got {doc['tight']!r}")
        coloring = cls(spec, doc["num_colors"], edges)
        if doc.get("tight", coloring.tight) != coloring.tight:
            raise SchemaError(f"tight is {json.dumps(doc['tight'])} but the edges use colors "
                              f"{sorted(coloring.used_colors())} of 1..{coloring.num_colors}")
        return coloring

    @classmethod
    def from_json_text(cls, text: str) -> "Coloring":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise SchemaError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("top-level JSON value must be an object")
        return cls.from_json_dict(doc)


def path_colors(coloring: Coloring, path: VertexPath) -> tuple[int, ...]:
    """Edge colors along a path (raises on non-adjacent consecutive pairs)."""
    return tuple(coloring.color(a, b) for a, b in zip(path, path[1:]))


def is_rainbow_path(coloring: Coloring, vertices) -> bool:
    """True iff the sequence is a path whose edge colors are pairwise distinct.

    Malformed sequences (too short, repeated or invalid vertices, same-part
    steps) return False rather than raising.
    """
    seq = tuple(vertices)
    n = coloring.spec.n
    # Types first: set() raises on an unhashable vertex such as a list.
    if len(seq) < 2 or any(type(w) is not int or not 0 <= w < n for w in seq):
        return False
    if len(set(seq)) != len(seq):
        return False
    rows = coloring.rows
    colors = [rows[a][b] for a, b in zip(seq, seq[1:])]
    if 0 in colors:  # a same-part step
        return False
    # More edges than colors can never be rainbow (pigeonhole), and that
    # falls out of the distinctness check below.
    return len(set(colors)) == len(colors)


@dataclass(frozen=True)
class WitnessFamily:
    """Internally disjoint rainbow u,v-paths plus the case that produced them."""

    u: int
    v: int
    paths: tuple[VertexPath, ...]
    provenance: str

    def internal_sets(self) -> list[frozenset[int]]:
        return [frozenset(p[1:-1]) for p in self.paths]

    def to_json_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "provenance": self.provenance,
            "paths": [list(p) for p in self.paths],
        }


def family_is_valid(coloring: Coloring, family: WitnessFamily, k: int) -> bool:
    """Check a witness family: >= k distinct rainbow u,v-paths with pairwise
    disjoint interiors, none of which touch the endpoints. A path is a list
    or tuple of vertices, as the JSON reader or a caller gives it; any other
    object makes the family invalid."""
    check_int(k, "k", 0)
    if not all(isinstance(p, (list, tuple)) for p in family.paths):
        return False
    paths = [tuple(p) for p in family.paths]
    if len(paths) < k:
        return False
    endpoints = {family.u, family.v}
    seen: set[int] = set()
    for p in paths:
        if not p or p[0] != family.u or p[-1] != family.v:
            return False
        if not is_rainbow_path(coloring, p):
            return False
        interior = set(p[1:-1])
        if interior & endpoints or interior & seen:
            return False
        seen |= interior
    # Only now are the paths known to hold plain ints, so they hash.
    return len(set(paths)) == len(paths)


@dataclass(frozen=True)
class VerificationReport:
    """Per-pair disjoint rainbow path counts and the overall verdict.

    When `capped` is set the counts were computed in decision mode and are
    clamped at k; they are lower bounds, not maxima.
    """

    k: int
    counts: dict[tuple[int, int], int]
    capped: bool
    failing_family: WitnessFamily | None = None

    @cached_property
    def failing_pair(self) -> tuple[int, int] | None:
        """The lexicographically first pair with fewer than k paths; the
        verdict `ok` is that there is none."""
        return min((p for p, c in self.counts.items() if c < self.k), default=None)

    @property
    def ok(self) -> bool:
        return self.failing_pair is None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "k": self.k,
            "verdict": "pass" if self.ok else "fail",
            "counts_capped_at_k": self.capped,
            "pairs": [[u, v, c] for (u, v), c in sorted(self.counts.items())],
        }
        if self.failing_pair is not None:
            doc["failing_pair"] = list(self.failing_pair)
            if self.failing_family is not None:
                doc["failing_pair_best_family"] = self.failing_family.to_json_dict()
        return doc


def all_pairs(spec: PartitionSpec) -> Iterator[tuple[int, int]]:
    """All unordered vertex pairs (same-part pairs included)."""
    return combinations(range(spec.n), 2)


def twin_classes(coloring: Coloring) -> list[list[int]]:
    """The vertices grouped into color-twin classes: vertices with equal
    `rows` entries, hence the same color toward every other vertex. Equal
    rows imply the same part, since rows[a][b] is 0 only when a and b share
    a part. Each class is ascending, and the classes are ordered by their
    smallest member."""
    rows = coloring.rows
    classes: dict[tuple[int, ...], list[int]] = {}
    for a in coloring.spec.vertices():
        classes.setdefault(rows[a], []).append(a)
    return list(classes.values())
