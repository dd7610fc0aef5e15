"""The explicit rainbow-k-connected colorings and their witness path families.

Five constructions are provided:

* ``bipartite4`` -- K_{a,b} with a,b >= 2k: each side split into two blocks,
  the four cross blocks colored 1..4.
* ``ctk``        -- recursive 3-coloring of K_{a_1,...,a_t}: for even t the
  parts are paired into (A_i, B_i); same-side edges get 1, matched pairs 2,
  crossed pairs 3. Odd t colors X-A edges 1 and X-B edges 3 on top of the
  even coloring of the remaining parts.
* ``extension``  -- grows two parts of a rainbow 2-connected 2-coloring by
  one vertex each, copying the color rows of an anchor vertex per part.
* ``mnn``        -- 2-coloring of K_{m,n,n} driven by m bit strings of length
  2*floor(n/2); the B-C edges form an identity pattern (0 on matched
  indices, 1 otherwise).
* ``k2416``      -- the fixed 2-coloring of K_{2,4,16} built from the eight
  length-4 bit strings with an odd number of zeros.

``witness_paths`` returns, for any vertex pair, the explicit family of
pairwise internally disjoint rainbow paths used to certify the construction,
tagged with the case that produced it. Positions equivalent to a canonical
one are reduced either through a genuine color automorphism (recorded in the
meta) or through the mirror-symmetric case body; both preserve rainbowness.

Each labeling is a pure function of the part sizes, stated once in a role or
labeling helper that both the color rule and the witness builder read. The
2-colorings state each vertex map once with its inverse: mnn and k2416 split
their ids into consecutive blocks (mnn's parts, k2416's classes), and
``_role`` and ``_vertex`` map an id to its (block, index) role and back, given
the blocks' first ids. ``_extension_ids`` returns the projection onto the
base, which maps each old vertex to its base id and each new vertex to its
anchor, whose color row it copies. The extension's color rule reads every
edge off the base at its projection, and its witness builder carries base
families back through it. ``_mapped`` carries a family through a vertex map:
k2416's automorphism and the extension's embeddings of the base.
A meta is the JSON object a construction file stores under ``meta``:
``tag``, ``params`` and ``labeling``, an extension's ``labeling.base_meta``
being its base's meta or None. Each ``color_*`` returns it, and
``read_meta`` checks one read from a file. Witness builders read only its
``tag``, ``labeling.sizes`` (checked against the coloring) and, for
``extension``, ``params.p``/``params.q`` and ``labeling.base_meta``; every
other meta field is descriptive.

Bit-valued palettes {0,1} are stored as {1,2} (0 -> 1, 1 -> 2), recorded in
the meta as ``bit_colors``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice, product

from .core import (
    Coloring,
    PartitionSpec,
    SchemaError,
    VertexPath,
    WitnessFamily,
    ceil_div,
    check_int,
    check_pair,
)

BIT_COLORS = {0: 1, 1: 2}


def _role(starts: tuple[int, ...], w: int) -> tuple[int, int]:
    """Vertex w's block among consecutive blocks whose first ids are
    `starts`, and its 1-based index there."""
    block = bisect_right(starts, w) - 1
    return block, w - starts[block] + 1


def _vertex(starts: tuple[int, ...], block: int, i: int) -> int:
    """The inverse of `_role`: the id of the i-th vertex of the block."""
    return starts[block] + i - 1


def read_meta(doc) -> dict:
    """A file's meta block, checked, as the `color_*` builders return it:
    {"tag", "params", "labeling"} in that order, other keys dropped, with
    labeling.base_meta read the same way. Raises SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError(f"bad meta: expected an object, got {type(doc).__name__}")
    for key, kind, name in (("tag", str, "string"), ("params", dict, "object"),
                            ("labeling", dict, "object")):
        if not isinstance(doc.get(key), kind):
            raise SchemaError(f"bad meta: {key!r} must be a JSON {name}")
    if doc["tag"] not in _BUILDERS:
        raise SchemaError(f"bad meta: unknown construction tag {doc['tag']!r}")
    labeling = dict(doc["labeling"])
    if labeling.get("base_meta") is not None:
        labeling["base_meta"] = read_meta(labeling["base_meta"])
    return {"tag": doc["tag"], "params": dict(doc["params"]), "labeling": labeling}


# ---------------------------------------------------------------------------
# bipartite4: K_{a,b} with four block colors
# ---------------------------------------------------------------------------


def _bipartite4_labeling(
    spec: PartitionSpec, k: int
) -> tuple[dict[str, list[int]], dict[int, str], dict[str, list[int]]]:
    """The blocks (balanced halves A1/A2 of part 0 and B1/B2 of part 1,
    larger half first), each vertex's block, and each block's first k
    vertices: the designated ones."""
    blocks = {}
    for side, part in (("A", 0), ("B", 1)):
        ids = list(spec.part_members(part))
        half = ceil_div(len(ids), 2)
        blocks[side + "1"], blocks[side + "2"] = ids[:half], ids[half:]
    block_of = {w: name for name, ids in blocks.items() for w in ids}
    return blocks, block_of, {name: ids[:k] for name, ids in blocks.items()}


def color_bipartite4(a: int, b: int, k: int) -> tuple[Coloring, dict]:
    """4-coloring of K_{a,b} (a, b >= 2k): split each side into balanced
    halves A1/A2 and B1/B2 and color A_i-B_j edges with four distinct colors."""
    check_int(k, "k", below="k must be >= 1")
    short = f"need a, b >= 2k = {2 * k}, got a={a}, b={b}"
    check_int(a, "a", 2 * k, below=short), check_int(b, "b", 2 * k, below=short)
    spec = PartitionSpec((a, b))
    blocks, block_of, designated = _bipartite4_labeling(spec, k)
    colors = {("A1", "B1"): 1, ("A1", "B2"): 2, ("A2", "B1"): 3, ("A2", "B2"): 4}
    # from_function passes u < v, so u lies in side A.
    return Coloring.from_function(spec, 4, lambda u, v: colors[block_of[u], block_of[v]]), {
        "tag": "bipartite4",
        "params": {"a": a, "b": b, "k": k},
        "labeling": {
            "sizes": list(spec.sizes),
            "blocks": blocks,
            "designated": designated,
            # The symmetries used for WLOG dispatch, as color transpositions.
            "automorphisms": {"A1<->A2": [[1, 3], [2, 4]], "A<->B": [[2, 3]]},
        },
    }


# ---------------------------------------------------------------------------
# ctk: recursive paired-part 3-coloring
# ---------------------------------------------------------------------------


def _ctk_role(t: int, part: int) -> tuple[str, int]:
    """The role of a part among t: ("A", i) or ("B", i) for the two sides of
    pair i, or ("X", -1). The last part plays X when t is odd; the rest are
    paired in input order, part 2i -> A_{i+1}, part 2i+1 -> B_{i+1}."""
    if t % 2 == 1 and part == t - 1:
        return ("X", -1)
    return ("AB"[part % 2], part // 2)


def _ctk_parts(t: int) -> dict[tuple[str, int], int]:
    """The part that plays each role: the inverse of `_ctk_role`."""
    return {_ctk_role(t, part): part for part in range(t)}


def color_ctk(spec: PartitionSpec, k: int) -> tuple[Coloring, dict]:
    """The recursive 3-coloring of the parts of `spec`: same-side edges 1,
    matched pairs 2, crossed pairs 3; with odd t the extra part X sends
    color 1 into side A and color 3 into side B. Defined for any part sizes;
    witness generation at level k additionally needs every part size
    >= ceil(2k/(t-1))."""
    check_int(k, "k", below="k must be >= 1")
    t = spec.t
    roles = [_ctk_role(t, part) for part in range(t)]

    def rule(u: int, v: int) -> int:
        (su, iu), (sv, iv) = roles[spec.part_of(u)], roles[spec.part_of(v)]
        if su == sv:
            return 1
        if "X" in (su, sv):
            return 1 if "A" in (su, sv) else 3
        return 2 if iu == iv else 3

    s = ceil_div(2 * k, t - 1)
    parts = _ctk_parts(t)
    return Coloring.from_function(spec, 3, rule), {
        "tag": "ctk",
        "params": {"t": t, "k": k, "s": s, "s1": ceil_div(s, 2), "s2": s // 2},
        "labeling": {
            "sizes": list(spec.sizes),
            "pairs": [[parts["A", i], parts["B", i]] for i in range(t // 2)],
            "x_part": parts.get(("X", -1)),
        },
    }


# ---------------------------------------------------------------------------
# mnn: bit-string 2-coloring of K_{m,n,n}
# ---------------------------------------------------------------------------


def _mnn_strings(m: int, n: int) -> list[str]:
    """The m designated bit strings of length 2s, s = floor(n/2): 1^s 0^s
    first, then the remaining ones in lexicographic order."""
    s = check_int(n, "n", 2, below="n must be >= 2") // 2
    bounds = f"need 1 <= m <= 4^floor(n/2) = {4 ** s}, got m={m}"
    if check_int(m, "m", below=bounds) > 4**s:
        raise ValueError(bounds)
    lead = "1" * s + "0" * s
    rest = ("".join(bits) for bits in product("01", repeat=2 * s))
    return [lead, *islice((b for b in rest if b != lead), m - 1)]


def _mnn_group(j: int, s: int) -> int:
    """Index pair group of b_j / c_j (1-based): {1,2} -> 1, {3,4} -> 2, ...;
    with odd n the last group absorbs the extra index."""
    return min((j + 1) // 2, s)


def _mnn_bit(strings: list[str], s: int, i: int, part: int, j: int) -> int:
    """a_i's bit toward the j-th vertex of B (part 1) or C (part 2): the bit
    of j's group in the B or the C half of a_i's string."""
    return int(strings[i - 1][(part - 1) * s + _mnn_group(j, s) - 1])


def color_mnn(m: int, n: int) -> tuple[Coloring, dict]:
    """2-coloring of K_{m,n,n} with rc_2 = 2 whenever 1 <= m <= 4^floor(n/2).

    B-C edges: bit 0 on matched indices, bit 1 otherwise. A-B and A-C edges
    read one bit of the vertex's string per index-pair group."""
    strings = _mnn_strings(m, n)
    s = n // 2
    spec = PartitionSpec((m, n, n))

    def rule(u: int, v: int) -> int:
        # from_function passes u < v, so u's part comes first. The roles are
        # (part, index): 0 = A, 1 = B, 2 = C, so u is a_i, b_i or c_i.
        (pu, i), (pv, j) = _role(spec.offsets, u), _role(spec.offsets, v)
        if pu == 1:
            return BIT_COLORS[0 if i == j else 1]
        return BIT_COLORS[_mnn_bit(strings, s, i, pv, j)]

    return Coloring.from_function(spec, 2, rule), {
        "tag": "mnn",
        "params": {"m": m, "n": n, "s": s, "k": 2},
        "labeling": {
            "sizes": list(spec.sizes),
            "strings": strings,
            "part_roles": {"A": 0, "B": 1, "C": 2},
            "bit_colors": {str(b): c for b, c in BIT_COLORS.items()},
        },
    }


# ---------------------------------------------------------------------------
# k2416: the fixed 2-coloring of K_{2,4,16}
# ---------------------------------------------------------------------------


def _odd_zero_strings() -> list[str]:
    return [f"{i:04b}" for i in range(16) if f"{i:04b}".count("0") % 2 == 1]


# The first id of each class: A, B, C_L, C_R. A vertex's role is its class
# (0 = A, 1 = B, 2 = C_L, 3 = C_R) and its 1-based index there: a_i, b_j, c_i
# or c_i'.
_K2416_STARTS = (0, 2, 6, 14)


def color_2_4_16() -> tuple[Coloring, dict]:
    """The 2-coloring of K_{2,4,16} with rc_2 = 2. C splits into halves C_L
    and C_R indexed by the eight odd-zero-count length-4 bit strings; B-C
    edges read string bits, A-B edges are all 0, and a_1/a_2 see C_L/C_R
    with opposite colors."""
    spec = PartitionSpec((2, 4, 16))
    strings = _odd_zero_strings()

    def rule(u: int, v: int) -> int:
        # from_function passes u < v, so u's class comes first.
        (cu, i), (cv, j) = _role(_K2416_STARTS, u), _role(_K2416_STARTS, v)
        if cu == 1:  # b_i against c_j or c_j': bit i of string j
            return BIT_COLORS[int(strings[j - 1][i - 1])]
        return BIT_COLORS[0 if cv == 1 or (i == 1) == (cv == 2) else 1]

    return Coloring.from_function(spec, 2, rule), {
        "tag": "k2416",
        "params": {"k": 2},
        "labeling": {
            "sizes": [2, 4, 16],
            "strings": strings,
            "c_left": [_vertex(_K2416_STARTS, 2, i) for i in range(1, 9)],
            "c_right": [_vertex(_K2416_STARTS, 3, i) for i in range(1, 9)],
            "bit_colors": {str(b): c for b, c in BIT_COLORS.items()},
            # Genuine color automorphism used for WLOG dispatch.
            "automorphism": "swap a1<->a2 together with C_L<->C_R",
        },
    }


# ---------------------------------------------------------------------------
# extension: grow two parts of a rainbow 2-connected 2-coloring
# ---------------------------------------------------------------------------


def _extension_ids(
    bspec: PartitionSpec, p: int, q: int
) -> tuple[PartitionSpec, list[int], list[int], list[int], list[int], list[int]]:
    """Grow parts p and q of bspec by one vertex each: the grown spec, the
    old -> new id map, the two new vertices, the anchors (the lowest id of
    each grown part) as new and as old ids, and the projection onto the base:
    each grown id's old id, and each new vertex's anchor. Old vertices keep
    their within-part index; each new vertex lands at the end of its part's
    block."""
    if (type(p) is not int or type(q) is not int or p == q
            or not (0 <= p < bspec.t and 0 <= q < bspec.t)):
        raise ValueError(f"grown parts must be two distinct part indices, got {p!r}, {q!r}")
    sizes = list(bspec.sizes)
    sizes[p] += 1
    sizes[q] += 1
    spec = PartitionSpec(tuple(sizes))
    id_map = [
        spec.offsets[bspec.part_of(w)] + (w - bspec.offsets[bspec.part_of(w)])
        for w in bspec.vertices()
    ]
    news = [spec.offsets[p] + bspec.sizes[p], spec.offsets[q] + bspec.sizes[q]]
    anchors_old = [bspec.offsets[p], bspec.offsets[q]]
    proj = [0] * spec.n
    for old, new in [*enumerate(id_map), *zip(anchors_old, news)]:
        proj[new] = old
    return spec, id_map, news, [id_map[w] for w in anchors_old], anchors_old, proj


def color_extension(
    base: Coloring,
    p: int,
    q: int,
    base_meta: dict | None = None,
) -> tuple[Coloring, dict]:
    """Add one vertex to parts p and q of a 2-colored base, copying the color
    rows of the lowest-id anchor vertex of each grown part. The two new
    vertices a_1, a_2 get c(a_1 a_2) = 1 and c(a_1 a_2') = c(a_1' a_2) = 2;
    if the base colors the anchor edge a_1'a_2' with 2, the base palette is
    globally transposed first.

    The caller asserts the base is rainbow 2-connected; this is not checked
    here. Passing the base's own meta enables witness generation
    for every pair (otherwise only the anchor pairs have explicit families);
    a meta whose labeling.sizes are not the base's part sizes is refused.
    """
    bspec = base.spec
    if bspec.t < 3:
        raise ValueError("extension needs a base with t >= 3 parts")
    if base.num_colors != 2:
        raise ValueError("extension needs a 2-colored base")
    if base_meta is not None and base_meta["labeling"].get("sizes") != list(bspec.sizes):
        raise ValueError(f"base meta's labeling.sizes are not the base's {list(bspec.sizes)}")
    spec, id_map, (new_a1, new_a2), (anchor1, anchor2), (anchor1_old, anchor2_old), proj = (
        _extension_ids(bspec, p, q))
    transposed = base.color(anchor1_old, anchor2_old) == 2
    base_colors = base.permuted({1: 2, 2: 1}) if transposed else base
    recolored = ({new_a1, anchor2}, {new_a2, anchor1})

    def rule(u: int, v: int) -> int:
        # Every other edge copies the base edge it projects onto. a_1 a_2
        # projects onto the anchor edge, which the transposition made 1.
        return 2 if {u, v} in recolored else base_colors.color(proj[u], proj[v])

    return Coloring.from_function(spec, 2, rule), {
        "tag": "extension",
        "params": {"k": 2, "p": p, "q": q},
        "labeling": {
            "sizes": list(spec.sizes),
            "base_sizes": list(bspec.sizes),
            "id_map": id_map,
            "new_vertices": [new_a1, new_a2],
            "anchors": [anchor1, anchor2],
            "anchors_old": [anchor1_old, anchor2_old],
            "transposed": transposed,
            "base_meta": base_meta,
        },
    }


# ---------------------------------------------------------------------------
# Witness path families
# ---------------------------------------------------------------------------


def witness_paths(
    meta: dict, coloring: Coloring, u: int, v: int, k: int
) -> WitnessFamily:
    """The explicit family of k pairwise internally disjoint rainbow paths
    from the construction's own argument for the pair's position class.
    Raises ValueError unless u, v is a pair of the coloring
    (`core.check_pair`) and k an integer the construction has witnesses for:
    any k >= 1, or the one k of its `_BUILDERS` entry, and unless an
    extension meta's chain of base metas is shallow enough to follow (each
    level takes a few stack frames)."""
    check_pair(u, v)
    try:
        return _witness(meta, coloring.spec, u, v, k)
    except RecursionError:
        raise ValueError("the meta's chain of extension base metas is too deep to "
                         "follow") from None


def _witness(meta: dict, spec: PartitionSpec,
             u: int, v: int, k: int) -> WitnessFamily:
    if meta["labeling"].get("sizes") != list(spec.sizes):
        raise ValueError("coloring does not match the construction meta")
    spec.part_of(u), spec.part_of(v)  # id validation
    return _BUILDERS[meta["tag"]][0](meta, spec, u, v, k)


def _witness_k(meta: dict, k: int) -> None:
    """The one witness k rule: k is an integer >= 1, or the one k of the
    construction's `_BUILDERS` entry. Each builder calls it once, before it
    reads k: bipartite4 and ctk after checking their part count, the k = 2
    constructions first."""
    only = _BUILDERS[meta["tag"]][1]
    if only is None:
        check_int(k, "k", below="k must be >= 1")
        return
    wrong = f"{meta['tag']} witnesses exist for k = {only} only, got k={k}"
    if check_int(k, "k", only, below=wrong) != only:
        raise ValueError(wrong)


def _reverse(family: WitnessFamily) -> WitnessFamily:
    return WitnessFamily(
        family.v,
        family.u,
        tuple(tuple(reversed(p)) for p in family.paths),
        family.provenance + " (reversed)",
    )


def _mapped(family: WitnessFamily, image, provenance: str) -> WitnessFamily:
    """The family with every vertex w of its paths replaced by image(w)."""
    paths = tuple(tuple(map(image, p)) for p in family.paths)
    return WitnessFamily(image(family.u), image(family.v), paths, provenance)


def _via(u: int, v: int, *blocks) -> list[VertexPath]:
    """The paths u -> blocks[0][j] -> blocks[1][j] -> ... -> v, one for each
    j up to the length of the shortest block."""
    return [(u, *mids, v) for mids in zip(*blocks)]


# -- bipartite4 -------------------------------------------------------------


def _bipartite_witness(meta: dict, spec: PartitionSpec,
                       u: int, v: int, k: int) -> WitnessFamily:
    if spec.t != 2:
        raise ValueError(f"bipartite4 needs two parts, got {spec.t}")
    _witness_k(meta, k)
    blocks, block_of, desig = _bipartite4_labeling(spec, k)
    short = [name for name, ids in blocks.items() if len(ids) < k]
    if short:
        raise ValueError(f"blocks {short} smaller than k={k}; outside the construction's bounds")
    bu, bv = block_of[u], block_of[v]
    sibling = {"A1": "A2", "A2": "A1", "B1": "B2", "B2": "B1"}
    far1, far2 = ("B1", "B2") if bu[0] == "A" else ("A1", "A2")
    via = lambda *names: tuple(_via(u, v, *(desig[name] for name in names)))

    if bu == bv:
        # Route through the sibling block between the two opposite blocks.
        case, paths = "bipartite4 Case 1", via(far1, sibling[bu], far2)
    elif bu[0] == bv[0]:
        case, paths = "bipartite4 Case 2", via(far1)
    else:
        case, paths = "bipartite4 Case 3", via(sibling[bv], sibling[bu])
    return WitnessFamily(u, v, paths, f"{case} [{bu},{bv}]")


# -- ctk ---------------------------------------------------------------------


def _ctk_witness(meta: dict, spec: PartitionSpec,
                 u: int, v: int, k: int) -> WitnessFamily:
    t = spec.t
    if t < 3:
        raise ValueError("ctk witnesses need t >= 3")
    _witness_k(meta, k)
    s = ceil_div(2 * k, t - 1)
    if min(spec.sizes) < s:
        raise ValueError(
            f"witnesses at level k={k} need every part size >= {s}, got {spec.sizes}"
        )
    pu, pv = spec.part_of(u), spec.part_of(v)
    (su, p), (sv, q) = _ctk_role(t, pu), _ctk_role(t, pv)
    if "ABX".index(su) > "ABX".index(sv):
        return _reverse(_ctk_witness(meta, spec, v, u, k))

    # Designated vertices seen from u's side: same(i) is on u's side of pair
    # i, opp(i) on the other. The mirrored cases stay rainbow because the
    # color pattern is symmetric between the two sides (only the X-edge
    # colors flip, and no mirrored case repeats them).
    near, far = ("B", "A") if su == "B" else ("A", "B")
    parts = _ctk_parts(t)
    desig = lambda role: spec.part_members(parts[role])[:s]
    same = lambda i: desig((near, i))
    opp = lambda i: desig((far, i))
    x = lambda: desig(("X", -1))
    via = lambda *blocks: _via(u, v, *blocks)
    # every pair not in skip, through its two sides
    across = lambda *skip: [path for i in range(t // 2) if i not in skip
                            for path in via(same(i), opp(i))]
    # the designated vertices on one side of every pair not in skip
    side = lambda of, *skip: [w for i in range(t // 2) if i not in skip for w in of(i)]
    other = lambda i: 1 if i == 0 else 0  # the lowest pair index but i
    r, s1, s2 = other(p), ceil_div(s, 2), s // 2

    # Keyed by parity, the two roles' sides (u's first, BB read as AA) and
    # "=" when u and v share a part.
    cases = {
        "odd AA=": ("odd-t Case 1.1", lambda: across(p) + via(x(), opp(p))),
        "odd AA": ("odd-t Case 1.2", lambda: across(p, q) + via(x(), opp(q)) + via(opp(p))),
        "odd AB": ("odd-t Case 1.3", lambda: via(side(same, p)) + via(x())),
        "odd AX": ("odd-t Case 1.4", lambda: across(p) + via(opp(p))),
        # The mirror of Case 1.4 is not rainbow (its A-X leg repeats color
        # 1), so route through every A-side block directly.
        "odd BX": ("odd-t Case 1.4 (B-side reroute)", lambda: via(side(opp))),
        "odd XX=": ("odd-t Case 2", lambda: across()),
        # With s odd, the s_1-th vertex of opp(p) is the one left out.
        "even AA=": ("even-t Case 1", lambda: via(same(r)[:s1], opp(r)[:s1])
                     + via(same(r)[s1:], opp(p)[s1:]) + via(opp(p)[:s2], opp(r)[s1:])
                     + across(p, r)),
        "even AA": ("even-t Case 2", lambda: across(p, q) + via(opp(p)) + via(opp(q))),
        "even AB": ("even-t Case 3", lambda: via(side(same, p)) + via(opp(other(q)))),
    }
    parity = "odd" if t % 2 else "even"
    case, paths = cases[f"{parity} {(su + sv).replace('BB', 'AA')}{'=' * (pu == pv)}"]
    side_note = " (side-mirrored)" if su == sv == "B" else ""
    return WitnessFamily(u, v, tuple(paths()), case + side_note)


# -- mnn ---------------------------------------------------------------------


def _mnn_witness(meta: dict, spec: PartitionSpec,
                 u: int, v: int, k: int) -> WitnessFamily:
    _witness_k(meta, k)
    if spec.t != 3 or spec.sizes[1] != spec.sizes[2]:
        raise ValueError(f"mnn needs parts (m, n, n), got {spec.sizes}")
    m, n, _ = spec.sizes
    s, strings = n // 2, _mnn_strings(m, n)
    cu, cv = _role(spec.offsets, u), _role(spec.offsets, v)
    if cu[0] > cv[0]:
        return _reverse(_mnn_witness(meta, spec, v, u, k))

    if cu[0] == 0 and cv[0] == 0:
        si, sj = strings[cu[1] - 1], strings[cv[1] - 1]
        # The first differing bit: its half names the part, its place the group.
        half, g = divmod(next(x for x in range(2 * s) if si[x] != sj[x]), s)
        mids = [_vertex(spec.offsets, half + 1, 2 * g + x) for x in (1, 2)]
        return WitnessFamily(u, v, tuple(_via(u, v, mids)), "mnn Case 4")
    other = 3 - cv[0]  # B (1) or C (2), whichever v is not in
    if cu[0] == 0:
        # Through c_j or b_j, whose edge to v is matched (bit 0), when a_i's
        # bit toward it is 1; else through the lowest other index of j's
        # group, toward which a_i has the same bit 0 and whose edge to v is
        # unmatched (bit 1).
        i, j = cu[1], cv[1]
        if not _mnn_bit(strings, s, i, other, j):
            group = _mnn_group(j, s)
            j = min(x for x in range(1, n + 1) if x != j and _mnn_group(x, s) == group)
        case = "mnn Case 3" if cv[0] == 1 else "mnn Case 3 (C-side)"
        return WitnessFamily(u, v, ((u, v), (u, _vertex(spec.offsets, other, j), v)), case)
    if cu[0] == cv[0]:
        mids = [_vertex(spec.offsets, other, j) for j in (cu[1], cv[1])]
        case = "mnn Case 1" if cu[0] == 1 else "mnn Case 1 (C-side)"
        return WitnessFamily(u, v, tuple(_via(u, v, mids)), case)
    # u in B, v in C.
    return WitnessFamily(u, v, ((u, v), (u, 0, v)), "mnn Case 2")


# -- k2416 -------------------------------------------------------------------


def _k2416_tau(w: int) -> int:
    """The coloring automorphism: swap a_1 with a_2 and C_L with C_R."""
    cls, i = _role(_K2416_STARTS, w)
    # a_i goes to a_(3-i), B stays, C_L and C_R trade places index for index.
    return _vertex(_K2416_STARTS, (0, 1, 3, 2)[cls], 3 - i if cls == 0 else i)


def _k2416_witness(meta: dict, spec: PartitionSpec,
                   u: int, v: int, k: int) -> WitnessFamily:
    _witness_k(meta, k)
    if spec.sizes != (2, 4, 16):
        raise ValueError(f"k2416 needs parts (2, 4, 16), got {spec.sizes}")
    strings = _odd_zero_strings()
    cu, cv = _role(_K2416_STARTS, u), _role(_K2416_STARTS, v)
    if cu[0] > cv[0] or (cu[0] == cv[0] and u > v):
        return _reverse(_k2416_witness(meta, spec, v, u, k))

    if cu[0] == 0 and cv[0] == 0:
        mids = [_vertex(_K2416_STARTS, 2, 1), _vertex(_K2416_STARTS, 2, 2)]
        return WitnessFamily(u, v, tuple(_via(u, v, mids)), "k2416 Case 1")
    if cu[0] == 0:
        if u == 1:
            inner = _k2416_witness(meta, spec, _k2416_tau(u), _k2416_tau(v), k)
            return _mapped(inner, _k2416_tau,
                           inner.provenance + " (via a1<->a2, C_L<->C_R automorphism)")
        if cv[0] == 1:
            i = next(x + 1 for x in range(8) if strings[x][cv[1] - 1] == "1")
            mid = _vertex(_K2416_STARTS, 2, i)
        else:
            j = next(x + 1 for x in range(4) if strings[cv[1] - 1][x] == "1")
            mid = _vertex(_K2416_STARTS, 1, j)
        return WitnessFamily(u, v, ((u, v), (u, mid, v)), "k2416 Case 2")
    if cu[0] == 1 and cv[0] == 1:
        bp, bq = cu[1], cv[1]
        i = next(
            x + 1 for x in range(8) if strings[x][bp - 1] != strings[x][bq - 1]
        )
        mids = [_vertex(_K2416_STARTS, 2, i), _vertex(_K2416_STARTS, 3, i)]
        return WitnessFamily(u, v, tuple(_via(u, v, mids)), "k2416 Case 4")
    if cu[0] == 1:
        helper = 1 if cv[0] == 2 else 0  # a_2 covers C_L, a_1 covers C_R
        return WitnessFamily(u, v, ((u, v), (u, helper, v)), "k2416 Case 3")
    if cu[0] == 2 and cv[0] == 3:
        return WitnessFamily(u, v, ((u, 0, v), (u, 1, v)), "k2416 Case 5")
    # Same C half: the two strings differ in at least two bit positions.
    si, sj = strings[cu[1] - 1], strings[cv[1] - 1]
    mids = [_vertex(_K2416_STARTS, 1, x + 1) for x in range(4) if si[x] != sj[x]][:2]
    return WitnessFamily(u, v, tuple(_via(u, v, mids)), "k2416 Case 6")


# -- extension ----------------------------------------------------------------


def _extension_witness(meta: dict, spec: PartitionSpec,
                       u: int, v: int, k: int) -> WitnessFamily:
    _witness_k(meta, k)
    p, q = meta["params"].get("p"), meta["params"].get("q")
    # The base has parts p and q one vertex smaller; _extension_ids rejects
    # any p, q other than two distinct part indices.
    bspec = PartitionSpec(tuple(size - (i in (p, q)) for i, size in enumerate(spec.sizes)))
    _, id_map, (new_a1, new_a2), (anchor1, anchor2), (anchor1_old, anchor2_old), proj = (
        _extension_ids(bspec, p, q))
    news = {new_a1, new_a2}

    def base_family(u0: int, v0: int) -> WitnessFamily:
        base_meta = meta["labeling"].get("base_meta")
        if base_meta is None:
            raise ValueError(
                "witnesses for this pair need the base construction's meta "
                "(pass base_meta to color_extension)"
            )
        return _witness(base_meta, bspec, u0, v0, 2)

    def lift(fam: WitnessFamily, swap: dict[int, int], note: str) -> WitnessFamily:
        out = _mapped(fam, lambda w: swap.get(id_map[w], id_map[w]),
                      f"{note} [{fam.provenance}]")
        return out if out.u == u else _reverse(out)

    if u not in news and v not in news:
        return lift(base_family(proj[u], proj[v]), {}, "extension via base coloring")
    pair = {u, v}
    if pair == {new_a1, anchor1}:
        paths = ((u, new_a2, v), (u, anchor2, v))
        return WitnessFamily(u, v, paths, "extension anchor pair")
    if pair == {new_a2, anchor2}:
        paths = ((u, new_a1, v), (u, anchor1, v))
        return WitnessFamily(u, v, paths, "extension anchor pair")
    if pair == {new_a1, anchor2}:
        fam = base_family(anchor1_old, anchor2_old)
        return lift(fam, {anchor1: new_a1}, "extension via recolored-edge embedding")
    if pair == {new_a2, anchor1}:
        fam = base_family(anchor1_old, anchor2_old)
        return lift(fam, {anchor2: new_a2}, "extension via recolored-edge embedding")
    # At least one endpoint is new and its partner is not an anchor: embed
    # through the isomorphic copy that swaps each new vertex with its anchor.
    fam = base_family(proj[u], proj[v])
    return lift(
        fam, {anchor1: new_a1, anchor2: new_a2}, "extension via anchor-swap embedding"
    )


# tag -> (witness builder, the one k its witnesses exist for, or None for
# every k >= 1); also the tags a meta block may carry.
_BUILDERS = {"bipartite4": (_bipartite_witness, None), "ctk": (_ctk_witness, None),
             "mnn": (_mnn_witness, 2), "k2416": (_k2416_witness, 2),
             "extension": (_extension_witness, 2)}
