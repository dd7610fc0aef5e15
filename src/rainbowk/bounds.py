"""Lower-bound machinery: the f(k,t) formula, pigeonhole color twins, and
machine-checkable certificates that a given coloring is not rainbow
k-connected.

The lower-bound statements quantify over all colorings; exhausting them is
infeasible (4^34 colorings already for K_{2,17}), so this module certifies
supplied colorings instead and reads every hypothesis off the coloring
itself. `SCENARIOS` states each scenario once: its palette size, and the
check of its part sizes that names the big part. The pigeonhole and
path-length arguments hold per coloring, which makes each certificate a
complete proof for its input.

A certificate takes two steps. `_twin_plan` checks the scenario's
hypotheses on the spec and fixes the palette, the big part, the params and
the interior bound; `_certify` checks one coloring against the plan (its
palette, its twins, their count below k and within the bound). The
certifiers plan on every call; `sample_certificates` plans once per run,
since its colorings share one spec, and certifies each sample.

A certificate is the JSON object that `lower-bound -o` writes, in this key
order: {"scenario", "params", "twins": [a, b], "max_disjoint_rainbow_paths",
"arithmetic_bound"}. `params` is the plan's own dict, shared by every
certificate of the plan, not a copy: a run's document holds it once, and
`core.json_text` writes it once.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from functools import lru_cache, partial
from types import SimpleNamespace

from .core import Coloring, InvariantError, PartitionSpec, ceil_div, check_int
from .verifier import PairQuery, fan_out, max_disjoint_rainbow

logger = logging.getLogger(__name__)


def f_formula(k: int, t: int) -> int:
    """Minimum part size forcing rc_k <= 4 (t = 2) resp. <= 3 (t >= 3):
    ceil(2k / (t-1))."""
    domain = "f(k, t) is defined for k, t >= 2"
    check_int(k, "k", 2, below=domain), check_int(t, "t", 2, below=domain)
    return ceil_div(2 * k, t - 1)


def find_color_twins(coloring: Coloring, big_part: int) -> tuple[int, int] | None:
    """First (lexicographic) pair of vertices in big_part with identical
    color profiles toward every vertex outside big_part, if any.

    One scan of the part: each row is keyed by its entries outside the
    part, which are equal exactly when the rows are (its entries inside
    are 0 for every member). A member whose key is taken repeats the class
    of that key's first member b, and the lex-first twin pair is the least
    (b, a) over these repeats: a class's first repeat is its second member."""
    spec = coloring.spec
    out = f"part index {big_part} out of range"
    if check_int(big_part, "big_part", 0, below=out) >= spec.t:
        raise ValueError(out)
    start = spec.offsets[big_part]
    end = start + spec.sizes[big_part]
    rows = coloring.rows
    first: dict[tuple[int, ...], int] = {}
    twins = None
    for a in range(start, end):
        row = rows[a]
        b = first.setdefault(row[:start] + row[end:], a)
        if b != a and (twins is None or b < twins[0]):
            twins = (b, a)
    return twins


def _bipartite5(k: int, spec: PartitionSpec) -> tuple[int, dict]:
    """Big part index and params {k, s, m} of K_{s,m}, s <= m, after
    checking the bipartite5 hypotheses k >= 2, k <= s <= 2k-1 and
    m >= 4^s + 1; ValueError names the first that fails."""
    if spec.t != 2:
        raise ValueError(f"bipartite5 needs 2 parts, got {spec.t}")
    check_int(k, "k", 2, below="k must be >= 2")
    s, m = sorted(spec.sizes)
    if not k <= s <= 2 * k - 1:
        raise ValueError(f"need k <= s <= 2k-1, got k={k}, s={s}")
    if m < 4**s + 1:
        raise ValueError(f"need m >= 4^s + 1 = {4 ** s + 1}, got m={m}")
    return spec.sizes.index(m), {"k": k, "s": s, "m": m}


def _multipartite4(k: int, spec: PartitionSpec) -> tuple[int, dict]:
    """Big part index and params {k, t, sizes, m} after checking the
    multipartite4 hypotheses t >= 3, k >= 2, every other part's size in
    [ceil(k/(t-1)), ceil(2k/(t-1)) - 1] and the big part above 3^(their
    sum); ValueError names the first that fails."""
    sizes, t = spec.sizes, spec.t
    if t < 3:
        raise ValueError(f"multipartite4 needs t >= 3 parts, got {t}")
    check_int(k, "k", 2, below="k must be >= 2")
    big = max(range(t), key=lambda i: sizes[i])
    small = [sizes[i] for i in range(t) if i != big]
    lo, hi = ceil_div(k, t - 1), ceil_div(2 * k, t - 1) - 1
    bad = [s_i for s_i in small if not lo <= s_i <= hi]
    if bad:
        raise ValueError(f"small part sizes {bad} outside [{lo}, {hi}]")
    if sizes[big] < 3 ** sum(small) + 1:
        raise ValueError(
            f"big part must have >= 3^{sum(small)} + 1 = {3 ** sum(small) + 1} "
            f"vertices, got {sizes[big]}"
        )
    return big, {"k": k, "t": t, "sizes": list(sizes), "m": sizes[big]}


# Palette size (the certifier's hypothesis and the sampler's draw) and check.
SCENARIOS = {"bipartite5": (4, _bipartite5), "multipartite4": (3, _multipartite4)}


def _twin_plan(scenario: str, k: int, spec: PartitionSpec) -> SimpleNamespace:
    """Check the scenario's hypotheses on spec (ValueError names the first
    that fails) and plan its certificates: a record of the scenario, k, the
    spec, the palette size, the big part, the certificates' params (shared
    by every certificate of the plan) and their interior bound.

    Twins a1, a2 see each outside vertex w in one color, so no a1-w-a2 path
    is rainbow. A rainbow twin path therefore has length 4 with 4 colors on
    K_{s,m} and length 3 with 3 colors on t >= 3 parts, and either way two
    of its interior vertices lie in the small parts. Paths with disjoint
    interiors number at most `bound` = S // 2, S the small-part vertex
    count, so a count above it means the search or this argument is wrong.

    `bound` equals one region's term of the verifier's interior-capacity
    bound (see `rainbowk.verifier`) on the twin pair's paths whenever every
    small-part vertex lies on one of them: the small part on K_{s,m}, the
    whole vertex set on t >= 3 parts (interiors avoid the big part). Each
    twin path weighs 2 in that region."""
    palette, check = SCENARIOS[scenario]
    big, params = check(k, spec)
    return SimpleNamespace(scenario=scenario, k=k, spec=spec, palette=palette, big=big,
                           params=params, bound=(spec.n - spec.sizes[big]) // 2)


def _certify(plan: SimpleNamespace, coloring: Coloring) -> dict:
    """Certificate (module docstring) from the first twin pair in the plan's
    big part of coloring, a coloring of plan.spec. Raises ValueError when it
    uses more colors than the palette, InvariantError when the twins are
    missing or their count is not below k and within the plan's bound."""
    if coloring.num_colors > plan.palette:
        raise ValueError(f"coloring must use at most {plan.palette} colors")
    twins = find_color_twins(coloring, plan.big)
    if twins is None:
        raise InvariantError("pigeonhole guarantee violated: no color twins found")
    count, _ = max_disjoint_rainbow(coloring, PairQuery(twins[0], twins[1]))
    if count >= plan.k:
        raise InvariantError(
            f"certificate construction failed: twins {twins} admit {count} >= k paths"
        )
    if count > plan.bound:
        raise InvariantError(
            f"twins {twins} admit {count} paths, above the interior bound {plan.bound}"
        )
    return {"scenario": plan.scenario, "params": plan.params, "twins": list(twins),
            "max_disjoint_rainbow_paths": count, "arithmetic_bound": plan.bound}


def certify_bipartite_lower(k: int, coloring: Coloring) -> dict:
    """Certify that a 4-colored K_{s,m} (k <= s <= 2k-1, m >= 4^s + 1) is not
    rainbow k-connected: the big part carries color twins, every rainbow twin
    path has length 4 and uses two small-part interiors, and the small part
    is too small to host k of them. s and m are read off coloring.spec. The
    certificate is its JSON object (module docstring)."""
    return _certify(_twin_plan("bipartite5", k, coloring.spec), coloring)


def certify_multipartite_lower(k: int, coloring: Coloring) -> dict:
    """Certify that a 3-colored complete t-partite graph (t >= 3) with one
    huge part and t-1 small parts of size in [ceil(k/(t-1)),
    ceil(2k/(t-1)) - 1] is not rainbow k-connected. Twin paths have length 3
    with both interiors among the small parts. t and the part sizes are read
    off coloring.spec. The certificate is its JSON object (module
    docstring)."""
    return _certify(_twin_plan("multipartite4", k, coloring.spec), coloring)


@lru_cache(maxsize=None)
def _byte_tables(num_colors: int) -> tuple[bytes, bytes]:
    """`bytes.translate` tables for `random_coloring`'s byte draw: the map
    from the top byte of a 32-bit word to its color 1 + (byte >> (8 - b)),
    b = num_colors.bit_length(), and the bytes whose value is rejected."""
    shift = 8 - num_colors.bit_length()
    values = [byte >> shift for byte in range(256)]
    table = bytes(r + 1 if r < num_colors else 0 for r in values)
    reject = bytes(byte for byte, r in enumerate(values) if r >= num_colors)
    return table, reject


def random_coloring(
    spec: PartitionSpec, num_colors: int, seed: int
) -> Coloring:
    """Uniform independent color per cross edge from a seeded generator;
    the same seed always reproduces the same coloring.

    Stream contract: edge by edge in lex order (`spec.edge_list`), the
    colors are those `rng.randrange(1, num_colors + 1)` draws from
    `rng = random.Random(seed)`. randrange(1, L + 1) returns 1 + r, r drawn
    by rejection: getrandbits(b), b = L.bit_length(), until r < L. For
    b <= 32 each getrandbits(b) takes one 32-bit Mersenne Twister word and
    keeps its top b bits, and getrandbits(32 * W) returns the next W words,
    the first one least significant. So for L <= 255 (b <= 8) the top
    bytes of `getrandbits(32 * W).to_bytes(4 * W, "little")`, every fourth
    byte from the fourth, give the same r values in order after a shift
    right by 8 - b: `_byte_tables` drops the rejected ones and maps the
    rest to 1 + r. A round draws M * 2^b // L + M // 4 + 16 words for the
    M colors still missing (a word is kept with probability L / 2^b),
    another round follows a short one, and the first `edge_count` colors
    are kept. The words past the last kept one would feed only later
    draws of a generator local to this call, so no color depends on
    them. Larger palettes draw with randrange itself. The seed must be an
    integer >= 0: random.Random(-s) seeds like Random(s).

    The colors go to `Coloring` as drawn, one per edge in edge order (the
    translated bytes, or the list of larger colors): no [u, v, color]
    triples are built, and the validator checks only their count and
    range."""
    check_int(num_colors, "num_colors", below="num_colors must be >= 1")
    rng = random.Random(check_int(seed, "seed", 0))
    edge_count = spec.edge_count()
    if num_colors <= 255:
        table, reject = _byte_tables(num_colors)
        bits = num_colors.bit_length()
        colors = b""
        while len(colors) < edge_count:
            missing = edge_count - len(colors)
            words = (missing << bits) // num_colors + missing // 4 + 16
            top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
            colors += top.translate(table, reject)
        colors = colors[:edge_count]
    else:
        colors = [rng.randrange(1, num_colors + 1) for _ in range(edge_count)]
    return Coloring(spec, num_colors, colors=colors)


def _certify_seed(plan: SimpleNamespace, seed: int) -> dict:
    """The certificate of the plan's seeded random coloring."""
    return _certify(plan, random_coloring(plan.spec, plan.palette, seed))


def sample_certificates(
    scenario: str,
    k: int,
    sizes,
    samples: int,
    seed: int,
    jobs: int = 1,
) -> list[dict]:
    """Certify `samples` seeded random colorings (seeds seed..seed+samples-1).

    The scenario's hypotheses are checked once, before any coloring is
    drawn, and each sample gets the certificate `certify_bipartite_lower`
    or `certify_multipartite_lower` gives its coloring, every per-coloring
    check included (module docstring). Per-seed determinism makes the loop
    embarrassingly parallel; the result list is identical for any jobs
    count. One debug log line gives the run's scenario, sizes, k and sample
    count, and how many certificates have each twin path count."""
    check_int(samples, "samples", below=f"samples must be >= 1, got {samples}")
    # random.Random(-s) seeds like Random(s), so a negative range would
    # repeat samples.
    check_int(seed, "seed", 0, below=f"--seed must be >= 0, got {seed}")
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    spec = PartitionSpec(tuple(sizes))
    # Usage errors surface before any coloring is drawn.
    plan = _twin_plan(scenario, k, spec)
    certs = fan_out(partial(_certify_seed, plan), range(seed, seed + samples), jobs)
    counts = Counter(cert["max_disjoint_rainbow_paths"] for cert in certs)
    logger.debug("lower-bound: %s on %s at k = %d: %d samples, twin counts %s",
                 scenario, spec.sizes, k, samples, dict(sorted(counts.items())))
    return certs
