"""The benchmark's workloads: seeded inputs, command lists and output checks.

Every workload is a closed loop of `rainbowk` CLI commands run one at a time
in one process. There are four:

* verify-decision: `verify` in decision mode on construction instances
  (path enumeration and colour lookup, settled by greedy packing).
* verify-maximize: `verify --mode maximize` (branch-and-bound packing with
  very uneven pair costs).
* lower-bound: `lower-bound` (one fresh random coloring per query, twin
  scans).
* oracle-exhaust: `rck-exact` (thousands of tiny colorings built and
  rejected fail-first).

The seed changes only the generated inputs, never the code under test:

* verify-*: each construction's coloring is relabelled (a random permutation
  of the vertices inside each part plus a random permutation of the
  colours). Both are automorphisms of the problem, so verdicts hold and
  per-pair counts move with the vertices.
* lower-bound: the seed sets each command's base sample seed.
* oracle-exhaust: the seed permutes the part order, which leaves rc_k alone.

`Workload.prepare` is the set-up step: it builds the inputs, writes them and
makes the pass's command list, each command carrying the check for its own
output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"
JOBS = "{jobs}"  # argv placeholder for the pass's worker count
POOL_JOBS = 2  # workers of the traced run's pool pass (the host has two CPUs)

# Every command stays short (about 0.5 s or less on one CPU), so that a run
# holds many passes and a slow stretch of the host sits beside the reference
# timings that calibrate it (see run.py).
#
# (name, builder over the constructions module, k). The maximize instances
# also key into expected.json, where their per-pair counts live.
DECISION_INSTANCES = [
    ("bipartite4-8-8", lambda c, P: c.color_bipartite4(8, 8, 4), 4),
    ("bipartite4-9-9", lambda c, P: c.color_bipartite4(9, 9, 4), 4),
    ("mnn-16-6-6", lambda c, P: c.color_mnn(16, 6), 2),
    ("mnn-24-6-6", lambda c, P: c.color_mnn(24, 6), 2),
    ("ctk-6-6-6", lambda c, P: c.color_ctk(P((6, 6, 6)), 4), 4),
    ("ctk-3-3-3-3-3", lambda c, P: c.color_ctk(P((3, 3, 3, 3, 3)), 4), 4),
    ("k2416", lambda c, P: c.color_2_4_16(), 2),
    ("extension-5-5-2", lambda c, P: _extension_chain(c), 2),
]
MAXIMIZE_INSTANCES = [
    ("bipartite4-7-7", lambda c, P: c.color_bipartite4(7, 7, 3), 3),
    ("bipartite4-7-8", lambda c, P: c.color_bipartite4(7, 8, 3), 3),
    ("ctk-3-3-3-3", lambda c, P: c.color_ctk(P((3, 3, 3, 3)), 3), 3),
    ("ctk-3-3-3-4", lambda c, P: c.color_ctk(P((3, 3, 3, 4)), 4), 4),
    ("ctk-5-5-5", lambda c, P: c.color_ctk(P((5, 5, 5)), 4), 4),
]
# (scenario, k, sizes, samples, colours per sampled coloring, commands): the
# README's 1000-sample runs, then maximize queries on graphs whose vertices
# mostly share one part, split over several commands with their own seeds.
LOWER_BOUND_RUNS = [
    ("bipartite5", 2, (2, 17), 1000, 4, 1),
    ("multipartite4", 2, (10, 1, 1), 1000, 3, 1),
    ("bipartite5", 3, (3, 65), 20, 4, 3),
    ("multipartite4", 3, (2, 2, 82), 50, 3, 3),
]
# (sizes, k, max colours, expected rc_k): the README values, K_{1,2,3}
# (whose run time depends on the part order the seed picks) and instances
# whose parts all have one size, so the seed cannot change their work.
# Values not in the README were computed by the oracle itself.
ORACLE_RUNS = [
    ((2, 2, 2), 3, 3, 3),
    ((3, 3), 3, 3, 3),
    ((3, 3), 2, 3, 3),
    ((1, 2, 3), 2, 3, 3),
    ((1, 1, 1, 1, 1), 3, 3, 2),
    ((1, 1, 1), 1, 1, 1),
    ((2, 2), 1, 2, 2),
    ((2, 2, 2), 2, 2, 2),
]


def _extension_chain(constructions):
    """K_{2,2,2} from mnn grown three times: K_{5,5,2}."""
    coloring, meta = constructions.color_mnn(2, 2)
    for _ in range(3):
        coloring, meta = constructions.color_extension(coloring, 0, 1, base_meta=meta)
    return coloring, meta


def relabel(doc: dict, rng: random.Random) -> tuple[dict, list[int]]:
    """Coloring document with vertices shuffled inside each part and colours
    permuted; returns it with the vertex map (old id -> new id)."""
    perm: list[int] = []
    offset = 0
    for size in doc["parts"]:
        block = list(range(offset, offset + size))
        rng.shuffle(block)
        perm.extend(block)
        offset += size
    palette = list(range(1, doc["num_colors"] + 1))
    rng.shuffle(palette)
    edges = sorted(
        [min(perm[u], perm[v]), max(perm[u], perm[v]), palette[c - 1]]
        for u, v, c in doc["edges"]
    )
    out = {
        "parts": list(doc["parts"]),
        "num_colors": doc["num_colors"],
        "tight": doc["tight"],
        "edges": edges,
    }
    return out, perm


def load_expected() -> dict[str, list[int]]:
    """Per-pair maximize counts recorded on the unrelabelled instances, in
    lexicographic pair order (see record_expected.py)."""
    return json.loads(EXPECTED_FILE.read_text())


@dataclass
class Command:
    """One CLI invocation. `check(exit_code, stdout, out_text)` returns None
    when the output is right and a one-line reason otherwise; `out` is the
    --report/-o file, whose text is handed to the check; `pool` names the
    program module whose process pool the command's --jobs feeds."""

    argv: list[str]
    out: Path | None
    check: Callable[[int, str, str | None], str | None]
    pool: str | None = None


def verify_check(n: int, k: int, perm: list[int], expected: list[int] | None):
    """Decision mode (expected None): exit 0, verdict pass, every count k.
    Maximize mode: each pair's count equals the recorded count of the pair
    it was relabelled from."""

    def check(code, stdout, out_text):
        if code != 0 or (expected is None and not stdout.startswith("pass")):
            return f"exit {code}: {stdout.strip()[:80]}"
        if out_text is None:
            return "no report written"
        report = json.loads(out_text)
        pairs = {(u, v): c for u, v, c in report["pairs"]}
        if len(pairs) != n * (n - 1) // 2:
            return f"report has {len(pairs)} pairs, expected {n * (n - 1) // 2}"
        if report["verdict"] != "pass":
            return f"verdict {report['verdict']}"
        wants = expected or [k] * len(pairs)
        for (u, v), want in zip(combinations(range(n), 2), wants):
            a, b = sorted((perm[u], perm[v]))
            if pairs[a, b] != want:
                return f"pair ({a}, {b}) count {pairs[a, b]}, expected {want}"
        return None

    return check


def _twins_check(program, sizes, colors: int, k: int, base_seed: int, samples: int):
    """Re-check every certificate: the twins share a part and a colour
    profile in the sampled coloring, and the count is below k and at most
    the arithmetic bound."""
    spec = program.core.PartitionSpec(sizes)

    def check(code, stdout, out_text):
        if code != 0:
            return f"exit {code}: {stdout.strip()[:80]}"
        if out_text is None:
            return "no certificates written"
        certs = json.loads(out_text)["certificates"]
        if len(certs) != samples:
            return f"{len(certs)} certificates for {samples} samples"
        for i, cert in enumerate(certs):
            coloring = program.bounds.random_coloring(spec, colors, base_seed + i)
            a, b = cert["twins"]
            part = spec.part_of(a)
            if a == b or spec.part_of(b) != part:
                return f"sample {i}: twins {a}, {b} not in one part"
            if any(
                coloring.color(a, w) != coloring.color(b, w)
                for w in range(spec.n)
                if spec.part_of(w) != part
            ):
                return f"sample {i}: twins {a}, {b} differ in colour profile"
            count = cert["max_disjoint_rainbow_paths"]
            if not count < k or count > cert["arithmetic_bound"]:
                return f"sample {i}: count {count} vs k={k}, bound {cert['arithmetic_bound']}"
        return None

    return check


def oracle_check(program, sizes, k: int, value: int):
    """rc_k as expected, and the witness is a rainbow k-connected coloring
    of the graph with `value` colours."""
    label = f"rc_{k}({','.join(map(str, sizes))}) = {value}"

    def check(code, stdout, out_text):
        if code != 0 or stdout.strip() != label:
            return f"exit {code}: {stdout.strip()[:80]!r}, expected {label!r}"
        if out_text is None:
            return "no witness written"
        witness = program.core.Coloring.from_json_text(out_text)
        if witness.spec.sizes != tuple(sizes) or witness.num_colors != value:
            return f"witness on {witness.spec.sizes} with {witness.num_colors} colours"
        if not program.verifier.verify_rainbow_k_connected(witness, k).ok:
            return "witness is not rainbow k-connected"
        return None

    return check


def verify_commands(mode: str, instances):
    def build(program, rng, workdir):
        expected = load_expected() if mode == "maximize" else {}
        commands = []
        for name, make, k in instances:
            coloring, _ = make(program.constructions, program.core.PartitionSpec)
            doc, perm = relabel(coloring.to_json_dict(), rng)
            path, report = workdir / f"{name}.json", workdir / f"{name}.report.json"
            path.write_text(json.dumps(doc))
            check = verify_check(len(perm), k, perm, expected.get(name))
            argv = ["verify", "--coloring", str(path), "--k", str(k), "--mode", mode,
                    "--jobs", JOBS, "--report", str(report)]
            commands.append(Command(argv, report, check, "verifier"))
        return commands

    return build


def lower_bound_commands(program, rng, workdir):
    runs = [run[:5] for run in LOWER_BOUND_RUNS for _ in range(run[5])]
    commands = []
    for i, (scenario, k, sizes, samples, colors) in enumerate(runs):
        base, out = rng.randrange(2**31), workdir / f"certs-{i}.json"
        argv = ["lower-bound", "--scenario", scenario, "--k", str(k),
                "--sizes", ",".join(map(str, sizes)), "--samples", str(samples),
                "--seed", str(base), "--jobs", JOBS, "-o", str(out)]
        check = _twins_check(program, sizes, colors, k, base, samples)
        commands.append(Command(argv, out, check, "bounds"))
    return commands


def oracle_commands(program, rng, workdir):
    commands = []
    for i, (sizes, k, max_colors, value) in enumerate(ORACLE_RUNS):
        order = list(sizes)
        rng.shuffle(order)
        out = workdir / f"witness-{i}.json"
        argv = ["rck-exact", "--sizes", ",".join(map(str, order)), "--k", str(k),
                "--max-colors", str(max_colors), "-o", str(out)]
        commands.append(Command(argv, out, oracle_check(program, order, k, value)))
    return commands


@dataclass
class Workload:
    """A named command list made by `builders`, each called with the
    program, one seeded generator and the scratch directory. Timed passes
    run every command with one worker."""

    name: str
    why: str
    builders: list[Callable[..., list[Command]]]
    _commands: list[Command] = field(default_factory=list)

    def prepare(self, program, seed: int, workdir: Path) -> None:
        """Set-up: make the seeded inputs, write them, list the commands."""
        rng = random.Random(seed)
        self._commands = [c for build in self.builders for c in build(program, rng, workdir)]

    def commands(self, jobs: int = 1, pooled_only: bool = False) -> list[Command]:
        """One pass with `jobs` workers, optionally only the commands that
        have a process pool."""
        return [Command([str(jobs) if a == JOBS else a for a in c.argv], c.out, c.check, c.pool)
                for c in self._commands if c.pool or not pooled_only]


def make_workloads() -> dict[str, Workload]:
    """Fresh workload objects, keyed by name (the BENCHMARK.json names)."""
    workloads = [
        Workload("verify-decision",
                 "exact verdicts on relabelled constructions: path enumeration and colour "
                 "lookup, settled by greedy packing",
                 [verify_commands("decision", DECISION_INSTANCES)]),
        Workload("verify-maximize",
                 "exact per-pair maxima on relabelled constructions: branch-and-bound "
                 "packing with very uneven pair costs",
                 [verify_commands("maximize", MAXIMIZE_INSTANCES)]),
        Workload("lower-bound",
                 "lopsided-graph certificates: one fresh random coloring per sample, twin "
                 "scans and maximize queries on graphs with one large part",
                 [lower_bound_commands]),
        Workload("oracle-exhaust",
                 "exact rc_k on tiny graphs: thousands of small colorings built and "
                 "rejected fail-first",
                 [oracle_commands]),
    ]
    return {w.name: w for w in workloads}
