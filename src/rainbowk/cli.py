"""Command-line surface: construct / verify / witness / lower-bound / fkt /
rck-exact / export-dot.

Exit codes: 0 = success or verified pass, 1 = verified fail, 2 = usage error
(including malformed input files), 3 = a self-check of the program failed
(a bug; see `InvariantError`). Every run is fully determined by its
parsed flags; randomized subcommands require an explicit --seed. An output
path or a stdout that cannot be written is a usage error too.

The parser is built once per process, on the first `main` call, and reused
by every later call. Every JSON file (and JSON on stdout) goes through
`core.json_text`, whose bytes are those of `json.dumps(doc, indent=2)`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import suppress
from functools import cache
from pathlib import Path

from .bounds import SCENARIOS, f_formula, sample_certificates
from .constructions import (
    color_2_4_16,
    color_bipartite4,
    color_ctk,
    color_extension,
    color_mnn,
    read_meta,
    witness_paths,
)
from .core import (
    Coloring,
    InvariantError,
    PartitionSpec,
    SchemaError,
    check_int,
    family_is_valid,
    json_text,
)
from .oracle import BudgetExceeded, rc_k_exact
from .verifier import PairQuery, max_disjoint_rainbow, verify_rainbow_k_connected

DEFAULT_PALETTE = {1: "blue", 2: "red", 3: "green", 4: "orange"}
# What a name may not hold: it is written inside a quoted DOT attribute as is.
_UNSAFE_NAME = re.compile(r'["\\\x00-\x1f\x7f-\x9f]')


def export_dot(coloring: Coloring, palette: dict[int, str]) -> str:
    """DOT rendering with one cluster per part and named edge colors."""
    if len(palette) > 12:
        raise ValueError("palette supports at most 12 named entries")
    if coloring.num_colors > 12:
        raise ValueError(f"a palette names at most 12 colors; the coloring has "
                         f"{coloring.num_colors}")
    missing = [c for c in range(1, coloring.num_colors + 1) if c not in palette]
    if missing:
        raise ValueError(f"palette has no names for colors {missing}")
    for c, name in palette.items():
        if _UNSAFE_NAME.search(name):
            raise ValueError(f"bad palette entry {f'{c}={name}'!r}: a name may not contain "
                             f"a quote, a backslash or a control character")
    lines = ["graph coloring {"]
    for i in range(coloring.spec.t):
        members = " ".join(f"v{w};" for w in coloring.spec.part_members(i))
        lines.append(f'  subgraph cluster_part{i} {{ label="part {i}"; {members} }}')
    for (u, v), c in coloring.assignment.items():
        lines.append(f'  v{u} -- v{v} [color="{palette[c]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_sizes(text: str, flag: str, count: int | None = None) -> tuple[int, ...]:
    """The comma-separated integers given to `flag`; exactly `count` of them
    when count is set."""
    try:
        values = tuple(int(x) for x in text.split(","))
        if count and len(values) != count:
            raise ValueError
    except ValueError:
        shape = f"{count} comma-separated integers" if count else "comma-separated integers"
        raise SchemaError(f"bad {flag} {text!r}: expected {shape}") from None
    return values


def _parse_palette(text: str | None) -> dict[int, str]:
    if text is None:
        return dict(DEFAULT_PALETTE)
    palette = {}
    for item in text.split(","):
        color, _, name = item.partition("=")
        try:
            color = int(color) if name else None
        except ValueError:
            color = None
        if color is None:
            raise SchemaError(
                f"bad --palette entry {item!r}: expected color=name with an integer color")
        if color in palette:
            raise SchemaError(f"bad --palette entry {item!r}: color {color} is named twice")
        palette[color] = name
    return palette


def _load_document(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level JSON value must be an object")
    return doc


def _load_coloring(path: str) -> Coloring:
    return Coloring.from_json_dict(_load_document(path))


def _load_construction(path: str) -> tuple[Coloring, dict | None]:
    doc = _load_document(path)
    coloring = Coloring.from_json_dict(doc)
    return coloring, read_meta(doc["meta"]) if "meta" in doc else None


def _write_stream(stream, text: str) -> None:
    """Write text to stdout or stderr and flush it, so that a stream that
    cannot be written fails here (SchemaError), not at interpreter exit. The
    failed stream is pointed at the null device: the text left in its buffer
    would otherwise fail again at exit, adding "Exception ignored" and 120."""
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        with suppress(OSError):  # no file descriptor: nothing is retried
            fd = stream.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        name = "stderr" if stream is sys.stderr else "stdout"
        raise SchemaError(f"cannot write {name}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout (`_write_stream`)."""
    if path is None:
        return _write_stream(sys.stdout, text)
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _print(line: str) -> None:
    _write_text(None, line + "\n")


def _fail(line: str, code: int) -> int:
    """Print an error line on stderr, if it can be written, and return code."""
    with suppress(SchemaError):
        _write_stream(sys.stderr, line + "\n")
    return code


class _Parser(argparse.ArgumentParser):
    """Help, usage and error text go through `_write_stream`; argparse's own
    writer ignores an OSError there or leaves the text to fail at exit."""

    def _print_message(self, message: str, file=None) -> None:
        if message:
            _write_stream(file or sys.stderr, message)


def coloring_document(coloring: Coloring, meta: dict | None = None) -> str:
    doc = coloring.to_json_dict()
    if meta is not None:
        doc["meta"] = meta
    return json_text(doc)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after that.
    Sharing is safe: `parse_args` never changes the parser, and every
    default is immutable."""
    parser = _Parser(
        prog="rainbowk",
        description="Rainbow k-connection colorings of complete multipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit one of the known colorings")
    p.add_argument(
        "--family",
        required=True,
        choices=["bipartite4", "ctk", "extension", "mnn", "k2416"],
    )
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--sizes", help="comma-separated part sizes (ctk)")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--base", help="base coloring JSON (extension)")
    p.add_argument("--grow", help="comma-separated pair of part indices (extension)")
    p.add_argument("-o", "--out")

    p = sub.add_parser("verify", help="decide rainbow k-connectivity exactly")
    p.add_argument("--coloring", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["decision", "maximize"], default="decision")
    p.add_argument("--pairs", default="all", help='"all" or "u,v"')
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", help="write the JSON report here")

    p = sub.add_parser("witness", help="emit the construction's path family for a pair")
    p.add_argument("--coloring", required=True, help="JSON with a meta block")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--out")

    p = sub.add_parser("lower-bound", help="certify sampled colorings below the bound")
    p.add_argument("--scenario", required=True, choices=list(SCENARIOS))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--out")

    p = sub.add_parser("fkt", help="print the minimum part size formula")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("rck-exact", help="exact rc_k by exhaustive search")
    p.add_argument("--sizes", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-colors", type=int, required=True)
    p.add_argument("--max-edges", type=int, default=16)
    p.add_argument("-o", "--out", help="write the witness coloring here")

    p = sub.add_parser("export-dot", help="render a coloring as DOT")
    p.add_argument("--coloring", required=True)
    p.add_argument("--palette", help='e.g. "1=blue,2=red"')
    p.add_argument("-o", "--out")
    return parser


def _run_construct(opt: dict) -> int:
    family = opt["family"]
    if family == "bipartite4":
        if opt["a"] is None or opt["b"] is None or opt["k"] is None:
            raise SchemaError("bipartite4 needs --a, --b and --k")
        coloring, meta = color_bipartite4(opt["a"], opt["b"], opt["k"])
    elif family == "ctk":
        if opt["sizes"] is None or opt["k"] is None:
            raise SchemaError("ctk needs --sizes and --k")
        spec = PartitionSpec(_parse_sizes(opt["sizes"], "--sizes"))
        coloring, meta = color_ctk(spec, opt["k"])
    elif family == "mnn":
        if opt["m"] is None or opt["n"] is None:
            raise SchemaError("mnn needs --m and --n")
        coloring, meta = color_mnn(opt["m"], opt["n"])
    elif family == "k2416":
        coloring, meta = color_2_4_16()
    else:  # extension
        if opt["base"] is None or opt["grow"] is None:
            raise SchemaError("extension needs --base and --grow p,q")
        base, base_meta = _load_construction(opt["base"])
        p, q = _parse_sizes(opt["grow"], "--grow", 2)
        coloring, meta = color_extension(base, p, q, base_meta=base_meta)
    _write_text(opt["out"], coloring_document(coloring, meta))
    return 0


def _run_verify(opt: dict) -> int:
    coloring = _load_coloring(opt["coloring"])
    if opt["pairs"] != "all":
        check_int(opt["k"], "k", below="k must be >= 1")
        # Unused by one pair, but refused as for all pairs.
        check_int(opt["jobs"], "jobs", below=f"jobs must be >= 1, got {opt['jobs']}")
        u, v = _parse_sizes(opt["pairs"], "--pairs", 2)
        k = opt["k"] if opt["mode"] == "decision" else None
        count, family = max_disjoint_rainbow(coloring, PairQuery(u, v, k=k))
        if opt["report"]:
            _write_text(opt["report"], json_text(family.to_json_dict()))
        ok = count >= opt["k"]
        _print(f"pair ({u}, {v}): {count} internally disjoint rainbow paths "
               f"({'pass' if ok else 'fail'} at k={opt['k']})")
        return 0 if ok else 1
    report = verify_rainbow_k_connected(
        coloring, opt["k"], mode=opt["mode"], jobs=opt["jobs"]
    )
    if opt["report"]:
        _write_text(opt["report"], json_text(report.to_json_dict()))
    if report.ok:
        _print(f"pass: rainbow {opt['k']}-connected "
               f"({coloring.num_colors} colors, {coloring.spec.n} vertices)")
        return 0
    u, v = report.failing_pair
    best = len(report.failing_family.paths)
    _print(f"fail: pair ({u}, {v}) has only {best} < {opt['k']} "
           f"internally disjoint rainbow paths")
    return 1


def _run_witness(opt: dict) -> int:
    coloring, meta = _load_construction(opt["coloring"])
    if meta is None:
        raise SchemaError("witness generation needs a construction meta block")
    family = witness_paths(meta, coloring, opt["u"], opt["v"], opt["k"])
    ok = family_is_valid(coloring, family, opt["k"])
    out = family.to_json_dict()
    out["valid"] = ok
    _write_text(opt["out"], json_text(out))
    return 0 if ok else 1


def _run_lower_bound(opt: dict) -> int:
    certs = sample_certificates(
        opt["scenario"],
        opt["k"],
        _parse_sizes(opt["sizes"], "--sizes"),
        opt["samples"],
        opt["seed"],
        jobs=opt["jobs"],
    )
    doc = {
        "scenario": opt["scenario"],
        "k": opt["k"],
        "samples": opt["samples"],
        "seed": opt["seed"],
        "certificates": certs,
    }
    _write_text(opt["out"], json_text(doc))
    if opt["out"]:
        _print(f"{len(certs)} certificates written to {opt['out']}")
    return 0


def _run_rck_exact(opt: dict) -> int:
    spec = PartitionSpec(_parse_sizes(opt["sizes"], "--sizes"))
    witness = rc_k_exact(spec, opt["k"], opt["max_colors"], opt["max_edges"])
    if witness is not None and opt["out"]:
        _write_text(opt["out"], witness.to_json_text())
    label = f"rc_{opt['k']}({','.join(map(str, spec.sizes))})"
    _print(f"{label} > {opt['max_colors']}" if witness is None
           else f"{label} = {witness.num_colors}")
    return 0


def _run_export_dot(opt: dict) -> int:
    coloring = _load_coloring(opt["coloring"])
    palette = _parse_palette(opt["palette"])
    _write_text(opt["out"], export_dot(coloring, palette))
    return 0


_DISPATCH = {
    "construct": _run_construct,
    "verify": _run_verify,
    "witness": _run_witness,
    "lower-bound": _run_lower_bound,
    "fkt": lambda opt: _print(str(f_formula(opt["k"], opt["t"]))) or 0,
    "rck-exact": _run_rck_exact,
    "export-dot": _run_export_dot,
}


def run(command: str, options: dict) -> int:
    try:
        return _DISPATCH[command](options)
    except (SchemaError, ValueError, BudgetExceeded) as exc:
        return _fail(f"error: {exc}", 2)
    except InvariantError as exc:
        return _fail(f"internal error: {exc}", 3)


def main(argv=None) -> None:
    try:
        args = build_parser().parse_args(argv)
    except SchemaError as exc:  # help or usage text that cannot be written
        sys.exit(_fail(f"error: {exc}", 2))
    options = vars(args)
    command = options.pop("command")
    sys.exit(run(command, options))


if __name__ == "__main__":
    main()
