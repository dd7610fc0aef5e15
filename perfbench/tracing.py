"""Span recorder for the traced run, installed from outside the program.

`installed(recorder, program)` replaces the public functions listed in
`SPANS` by wrappers that record a span per call, on every `rainbowk` module
attribute that holds the original (`max_disjoint_rainbow` is imported into
`verifier`, `bounds`, `oracle`, `cli` and the package itself), and puts the
originals back when its block ends. `Coloring.color` runs millions of
times, so it only counts calls. Nothing inside `rainbowk/` is edited.

A span is [name, start, end, parent, command, value]: `parent` indexes the
enclosing span (-1 for none), `command` the command of the pass (-1 during
set-up) and `value` holds what the layer metrics need from a return value.
Spans are kept in memory and written out once the run ends.
Self time is a span's duration minus its children's, which never overlap
because the traced pass runs with one process.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# (module, attribute) -> span name. Methods of core.Coloring are handled
# separately in installed().
SPANS = {
    ("cli", "main"): "cli.main",
    ("constructions", "color_bipartite4"): "constructions.color_bipartite4",
    ("constructions", "color_ctk"): "constructions.color_ctk",
    ("constructions", "color_mnn"): "constructions.color_mnn",
    ("constructions", "color_2_4_16"): "constructions.color_2_4_16",
    ("constructions", "color_extension"): "constructions.color_extension",
    ("verifier", "enumerate_rainbow_paths"): "verifier.enumerate_rainbow_paths",
    ("verifier", "max_disjoint_rainbow"): "verifier.max_disjoint_rainbow",
    ("verifier", "verify_rainbow_k_connected"): "verifier.verify_rainbow_k_connected",
    ("bounds", "sample_certificates"): "bounds.sample_certificates",
    ("bounds", "random_coloring"): "bounds.random_coloring",
    ("bounds", "find_color_twins"): "bounds.find_color_twins",
    ("bounds", "certify_bipartite_lower"): "bounds.certify_bipartite_lower",
    ("bounds", "certify_multipartite_lower"): "bounds.certify_multipartite_lower",
    ("oracle", "rc_k_exact"): "oracle.rc_k_exact",
    ("oracle", "enumerate_colorings_canonical"): "oracle.enumerate_colorings_canonical",
}
ANALYSIS = "bench.analysis"  # benchmark-side work inside a traced pass
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


class Recorder:
    """Spans kept in memory; `command` tags new spans with the command id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = -1
        self.color_counter = itertools.count()
        self.last_paths: list = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.command, None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def remember_paths(self, paths: list) -> int:
        """Keep an enumeration for the greedy replay; its value is its size."""
        self.last_paths = paths
        return len(paths)

    def color_calls(self) -> int:
        """Calls counted so far (reading the counter advances it by one)."""
        return next(self.color_counter)


def _greedy_reaches(paths, target: int) -> bool:
    """First-fit over the enumerated list, as the verifier's greedy seed
    runs it: does it pick `target` paths with disjoint interiors?"""
    used: set[int] = set()
    picked = 0
    for p in paths:
        interior = p[1:-1]
        if used.isdisjoint(interior):
            used.update(interior)
            picked += 1
            if picked >= target:
                return True
    return False


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(idx)

    return wrapper


def _wrap_packing(rec: Recorder, name: str, fn):
    """Span per pair query; value = [paths used, greedy reached k], where
    the second entry is None for maximize queries (whose search runs
    whatever first-fit finds). The greedy replay runs in an analysis span
    after the query's span ends."""

    @functools.wraps(fn)
    def wrapper(coloring, query):
        idx = rec.begin(name)
        try:
            count, family = fn(coloring, query)
        finally:
            rec.end(idx)
        extra = rec.begin(ANALYSIS)
        settled = _greedy_reaches(rec.last_paths, query.k) if query.mode == "decision" else None
        rec.spans[idx][5] = [len(family.paths), settled]
        rec.end(extra)
        return count, family

    return wrapper


def _wrap_value(rec: Recorder, name: str, fn, value_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        rec.spans[idx][5] = value_of(result)
        return result

    return wrapper


def _wrap_generator(rec: Recorder, name: str, fn):
    """One span per item drawn; value = 1 if the coloring uses the whole
    palette it was asked for, else 0."""

    @functools.wraps(fn)
    def wrapper(spec, max_colors, *args, **kwargs):
        inner = fn(spec, max_colors, *args, **kwargs)

        def items():
            while True:
                idx = rec.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.end(idx)
                rec.spans[idx][5] = int(item.num_colors == max_colors)
                yield item

        return items()

    return wrapper


@contextmanager
def installed(rec: Recorder, program):
    """Wrap the traced functions on every rainbowk module attribute that
    holds them for the duration of the block."""
    modules = [m for n, m in sys.modules.items() if n == "rainbowk" or n.startswith("rainbowk.")]
    restore: list[tuple[object, str, object]] = []
    for (module_name, attr), name in SPANS.items():
        original = getattr(getattr(program, module_name), attr)
        if name == "verifier.enumerate_rainbow_paths":
            wrapper = _wrap_value(rec, name, original, rec.remember_paths)
        elif name == "verifier.max_disjoint_rainbow":
            wrapper = _wrap_packing(rec, name, original)
        elif name == "oracle.enumerate_colorings_canonical":
            wrapper = _wrap_generator(rec, name, original)
        elif name == "bounds.find_color_twins":
            wrapper = _wrap_value(rec, name, original, lambda r: int(r is not None))
        else:
            wrapper = _wrap(rec, name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, key, value))
                    setattr(module, key, wrapper)

    coloring_cls = program.core.Coloring
    init = coloring_cls.__dict__["__init__"]
    color = coloring_cls.__dict__["color"]
    load = coloring_cls.__dict__["from_json_dict"]
    tick = rec.color_counter.__next__

    @functools.wraps(color)
    def counted_color(self, u, v):
        tick()
        return color(self, u, v)

    restore += [(coloring_cls, "__init__", init), (coloring_cls, "color", color),
                (coloring_cls, "from_json_dict", load)]
    coloring_cls.__init__ = _wrap(rec, "core.Coloring", init)
    coloring_cls.color = counted_color
    coloring_cls.from_json_dict = classmethod(
        _wrap(rec, "core.Coloring.from_json_dict", load.__func__))

    try:
        yield
    finally:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)


def write_spans(path: Path, doc: dict) -> None:
    """Write span lists with times in microseconds from the first span."""
    starts = [s[1] for key in ("setup_spans", "pass_spans") for s in doc[key]]
    t0 = min(starts, default=0.0)
    out = dict(doc, fields=["name", "start_us", "end_us", "parent", "command", "value"])
    for key in ("setup_spans", "pass_spans"):
        out[key] = [[n, round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), p, c, v]
                    for n, a, b, p, c, v in doc[key]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, separators=(",", ":")))


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(round(p * len(sorted_values) / 100, 6)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_PERCENTILES with at least ten samples
    beyond it, or None when n is below 20."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(round(p * n / 100, 6)) >= 10:
            return p
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def construction_s(spans: list[list]) -> float:
    """Time in the outermost color_* construction calls."""
    return sum(
        end - start
        for name, start, end, parent, _, _ in spans
        if name.startswith("constructions.")
        and (parent < 0 or not spans[parent][0].startswith("constructions."))
    )


@dataclass
class LayerRound:
    """Layer metrics of one traced pass. `times` maps each time metric to
    its calibrated seconds per command, `counts` holds the counts and
    ratios, `pair_ms` the calibrated pair latencies, and `notes` the raw
    sum of all span self times."""

    times: dict[str, list[float]]
    counts: dict[str, float]
    pair_ms: list[float]
    self_total: list[float]
    notes: dict


def layer_metrics(spans: list[list], color_calls: int, scales: list[float]) -> LayerRound:
    """Per-layer metrics of one traced pass whose command i ran with
    calibration factor scales[i]."""
    n = len(scales)
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, list[float]] = defaultdict(lambda: [0.0] * n)
    self_time: dict[str, list[float]] = defaultdict(lambda: [0.0] * n)
    oracle_check = [0.0] * n
    self_total = [0.0] * n
    calls: dict[str, int] = defaultdict(int)
    pair_ms: list[float] = []
    paths = used = settled = decisions = twins_found = candidates = useful = queries = 0
    for i, (name, start, end, parent, cmd, value) in enumerate(spans):
        dur = (end - start) * scales[cmd]
        own = dur - child_time[i] * scales[cmd]
        total[name][cmd] += dur
        self_time[name][cmd] += own
        self_total[cmd] += own
        calls[name] += 1
        under_oracle = parent >= 0 and spans[parent][0] == "oracle.rc_k_exact"
        if under_oracle and name.startswith("verifier."):
            oracle_check[cmd] += dur
        if name == "verifier.enumerate_rainbow_paths":
            paths += value
        elif name == "verifier.max_disjoint_rainbow":
            pair_ms.append(dur * 1e3)
            used += value[0]
            if value[1] is not None:
                decisions += 1
                settled += value[1]
            queries += under_oracle
        elif name == "bounds.find_color_twins":
            twins_found += value
        elif name == "oracle.enumerate_colorings_canonical" and value is not None:
            candidates += 1
            useful += value
    certify = [a + b for a, b in zip(self_time["bounds.certify_bipartite_lower"],
                                     self_time["bounds.certify_multipartite_lower"])]
    times = {
        "core.build_s": total["core.Coloring"],
        "core.load_s": total["core.Coloring.from_json_dict"],
        "cli.self_s": self_time["cli.main"],
        "verifier.enum_s": total["verifier.enumerate_rainbow_paths"],
        "verifier.pack_s": self_time["verifier.max_disjoint_rainbow"],
        "verifier.loop_s": self_time["verifier.verify_rainbow_k_connected"],
        "bounds.sample_s": total["bounds.random_coloring"],
        "bounds.twins_s": total["bounds.find_color_twins"],
        "bounds.certify_s": certify,
        "oracle.gen_s": total["oracle.enumerate_colorings_canonical"],
        "oracle.check_s": oracle_check,
    }
    counts = {
        "core.color_calls": color_calls,
        "core.colorings_built": calls["core.Coloring"],
        "verifier.paths": paths,
        "verifier.greedy_settled_ratio": _ratio(settled, decisions),
        "verifier.paths_used_ratio": _ratio(used, paths),
        "bounds.certs": calls["bounds.certify_bipartite_lower"]
        + calls["bounds.certify_multipartite_lower"],
        "bounds.twin_found_ratio": _ratio(twins_found, calls["bounds.find_color_twins"]),
        "oracle.candidates": candidates,
        "oracle.useful_ratio": _ratio(useful, candidates),
        "oracle.queries_per_candidate": _ratio(queries, candidates),
    }
    raw_self = sum(end - start - child_time[i] for i, (_, start, end, *_) in enumerate(spans))
    return LayerRound(times, counts, pair_ms, self_total, {"self_s_total": raw_self})
