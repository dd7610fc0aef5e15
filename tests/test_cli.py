import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import cycle, permutations
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers import child_env, randrange_coloring
from rainbowk.bounds import (
    SCENARIOS,
    certify_bipartite_lower,
    certify_multipartite_lower,
    random_coloring,
    sample_certificates,
)
from rainbowk.cli import build_parser, coloring_document, export_dot, main, run
from rainbowk.constructions import (
    color_2_4_16,
    color_bipartite4,
    color_ctk,
    color_extension,
    color_mnn,
    read_meta,
    witness_paths,
)
from rainbowk.core import Coloring, InvariantError, PartitionSpec, family_is_valid, json_text

TAGS = ("bipartite4", "ctk", "mnn", "k2416", "extension")
DROP = object()


def documents():
    """Constructed documents: one per tag, an extension chain (base metas
    nested two deep) and an extension without a base meta."""
    base, base_meta = color_mnn(2, 2)
    chain, chain_meta = base, base_meta
    for p, q in ((0, 1), (1, 2)):
        chain, chain_meta = color_extension(chain, p, q, base_meta=chain_meta)
    built = {
        "bipartite4": color_bipartite4(4, 5, 2),
        "ctk": color_ctk(PartitionSpec((2, 2, 2)), 2),
        "mnn": (base, base_meta),
        "k2416": color_2_4_16(),
        "extension": color_extension(base, 0, 1, base_meta=base_meta),
        "extension-chain": (chain, chain_meta),
        "extension-no-base-meta": color_extension(base, 0, 1),
    }
    return {name: json.loads(coloring_document(*pair)) for name, pair in built.items()}


DOCUMENTS = documents()


def set_value(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is DROP:
        del doc[last]
    else:
        doc[last] = value


PARSER = build_parser()


def invoke(argv):
    args = PARSER.parse_args(argv)
    options = vars(args)
    command = options.pop("command")
    return run(command, options)


def test_construct_then_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert invoke(["construct", "--family", "bipartite4", "--a", "4", "--b", "4",
                   "--k", "2", "-o", str(out)]) == 0
    assert invoke(["verify", "--coloring", str(out), "--k", "2"]) == 0
    assert "pass" in capsys.readouterr().out


def test_construct_file_is_byte_canonical(tmp_path):
    out = tmp_path / "c.json"
    invoke(["construct", "--family", "mnn", "--m", "3", "--n", "2", "-o", str(out)])
    text = out.read_text()
    doc = json.loads(text)
    coloring = Coloring.from_json_dict(doc)
    from rainbowk.cli import coloring_document
    from rainbowk.constructions import read_meta

    meta = read_meta(doc["meta"])
    assert coloring_document(coloring, meta) == text


def test_verify_fail_exit_code(tmp_path, capsys):
    bad = Coloring(
        PartitionSpec((2, 2)), 1, {(0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1}
    )
    path = tmp_path / "bad.json"
    path.write_text(bad.to_json_text())
    report = tmp_path / "report.json"
    assert invoke(["verify", "--coloring", str(path), "--k", "1",
                   "--report", str(report)]) == 1
    assert "fail" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "fail"
    assert doc["failing_pair"] == [0, 1]


def test_verify_single_pair(tmp_path, capsys):
    coloring, _ = color_bipartite4(4, 4, 2)
    path = tmp_path / "c.json"
    path.write_text(coloring.to_json_text())
    assert invoke(["verify", "--coloring", str(path), "--k", "2",
                   "--pairs", "0,1"]) == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["decision", "maximize"])
@pytest.mark.parametrize("pairs, vertex", [(["--pairs", "0,99"], 99), (["--pairs=-1,3"], -1)],
                         ids=["past-n", "negative"])
def test_verify_pair_out_of_range_is_usage_error(tmp_path, capsys, mode, pairs, vertex):
    # Unchecked, -1 would read rows[-1] and print a verdict, and 99 would
    # end in an IndexError traceback.
    coloring, meta = color_mnn(2, 2)
    path = tmp_path / "c.json"
    path.write_text(coloring_document(coloring, meta))
    out = tmp_path / "report.json"
    assert invoke(["verify", "--coloring", str(path), "--k", "2", "--mode", mode,
                   *pairs, "--report", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: vertex {vertex} out of range 0..5\n"


def _relabelled(coloring, seed):
    """`coloring` with its vertices shuffled inside each part and its
    colours permuted by Random(seed): the same problem under other names."""
    rng = random.Random(seed)
    spec = coloring.spec
    old_of = []
    for i in range(spec.t):
        block = list(spec.part_members(i))
        rng.shuffle(block)
        old_of.extend(block)
    palette = list(range(1, coloring.num_colors + 1))
    rng.shuffle(palette)
    rows = coloring.rows
    return Coloring.from_function(
        spec, coloring.num_colors, lambda a, b: palette[rows[old_of[a]][old_of[b]] - 1])


GOLDEN_COLORINGS = {
    "mnn": lambda: _relabelled(color_mnn(16, 4)[0], 1),
    "k2416": lambda: _relabelled(color_2_4_16()[0], 2),
}


@pytest.mark.parametrize("name, argv, code, line, digest", [
    ("mnn", ["--k", "2"], 0, "pass: rainbow 2-connected (2 colors, 24 vertices)",
     "a16b1fce752f4188d935644d24c867d99d3074fac8007f663b8c84233fea78d0"),
    ("mnn", ["--k", "3"], 1,
     "fail: pair (0, 1) has only 2 < 3 internally disjoint rainbow paths",
     "fbd3b4ee87927be03a58c42c9e90536ba39c490fad7e45aa20f8db993b47c167"),
    ("mnn", ["--k", "2", "--pairs", "3,20"], 0,
     "pair (3, 20): 2 internally disjoint rainbow paths (pass at k=2)",
     "8e722dd97cf3b4a0feeabd4dd21d144593463f5e3b5f164a004f174fe2439186"),
    ("mnn", ["--k", "3", "--pairs", "3,20"], 1,
     "pair (3, 20): 2 internally disjoint rainbow paths (fail at k=3)",
     "8e722dd97cf3b4a0feeabd4dd21d144593463f5e3b5f164a004f174fe2439186"),
    ("mnn", ["--k", "2", "--pairs", "17,18"], 0,
     "pair (17, 18): 2 internally disjoint rainbow paths (pass at k=2)",
     "e9cd7da832447ed830fdd6883f155d4c58fe5275baa8955398a06f4ff1d12b71"),
    ("k2416", ["--k", "2"], 0, "pass: rainbow 2-connected (2 colors, 22 vertices)",
     "2ebb0363643da4cdfa284f096e523a51901cfc10e3a0859147a97bec8f6f8135"),
    ("k2416", ["--k", "3"], 1,
     "fail: pair (0, 8) has only 2 < 3 internally disjoint rainbow paths",
     "4099d9185e9a633ce657cab84f32eaaf060439c9ac06e971ed23e79f22187e7d"),
    ("k2416", ["--k", "2", "--pairs", "0,1"], 0,
     "pair (0, 1): 2 internally disjoint rainbow paths (pass at k=2)",
     "e3944a3707fb1ac034adb50401f7294916f85619b5368868a666b76d5edd98a5"),
    ("k2416", ["--k", "2", "--pairs", "4,9"], 0,
     "pair (4, 9): 2 internally disjoint rainbow paths (pass at k=2)",
     "40a21d130e117d875aeb8031a24a03af0a52c3ed3419fb48e81ae54e9010ba2b"),
], ids=["mnn-pass", "mnn-fail", "mnn-pair", "mnn-pair-fail", "mnn-pair-same-part",
        "k2416-pass", "k2416-fail", "k2416-pair-same-part", "k2416-pair"])
def test_decision_reports_keep_their_bytes(tmp_path, capsys, name, argv, code, line, digest):
    # Pinned while every decision query still enumerated all of its rainbow
    # paths: verdicts, counts and families must not depend on how a
    # decision query is settled.
    path = tmp_path / "c.json"
    path.write_text(GOLDEN_COLORINGS[name]().to_json_text())
    report = tmp_path / "report.json"
    assert invoke(["verify", "--coloring", str(path), "--report", str(report), *argv]) == code
    assert capsys.readouterr().out == line + "\n"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_malformed_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"parts": [2, 2], "num_colors": 1, "edges": [[0, 1, 1]]}')
    assert invoke(["verify", "--coloring", str(path), "--k", "1"]) == 2
    assert "share part" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [{"edges": 5}, {"num_colors": True}, {"edges": [[0, 2, 1.7], [0, 3, 2],
                                                    [1, 2, 2], [1, 3, 1]]},
     {"tight": "false"}, {"tight": False}, {"num_colors": 3}],
)
def test_mistyped_document_is_one_line_usage_error(tmp_path, capsys, overrides):
    doc = {"parts": [2, 2], "num_colors": 2, "tight": True,
           "edges": [[0, 2, 1], [0, 3, 2], [1, 2, 2], [1, 3, 1]], **overrides}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert invoke(["verify", "--coloring", str(path), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_construct_usage_errors(capsys):
    assert invoke(["construct", "--family", "bipartite4", "--a", "4"]) == 2
    assert invoke(["construct", "--family", "bipartite4", "--a", "3", "--b", "4",
                   "--k", "2"]) == 2
    capsys.readouterr()


def test_fkt_prints_formula(capsys):
    assert invoke(["fkt", "--k", "2", "--t", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert invoke(["fkt", "--k", "1", "--t", "3"]) == 2


def test_witness_subcommand(tmp_path, capsys):
    src = tmp_path / "c.json"
    invoke(["construct", "--family", "k2416", "-o", str(src)])
    out = tmp_path / "fam.json"
    assert invoke(["witness", "--coloring", str(src), "--u", "6", "--v", "14",
                   "--k", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["valid"] is True
    assert doc["paths"] == [[6, 0, 14], [6, 1, 14]]


def test_witness_needs_meta(tmp_path, capsys):
    coloring, _ = color_ctk(PartitionSpec((2, 2, 2)), 2)
    path = tmp_path / "plain.json"
    path.write_text(coloring.to_json_text())
    assert invoke(["witness", "--coloring", str(path), "--u", "0", "--v", "1",
                   "--k", "2"]) == 2
    assert "meta" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["labeling", "tag", "params"])
def test_witness_rejects_incomplete_meta(tmp_path, capsys, missing):
    coloring, meta = color_ctk(PartitionSpec((2, 2, 2)), 2)
    doc = coloring.to_json_dict()
    doc["meta"] = meta
    del doc["meta"][missing]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert invoke(["witness", "--coloring", str(path), "--u", "0", "--v", "1",
                   "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert missing in err and err.count("\n") == 1


@pytest.mark.parametrize("name, path, value, message", [
    *(pytest.param(tag, ("labeling", "sizes"), DROP, "does not match",
                   id=f"{tag}-labeling-sizes") for tag in TAGS),
    pytest.param("extension", ("params", "p"), DROP, "distinct part indices",
                 id="extension-params-p"),
    pytest.param("extension", ("params", "q"), DROP, "distinct part indices",
                 id="extension-params-q"),
    pytest.param("extension", ("params", "p"), "0", "distinct part indices",
                 id="extension-params-p-string"),
    pytest.param("extension", ("params", "q"), 1.0, "distinct part indices",
                 id="extension-params-q-float"),
    pytest.param("extension", ("params", "p"), 3, "distinct part indices",
                 id="extension-params-p-out-of-range"),
    pytest.param("extension", ("params", "q"), -1, "distinct part indices",
                 id="extension-params-q-negative"),
    pytest.param("extension", ("params", "q"), 0, "distinct part indices",
                 id="extension-params-q-equals-p"),
    pytest.param("extension", ("labeling", "base_meta"), DROP, "base construction's meta",
                 id="extension-labeling-base_meta"),
    pytest.param("extension", ("labeling", "base_meta", "labeling", "sizes"), [2, 3, 2],
                 "does not match", id="extension-base-meta-sizes"),
    *(pytest.param(tag, (block, key), DROP, None, id=f"{tag}-{block}-{key}")
      for tag, block, key in (
          ("bipartite4", "labeling", "blocks"),
          ("ctk", "labeling", "pairs"), ("ctk", "labeling", "x_part"), ("ctk", "params", "t"),
          ("mnn", "labeling", "strings"),
          ("mnn", "params", "m"), ("mnn", "params", "n"), ("mnn", "params", "s"),
          ("k2416", "labeling", "strings"),
          ("extension", "labeling", "new_vertices"), ("extension", "labeling", "anchors"),
          ("extension", "labeling", "anchors_old"), ("extension", "labeling", "id_map"))),
])
def test_witness_rejects_meta_missing_a_builder_key(tmp_path, capsys, name, path, value,
                                                    message):
    # The meta values witness builders read: sizes, and for extension p, q
    # and the base meta. Each missing or bad one is a one-line usage error.
    # The cases without a message drop a key the builders used to read and
    # now derive from the part sizes: witness answers as on the intact file.
    doc = copy.deepcopy(DOCUMENTS[name])
    set_value(doc["meta"], path, value)
    src = tmp_path / "c.json"
    src.write_text(json.dumps(doc))
    argv = ["witness", "--u", "0", "--v", "1", "--k", "2", "-o"]
    if message is None:
        intact = tmp_path / "intact.json"
        intact.write_text(json.dumps(DOCUMENTS[name]))
        assert invoke([*argv, str(tmp_path / "expected"), "--coloring", str(intact)]) == 0
        assert invoke([*argv, str(tmp_path / "got"), "--coloring", str(src)]) == 0
        assert (tmp_path / "got").read_bytes() == (tmp_path / "expected").read_bytes()
        assert capsys.readouterr().err == ""
        return
    assert invoke([*argv, str(tmp_path / "out"), "--coloring", str(src)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def witness_outputs(doc, k):
    """What `witness` reports for every ordered pair: the family and its
    validity, or the error message."""
    coloring = Coloring.from_json_dict(doc)
    meta = read_meta(doc["meta"])
    out = []
    for u, v in permutations(range(coloring.spec.n), 2):
        try:
            family = witness_paths(meta, coloring, u, v, k)
            out.append(json.dumps([family.to_json_dict(), family_is_valid(coloring, family, k)]))
        except ValueError as exc:
            out.append(str(exc))
    return out


def strip_unread(meta, junk):
    """Replace with junk (or drop, when junk is None) every params and
    labeling value of the meta and its base metas that no witness builder
    reads."""
    for block, read in (("params", {"p", "q"}), ("labeling", {"sizes", "base_meta"})):
        for key in [key for key in meta[block] if key not in read]:
            set_value(meta[block], [key], DROP if junk is None else next(junk))
    if meta["labeling"].get("base_meta") is not None:
        strip_unread(meta["labeling"]["base_meta"], junk)


@pytest.mark.parametrize("mode", ["junk", "drop"])
@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_witness_ignores_descriptive_meta_fields(name, mode):
    doc = DOCUMENTS[name]
    expected = witness_outputs(doc, 2)
    meta = copy.deepcopy(doc["meta"])
    strip_unread(meta, cycle([5, [], "x", {}, -1, None, [[0, 1]]]) if mode == "junk" else None)
    assert witness_outputs(dict(doc, meta=meta), 2) == expected


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64) | st.floats(-64, 64)
    | st.text(max_size=3) | st.sampled_from(TAGS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def value_paths(node, path=()):
    """The path of every value inside a JSON document."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,)
            yield from value_paths(child, path + (key,))


@settings(max_examples=150)
@given(st.data())
def test_mutated_document_exits_cleanly(tmp_path_factory, data):
    # One value anywhere in a constructed document (coloring, meta, nested
    # base metas) becomes an arbitrary small JSON value: every subcommand
    # that reads the file exits 0, 1 or 2 and raises nothing.
    doc = copy.deepcopy(DOCUMENTS[data.draw(st.sampled_from(list(DOCUMENTS)))])
    set_value(doc, data.draw(st.sampled_from(list(value_paths(doc)))), data.draw(json_values))
    work = tmp_path_factory.mktemp("fuzz")
    src, out = work / "c.json", str(work / "out")
    src.write_text(json.dumps(doc))
    u, v = data.draw(st.tuples(st.integers(-1, 9), st.integers(-1, 9)))
    for argv in (["verify", "--k", "2"],
                 ["witness", "--u", str(u), "--v", str(v), "--k", "2"],
                 ["export-dot", "-o", out]):
        assert invoke([*argv, "--coloring", str(src)]) in (0, 1, 2), argv
    assert invoke(["construct", "--family", "extension", "--base", str(src),
                   "--grow", "0,1", "-o", out]) in (0, 1, 2)


def test_witness_rejects_unknown_tag(tmp_path, capsys):
    coloring, meta = color_bipartite4(4, 4, 2)
    doc = coloring.to_json_dict()
    doc["meta"] = dict(meta, tag="bipartite5")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert invoke(["witness", "--coloring", str(path), "--u", "0", "--v", "1",
                   "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "bipartite5" in err and err.count("\n") == 1


def test_failed_self_check_is_reported_not_asserted(capsys, monkeypatch):
    from types import SimpleNamespace

    import rainbowk.oracle

    # Full verification disagreeing with the oracle's pair loop is a bug;
    # it must surface as exit 3 with one line even under `python -O`.
    monkeypatch.setattr(rainbowk.oracle, "verify_rainbow_k_connected",
                        lambda coloring, k: SimpleNamespace(ok=False))
    assert invoke(["rck-exact", "--sizes", "2,2", "--k", "1",
                   "--max-colors", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_failed_spot_check_is_reported_not_asserted(capsys, monkeypatch):
    import rainbowk.oracle

    # The walk's own calls pass their walk state and get the true answer;
    # only the spot check's call, from a fresh state, sees a failing pair.
    # The two disagree at the first root that passes, before any witness
    # reaches the final check; that must raise, and surface as exit 3 with
    # one line.
    loop = rainbowk.oracle.first_failing_pair

    def flipped_fails(coloring, k, max_len=None, settled=None, recolored=None):
        if settled is None:
            return (0, 1)
        return loop(coloring, k, max_len, settled, recolored)

    monkeypatch.setattr(rainbowk.oracle, "first_failing_pair", flipped_fails)
    with pytest.raises(InvariantError, match="not color-relabeling invariant"):
        rainbowk.oracle.rc_k_exact(PartitionSpec((2, 2)), 1, 2)
    assert invoke(["rck-exact", "--sizes", "2,2", "--k", "1",
                   "--max-colors", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "not color-relabeling invariant" in err


def test_extension_subcommand_chain(tmp_path, capsys):
    base = tmp_path / "base.json"
    invoke(["construct", "--family", "mnn", "--m", "2", "--n", "2", "-o", str(base)])
    grown = tmp_path / "grown.json"
    assert invoke(["construct", "--family", "extension", "--base", str(base),
                   "--grow", "0,1", "-o", str(grown)]) == 0
    assert invoke(["verify", "--coloring", str(grown), "--k", "2"]) == 0
    assert json.loads(grown.read_text())["parts"] == [3, 3, 2]
    capsys.readouterr()


def test_extension_rejects_a_base_meta_of_other_sizes(tmp_path, capsys):
    # A base meta that describes other part sizes would make every witness
    # through the base fail later; construct refuses it up front.
    base = tmp_path / "base.json"
    invoke(["construct", "--family", "mnn", "--m", "2", "--n", "2", "-o", str(base)])
    doc = json.loads(base.read_text())
    doc["meta"]["labeling"]["sizes"] = [9]
    base.write_text(json.dumps(doc))
    grown = tmp_path / "grown.json"
    assert invoke(["construct", "--family", "extension", "--base", str(base),
                   "--grow", "0,1", "-o", str(grown)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not grown.exists()
    assert "meta" in captured.err and captured.err.count("\n") == 1


def test_lower_bound_subcommand(tmp_path, capsys):
    out = tmp_path / "certs.json"
    assert invoke(["lower-bound", "--scenario", "bipartite5", "--k", "2",
                   "--sizes", "2,17", "--samples", "5", "--seed", "0",
                   "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["certificates"]) == 5
    assert all(c["max_disjoint_rainbow_paths"] <= 1 for c in doc["certificates"])
    capsys.readouterr()


def test_lower_bound_names_a_wrong_part_count(tmp_path, capsys):
    out = tmp_path / "certs.json"
    assert invoke(["lower-bound", "--scenario", "bipartite5", "--k", "2",
                   "--sizes", "2,17,1", "--seed", "0", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bipartite5 needs 2 parts, got 3\n"
    assert captured.out == "" and not out.exists()


@pytest.fixture
def no_coloring_drawn(monkeypatch):
    import rainbowk.bounds

    def no_draw(*args):
        raise AssertionError("a coloring was drawn for a usage error")

    monkeypatch.setattr(rainbowk.bounds, "random_coloring", no_draw)


@pytest.mark.parametrize("scenario, k, sizes, message", [
    ("bipartite5", "2", "800,800", "need k <= s <= 2k-1, got k=2, s=800"),
    ("bipartite5", "2", "2,16", "need m >= 4^s + 1 = 17, got m=16"),
    ("bipartite5", "1", "2,17", "k must be >= 2"),
    ("multipartite4", "2", "10,2,1", "small part sizes [2] outside [1, 1]"),
    ("multipartite4", "2", "9,1,1", "big part must have >= 3^2 + 1 = 10 vertices, got 9"),
    ("multipartite4", "2", "10,1", "multipartite4 needs t >= 3 parts, got 2"),
])
def test_lower_bound_checks_hypotheses_before_drawing_a_coloring(
        no_coloring_drawn, tmp_path, capsys, scenario, k, sizes, message):
    out = tmp_path / "certs.json"
    assert invoke(["lower-bound", "--scenario", scenario, "--k", k, "--sizes", sizes,
                   "--seed", "0", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_lower_bound_refuses_a_negative_seed_before_drawing_a_coloring(
        no_coloring_drawn, tmp_path, capsys):
    # random.Random(-s) seeds like Random(s), so seeds -2..2 would repeat
    # samples 0/4 and 1/3.
    out = tmp_path / "certs.json"
    assert invoke(["lower-bound", "--scenario", "bipartite5", "--k", "2", "--sizes", "2,17",
                   "--samples", "5", "--seed", "-2", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -2\n"
    assert captured.out == "" and not out.exists()


def lower_bound_digest(tmp_path, capsys, scenario, k, sizes):
    out = tmp_path / "certs.json"
    assert invoke(["lower-bound", "--scenario", scenario, "--k", str(k), "--sizes", sizes,
                   "--samples", "50", "--seed", "7", "-o", str(out)]) == 0
    capsys.readouterr()
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario, sizes, digest", [
    ("bipartite5", "2,17", "51912d9dcfde7d4d9c7eb3aa4d6632c4afc7c9ccaf2873c698bb2e99e0874c47"),
    ("multipartite4", "10,1,1",
     "4acc5571ad7da8f3cf994d04a824e9b9d6ddf7323ffd9670487d5f5360737165"),
])
def test_lower_bound_certificates_keep_their_bytes(tmp_path, capsys, scenario, sizes, digest):
    # Pinned when each sample drew one randrange call per edge: any change
    # to the colors a seed draws (or an interpreter whose random stream
    # differs) changes these files.
    assert lower_bound_digest(tmp_path, capsys, scenario, 2, sizes) == digest


@pytest.mark.parametrize("scenario, k, sizes, digest", [
    ("bipartite5", 2, "17,2", "a3dd191d98b014f2f38a0e6ebbcd0c5d593f2df8662c02a1f188149e5cbe976b"),
    ("bipartite5", 3, "65,3", "0705d2e72f5d0c233dc09e8ced2532a2cfdf6dc5b25939bcdb022cebdfc547be"),
    ("multipartite4", 2, "1,10,1",
     "e0ee0cf96f73a71418ec39979322433d27ec56668814ad97b2a71b0ac3de4065"),
    ("multipartite4", 3, "2,2,82",
     "c81e0de49c8cb14b09c31ee353e469012431e21f67afdd6d4f3b23900d08106c"),
    ("multipartite4", 4, "2,2,82",
     "71b2af6ba7f3bf8a51b77e41ee6ac4d686e8974510498c149985d49d9d1871f5"),
    ("multipartite4", 3, "28,1,1,1",
     "10c6c85a414a125d5dbbf07ea962a545a9f32a62f6c74fae6606f585cafed87f"),
])
def test_lower_bound_certificates_keep_their_bytes_for_any_big_part_and_k(
        tmp_path, capsys, scenario, k, sizes, digest):
    # The big part first, in the middle and last, and k above 2, pin the
    # big part, params and bound each certificate derives from the sizes.
    assert lower_bound_digest(tmp_path, capsys, scenario, k, sizes) == digest


@pytest.mark.parametrize("scenario, k, sizes", [
    ("bipartite5", 2, (2, 17)),
    ("multipartite4", 2, (10, 1, 1)),
    ("multipartite4", 3, (2, 2, 82)),
])
def test_a_certificate_is_the_object_lower_bound_writes(tmp_path, capsys, scenario, k, sizes):
    # The certifiers and the sampler return the file's objects, key order
    # included, nested `params` too.
    out = tmp_path / "certs.json"
    assert invoke(["lower-bound", "--scenario", scenario, "--k", str(k),
                   "--sizes", ",".join(map(str, sizes)), "--samples", "12", "--seed", "5",
                   "-o", str(out)]) == 0
    capsys.readouterr()
    written = json.loads(out.read_text())["certificates"]
    certify = {"bipartite5": certify_bipartite_lower,
               "multipartite4": certify_multipartite_lower}[scenario]
    sampled = sample_certificates(scenario, k, sizes, 12, seed=5)
    assert len(written) == len(sampled) == 12
    for i, cert in enumerate(written):
        coloring = random_coloring(PartitionSpec(sizes), SCENARIOS[scenario][0], 5 + i)
        for got in (certify(k, coloring), sampled[i]):
            assert got == cert, i
            assert json.dumps(got) == json.dumps(cert), i


def test_rck_exact_subcommand(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    assert invoke(["rck-exact", "--sizes", "2,2", "--k", "1",
                   "--max-colors", "4", "-o", str(witness)]) == 0
    assert "rc_1(2,2) = 2" in capsys.readouterr().out
    reloaded = Coloring.from_json_text(witness.read_text())
    assert reloaded.num_colors == 2


def test_rck_exact_witness_keeps_its_bytes(tmp_path, capsys):
    # Pinned while every decision query still enumerated all of its rainbow
    # paths; the oracle's pair checks are decision queries.
    witness = tmp_path / "witness.json"
    assert invoke(["rck-exact", "--sizes", "2,1,3", "--k", "2", "--max-colors", "3",
                   "-o", str(witness)]) == 0
    assert capsys.readouterr().out == "rc_2(2,1,3) = 3\n"
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == (
        "6c1415122b8a036299f64abb1f90333e763748c0314ec5576139a5a568b04d7b")


def test_rck_exact_exhaustion_line(capsys):
    assert invoke(["rck-exact", "--sizes", "2,2", "--k", "2", "--max-colors", "3"]) == 0
    assert capsys.readouterr().out == "rc_2(2,2) > 3\n"


def test_rck_exact_budget_error(capsys):
    assert invoke(["rck-exact", "--sizes", "5,5", "--k", "1",
                   "--max-colors", "2"]) == 2
    assert "budget" in capsys.readouterr().err


def test_rck_exact_max_edges_flag(capsys):
    # K_{2,2} has 4 edges: a guard of 3 refuses it, a guard of 4 runs it.
    assert invoke(["rck-exact", "--sizes", "2,2", "--k", "1",
                   "--max-colors", "2", "--max-edges", "3"]) == 2
    assert "exceed" in capsys.readouterr().err
    assert invoke(["rck-exact", "--sizes", "2,2", "--k", "1",
                   "--max-colors", "2", "--max-edges", "4"]) == 0
    capsys.readouterr()


# The full stderr line of each refused count. The lines predate
# `core.check_int`, which keeps them byte for byte.
COUNT_REFUSALS = [
    (["verify", "--k", "2", "--jobs", "0"], "jobs must be >= 1, got 0"),
    (["verify", "--k", "2", "--jobs", "-3"], "jobs must be >= 1, got -3"),
    (["lower-bound", "--scenario", "bipartite5", "--k", "2", "--sizes", "2,17",
      "--seed", "0", "--samples", "-5"], "samples must be >= 1, got -5"),
    (["lower-bound", "--scenario", "bipartite5", "--k", "2", "--sizes", "2,17",
      "--seed", "0", "--jobs", "0"], "jobs must be >= 1, got 0"),
    (["verify", "--k", "0", "--pairs", "0,1", "--mode", "maximize"], "k must be >= 1"),
    (["rck-exact", "--sizes", "1,1", "--k", "1", "--max-colors", "0"],
     "max_colors must be >= 1"),
    (["verify", "--k", "2", "--pairs", "0,5", "--jobs", "0"], "jobs must be >= 1, got 0"),
    (["verify", "--k", "0"], "k must be >= 1"),
    (["witness", "--coloring", "mnn", "--u", "0", "--v", "1", "--k", "0"],
     "mnn witnesses exist for k = 2 only, got k=0"),
    (["witness", "--coloring", "bipartite4", "--u", "0", "--v", "1", "--k", "0"],
     "k must be >= 1"),
    (["fkt", "--k", "1", "--t", "3"], "f(k, t) is defined for k, t >= 2"),
    (["construct", "--family", "mnn", "--m", "1", "--n", "1"], "n must be >= 2"),
]


@pytest.mark.parametrize("argv, line", COUNT_REFUSALS,
                         ids=[f"argv{i}" for i in range(len(COUNT_REFUSALS))])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv, line):
    coloring, _ = color_bipartite4(4, 4, 2)
    path = tmp_path / "c.json"
    path.write_text(coloring.to_json_text())
    out = tmp_path / "out.json"
    if argv[0] == "verify":
        argv = argv + ["--coloring", str(path), "--report", str(out)]
    elif argv[0] == "witness":
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(DOCUMENTS[argv[2]]))
        argv = [*argv[:2], str(doc), *argv[3:], "-o", str(out)]
    elif argv[0] != "fkt":  # fkt prints to stdout only
        argv = argv + ["-o", str(out)]
    assert invoke(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {line}\n"


def test_export_dot(tmp_path):
    coloring, _ = color_bipartite4(2, 2, 1)
    src = tmp_path / "c.json"
    src.write_text(coloring.to_json_text())
    out = tmp_path / "c.dot"
    assert invoke(["export-dot", "--coloring", str(src), "-o", str(out)]) == 0
    text = out.read_text()
    assert text.count("--") == 4
    for name in ("blue", "red", "green", "orange"):
        assert f'[color="{name}"]' in text
    assert "cluster_part0" in text and "cluster_part1" in text


def test_export_dot_triangle(tmp_path, capsys):
    coloring, _ = color_ctk(PartitionSpec((1, 1, 1)), 1)
    src = tmp_path / "t.json"
    src.write_text(coloring.to_json_text())
    assert invoke(["export-dot", "--coloring", str(src)]) == 0
    text = capsys.readouterr().out
    assert text.count("--") == 3
    assert len({line.split('"')[1] for line in text.splitlines() if "color=" in line}) == 3


def test_export_dot_palette_too_small(tmp_path, capsys):
    coloring, _ = color_bipartite4(2, 2, 1)
    src = tmp_path / "c.json"
    src.write_text(coloring.to_json_text())
    assert invoke(["export-dot", "--coloring", str(src),
                   "--palette", "1=blue,2=red"]) == 2
    assert "palette" in capsys.readouterr().err


def test_export_dot_palette_entry_needs_a_name(tmp_path, capsys):
    coloring, _ = color_bipartite4(2, 2, 1)
    src = tmp_path / "c.json"
    src.write_text(coloring.to_json_text())
    out = tmp_path / "c.dot"
    assert invoke(["export-dot", "--coloring", str(src), "--palette",
                   "1=blue,2=red,3=green,4", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "palette" in err and err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("palette, entry", [
    ('1=red"]; v9 [label="x,2=b,3=c,4=d', '1=red"]; v9 [label="x'),
    ("1=blue,2=re\\d,3=green,4=orange", "2=re\\d"),
    ("1=blue,2=red,3=gr\neen,4=orange", "3=gr\neen"),
    ("1=blue,2=red,3=green,4=orange\x7f", "4=orange\x7f"),
    ("1=a,2=b,3=c,4=d,1=e", "1=e"),
], ids=["quote", "backslash", "newline", "delete", "color-twice"])
def test_export_dot_refuses_a_bad_palette_entry(tmp_path, capsys, palette, entry):
    # A name is written inside a quoted DOT attribute as it is: a quote would
    # end the attribute and inject statements of its own. A color named twice
    # would silently keep its last name.
    coloring, _ = color_bipartite4(2, 2, 1)
    src = tmp_path / "c.json"
    src.write_text(coloring.to_json_text())
    out = tmp_path / "c.dot"
    assert invoke(["export-dot", "--coloring", str(src), "--palette", palette,
                   "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(entry) in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["construct", "--family", "extension", "--base", "FILE", "--grow", "0,1,2"], "--grow"),
    (["construct", "--family", "extension", "--base", "FILE", "--grow", "0"], "--grow"),
    (["construct", "--family", "ctk", "--k", "2", "--sizes", "2,x"], "--sizes"),
    (["verify", "--coloring", "FILE", "--k", "2", "--pairs", "0,1,2"], "--pairs"),
    (["verify", "--coloring", "FILE", "--k", "2", "--pairs", "0"], "--pairs"),
    (["verify", "--coloring", "FILE", "--k", "2", "--pairs", "a,b"], "--pairs"),
    (["export-dot", "--coloring", "FILE", "--palette", "x=blue,2=red,3=green,4=orange"],
     "--palette"),
    (["rck-exact", "--sizes", "2;2", "--k", "1", "--max-colors", "2"], "--sizes"),
    (["lower-bound", "--scenario", "bipartite5", "--k", "2", "--sizes", "2,17,",
      "--seed", "0"], "--sizes"),
], ids=["grow-three", "grow-one", "sizes-word", "pairs-three", "pairs-one", "pairs-words",
        "palette-word", "sizes-separator", "sizes-trailing-comma"])
def test_malformed_flag_value_names_the_flag(tmp_path, capsys, argv, flag):
    coloring, meta = color_mnn(2, 2)
    path = tmp_path / "c.json"
    path.write_text(coloring_document(coloring, meta))
    out = tmp_path / "out"
    argv = [str(path) if a == "FILE" else a for a in argv]
    assert invoke(argv + (["--report", str(out)] if argv[0] == "verify"
                          else ["-o", str(out)])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err


def test_export_dot_rejects_oversized_palette():
    coloring, _ = color_bipartite4(2, 2, 1)
    palette = {i: f"c{i}" for i in range(1, 14)}
    with pytest.raises(ValueError, match="12"):
        export_dot(coloring, palette)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowk.cli", "fkt", "--k", "3", "--t", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _construct(tmp_path, name, argv):
    out = tmp_path / f"{name}.json"
    assert invoke(["construct", *argv, "-o", str(out)]) == 0
    return out


CONSTRUCT_ARGV = {
    "bipartite4": ["--family", "bipartite4", "--a", "4", "--b", "5", "--k", "2"],
    "ctk": ["--family", "ctk", "--sizes", "2,3,3", "--k", "2"],
    "mnn": ["--family", "mnn", "--m", "3", "--n", "2"],
    "k2416": ["--family", "k2416"],
}


# The digests in the tests below were recorded while every file was written
# by json.dumps(..., indent=2): they pin its bytes, not json_text's own.
@pytest.mark.parametrize("name, digest", [
    ("bipartite4", "de185b89b34e3b1373503e4b08eb236831899dc773371e08539b10eaa7775dad"),
    ("ctk", "5dd3ae65f1a2f401566002879e8ce00b4ad362731628d0b89a50fe75dac5f6d7"),
    ("mnn", "8261780abd063f21348edf4cb3876ebc0f9d5aa5dd90506c3d32dc48f80a4d2c"),
    ("k2416", "1b901c29bc02b3f7a01ae71fc50fbbcfac9ed092ab771dd6c98ef302246cda23"),
    ("extension", "a8b9ab4c3c9a728d7ac0d29a1f156eb670db7d00bff77d050c45c4098ce9bad6"),
])
def test_construct_files_keep_their_bytes(tmp_path, capsys, name, digest):
    if name == "extension":
        base = _construct(tmp_path, "mnn", CONSTRUCT_ARGV["mnn"])
        out = _construct(tmp_path, name, ["--family", "extension", "--base", str(base),
                                          "--grow", "0,1"])
    else:
        out = _construct(tmp_path, name, CONSTRUCT_ARGV[name])
    assert capsys.readouterr().out == ""
    assert _sha256(out) == digest


@pytest.mark.parametrize("u, v, digest", [
    (0, 3, "51221f01d9338298ab673d2647981d0a34c946e2a5b32b3dd5a0e1f84392a861"),
    (3, 4, "61f8177c0f7dea8c99e586fe60c44c06dc18286d8240e75884a04a0178980088"),
], ids=["cross-part", "same-part"])
def test_witness_files_keep_their_bytes(tmp_path, capsys, u, v, digest):
    src = _construct(tmp_path, "mnn", CONSTRUCT_ARGV["mnn"])
    out = tmp_path / "fam.json"
    assert invoke(["witness", "--coloring", str(src), "--u", str(u), "--v", str(v),
                   "--k", "2", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert _sha256(out) == digest


@pytest.mark.parametrize("name, digest", [
    ("bipartite4", "65e90d3f355c8ede6ea2ef54fd1273a42f4e2ff818876412cbff9d8b5795b1e2"),
    ("ctk", "9a3d52a6da8f745ccd12536534942ee48fcc9fa37ce312cc4805f77b09515701"),
    ("mnn", "c1775b058240ecde1d3930a49594cd90d278c16c4aea31fd97fa7e27563b5c28"),
    ("k2416", "dc842847827e76de1a759bf2d645398dfd5bceed9e80c1b7c30159b0f0cb87d9"),
    ("extension", "b4176091bc8638612539d31cff1a7535261f22a241361290bf9196997cf92b22"),
])
def test_every_witness_family_keeps_its_bytes(tmp_path, name, digest):
    # The k = 2 family of every ordered pair of each constructed file, as
    # `witness` writes it: 72, 56, 42, 462 and 72 families. Recorded before
    # the role maps and the vertex-map carrying of families were stated once.
    if name == "extension":
        base = _construct(tmp_path, "mnn", CONSTRUCT_ARGV["mnn"])
        src = _construct(tmp_path, name, ["--family", "extension", "--base", str(base),
                                          "--grow", "0,1"])
    else:
        src = _construct(tmp_path, name, CONSTRUCT_ARGV[name])
    doc = json.loads(src.read_text())
    coloring, meta = Coloring.from_json_dict(doc), read_meta(doc["meta"])
    hashed = hashlib.sha256()
    for u, v in permutations(coloring.spec.vertices(), 2):
        hashed.update(json_text(witness_paths(meta, coloring, u, v, 2).to_json_dict()).encode())
    assert hashed.hexdigest() == digest


MAXIMIZE_COLORINGS = {
    "pass": lambda: color_ctk(PartitionSpec((3, 3, 3)), 2)[0],
    "fail": lambda: randrange_coloring(PartitionSpec((2, 3, 3)), 2, 1),
}


@pytest.mark.parametrize("name, pairs, code, line, digest", [
    ("pass", [], 0, "pass: rainbow 2-connected (3 colors, 9 vertices)",
     "448cdcd4447db8b7b76f1198b0df17504d2c4e04c0efe169d8537e9212e9440c"),
    ("pass", ["--pairs", "0,4"], 0,
     "pair (0, 4): 4 internally disjoint rainbow paths (pass at k=2)",
     "754ca65993b1212f134f7cb03f22a9fef25ee0ebc73bb6d0ee772044e39d2b87"),
    ("pass", ["--pairs", "3,4"], 0,
     "pair (3, 4): 3 internally disjoint rainbow paths (pass at k=2)",
     "5f7cb1d3b80f6bb64eb440d41c5d3f6602fb4e2d62356c3cf3747b9d27c9d879"),
    ("fail", [], 1, "fail: pair (1, 4) has only 1 < 2 internally disjoint rainbow paths",
     "3a838fb2d96fd9f563326c07a3646146c4e2df094fce997edcc16af2e7b9a8f5"),
    ("fail", ["--pairs", "0,4"], 0,
     "pair (0, 4): 2 internally disjoint rainbow paths (pass at k=2)",
     "716cc11ba6540da870fe78f847297fd070341f32788486b797fe0475c696279f"),
    ("fail", ["--pairs", "1,4"], 1,
     "pair (1, 4): 1 internally disjoint rainbow paths (fail at k=2)",
     "ce85c24cceaf17758ffd7986a2106a003a57f41c464d64040cab0c1bfb5033ba"),
], ids=["pass", "pass-pair", "pass-pair-same-part", "fail", "fail-pair-pass", "fail-pair"])
def test_maximize_reports_keep_their_bytes(tmp_path, capsys, name, pairs, code, line, digest):
    path = tmp_path / "c.json"
    path.write_text(MAXIMIZE_COLORINGS[name]().to_json_text())
    report = tmp_path / "report.json"
    assert invoke(["verify", "--coloring", str(path), "--k", "2", "--mode", "maximize",
                   "--report", str(report), *pairs]) == code
    assert capsys.readouterr().out == line + "\n"
    assert _sha256(report) == digest


@pytest.mark.parametrize("argv", [
    ["construct", *CONSTRUCT_ARGV["k2416"]],
    ["verify", "--k", "2"],
    ["verify", "--k", "2", "--mode", "maximize"],
    ["verify", "--k", "2", "--pairs", "0,4"],
    ["verify", "--k", "2", "--pairs", "0,4", "--mode", "maximize"],
    ["witness", "--u", "0", "--v", "3", "--k", "2"],
    ["lower-bound", "--scenario", "bipartite5", "--k", "2", "--sizes", "2,17",
     "--samples", "3", "--seed", "0"],
    ["rck-exact", "--sizes", "2,2", "--k", "1", "--max-colors", "4"],
    ["export-dot"],
], ids=["construct", "verify", "verify-maximize", "verify-pair", "verify-pair-maximize",
        "witness", "lower-bound", "rck-exact", "export-dot"])
def test_unwritable_output_is_one_line_usage_error(tmp_path, capsys, argv):
    # Exit 1 means "verified fail", so a path that cannot be written must
    # not surface as a traceback (exit 1); stdout stays empty.
    src = _construct(tmp_path, "mnn", CONSTRUCT_ARGV["mnn"])
    bad = tmp_path / "missing" / "out.json"
    flag = "--report" if argv[0] == "verify" else "-o"
    if argv[0] in ("verify", "witness", "export-dot"):
        argv = argv + ["--coloring", str(src)]
    assert invoke(argv + [flag, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not bad.exists()
    assert captured.err.startswith(f"error: cannot write {bad}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("target", ["full", "closed-pipe"])
@pytest.mark.parametrize("argv", [
    ["construct", "--family", "mnn", "--m", "60", "--n", "8"],
    ["construct", *CONSTRUCT_ARGV["mnn"]],
    ["fkt", "--k", "3", "--t", "2"],
    ["rck-exact", "--sizes", "2,2", "--k", "1", "--max-colors", "4"],
    ["verify", "--k", "2", "--pairs", "0,4"],
], ids=["construct-long", "construct", "fkt", "rck-exact", "verify-pair"])
def test_unwritable_stdout_is_one_line_usage_error(tmp_path, argv, target):
    # /dev/full fails every write with ENOSPC. A pipe whose read end is
    # closed fails with EPIPE, a short text only when it is flushed. Either
    # is a usage error (exit 2, not the "verified fail" 1), and nothing is
    # left for the interpreter to fail to write again at exit (exit 120 and
    # an "Exception ignored" report).
    if argv[0] == "verify":
        argv = argv + ["--coloring", str(_construct(tmp_path, "mnn", CONSTRUCT_ARGV["mnn"]))]
    command = [sys.executable, "-m", "rainbowk", *argv]
    # Buffered stdout, as by default, so that a short text fails on flush.
    env = child_env(drop=("PYTHONUNBUFFERED",))
    if target == "full":
        if not Path("/dev/full").exists():
            pytest.skip("needs /dev/full")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=env)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=env)
        finally:
            os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


# A child whose self-check fails: full verification disagrees with the
# oracle's pair loop, as in test_failed_self_check_is_reported_not_asserted.
SELF_CHECK_FAILS = [
    sys.executable, "-c",
    "import sys, types, rainbowk.cli, rainbowk.oracle\n"
    "rainbowk.oracle.verify_rainbow_k_connected = "
    "lambda coloring, k: types.SimpleNamespace(ok=False)\n"
    "rainbowk.cli.main(sys.argv[1:])",
]
RAINBOWK = [sys.executable, "-m", "rainbowk"]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command, full, code", [
    (RAINBOWK + ["verify", "--coloring", "missing.json", "--k", "2"], "stderr", 2),
    (RAINBOWK + ["verify"], "stderr", 2),  # argparse: --coloring and --k are required
    (SELF_CHECK_FAILS + ["rck-exact", "--sizes", "2,2", "--k", "1", "--max-colors", "2"],
     "stderr", 3),
    (RAINBOWK + ["--help"], "stdout", 2),
    (RAINBOWK + ["verify", "--help"], "stdout", 2),
], ids=["missing-file", "usage", "self-check", "help", "verify-help"])
def test_unwritable_stream_keeps_the_exit_code(command, full, code, unbuffered):
    # An error line that cannot be written is lost, but the run still exits
    # with the code of what went wrong, never 1 ("verified fail"), 120 (a
    # buffer that fails again at exit) or 0 (help that argparse failed to
    # print). Help that cannot be written is a usage error with the usual
    # one line on stderr.
    if not Path("/dev/full").exists():
        pytest.skip("needs /dev/full")
    env = child_env(drop=("PYTHONUNBUFFERED",))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as sink:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, full: sink}
        proc = subprocess.run(command, text=True, env=env, **streams)
    assert proc.returncode == code
    if full == "stderr":
        assert proc.stdout == ""
    else:
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1


def _main(argv):
    """Exit code of `main(argv)` in this process."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_main_reuses_one_parser_without_carrying_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    src = _construct(tmp_path, "mnn", CONSTRUCT_ARGV["mnn"])
    report = tmp_path / "report.json"
    verify = ["verify", "--coloring", str(src), "--k", "2", "--report", str(report)]
    assert _main([*verify, "--pairs", "0,3", "--mode", "maximize"]) == 0
    assert set(json.loads(report.read_text())) == {"u", "v", "provenance", "paths"}
    # Neither --pairs nor --mode carries over to the next call.
    assert _main(verify) == 0
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "pass" and doc["counts_capped_at_k"] is True
    assert len(doc["pairs"]) == 7 * 6 // 2
    assert _main(["verify", "--k", "2"]) == 2  # argparse: --coloring is required
    assert "--coloring" in capsys.readouterr().err
    assert _main([*verify, "--pairs", "0,3"]) == 0
    assert capsys.readouterr().out == (
        "pair (0, 3): 2 internally disjoint rainbow paths (pass at k=2)\n")
    bad = tmp_path / "missing" / "report.json"
    assert _main(["verify", "--coloring", str(src), "--k", "2", "--report", str(bad)]) == 2
    assert _main(["fkt", "--k", "2", "--t", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n" and captured.err.startswith("error: cannot write ")


# Recorded with Python 3.11's argparse at 80 columns; other argparse
# versions lay help out differently.
@pytest.mark.parametrize("command, digest", [
    (None, "45f5a0ff88ef602fdda81a70d1414897a92226fe34cee44a582fe7ab8a68d029"),
    ("construct", "efcbb44fbe6c04a4485dda8935f97431e1d4f44ac6a8ec61a55ee1a430918c8a"),
    ("verify", "5ebe5da8be3bba5d6ac86ed1499c6704d5831b56eba007524b114bdd942b323e"),
    ("witness", "1d5025eb1d24e01be27008f0feef72ec8554a9a208dc631acad4fe5e733e0164"),
    ("lower-bound", "ac53e580b3a6728a8ab630214139f0a6676e346e19c294960912c84631f626ef"),
    ("fkt", "fefd5ff9eff3680a92a6f8fa20c5f5c0b03e9a6c2eb6dc4163aa541ec8477e51"),
    ("rck-exact", "6cad7a96a053676caa2b017845ed01962a5f73d1d3e4c70502a6527c124a4b52"),
    ("export-dot", "2baf13418328c47de64d4f04b05a3abc6927798d952f27b581caabe11ae333ee"),
])
def test_help_text_keeps_its_bytes(capsys, monkeypatch, command, digest):
    if sys.version_info[:2] != (3, 11):
        pytest.skip("help digests were recorded with Python 3.11's argparse")
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    for _ in range(2):  # the second call reuses the parser the first one built
        assert _main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# -- hostile files: one line and exit 2, never a traceback --------------------

JSON_READERS = {
    "verify": ["verify", "--k", "1", "--coloring"],
    "witness": ["witness", "--u", "0", "--v", "1", "--k", "2", "--coloring"],
    "export-dot": ["export-dot", "--coloring"],
    "construct": ["construct", "--family", "extension", "--grow", "0,1", "--base"],
}


@pytest.mark.parametrize("argv", list(JSON_READERS.values()), ids=list(JSON_READERS))
def test_deeply_nested_json_is_one_line_usage_error(tmp_path, capsys, argv):
    # Past its depth limit json.loads raises RecursionError, not JSONDecodeError.
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert invoke([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: invalid JSON: ")
    assert captured.err.count("\n") == 1


# Runs the CLI with its address space capped at 600 MB (or the hard limit,
# if lower), so that an input that would allocate by its declared sizes
# fails in the child, never in the test process.
CAPPED = [sys.executable, "-c",
          "import resource, sys\n"
          "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
          "cap = 600 * 2**20 if hard == resource.RLIM_INFINITY else min(600 * 2**20, hard)\n"
          "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
          "import rainbowk.cli\n"
          "rainbowk.cli.main(sys.argv[1:])"]


def run_capped(argv):
    return subprocess.run(CAPPED + argv, capture_output=True, text=True, env=child_env())


@pytest.mark.parametrize("edges, line", [
    ([], "coloring not total: 10000000000 cross-part pairs uncolored"),
    ([[0, 10**10 + 2, 1], [0, 3, 1]], "edge 0: invalid endpoints [0,10000000002]"),
    ([[0, 3, 1], [0, 10**10 + 2, 1]], "edge 0: [0,3] endpoints share part 0"),
    ([[0, 10**10, 1], [0, 10**10, 1]], "edge 1: duplicate pair [0, 10000000000]"),
], ids=["empty", "out-of-range", "same-part", "duplicate"])
def test_short_document_with_huge_parts_is_refused_under_a_memory_cap(tmp_path, edges, line):
    # A table sized by n = 10**10 + 1 would far exceed the cap. The first
    # bad entry is still the one named.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"parts": [10**10, 1], "num_colors": 1, "edges": edges}))
    proc = run_capped(["verify", "--k", "1", "--coloring", str(path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {line}\n")


def test_export_dot_refuses_more_colors_than_a_palette_names_under_a_memory_cap(tmp_path):
    # Listing the colors 1..10**9 that the palette leaves unnamed would not fit.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"parts": [1, 1], "num_colors": 10**9, "tight": False,
                                "edges": [[0, 1, 1]]}))
    proc = run_capped(["export-dot", "--coloring", str(path)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: a palette names at most 12 colors; the coloring has 1000000000\n"


def extension_chain_document(levels):
    """A K_{2+levels,2+levels,2} document whose meta is the mnn K_{2,2,2}
    meta under `levels` extension metas, each growing parts 0 and 1. The
    metas hold only the fields the witness builders read, and every edge
    has color 1: a family's paths depend on the meta alone."""
    _, meta = color_mnn(2, 2)
    for i in range(1, levels + 1):
        meta = {"tag": "extension", "params": {"k": 2, "p": 0, "q": 1},
                "labeling": {"sizes": [2 + i, 2 + i, 2], "base_meta": meta}}
    spec = PartitionSpec((2 + levels, 2 + levels, 2))
    doc = Coloring(spec, 2, colors=bytes([1]) * spec.edge_count()).to_json_dict()
    doc["meta"] = meta
    return json.dumps(doc)


def run_witness(tmp_path, levels, u, v):
    path = tmp_path / "chain.json"
    path.write_text(extension_chain_document(levels))
    out = tmp_path / "fam.json"
    proc = subprocess.run(RAINBOWK + ["witness", "--coloring", str(path), "--u", str(u),
                                      "--v", str(v), "--k", "2", "-o", str(out)],
                          capture_output=True, text=True, env=child_env())
    return proc, out


def test_witness_refuses_an_extension_chain_too_deep_to_follow(tmp_path):
    proc, out = run_witness(tmp_path, 400, 0, 1)
    assert (proc.returncode, proc.stdout) == (2, "") and not out.exists()
    assert proc.stderr == "error: the meta's chain of extension base metas is too deep to follow\n"


@pytest.mark.parametrize("u, v, digest", [
    (0, 603, "0a4d638b5d956055e25cf2445b76df3d6ca01353db4ab125b951dd61ade27316"),
    (301, 603, "f9481c1d6283b5599876349b7b7363396471f58b41c81717011c448c6114362c"),
], ids=["old-vertex", "new-vertex"])
def test_witness_through_a_long_extension_chain_keeps_its_bytes(tmp_path, u, v, digest):
    # 300 levels, which the witness builders' recursion still follows. The
    # colors are arbitrary, so the family is reported invalid (exit 1).
    proc, out = run_witness(tmp_path, 300, u, v)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")
    assert _sha256(out) == digest


@pytest.mark.parametrize("levels, code, err", [
    (490, 0, ""),
    (491, 2, "error: the document is nested too deep to write as JSON\n"),
])
def test_construct_over_a_deep_extension_chain_writes_or_is_refused(tmp_path, levels, code,
                                                                    err):
    # The grown meta nests one level more than its base's. At 491 base
    # levels it is too deep for json.dumps as well: one line, no file.
    # Writing the base here takes more than the recursion limit that the
    # test's own frames leave to json.dumps, so it is raised meanwhile.
    base = tmp_path / "chain.json"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 1000)
    try:
        base.write_text(extension_chain_document(levels))
    finally:
        sys.setrecursionlimit(limit)
    out = tmp_path / "grown.json"
    proc = subprocess.run(RAINBOWK + ["construct", "--family", "extension", "--base", str(base),
                                      "--grow", "0,1", "-o", str(out)],
                          capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout, proc.stderr, out.exists()) == (code, "", err, code == 0)


def test_extension_reads_its_base_meta_in_one_form(tmp_path, capsys):
    # Extra keys are dropped and the keys written in their own order, at
    # every level of the chain, so the grown file does not depend on them.
    base = _construct(tmp_path, "mnn", CONSTRUCT_ARGV["mnn"])
    grown = _construct(tmp_path, "grown", ["--family", "extension", "--base", str(base),
                                           "--grow", "0,1"])
    doc = json.loads(grown.read_text())
    outer = doc["meta"]
    inner = outer["labeling"]["base_meta"]
    inner = {"labeling": inner["labeling"], "note": 1, "params": inner["params"],
             "tag": inner["tag"]}
    doc["meta"] = {"params": outer["params"], "extra": [2],
                   "labeling": dict(outer["labeling"], base_meta=inner), "tag": outer["tag"]}
    reordered = tmp_path / "reordered.json"
    reordered.write_text(json.dumps(doc))
    outs = [_construct(tmp_path, f"twice-{i}", ["--family", "extension", "--base", str(src),
                                                "--grow", "1,2"])
            for i, src in enumerate((grown, reordered))]
    assert capsys.readouterr().out == ""
    assert outs[0].read_bytes() == outs[1].read_bytes()
