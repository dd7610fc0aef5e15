import json
import subprocess
import sys

import pytest

from rainbowk.cli import build_parser, export_dot, run
from rainbowk.constructions import (
    WITNESS_KEYS,
    color_2_4_16,
    color_bipartite4,
    color_ctk,
    color_extension,
    color_mnn,
)
from rainbowk.core import Coloring, PartitionSpec


def invoke(argv):
    args = build_parser().parse_args(argv)
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
    from rainbowk.constructions import ConstructionMeta

    meta = ConstructionMeta.from_json_dict(doc["meta"])
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


def test_malformed_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"parts": [2, 2], "num_colors": 1, "edges": [[0, 1, 1]]}')
    assert invoke(["verify", "--coloring", str(path), "--k", "1"]) == 2
    assert "share part" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [{"edges": 5}, {"num_colors": True}, {"edges": [[0, 2, 1.7], [0, 3, 2],
                                                    [1, 2, 2], [1, 3, 1]]},
     {"tight": "false"}],
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
    doc["meta"] = meta.to_json_dict()
    del doc["meta"][missing]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert invoke(["witness", "--coloring", str(path), "--u", "0", "--v", "1",
                   "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert missing in err and err.count("\n") == 1


@pytest.mark.parametrize("tag, block, key", [
    (tag, block, key)
    for tag, keys in WITNESS_KEYS.items()
    for block, names in zip(("params", "labeling"), keys)
    for key in names
])
def test_witness_rejects_meta_missing_a_builder_key(tmp_path, capsys, tag, block, key):
    base, base_meta = color_mnn(2, 2)
    coloring, meta = {
        "bipartite4": lambda: color_bipartite4(4, 4, 2),
        "ctk": lambda: color_ctk(PartitionSpec((2, 2, 2)), 2),
        "mnn": lambda: (base, base_meta),
        "k2416": color_2_4_16,
        "extension": lambda: color_extension(base, 0, 1, base_meta=base_meta),
    }[tag]()
    doc = coloring.to_json_dict()
    doc["meta"] = meta.to_json_dict()
    del doc["meta"][block][key]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert invoke(["witness", "--coloring", str(path), "--u", "0", "--v", "1",
                   "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and err.count("\n") == 1


def test_witness_rejects_unknown_tag(tmp_path, capsys):
    coloring, meta = color_bipartite4(4, 4, 2)
    doc = coloring.to_json_dict()
    doc["meta"] = dict(meta.to_json_dict(), tag="bipartite5")
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


def test_extension_subcommand_chain(tmp_path, capsys):
    base = tmp_path / "base.json"
    invoke(["construct", "--family", "mnn", "--m", "2", "--n", "2", "-o", str(base)])
    grown = tmp_path / "grown.json"
    assert invoke(["construct", "--family", "extension", "--base", str(base),
                   "--grow", "0,1", "-o", str(grown)]) == 0
    assert invoke(["verify", "--coloring", str(grown), "--k", "2"]) == 0
    assert json.loads(grown.read_text())["parts"] == [3, 3, 2]
    capsys.readouterr()


def test_lower_bound_subcommand(tmp_path, capsys):
    out = tmp_path / "certs.json"
    assert invoke(["lower-bound", "--scenario", "bipartite5", "--k", "2",
                   "--sizes", "2,17", "--samples", "5", "--seed", "0",
                   "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["certificates"]) == 5
    assert all(c["max_disjoint_rainbow_paths"] <= 1 for c in doc["certificates"])
    capsys.readouterr()


def test_rck_exact_subcommand(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    assert invoke(["rck-exact", "--sizes", "2,2", "--k", "1",
                   "--max-colors", "4", "-o", str(witness)]) == 0
    assert "rc_1(2,2) = 2" in capsys.readouterr().out
    reloaded = Coloring.from_json_text(witness.read_text())
    assert reloaded.num_colors == 2


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


@pytest.mark.parametrize("argv", [
    ["verify", "--k", "2", "--jobs", "0"],
    ["verify", "--k", "2", "--jobs", "-3"],
    ["lower-bound", "--scenario", "bipartite5", "--k", "2", "--sizes", "2,17",
     "--seed", "0", "--samples", "-5"],
    ["lower-bound", "--scenario", "bipartite5", "--k", "2", "--sizes", "2,17",
     "--seed", "0", "--jobs", "0"],
])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv):
    coloring, _ = color_bipartite4(4, 4, 2)
    path = tmp_path / "c.json"
    path.write_text(coloring.to_json_text())
    out = tmp_path / "out.json"
    if argv[0] == "verify":
        argv = argv + ["--coloring", str(path), "--report", str(out)]
    else:
        argv = argv + ["-o", str(out)]
    assert invoke(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"
