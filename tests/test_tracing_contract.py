"""The names the benchmark's tracer wraps from outside the package.

`perfbench/tracing.py` replaces functions by module attribute and reads
`PairQuery.mode` and `.k` off each query it sees, so a rename or a moved
import inside `rainbowk` breaks every traced run without failing a test of
the package. The tracer is loaded by path and only read here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from rainbowk import bounds, cli, constructions, core, oracle, verifier
from rainbowk.bounds import random_coloring
from rainbowk.core import PartitionSpec
from rainbowk.verifier import PairQuery

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_resolves(tracing):
    for module, attr in tracing.SPANS:
        assert callable(getattr(importlib.import_module(f"rainbowk.{module}"), attr)), (
            module, attr)


@pytest.mark.parametrize("module", ["verifier", "bounds", "oracle", "cli"])
def test_the_pair_query_is_bound_where_the_tracer_wraps_it(module):
    bound = importlib.import_module(f"rainbowk.{module}").max_disjoint_rainbow
    assert bound is verifier.max_disjoint_rainbow


def test_a_query_names_its_mode():
    assert PairQuery(0, 1).mode == "maximize"
    assert PairQuery(0, 1, k=2).mode == "decision"


def _run_cli(argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    return exit_info.value.code or 0


def test_a_traced_run_records_every_query_and_restores_the_program(tracing, tmp_path, capsys):
    coloring = tmp_path / "c.json"
    coloring.write_text(random_coloring(PartitionSpec((2, 2, 2)), 3, 2).to_json_text())
    program = SimpleNamespace(cli=cli, constructions=constructions, verifier=verifier,
                              bounds=bounds, oracle=oracle, core=core)
    modules = [m for n, m in sys.modules.items() if n == "rainbowk" or n.startswith("rainbowk.")]
    before = [dict(vars(m)) for m in modules + [core.Coloring]]
    base = str(tmp_path / "base.json")
    recorder = tracing.Recorder()
    with tracing.installed(recorder, program):
        codes = [_run_cli(argv) for argv in (
            ["construct", "--family", "mnn", "--m", "2", "--n", "2", "-o", base],
            ["construct", "--family", "extension", "--base", base, "--grow", "0,1",
             "-o", str(tmp_path / "grown.json")],
            ["verify", "--coloring", str(coloring), "--k", "3"],
            ["verify", "--coloring", str(coloring), "--k", "3", "--mode", "maximize"],
            ["rck-exact", "--sizes", "2,2", "--k", "1", "--max-colors", "2"],
            ["lower-bound", "--scenario", "bipartite5", "--k", "2", "--sizes", "2,17",
             "--samples", "3", "--seed", "0", "-o", str(tmp_path / "certs.json")],
        )]
    capsys.readouterr()
    assert codes == [0, 0, 1, 1, 0, 0]
    values = [span[5] for span in recorder.spans if span[0] == "verifier.max_disjoint_rainbow"]
    assert values and all(isinstance(v, list) and len(v) == 2 for v in values)
    # The 3 samples draw and scan through the names the tracer wraps, so
    # `bounds.sample_s` and `bounds.twins_s` read their work.
    names = [span[0] for span in recorder.spans]
    assert names.count("bounds.random_coloring") == 3
    assert names.count("bounds.find_color_twins") == 3
    # Constructions that return their meta as a dict are still wrapped.
    assert names.count("constructions.color_mnn") == 1
    assert names.count("constructions.color_extension") == 1
    after = [vars(m) for m in modules + [core.Coloring]]
    for old, new in zip(before, after):
        assert all(new[key] is value for key, value in old.items())
