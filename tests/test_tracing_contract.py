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

import pytest

from rainbowk import verifier
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
