"""Every integer argument of the library is refused with a ValueError that
names it when it is not a plain int, however it compares: `core.check_int`
states the rule, `core.check_pair` a pair's endpoints, and part sizes and
grown parts keep lines of their own. The int fields of exported records are
covered too: by the code that refuses them, by the checker that judges a
family holding one invalid, or by a listed exemption that says why."""

import dataclasses
import inspect
import re

import pytest

import rainbowk
from rainbowk import (
    Coloring,
    PairQuery,
    PartitionSpec,
    WitnessFamily,
    certify_bipartite_lower,
    certify_multipartite_lower,
    color_bipartite4,
    color_ctk,
    color_extension,
    color_mnn,
    enumerate_colorings_canonical,
    enumerate_rainbow_paths,
    f_formula,
    family_is_valid,
    find_color_twins,
    max_disjoint_rainbow,
    random_coloring,
    rc_k_exact,
    verify_rainbow_k_connected,
    witness_paths,
)
from rainbowk.bounds import sample_certificates
from rainbowk.oracle import first_failing_pair
from rainbowk.verifier import fan_out

SPEC = PartitionSpec((2, 2, 2))
COLORING = random_coloring(SPEC, 3, 1)
FAMILY = WitnessFamily(0, 2, ((0, 2),), "test")
MNN, MNN_META = color_mnn(3, 2)
BIPARTITE5 = random_coloring(PartitionSpec((2, 17)), 4, 0)
MULTIPARTITE4 = random_coloring(PartitionSpec((1, 1, 10)), 3, 0)
EDGE = PartitionSpec((1, 1))

# (callable, parameter) -> a call, valid but for the value it passes there.
CALLS = {
    ("certify_bipartite_lower", "k"): lambda x: certify_bipartite_lower(x, BIPARTITE5),
    ("certify_multipartite_lower", "k"): lambda x: certify_multipartite_lower(x, MULTIPARTITE4),
    ("f_formula", "k"): lambda x: f_formula(x, 3),
    ("f_formula", "t"): lambda x: f_formula(2, x),
    ("find_color_twins", "big_part"): lambda x: find_color_twins(BIPARTITE5, x),
    ("random_coloring", "num_colors"): lambda x: random_coloring(SPEC, x, 1),
    ("random_coloring", "seed"): lambda x: random_coloring(SPEC, 3, x),
    ("color_bipartite4", "a"): lambda x: color_bipartite4(x, 4, 2),
    ("color_bipartite4", "b"): lambda x: color_bipartite4(4, x, 2),
    ("color_bipartite4", "k"): lambda x: color_bipartite4(4, 4, x),
    ("color_ctk", "k"): lambda x: color_ctk(SPEC, x),
    ("color_extension", "p"): lambda x: color_extension(MNN, x, 1, MNN_META),
    ("color_extension", "q"): lambda x: color_extension(MNN, 0, x, MNN_META),
    ("color_mnn", "m"): lambda x: color_mnn(x, 2),
    ("color_mnn", "n"): lambda x: color_mnn(1, x),
    ("witness_paths", "u"): lambda x: witness_paths(MNN_META, MNN, x, 3, 2),
    ("witness_paths", "v"): lambda x: witness_paths(MNN_META, MNN, 0, x, 2),
    ("witness_paths", "k"): lambda x: witness_paths(MNN_META, MNN, 0, 3, x),
    ("family_is_valid", "k"): lambda x: family_is_valid(COLORING, FAMILY, x),
    ("enumerate_colorings_canonical", "max_colors"):
        lambda x: enumerate_colorings_canonical(EDGE, x),
    ("enumerate_colorings_canonical", "max_edges"):
        lambda x: enumerate_colorings_canonical(EDGE, 2, max_edges=x),
    ("enumerate_colorings_canonical", "min_colors"):
        lambda x: enumerate_colorings_canonical(EDGE, 2, min_colors=x),
    ("rc_k_exact", "k"): lambda x: rc_k_exact(EDGE, x, 2),
    ("rc_k_exact", "max_colors"): lambda x: rc_k_exact(EDGE, 1, x),
    ("rc_k_exact", "max_edges"): lambda x: rc_k_exact(EDGE, 1, 2, max_edges=x),
    ("enumerate_rainbow_paths", "u"): lambda x: enumerate_rainbow_paths(COLORING, x, 3),
    ("enumerate_rainbow_paths", "v"): lambda x: enumerate_rainbow_paths(COLORING, 0, x),
    ("enumerate_rainbow_paths", "max_len"):
        lambda x: enumerate_rainbow_paths(COLORING, 0, 3, max_len=x),
    ("verify_rainbow_k_connected", "k"): lambda x: verify_rainbow_k_connected(COLORING, x),
    ("verify_rainbow_k_connected", "jobs"):
        lambda x: verify_rainbow_k_connected(COLORING, 1, jobs=x),
    # Entry points outside the package namespace and constructors.
    ("fan_out", "jobs"): lambda x: fan_out(abs, [1], x),
    ("first_failing_pair", "k"): lambda x: first_failing_pair(COLORING, x),
    ("first_failing_pair", "max_len"): lambda x: first_failing_pair(COLORING, 1, max_len=x),
    ("sample_certificates", "k"): lambda x: sample_certificates("bipartite5", x, (2, 17), 1, 0),
    ("sample_certificates", "samples"):
        lambda x: sample_certificates("bipartite5", 2, (2, 17), x, 0),
    ("sample_certificates", "seed"):
        lambda x: sample_certificates("bipartite5", 2, (2, 17), 1, x),
    ("sample_certificates", "jobs"):
        lambda x: sample_certificates("bipartite5", 2, (2, 17), 1, 0, jobs=x),
    # A query is a plain record: its values are refused by the query.
    ("PairQuery", "u"): lambda x: max_disjoint_rainbow(COLORING, PairQuery(x, 1)),
    ("PairQuery", "v"): lambda x: max_disjoint_rainbow(COLORING, PairQuery(0, x)),
    ("PairQuery", "k"): lambda x: max_disjoint_rainbow(COLORING, PairQuery(0, 1, k=x)),
    ("Coloring", "num_colors"): lambda x: Coloring(SPEC, x, COLORING.assignment),
}


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=repr)
@pytest.mark.parametrize("call", CALLS.values(), ids=[".".join(key) for key in CALLS])
def test_an_int_argument_that_is_not_an_int_is_refused_by_name(call, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(value)


# Int fields of exported records that a checker reads: it answers False
# for a value that is not an int rather than refusing it.
JUDGED = {
    ("WitnessFamily", "u"):
        lambda x: family_is_valid(COLORING, WitnessFamily(x, 0, ((x, 0),), "test"), 1),
    ("WitnessFamily", "v"):
        lambda x: family_is_valid(COLORING, WitnessFamily(0, x, ((0, x),), "test"), 1),
}

# Int fields of exported records that no caller's value reaches unchecked.
EXEMPT = {
    # Built by `verify_rainbow_k_connected` from a k its own row refuses.
    ("VerificationReport", "k"),
}


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=repr)
@pytest.mark.parametrize("call", JUDGED.values(), ids=[".".join(key) for key in JUDGED])
def test_an_int_field_that_is_not_an_int_is_judged_invalid(call, value):
    assert call(2) is True
    assert call(value) is False


def test_every_int_parameter_of_the_package_has_a_row():
    # A new entry point, a new int parameter or a new int field of an
    # exported record cannot skip the rule.
    exported = [(name, obj) for name, obj in vars(rainbowk).items()
                if inspect.isfunction(obj)]
    assert len(exported) >= 15
    int_types = ("int", "int | None", int)
    int_params = {
        (name, param.name)
        for name, obj in exported
        for param in inspect.signature(obj).parameters.values()
        if param.annotation in int_types
    }
    records = [(name, obj) for name, obj in vars(rainbowk).items()
               if inspect.isclass(obj) and dataclasses.is_dataclass(obj)]
    assert {"Coloring", "PairQuery", "VerificationReport", "WitnessFamily"} <= dict(records).keys()
    int_fields = {(name, f.name) for name, obj in records
                  for f in dataclasses.fields(obj) if f.type in int_types}
    assert ("Coloring", "num_colors") in int_fields
    assert sorted(int_params - set(CALLS)) == []
    assert sorted(int_fields - set(CALLS) - set(JUDGED) - EXEMPT) == []
    assert sorted(EXEMPT - int_fields) == []  # no stale exemption

