"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def program():
    return run.import_program()


@pytest.fixture
def workdir():
    scratch = run.ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=scratch))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _counts(program, doc, k=2, mode="maximize"):
    coloring = program.core.Coloring.from_json_dict(doc)
    return program.verifier.verify_rainbow_k_connected(coloring, k, mode=mode).counts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabelling_keeps_per_pair_counts(program, seed):
    coloring, _ = program.constructions.color_ctk(program.core.PartitionSpec((2, 3, 2)), 2)
    doc = coloring.to_json_dict()
    relabelled, perm = workloads.relabel(doc, random.Random(seed))
    assert sorted(perm[0:2]) == [0, 1] and sorted(perm[2:5]) == [2, 3, 4]
    before, after = _counts(program, doc), _counts(program, relabelled)
    for (u, v), count in before.items():
        assert after[tuple(sorted((perm[u], perm[v])))] == count


def _verify_command(program, workdir, mode):
    coloring, _ = program.constructions.color_bipartite4(4, 4, 2)
    doc, perm = workloads.relabel(coloring.to_json_dict(), random.Random(5))
    path = workdir / "c.json"
    path.write_text(json.dumps(doc))
    report = workdir / "r.json"
    argv = ["verify", "--coloring", str(path), "--k", "2", "--mode", mode,
            "--report", str(report)]
    expected = None
    if mode == "maximize":
        expected = [c for _, c in sorted(_counts(program, coloring.to_json_dict()).items())]
    return workloads.Command(argv, report, workloads.verify_check(8, 2, perm, expected))


@pytest.mark.parametrize("mode", ["maximize", "decision"])
def test_checker_fails_a_tampered_report(program, workdir, mode):
    cmd = _verify_command(program, workdir, mode)
    checker = run.Checker()
    checker.check([cmd], [run.run_command(program, cmd.argv)])
    assert (checker.attempted, checker.failed) == (1, 0)

    result = run.run_command(program, cmd.argv)
    report = json.loads(cmd.out.read_text())
    report["pairs"][3][2] += 1
    cmd.out.write_text(json.dumps(report))
    checker.check([cmd], [result])
    assert (checker.attempted, checker.failed) == (2, 1)


def test_checker_fails_a_wrong_oracle_value(program):
    check = workloads.oracle_check(program, (2, 2), 1, 2)
    assert check(0, "rc_1(2,2) = 3\n", None) is not None


SMALL_DECISION = [
    ("ctk-3-3-3-3-3", lambda c, P: c.color_ctk(P((3, 3, 3, 3, 3)), 4), 4),
    ("k2416", lambda c, P: c.color_2_4_16(), 2),
]


def test_traced_self_times_add_up_to_traced_wall(workdir, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", workdir / "out")
    checker = run.Checker()
    small = workloads.Workload("small", "test",
                               [workloads.verify_commands("decision", SMALL_DECISION)])
    metrics, notes = run.measure_traced(small, 1, workdir, 1.0, checker)
    assert checker.failed == 0
    # Every traced second belongs to some span: only the benchmark's own
    # per-command bookkeeping (stdout capture, exit handling) lies outside
    # them, and it stays under 1% of the traced pass.
    gap = notes["traced_wall_s"] - notes["self_s_total"]
    assert 0 <= gap <= 0.01 * notes["traced_wall_s"]
    # Calibrated self times take the statistic of the traced time (per
    # command, the median across rounds), so they cannot exceed it.
    assert 0 < notes["layer_s"] <= notes["traced_s"]
    assert metrics["core.color_calls"] > 0 and metrics["verifier.paths"] > 0
    assert (workdir / "out" / "spans-small-seed1.json").is_file()


def test_greedy_settled_ratio_counts_decision_queries_only():
    def query(start, value):
        return ["verifier.max_disjoint_rainbow", start, start + 0.001, -1, 0, value]

    spans = [query(0.0, [3, None]), query(0.1, [2, True]), query(0.2, [2, False])]
    counts = tracing.layer_metrics(spans, 0, [1.0]).counts
    assert counts["verifier.greedy_settled_ratio"] == 0.5


def test_calibration_scales_each_command_by_its_reference_timings(monkeypatch):
    refs = iter([run.REF_SECONDS, 3 * run.REF_SECONDS, run.REF_SECONDS])
    monkeypatch.setattr(run, "reference_seconds", lambda: next(refs))
    monkeypatch.setattr(run, "run_command", lambda program, argv: (0, ""))
    commands = [workloads.Command(["a"], None, None), workloads.Command(["b"], None, None)]
    done = run.Pass(None, commands)
    assert done.scales == [0.5, 0.5]
    assert done.walls == [t / 2 for t in done.raw_walls]


def test_tracing_wraps_every_alias_and_restores_it(program):
    def snapshot():
        modules = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("rainbowk")}
        return modules, dict(vars(program.core.Coloring))

    before = snapshot()
    original = program.verifier.max_disjoint_rainbow
    with tracing.installed(tracing.Recorder(), program):
        for module in (program.verifier, program.bounds, program.oracle, program.cli):
            assert module.max_disjoint_rainbow is not original
            assert module.max_disjoint_rainbow.__wrapped__ is original
    assert snapshot() == before


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.tail_percentile(19) is None
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.tail_percentile(10_000) == 99.9
