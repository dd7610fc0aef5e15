"""Smoke tests for the scripts in scripts/, each run as its own process."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

from helpers import child_env
from rainbowk.cli import DEFAULT_PALETTE, export_dot
from rainbowk.constructions import color_2_4_16, color_bipartite4, color_ctk, color_mnn
from rainbowk.core import PartitionSpec

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT)


def test_run_grid_passes_every_row():
    proc = run_script("run_grid.py", "--max-k", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert "verdict" in header and rows
    # Columns: instance label (may hold spaces), k, colors, verdict, min pairs, time.
    assert [row.split()[-3] for row in rows] == ["pass"] * len(rows)


def test_render_figures_writes_the_dot_files(tmp_path):
    figures = {
        "bipartite4_k44.dot": color_bipartite4(4, 4, 2)[0],
        "ctk_9_parts.dot": color_ctk(PartitionSpec(tuple([1] * 9)), 2)[0],
        "mnn_k422.dot": color_mnn(4, 2)[0],
        "k2416.dot": color_2_4_16()[0],
    }
    proc = run_script("render_figures.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(figures)
    printed = {
        Path(path).name: (int(n), int(m))
        for path, n, m in re.findall(r"wrote (\S+) \((\d+) vertices, (\d+) edges\)",
                                     proc.stdout)
    }
    for name, coloring in figures.items():
        assert (tmp_path / name).read_text() == export_dot(coloring, DEFAULT_PALETTE)
        assert printed[name] == (coloring.spec.n, coloring.spec.edge_count())


def test_gc_cadence_counts_collections_over_the_benchmark_loop():
    proc = run_script("gc_cadence.py", str(ROOT), "oracle-exhaust", "1")
    assert proc.returncode == 0, proc.stderr
    head, gens, per_full, rss = proc.stdout.splitlines()
    passes, imports = map(int, re.fullmatch(
        r"workload oracle-exhaust: passes (\d+), imports (\d+), failed 0 of \d+ commands",
        head).groups())
    # Every pass runs on a fresh import, and more set-ups precede the first.
    assert 1 <= passes < imports
    counts = [int(n) for n in re.fullmatch(r"collections: gen0 (\d+), gen1 (\d+), gen2 (\d+)",
                                           gens).groups()]
    assert counts[0] > 0
    assert per_full == ("imports per full collection: no full collection" if not counts[2]
                        else f"imports per full collection: {imports / counts[2]:.2f}")
    assert re.fullmatch(r"ru_maxrss: \d+\.\d\d MB", rss)


def test_code_lines_counts_only_lines_that_hold_code(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        '"""A module docstring\nover two lines."""\n'
        "\n"
        "import os  # a trailing comment\n"
        "\n"
        "# a comment line\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """A function docstring."""\n'
        "    return max(\n"
        "        x,\n"
        "        1,\n"
        "    )\n")
    (tmp_path / "b.py").write_text("x = 1\n")
    proc = run_script("code_lines.py", str(tmp_path / "pkg"), str(tmp_path / "b.py"))
    assert proc.returncode == 0, proc.stderr
    # Files in path order. a.py: the import, the def and the four lines of
    # the split call.
    assert proc.stdout.splitlines() == [
        f"1 {tmp_path / 'b.py'}", f"6 {tmp_path / 'pkg' / 'a.py'}", "7 total"]


def test_same_bytes_finds_a_checkout_equal_to_itself():
    proc = run_script("same_bytes.py", str(ROOT), str(ROOT), "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "29 commands compared, 0 differ\n"


def test_same_bytes_names_each_command_whose_stdout_changed(tmp_path):
    copy = tmp_path / "copy"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "src" / "rainbowk" / "cli.py"
    text = cli.read_text()
    assert "certificates written to" in text
    cli.write_text(text.replace("certificates written to", "certificates saved to"))
    proc = run_script("same_bytes.py", str(ROOT), str(copy), "1")
    assert proc.returncode == 1, proc.stderr
    *lines, total = proc.stdout.splitlines()
    assert total == "29 commands compared, 8 differ"
    # The lower-bound workload's 8 commands, each differing in stdout only.
    assert len(lines) == 8
    assert all(re.fullmatch(r"lower-bound seed 1: lower-bound .*: stdout differ", line)
               for line in lines)
