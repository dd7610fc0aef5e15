#!/usr/bin/env python3
"""Compare two checkouts' benchmark commands byte for byte.

    python3 scripts/same_bytes.py TREE_A TREE_B SEED [SEED ...]

TREE_A and TREE_B are checkouts of this repository. For each tree the
script starts one child process with PYTHONPATH=TREE/src, which loads that
tree's `perfbench/run.py` by path (its workloads and its `src/` are used,
not this script's). Per workload and seed, the child calls the workload's
`prepare` in a fresh temporary directory and runs each of its commands
once through `run.run_command`, with a DEBUG handler on the `rainbowk`
logger. It records the argv, the exit code, stdout, the text of the
command's output file and the debug lines, with the temporary directory
replaced by a fixed token. Nothing under `perfbench/` is edited.

The script prints one line per command whose record differs between the
trees, naming the fields that differ, then `N commands compared, M differ`.
It exits 1 on any difference, 2 when a child fails.
"""

import argparse
import importlib.util
import json
import logging
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

TOKEN = "<tmp>"
FIELDS = ("workload", "seed", "argv", "code", "stdout", "out", "debug")


def load_harness(tree: Path):
    """TREE's perfbench/run.py as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  tree / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run
    spec.loader.exec_module(run)
    return run


class Lines(logging.Handler):
    """Keeps the message of every record it gets."""

    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(record.getMessage())


def records(tree: Path, seeds: list[int]) -> list[dict]:
    """One record per command of every workload at every seed, in order."""
    run = load_harness(tree)
    program = run.import_program()
    logger = logging.getLogger("rainbowk")
    logger.setLevel(logging.DEBUG)
    handler = Lines()
    logger.addHandler(handler)
    out = []
    for name, workload in run.make_workloads().items():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                workload.prepare(program, seed, Path(workdir))
                for command in workload.commands():
                    del handler.lines[:]
                    code, stdout = run.run_command(program, command.argv)
                    path = command.out
                    text = path.read_text() if path and path.exists() else None
                    out.append(json.loads(json.dumps({
                        "workload": name, "seed": seed, "argv": command.argv,
                        "code": code, "stdout": stdout, "out": text,
                        "debug": handler.lines,
                    }).replace(json.dumps(workdir)[1:-1], TOKEN)))
    return out


def child(tree: Path, seeds: list[int]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(tree), *map(str, seeds)],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        print(f"{tree}: child exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(json.dumps(records(Path(argv[1]), [int(seed) for seed in argv[2:]])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    a, b = (child(tree.resolve(), args.seeds) for tree in (args.tree_a, args.tree_b))
    pairs = list(zip_longest(a, b))
    differ = 0
    for left, right in pairs:
        if None in (left, right):
            fields = ["missing"]
        else:
            fields = [f for f in FIELDS if left[f] != right[f]]
        if fields:
            differ += 1
            rec = left or right
            print(f"{rec['workload']} seed {rec['seed']}: {' '.join(rec['argv'])}: "
                  f"{', '.join(fields)} differ")
    print(f"{len(pairs)} commands compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
