#!/usr/bin/env python3
"""Count the garbage collector's passes during a checkout's untraced benchmark loop.

    python3 scripts/gc_cadence.py TREE WORKLOAD SECONDS [--seed N]

TREE is a checkout of this repository (its own `perfbench/run.py` and
`src/` are used, not this script's). The script loads TREE's
`perfbench/run.py` by path, wraps its `import_program` from outside to
count the package imports, and runs that file's untraced `measure` loop for
WORKLOAD in this process for about SECONDS, counting every collection
through `gc.callbacks`. Nothing under `perfbench/` is edited.

It prints the passes, the imports, the collections per generation, the
imports per full (generation 2) collection and `ru_maxrss`. The benchmark
re-imports the package before each pass, and the cyclic garbage of each
import is freed only by a full collection, so a shift in imports per full
collection shows a change in `peak_rss_mb`'s pacing before the RSS gate
does.
"""

import argparse
import gc
import importlib.util
import resource
import sys
import tempfile
from pathlib import Path


def load_harness(tree: Path):
    """TREE's perfbench/run.py as a module, with TREE's src first on sys.path."""
    path = tree / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run
    spec.loader.exec_module(run)
    sys.path.insert(0, str(run.SRC))
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("workload")
    parser.add_argument("seconds", type=float)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run = load_harness(args.tree.resolve())
    workload = run.make_workloads()[args.workload]

    imports = 0
    original = run.import_program

    def counted_import():
        nonlocal imports
        imports += 1
        return original()

    collections = [0, 0, 0]

    def on_gc(phase, info):
        if phase == "stop":
            collections[info["generation"]] += 1

    run.import_program = counted_import
    gc.callbacks.append(on_gc)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            checker = run.Checker()
            _, _, passes = run.measure(workload, args.seed, Path(workdir), args.seconds,
                                       checker)
    finally:
        gc.callbacks.remove(on_gc)
        run.import_program = original
    full = collections[2]
    print(f"workload {args.workload}: passes {len(passes)}, imports {imports}, "
          f"failed {checker.failed} of {checker.attempted} commands")
    print(f"collections: gen0 {collections[0]}, gen1 {collections[1]}, gen2 {full}")
    print("imports per full collection: "
          + (f"{imports / full:.2f}" if full else "no full collection"))
    print(f"ru_maxrss: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f} MB")
    return 1 if checker.failed else 0


if __name__ == "__main__":
    sys.exit(main())
