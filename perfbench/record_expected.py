"""Record the per-pair maximize counts that the verify-maximize workload checks.

    python3 perfbench/record_expected.py

Runs the verifier in maximize mode on each unrelabelled maximize instance
and writes expected.json: instance name -> counts in lexicographic pair
order. Run it only on a commit whose verifier is trusted; the
benchmark compares every later commit against these counts.
"""

import json
import sys

from run import SRC, import_program
from workloads import EXPECTED_FILE, MAXIMIZE_INSTANCES


def main() -> None:
    sys.path.insert(0, str(SRC))
    program = import_program()
    expected = {}
    for name, build, k in MAXIMIZE_INSTANCES:
        coloring, _ = build(program.constructions, program.core.PartitionSpec)
        report = program.verifier.verify_rainbow_k_connected(coloring, k, mode="maximize", jobs=2)
        expected[name] = [c for _, c in sorted(report.counts.items())]
    EXPECTED_FILE.write_text(json.dumps(expected) + "\n")


if __name__ == "__main__":
    main()
