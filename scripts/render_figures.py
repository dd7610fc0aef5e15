#!/usr/bin/env python3
"""Write DOT renderings of representative colorings into figures/.

Feed the output to graphviz, e.g.:  neato -Tpng figures/k2416.dot -o k2416.png
"""

import argparse
from pathlib import Path

from rainbowk.cli import DEFAULT_PALETTE, export_dot
from rainbowk.constructions import (
    color_2_4_16,
    color_bipartite4,
    color_ctk,
    color_mnn,
)
from rainbowk.core import PartitionSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    figures = {
        "bipartite4_k44.dot": color_bipartite4(4, 4, 2)[0],
        "ctk_9_parts.dot": color_ctk(PartitionSpec(tuple([1] * 9)), 2)[0],
        "mnn_k422.dot": color_mnn(4, 2)[0],
        "k2416.dot": color_2_4_16()[0],
    }
    for name, coloring in figures.items():
        path = out / name
        path.write_text(export_dot(coloring, DEFAULT_PALETTE))
        print(f"wrote {path} ({coloring.spec.n} vertices, "
              f"{coloring.spec.edge_count()} edges)")


if __name__ == "__main__":
    main()
