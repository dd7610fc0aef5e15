"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/stability.py [--workloads a,b] [--seeds 1-10]
        [--sets 2] [--seconds 25] [--trace-seed 1] [--out FILE]

Each set runs every seed once. With several sets the runs are interleaved
(seed 1 of set 1, seed 1 of set 2, ..., then seed 2), so a slow stretch of
the host falls on every set alike; set j uses seeds offset by j times the
number of seeds. For every workload, set and end-to-end metric it prints the
median of the per-run values and the distance between their first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to the
bound in BENCHMARK.json (a spread should stay below a third of its bound),
and how far each later set's median lies from the first set's. The median
raw reference-loop time of each run is printed too, so slow stretches of the
host show apart from the program. With --trace-seed it adds one traced run
per workload for the per-layer table. Runs are sequential, so they do not
compete for the CPUs. --out writes everything as JSON
(perfbench/BENCH_baseline.json was made this way).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = re.compile(r"^reference loop: .*median=([0-9.]+) ms", re.M)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float | None]:
    """The run's result line and its median reference-loop time in ms."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=HERE.parent)
    ref = REFERENCE.search(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1]), float(ref[1]) if ref else None


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "p25": q1, "p75": q3, "spread": (q3 - q1) / q2,
            "runs": len(values), "values": values}


def host() -> dict:
    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version()}


def measure_workload(workload: str, seeds: list[int], sets: int, seconds: int) -> dict:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    runs = [[] for _ in range(sets)]
    refs = [[] for _ in range(sets)]
    attempted = failed = 0
    for seed in seeds:
        for j in range(sets):
            run_seed = seed + j * len(seeds)
            result, ref = run_once(workload, run_seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            runs[j].append(result["metrics"])
            refs[j].append(ref)
            print(workload, f"set {j + 1}", run_seed,
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  f"reference {ref} ms", f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
    entry = {"attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
             "sets": []}
    for j in range(sets):
        stats_j = {"seeds": [s + j * len(seeds) for s in seeds], "reference_ms": refs[j],
                   "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarize([r[name]["value"] for r in runs[j]])
            stats_j["end_to_end"][name] = dict(stats, unit=runs[j][0][name]["unit"], bound=bound)
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            drift = ""
            if j:
                first = entry["sets"][0]["end_to_end"][name]["median"]
                stats_j["end_to_end"][name]["vs_set1"] = stats["median"] / first - 1
                drift = f", {stats['median'] / first - 1:+.3f} vs set 1"
            print(f"  {workload} set {j + 1} {name}: median {stats['median']:.5g}, spread "
                  f"{stats['spread']:.3f} (bound {bound}, {flag}){drift}", flush=True)
        entry["sets"].append(stats_j)
    print(f"  {workload} fail_ratio: {failed}/{attempted}", flush=True)
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    whys = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    report = {"host": host(), "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = {"why": whys[workload]}
        entry.update(measure_workload(workload, seeds, args.sets, args.seconds))
        if args.trace_seed is not None:
            traced, _ = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = args.trace_seed
        report["workloads"][workload] = entry
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
