"""rainbowk benchmark: seeded CLI workloads, timed in-process, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S      # every workload in turn

Each workload (see workloads.py) is a list of `rainbowk` commands run one
after another through `rainbowk.cli.main(argv)` in this process (closed
loop, one client); `--report`/`-o` files go to a scratch directory inside the
checkout and stdout is captured. A pass runs the list once; passes repeat
until `--seconds` have gone by. Every output is checked after its pass,
outside the timed region.

Times are calibrated against a reference loop. The shared two-CPU host this
was tuned on runs 1.3x to 1.8x slower for stretches of seconds to several
minutes, and a stretch that lasts longer than a run moves every statistic of
raw times. So a fixed pure-Python loop (`reference_seconds`: dict lookups
and set tests, about REF_SECONDS on a quiet core) is timed before every
command and after the last one, and each command's time is scaled by
REF_SECONDS over the mean of the two reference timings beside it. A
calibrated second is a second on a host as fast as the quiet one. A slow
stretch slows a command and its reference alike and mostly cancels
(calibrated times in slow stretches read within about 10% of those in quiet
ones, against about 1.5x apart raw), while a slower program shows in full,
because the reference loop runs none of its code. Raw times and the
reference timings are printed beside the calibrated values.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median calibrated set-up: import rainbowk, build every
               instance through rainbowk.constructions, apply the seed,
               write the input documents. SETUP_REPEATS set-ups precede the
               first pass and one more precedes each later pass.
  wall_s       time to solution: the sum over commands of each command's
               median calibrated wall time across the passes
  cpu_s        the same for user+sys time of this process and its reaped
               children (scaled by the same factors)
  peak_rss_mb  ru_maxrss of this process at the end of the run
The median and quartiles of the calibrated pass times and of the set-ups
are printed with their sample counts. Timed passes use one worker
(--jobs 1): two-worker passes swung 1.7x whenever the two CPUs shared one
core. fail_ratio (failed / attempted commands) is printed and carried by
the `failed` and `attempted` fields; it is 0 when the program is right, so
it is not a bounded metric.

--trace 1 reports the per-layer metrics: each round runs an untraced pass,
an untraced POOL_JOBS-worker pass of the commands that take --jobs (verify
and lower-bound), and a traced pass (tracing.py wraps the program's public
functions from outside). Every time is calibrated and takes the statistic
of wall_s: per command, the median across rounds, summed over commands.
Counts and ratios are medians over rounds; pair latencies pool the pair
queries of every round. The spans of the last round go to .perfbench-out/.

The last line of stdout is the JSON result. Exit code 2 means the program
under test could not be found or the arguments were bad.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
MODULES = ("core", "constructions", "verifier", "bounds", "oracle", "cli")
# The reference loop: REF_ROUNDS rounds over a REF_SIDE x REF_SIDE table
# take about REF_SECONDS on a quiet core of the Intel Xeon host it was
# sized on (Python 3.11); on a slow stretch of that host they take up to 10 ms.
REF_SECONDS = 0.006
REF_ROUNDS = 84
REF_SIDE = 24
_REF_TABLE = {(u, v): (7 * u + 3 * v) % 5 for u in range(REF_SIDE) for v in range(REF_SIDE)}

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import POOL_JOBS, make_workloads  # noqa: E402


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop of tuple-keyed dict lookups and
    set tests. The garbage collector is off while it runs, so the program's
    live objects cannot slow it."""
    table, acc = _REF_TABLE, 0
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    for _ in range(REF_ROUNDS):
        seen: set[int] = set()
        for u in range(REF_SIDE):
            for v in range(REF_SIDE):
                c = table[u, v]
                if c not in seen:
                    seen.add(c)
                    acc += c
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def scales(refs: list[float]) -> list[float]:
    """Calibration factor of each interval between reference timings:
    REF_SECONDS over the mean of the timings on its two sides."""
    return [2 * REF_SECONDS / (a + b) for a, b in zip(refs, refs[1:])]


def import_program() -> SimpleNamespace:
    """Import rainbowk afresh from the checkout's src/ (any earlier copy is
    dropped from sys.modules first, so every set-up pays the import)."""
    for name in [n for n in sys.modules if n == "rainbowk" or n.startswith("rainbowk.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"rainbowk.{m}") for m in MODULES}
    return SimpleNamespace(**mods)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_command(program, argv: list[str]) -> tuple[int | str, str]:
    """Run one CLI command; returns (exit code or exception text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code: int | str = "returned without exiting"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            program.cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception as exc:  # a crashing command is counted as failed
        code = f"{type(exc).__name__}: {exc}"
    if code != 0 and err.getvalue():
        out.write(err.getvalue())
    return code, out.getvalue()


class Checker:
    """Checks outputs after each pass; identical outputs of one command are
    checked once."""

    def __init__(self) -> None:
        self.seen: dict[tuple, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, commands, results) -> None:
        for cmd, (code, stdout) in zip(commands, results):
            out_text = None
            if cmd.out is not None and cmd.out.exists():
                out_text = cmd.out.read_text()
                cmd.out.unlink()
            key = (tuple(cmd.argv), code, stdout, out_text)
            if key not in self.seen:
                try:
                    self.seen[key] = cmd.check(code, stdout, out_text)
                except Exception as exc:  # malformed output fails the command
                    self.seen[key] = f"check raised {type(exc).__name__}: {exc}"
            reason = self.seen[key]
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.reasons.append(f"{cmd.argv[0]} -> {cmd.out.name}: {reason}")


class Pass:
    """One run of a command list: per command the result, the raw wall and
    cpu seconds and the calibration factor; `refs` holds the reference
    timings taken before every command and after the last."""

    def __init__(self, program, commands, recorder=None) -> None:
        self.results, self.raw_walls, self.raw_cpus = [], [], []
        self.refs = [reference_seconds()]
        for i, cmd in enumerate(commands):
            if recorder is not None:
                recorder.command = i
            cpu0 = cpu_seconds()
            t0 = perf_counter()
            self.results.append(run_command(program, cmd.argv))
            self.raw_walls.append(perf_counter() - t0)
            self.raw_cpus.append(cpu_seconds() - cpu0)
            self.refs.append(reference_seconds())
        self.scales = scales(self.refs)
        self.walls = [t * f for t, f in zip(self.raw_walls, self.scales)]
        self.cpus = [t * f for t, f in zip(self.raw_cpus, self.scales)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median_sum(per_pass: list[list[float]]) -> float:
    """Sum over commands of each command's median time across passes."""
    return sum(statistics.median(times) for times in zip(*per_pass))


def keep_going(deadline: float, passes: list[Pass]) -> bool:
    """Start another pass unless it would end more than half a pass after
    the deadline, so a run lasts about --seconds."""
    return not passes or perf_counter() + sum(passes[-1].raw_walls) / 2 < deadline


def measure(workload, seed: int, workdir: Path, seconds: float, checker: Checker):
    """Untraced run: (calibrated set-up times, raw set-up times, passes).
    SETUP_REPEATS set-ups precede the first pass and one more precedes
    every later pass, so set-up is sampled across the whole run."""
    setups: list[float] = []
    raw_setups: list[float] = []

    def set_up():
        before = reference_seconds()
        t0 = perf_counter()
        program = import_program()
        workload.prepare(program, seed, workdir)
        raw_setups.append(perf_counter() - t0)
        setups.append(raw_setups[-1] * scales([before, reference_seconds()])[0])
        return program

    for _ in range(SETUP_REPEATS):
        program = set_up()
    passes: list[Pass] = []
    deadline = perf_counter() + seconds
    while keep_going(deadline, passes):
        if passes:
            program = set_up()
        commands = workload.commands()
        passes.append(Pass(program, commands))
        checker.check(commands, passes[-1].results)
    return setups, raw_setups, passes


def measure_traced(workload, seed: int, workdir: Path, seconds: float, checker: Checker):
    """Traced run: (per-layer metrics, notes). Each round runs an untraced
    pass, an untraced POOL_JOBS-worker pass of the commands that have a
    process pool, and a traced pass. Times are per-command medians across
    rounds, summed; counts and ratios are medians over rounds."""
    program = import_program()
    setup_rec = tracing.Recorder()
    before = reference_seconds()
    with tracing.installed(setup_rec, program):
        workload.prepare(program, seed, workdir)
    setup_scale = scales([before, reference_seconds()])[0]
    untraced, pooled, traced, rounds = [], [], [], []
    pool_commands = [(i, c.pool) for i, c in enumerate(workload.commands()) if c.pool]
    deadline = perf_counter() + seconds
    while keep_going(deadline, traced):
        commands = workload.commands()
        untraced.append(Pass(program, commands))
        checker.check(commands, untraced[-1].results)
        if pool_commands:
            commands = workload.commands(POOL_JOBS, pooled_only=True)
            pooled.append(Pass(program, commands))
            checker.check(commands, pooled[-1].results)
        rec = tracing.Recorder()
        commands = workload.commands()
        with tracing.installed(rec, program):
            traced.append(Pass(program, commands, rec))
        checker.check(commands, traced[-1].results)
        rounds.append(tracing.layer_metrics(rec.spans, rec.color_calls(), traced[-1].scales))
    metrics = {name: statistics.median(r.counts[name] for r in rounds) for name in rounds[0].counts}
    for name in rounds[0].times:
        metrics[name] = median_sum([r.times[name] for r in rounds])
    pair_ms = sorted(ms for r in rounds for ms in r.pair_ms)
    tail = tracing.tail_percentile(len(pair_ms))
    one_worker = [statistics.median(t) for t in zip(*(p.walls for p in untraced))]
    pooled_times = list(zip(pool_commands, (statistics.median(t) for t in zip(
        *(p.walls for p in pooled))))) if pooled else []

    def pool_speedup(module: str) -> float:
        """One-worker time over POOL_JOBS-worker time of the commands that
        use `module`'s pool; 1.0 when the workload has none."""
        pairs = [(one_worker[i], t) for (i, pool), t in pooled_times if pool == module]
        return sum(a for a, _ in pairs) / sum(b for _, b in pairs) if pairs else 1.0

    traced_s = median_sum([p.walls for p in traced])
    untraced_s = median_sum([p.walls for p in untraced])
    metrics.update({
        "verifier.pair_p50_ms": tracing.percentile(pair_ms, 50) if pair_ms else 0.0,
        "verifier.pair_tail_ms": tracing.percentile(pair_ms, tail) if tail else 0.0,
        "constructions.build_s": tracing.construction_s(setup_rec.spans) * setup_scale,
        "verifier.pool_speedup": pool_speedup("verifier"),
        "bounds.pool_speedup": pool_speedup("bounds"),
        "trace.overhead_s": traced_s - untraced_s,
    })
    spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    tracing.write_spans(spans_file, {
        "workload": workload.name,
        "seed": seed,
        "commands": [c.argv for c in workload.commands()],
        "setup_spans": setup_rec.spans,
        "pass_spans": rec.spans,
    })
    layer_s = median_sum([r.self_total for r in rounds])
    notes = dict(rounds[-1].notes, rounds=len(rounds), spans_file=spans_file,
                 traced_wall_s=sum(traced[-1].raw_walls), traced_s=traced_s,
                 untraced_s=untraced_s, layer_s=layer_s, pair_queries=len(pair_ms),
                 tail_percentile=tail)
    return metrics, notes


def metric_table(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def result_line(checker: Checker, values: dict, kind: str) -> str:
    metrics = {}
    for m in metric_table(kind):
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    })


def print_traced(notes: dict) -> None:
    tail = notes["tail_percentile"]
    print(f"pair latency over {notes['pair_queries']} pair queries of {notes['rounds']} "
          "rounds: p50 and "
          + (f"tail p{tail:g}" if tail else "no tail (fewer than 20 queries)"))
    print(f"calibrated traced time {notes['traced_s']:.4f} s vs untraced "
          f"{notes['untraced_s']:.4f} s over {notes['rounds']} rounds; span self times "
          f"sum to {notes['layer_s']:.4f} s of the traced time")
    print(f"last traced pass {notes['traced_wall_s']:.4f} s raw, its span self times sum "
          f"to {notes['self_s_total']:.4f} s")
    print(f"spans written to {notes['spans_file']}")


def run_workload(workload, seed: int, seconds: float, trace: bool) -> int:
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    checker = Checker()
    print(f"workload {workload.name}: {workload.why}")
    try:
        if trace:
            values, notes = measure_traced(workload, seed, workdir, seconds, checker)
        else:
            setups, raw_setups, passes = measure(workload, seed, workdir, seconds, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in checker.reasons[:20]:
        print(f"FAILED {reason}")
    print(f"fail_ratio = {checker.failed / checker.attempted:.4f} ratio "
          f"({checker.failed} of {checker.attempted} commands)")
    if trace:
        for m in metric_table("per_layer"):
            print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
        print_traced(notes)
        print(result_line(checker, values, "per_layer"))
        return 0
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": median_sum([p.walls for p in passes]),
        "cpu_s": median_sum([p.cpus for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    refs = [r for p in passes for r in p.refs]
    pass_walls = sorted(sum(p.walls) for p in passes)
    q1, q2, q3 = quartiles(pass_walls)
    s1, s2, s3 = quartiles(setups)
    r1, r2, r3 = quartiles(refs)
    tail = tracing.tail_percentile(len(pass_walls))
    print(f"passes: n={len(passes)}, calibrated pass wall median={q2:.6g} s, "
          f"p25={q1:.6g} s, p75={q3:.6g} s, "
          + (f"p{tail:g}={tracing.percentile(pass_walls, tail):.6g} s" if tail
             else "no tail percentile (fewer than 20 passes)"))
    print(f"set-ups: n={len(setups)}, calibrated median={s2:.6g} s, p25={s1:.6g} s, "
          f"p75={s3:.6g} s")
    print(f"reference loop: n={len(refs)}, median={r2 * 1e3:.4g} ms, p25={r1 * 1e3:.4g} ms, "
          f"p75={r3 * 1e3:.4g} ms (calibrated to {REF_SECONDS * 1e3:g} ms)")
    print(f"raw: wall_s={median_sum([p.raw_walls for p in passes]):.6g} s, "
          f"cpu_s={median_sum([p.raw_cpus for p in passes]):.6g} s, "
          f"setup_s={statistics.median(raw_setups):.6g} s")
    for m in metric_table("end_to_end"):
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(result_line(checker, values, "end_to_end"))
    return 0


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own child process, so that each gets its own
    peak RSS; prints their output and a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    workloads = make_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rainbowk" / "__init__.py").is_file():
        print(f"error: no rainbowk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(list(workloads), args.seed, args.seconds, bool(args.trace))
    return run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
