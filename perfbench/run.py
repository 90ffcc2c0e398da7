"""chardeg benchmark: cold passes of a workload, with correctness gates.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a chardeg source checkout; it imports chardeg
from the checkout's ``src``.  Workloads: corpus_checks, scale_tables,
abelian_tables (see perfbench/README.md for why each was chosen); ``all``
runs the three one after another and names each metric after its workload.

Each pass runs in a fresh worker process, one at a time, so no cache carries
over between passes and the peak RSS is that workload's alone.  Passes
repeat until ``--seconds`` of measuring have gone by (at least one), and
set-up is sampled in separate processes as well.  With ``--trace 1`` the
same number of traced passes follows the untraced ones, and the per-layer
metrics come from the traced passes; spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A wrong output makes the run exit 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # a run must end within 180 s
# Each worker moves round the CPUs every CPU_SWITCH_S seconds, and set-up
# samples start on each CPU in turn.  On a shared VM one virtual CPU can run
# a third slower than another for tens of seconds; spreading every
# measurement over all of them keeps that out of the run-to-run spread.
CPU_SWITCH_S = 0.5
SETUP_SAMPLES = 16  # a multiple of the CPU count on 1, 2, 4, 8 and 16 CPUs
TRACE_SLOWDOWN = 1.4  # upper estimate of traced / untraced pass time


class WorkerFailed(Exception):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "chardeg" / "__init__.py").is_file():
        print(f"error: no chardeg sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        try:
            ok, tried, bad, values = run(workload, args, spec)
        except WorkerFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        correct = correct and ok
        attempted += tried
        failed += bad
        prefix = f"{workload}." if len(names) > 1 else ""
        metrics.update({prefix + m["name"]: {"value": values[m["name"]],
                                             "unit": m["unit"]}
                        for m in wanted})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run(workload: str, args, spec):
    """Run one workload and print its figures; returns (correct, attempted,
    failed, metric values)."""
    started = time.monotonic()
    cpu_list = sorted(os.sched_getaffinity(0))
    nproc = len(cpu_list)
    cpus = itertools.cycle(cpu_list)
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)

    def work(mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), workload,
               str(args.seed), mode, *extra]
        with subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            while True:
                remaining = DEADLINE_S - (time.monotonic() - started)
                if remaining <= 0:
                    proc.kill()
                    proc.communicate()
                    raise WorkerFailed(f"{mode} worker passed the "
                                       f"{DEADLINE_S:.0f} s deadline")
                try:
                    os.sched_setaffinity(proc.pid, {next(cpus)})
                except ProcessLookupError:  # exited since the last check
                    pass
                try:
                    stdout, stderr = proc.communicate(
                        timeout=min(CPU_SWITCH_S, remaining))
                    break
                except subprocess.TimeoutExpired:
                    continue
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n"
                               + stderr[-2000:])
        return json.loads(stdout.strip().splitlines()[-1])

    work("setup")  # untimed: compiles bytecode, warms the file cache
    passes, longest = [], 0.0
    measuring = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(work("pass"))
        longest = max(longest, time.monotonic() - t)
        n = len(passes)
        if time.monotonic() - measuring >= args.seconds:
            break
        still_needed = longest * (1 + args.trace * TRACE_SLOWDOWN * (n + 1))
        if time.monotonic() - started + still_needed + 10 > DEADLINE_S:
            break
    setups = [work("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    traced = []
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        for k in range(len(passes)):
            path = out_dir / f"{workload}-seed{args.seed}-pass{k}.json"
            traced.append(work("trace", str(path)))

    runs = passes + traced
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    problems = [msg for p in runs for msg in p["problems"]]
    wall = statistics.median(p["wall_s"] for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(p["layers"][name] for p in traced)
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / wall)

    env_info = passes[0]["env"]
    print(f"workload {workload} seed {args.seed}"
          + (" (seed not applied: the corpus runs as shipped)"
             if workload == "corpus_checks" else ""))
    print(f"env nproc={nproc} blas_threads={nproc} "
          f"python={env_info['python']} numpy={env_info['numpy']}")
    print(f"passes {len(passes)} untraced, {len(traced)} traced; "
          f"set-up samples {len(setups)}")
    for p in passes:
        print(f"  pass wall_s {p['wall_s']:.4f}")
    print(f"ops_failed_ratio {failed}/{attempted} = "
          f"{failed / attempted:.4f} ratio")
    for msg in problems:
        print(f"FAILED {msg}")
    for name in sorted({n for p in traced for n in p["trace_missing"]}):
        print(f"trace: entry point {name} not found; its spans read 0")
    for m in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    return not problems, attempted, failed, values


if __name__ == "__main__":
    sys.exit(main())
