"""One benchmark process: import chardeg from the checkout, build the
workload's inputs, and optionally run one cold pass, traced or not.

    python3 perfbench/worker.py <workload> <seed> setup|pass|trace [SPANS_OUT]

The last line of standard output is a JSON object with the set-up time and,
for a pass, its wall time, operations, problems, peak RSS and, when traced,
the per-layer metrics.  run.py starts one of these per pass, one at a time.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]

    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import chardeg
    import chardeg.cli
    import numpy
    if not Path(chardeg.__file__).resolve().is_relative_to(SRC):
        print(f"chardeg was imported from {chardeg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    inputs = workloads.setup(workload, seed, chardeg)
    out = {"setup_s": perf_counter() - start,
           "env": {"python": platform.python_version(),
                   "numpy": numpy.__version__}}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            tracer = tracing.Tracer()
            tracer.install()
        start = perf_counter()
        result = workloads.run_pass(workload, seed, inputs, chardeg)
        out["wall_s"] = perf_counter() - start
        out.update(attempted=result.attempted, failed=result.failed,
                   problems=result.problems)
        if tracer is not None:
            out["layers"] = tracer.metrics(out["wall_s"])
            out["trace_missing"] = tracer.missing
            tracer.write(argv[3], {"workload": workload, "seed": seed,
                                   "wall_s": out["wall_s"]})
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
