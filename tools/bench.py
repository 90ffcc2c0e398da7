"""Per-stage seconds and peak RSS of the table engine on a fixed group set,
and of the two corpus commands end to end.

    mkdir DIR && git archive <parent commit> | tar -x -C DIR
    python3 tools/bench.py --out BENCH_<n>.json --tree parent=DIR --tree change=.

Each ``--tree LABEL=PATH`` names a chardeg tree (a directory holding
``src/chardeg``: a git checkout or a plain copy such as the archive above);
the default is this checkout, labelled ``change``.  Each tree is recorded by
its git commit, where it is a checkout, and always by the SHA-256 of its
``src/chardeg/*.py``.  Every group of GROUPS is built REPEAT times per tree
(REPEATS for the slowest), each time in a fresh process that imports chardeg
from that tree's ``src`` with one BLAS thread per CPU.  Each worker pins
itself to one CPU, as perfbench/run.py pins its workers: unpinned, mid-size
BLAS products were seen to stall for about 16 ms.  The JSON written to
``--out`` holds the least, median and largest seconds of each stage over the
repeats, the peak RSS reached by the end of each stage (the largest over the
repeats), and the SHA-256 of the table's JSON export, so that the trees can be checked to agree; it also
records the BLAS that numpy uses and its thread setting, since the products
run there.

The stages are those of ``chars.character_table``, called one at a time
from here; nothing in the program is changed:

* chain: ``Group(...)``, which builds the stabilizer chain;
* elements: ``Group.element_array``;
* classes: ``conjugacy_classes``;
* class matrices: the time spent in ``dixon.class_matrix`` during the split
  (the function is wrapped from outside, in the worker process only; its
  peak RSS is the split's), how many it formed, and how many of those cut
  a branch (the calls of ``dixon.split_branches``, wrapped alike); the
  classes used also count the central classes read through
  ``dixon.class_permutation``, which forms no matrix;
* split: ``dixon.central_character_vectors`` less its class matrices;
* lift: ``dixon.lift_character``: the inverse transforms of one class per
  Galois orbit, then the gather that expands them to every class;
* validate: the rest of ``character_table`` (the ``Character`` objects,
  then ``CharacterTable``, whose constructor reads the lift's stack as it
  is, Galois-stable by construction and so not checked again, sorts the
  rows and runs the exact Gram check by the trace form over Galois orbits
  of classes; kernels are read off the rows later, on first use),
  with the split and lift above handed in (``dixon``'s two functions are
  replaced in the worker process only).  Each tree's own
  ``character_table`` consumes its own lift output, so the stage means the
  same in trees whose lift returns different types.

The entry ``corpus`` runs the commands of CORPUS_COMMANDS one after the
other through ``chardeg.cli.main``, in a fresh process per tree and repeat
like the groups.  It records the wall seconds of the two (least, median
and largest over the repeats, as for the stages), the seconds spent
in ``StabilizerChain.__init__`` and how many chains it built (the method is
wrapped in the worker process only), the peak RSS at the end, and the
SHA-256 of each command's report.  One more run per tree, untimed, runs the
two commands under ``tracemalloc`` and records, per command, the bytes
still held once it has returned, with the catalogue it built kept alive
(``cli.Catalogue`` is wrapped in the worker process only), and its traced
peak: what the caches of a session hold, which peak RSS does not show.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from math import lcm
from pathlib import Path

import numpy as np

# name -> (degree, generators in 1-based cycle notation)
GROUPS = {
    "S8": (8, ["(1 2 3 4 5 6 7 8)", "(1 2)"]),
    "M12": (12, ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)",
                 "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"]),
    "S9": (9, ["(1 2 3 4 5 6 7 8 9)", "(1 2)"]),
    "M11": (11, ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"]),
    "A8": (8, ["(2 3 4 5 6 7 8)", "(1 2 3)"]),
    "C2^6": (12, [f"({2 * i + 1} {2 * i + 2})" for i in range(6)]),
    "C2^7": (14, [f"({2 * i + 1} {2 * i + 2})" for i in range(7)]),
    "C2^8": (16, [f"({2 * i + 1} {2 * i + 2})" for i in range(8)]),
    "C2^9": (18, [f"({2 * i + 1} {2 * i + 2})" for i in range(9)]),
    "M22": (22, ["(1 2 3 4 5 6 7 8 9 10 11)(12 13 14 15 16 17 18 19 20 21 22)",
                 "(1 4 5 9 3)(2 8 10 7 6)(12 15 16 20 14)(13 19 21 18 17)",
                 "(1 21)(2 10 8 6)(3 13 4 17)(5 19 9 18)(11 22)(12 14 16 20)"]),
    "C60": (12, ["(1 2 3)(4 5 6 7)(8 9 10 11 12)"]),
    "C3^5": (15, [f"({3 * i + 1} {3 * i + 2} {3 * i + 3})" for i in range(5)]),
    "C4^4": (16, [f"({4 * i + 1} {4 * i + 2} {4 * i + 3} {4 * i + 4})"
                  for i in range(4)]),
    "C_120": (16, ["(1 2 3)(4 5 6 7 8 9 10 11)(12 13 14 15 16)"]),
    "D_400": (200, ["(" + " ".join(map(str, range(1, 201))) + ")",
                    "".join(f"({i} {202 - i})" for i in range(2, 101))]),
    "C_240": (24, ["(1 2 3)(4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19)"
                   "(20 21 22 23 24)"]),
    "C_420": (19, ["(1 2 3 4)(5 6 7)(8 9 10 11 12)(13 14 15 16 17 18 19)"]),
    "D_1000": (500, ["(" + " ".join(map(str, range(1, 501))) + ")",
                     "".join(f"({i} {502 - i})" for i in range(2, 251))]),
}
CORPUS_COMMANDS = (["verify", "paper", "--json"],
                   ["scan", "--check", "question:7", "--json"])
ENTRIES = (*GROUPS, "corpus")
TRACED = "corpus_traced"  # the worker of the untimed tracemalloc run
STAGES = ("chain", "elements", "classes", "class_matrices", "split", "lift",
          "validate")
REPEAT = 5  # builds per group and tree; the JSON holds their spread
# fewer builds of the groups whose tables take longest
REPEATS = {"C_120": 3, "D_400": 3, "C_240": 3, "C_420": 3, "D_1000": 3}
# BLAS threads of each worker, as perfbench/run.py sets them
THREADS = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str) -> dict:
    """Build one table stage by stage in this process (the worker side)."""
    from chardeg import dixon
    from chardeg.chars import character_table
    from chardeg.groups import Group, conjugacy_classes
    from chardeg.perms import parse_cycles

    spent = {"class_matrices": 0.0, "formed": 0, "cut": 0, "used": 0}
    class_matrix = dixon.class_matrix
    split_branches = dixon.split_branches
    class_permutation = dixon.class_permutation

    def timed_class_matrix(*args):
        start = time.perf_counter()
        try:
            return class_matrix(*args)
        finally:
            spent["class_matrices"] += time.perf_counter() - start
            spent["formed"] += 1
            spent["used"] += 1

    def counted_split_branches(*args):
        spent["cut"] += 1
        return split_branches(*args)

    def counted_class_permutation(*args):
        spent["used"] += 1
        return class_permutation(*args)

    dixon.class_matrix = timed_class_matrix
    dixon.split_branches = counted_split_branches
    dixon.class_permutation = counted_class_permutation
    degree, cycles = GROUPS[name]
    gens = [parse_cycles(c, degree) for c in cycles]
    seconds, rss = {}, {"import": _peak_rss_mb()}

    def stage(label, build):
        start = time.perf_counter()
        result = build()
        seconds[label] = time.perf_counter() - start
        rss[label] = _peak_rss_mb()
        return result

    group = stage("chain", lambda: Group(gens, degree, name=name))
    stage("elements", group.element_array)
    cd = stage("classes", lambda: conjugacy_classes(group))
    exponent = lcm(*cd.orders)
    p = dixon.dixon_prime(group.order, exponent)
    z = dixon.primitive_root(p)
    omegas = stage("split",
                   lambda: dixon.central_character_vectors(cd, p, z))
    seconds["split"] -= spent["class_matrices"]
    seconds["class_matrices"] = spent["class_matrices"]
    rss["class_matrices"] = rss["split"]
    lifted = stage("lift", lambda: dixon.lift_character(omegas, cd, p, z))
    dixon.central_character_vectors = lambda *args: omegas
    dixon.lift_character = lambda *args: lifted
    table = stage("validate", lambda: character_table(group))
    return {"order": group.order, "classes": cd.num_classes,
            "class_matrices_formed": spent["formed"],
            "class_matrices_cut": spent["cut"],
            "classes_used": spent["used"],
            "table_sha256": hashlib.sha256(
                table.to_data().to_json().encode()).hexdigest(),
            "seconds": seconds, "peak_rss_mb": rss}


def measure_corpus() -> dict:
    """Run the corpus commands in this process (the worker side)."""
    from chardeg import bsgs, cli

    chains = {"seconds": 0.0, "built": 0}
    init = bsgs.StabilizerChain.__init__

    def timed_init(*args, **kwargs):
        start = time.perf_counter()
        try:
            return init(*args, **kwargs)
        finally:
            chains["seconds"] += time.perf_counter() - start
            chains["built"] += 1

    bsgs.StabilizerChain.__init__ = timed_init
    digests = {}
    start = time.perf_counter()
    for argv in CORPUS_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {status}")
        digests[" ".join(argv)] = hashlib.sha256(
            out.getvalue().encode()).hexdigest()
    wall = time.perf_counter() - start
    return {"report_sha256": digests,
            "seconds": {"wall": wall, "chain": chains["seconds"]},
            "chains_built": chains["built"], "peak_rss_mb": _peak_rss_mb()}


def trace_corpus() -> dict:
    """Run the corpus commands in this process under tracemalloc (the
    worker side): per command, the bytes held after it with its catalogue
    alive, and its peak."""
    from chardeg import cli

    kept = []
    catalogue = cli.Catalogue

    def kept_catalogue(*args):
        kept.append(catalogue(*args))
        return kept[-1]

    cli.Catalogue = kept_catalogue
    held = {}
    tracemalloc.start()
    for argv in CORPUS_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"{' '.join(argv)} failed")
        gc.collect()
        live, peak = tracemalloc.get_traced_memory()
        held[" ".join(argv)] = {"held": live, "peak": peak}
        kept.clear()
        tracemalloc.reset_peak()
    tracemalloc.stop()
    return held


def run_worker(tree: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               **{var: str(THREADS) for var in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", name],
        env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{name} in {tree}: {out.stderr.strip()}")
    return json.loads(out.stdout.splitlines()[-1])


def commit_of(tree: Path) -> str | None:
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(tree), "status",
                                "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+uncommitted" if dirty else "")


def source_of(tree: Path) -> str:
    """SHA-256 over the names and contents of the tree's src/chardeg/*.py."""
    digest = hashlib.sha256()
    for file in sorted((tree / "src" / "chardeg").glob("*.py")):
        digest.update(file.name.encode() + b"\0" + file.read_bytes())
    return digest.hexdigest()


def spread(values) -> dict:
    """The least, median and largest of the values."""
    values = sorted(values)
    return {"min": values[0], "median": statistics.median(values),
            "max": values[-1]}


def summarize(runs: list[dict]) -> dict:
    for key in ("table_sha256", "class_matrices_formed", "class_matrices_cut",
                "classes_used"):
        values = {r[key] for r in runs}
        if len(values) != 1:
            raise RuntimeError(f"repeats disagree on {key}: {values}")
    first = runs[0]
    seconds = {s: spread(r["seconds"][s] for r in runs) for s in STAGES}
    return {
        "order": first["order"],
        "classes": first["classes"],
        "class_matrices_formed": first["class_matrices_formed"],
        "class_matrices_cut": first["class_matrices_cut"],
        "classes_used": first["classes_used"],
        "table_sha256": first["table_sha256"],
        "seconds": seconds,
        "total_s": sum(s["median"] for s in seconds.values()),
        "peak_rss_mb": {s: max(r["peak_rss_mb"][s] for r in runs)
                        for s in ("import",) + STAGES},
    }


def summarize_corpus(runs: list[dict]) -> dict:
    for key in ("report_sha256", "chains_built"):
        values = {json.dumps(r[key]) for r in runs}
        if len(values) != 1:
            raise RuntimeError(f"repeats disagree on {key}: {values}")
    return {
        "report_sha256": runs[0]["report_sha256"],
        "chains_built": runs[0]["chains_built"],
        "seconds": {s: spread(r["seconds"][s] for r in runs)
                    for s in ("wall", "chain")},
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tree", action="append", default=[],
                        metavar="LABEL=PATH")
    parser.add_argument("--worker", choices=(*ENTRIES, TRACED),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if args.worker == "corpus":
            result = measure_corpus()
        elif args.worker == TRACED:
            result = trace_corpus()
        else:
            result = measure(args.worker)
        print(json.dumps(result))
        return 0
    if args.out is None:
        parser.error("--out is required")
    trees = {}
    for spec in args.tree or [f"change={Path(__file__).parent.parent}"]:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "src" / "chardeg").is_dir():
            parser.error(f"--tree {spec}: expected LABEL=PATH to a checkout")
        trees[label] = Path(path).resolve()
    results = {label: {"commit": commit_of(tree),
                       "source_sha256": source_of(tree), "groups": {}}
               for label, tree in trees.items()}
    for name in ENTRIES:
        runs = {label: [] for label in trees}
        for repeat in range(REPEATS.get(name, REPEAT)):
            # alternate which tree runs first, so drift hits each alike
            for label, tree in list(trees.items())[::(-1) ** repeat]:
                runs[label].append(run_worker(tree, name))
        for label in trees:
            if name == "corpus":
                summary = summarize_corpus(runs[label])
                summary["tracemalloc_bytes"] = run_worker(trees[label],
                                                          TRACED)
                results[label]["corpus"] = summary
                wall, chain = (summary["seconds"][s]["median"]
                               for s in ("wall", "chain"))
                held = "  ".join(f"{c.split()[0]} held "
                                 f"{b['held'] / 1e6:.2f} MB"
                                 for c, b in
                                 summary["tracemalloc_bytes"].items())
                print(f"{label:>8} corpus  wall {wall:.3f} s  "
                      f"chain {chain:.3f} s  "
                      f"{summary['chains_built']} chains  "
                      f"{summary['peak_rss_mb']:6.1f} MB  {held}",
                      file=sys.stderr)
                continue
            summary = summarize(runs[label])
            results[label]["groups"][name] = summary
            print(f"{label:>8} {name:>5}  {summary['total_s']:7.3f} s  "
                  f"{summary['peak_rss_mb']['validate']:6.1f} MB  "
                  f"{summary['class_matrices_formed']:4} formed  "
                  f"{summary['class_matrices_cut']:4} cut  "
                  f"{summary['classes_used']:4} used  " +
                  "  ".join(f"{s} {summary['seconds'][s]['median']:.3f}"
                            for s in STAGES), file=sys.stderr)
    payload = {
        "tool": "tools/bench.py",
        "stages": list(STAGES),
        "repeat": REPEAT,
        "repeats": REPEATS,
        "statistic": "least, median and largest seconds over the repeats "
                     "(total_s sums the medians); peak RSS is the process "
                     "high-water mark at the end of each stage, the largest "
                     "over the repeats",
        "machine": {"platform": platform.platform(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"),
                    "blas": np.show_config(mode="dicts")[
                        "Build Dependencies"]["blas"]["name"],
                    "blas_threads": {var: str(THREADS)
                                     for var in THREAD_VARS}},
        "groups": {name: {"degree": GROUPS[name][0],
                          "generators": GROUPS[name][1]}
                   for name in GROUPS},
        "corpus_commands": [" ".join(argv) for argv in CORPUS_COMMANDS],
        "trees": results,
    }
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
