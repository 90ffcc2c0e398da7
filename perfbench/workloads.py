"""The three benchmark workloads: seeded inputs, one cold pass, and the
checks that every output of a pass is right.

Nothing here imports chardeg at module level; the worker imports it inside
its timed set-up and passes the package in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from fractions import Fraction

WORKLOADS = ("corpus_checks", "scale_tables", "abelian_tables")

# The two user commands of corpus_checks, run through chardeg.cli.main.
CORPUS_COMMANDS = (
    ("verify paper", ["verify", "paper", "--json"]),
    ("scan question:7", ["scan", "--check", "question:7", "--json"]),
)
CORPUS_SIZE = 68

# Generators in 1-based cycle notation.  S8 from an 8-cycle and a
# transposition; M12 from the three permutations on 12 points given in the
# ATLAS of Finite Group Representations.
GROUPS = {
    "S8": (8, ["(1 2 3 4 5 6 7 8)", "(1 2)"]),
    "M12": (12, ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)",
                 "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"]),
    "C2^6": (12, [f"({2 * i + 1} {2 * i + 2})" for i in range(6)]),
    "C3^4": (12, [f"({3 * i + 1} {3 * i + 2} {3 * i + 3})" for i in range(4)]),
}
TABLE_GROUPS = {"scale_tables": ("S8", "M12"),
                "abelian_tables": ("C2^6", "C3^4")}

# Hand-written references from the literature (ATLAS character degrees of
# S8 and M12; an abelian group has |G| linear characters), not chardeg output.
REFERENCE = {
    "S8": (40320, [1, 1, 7, 7, 14, 14, 20, 20, 21, 21, 28, 28, 35, 35, 42,
                   56, 56, 64, 64, 70, 70, 90], Fraction(382, 11)),
    "M12": (95040, [1, 11, 11, 16, 16, 45, 54, 55, 55, 55, 66, 99, 120, 144,
                    176], Fraction(308, 5)),
    "C2^6": (64, [1] * 64, Fraction(1)),
    "C3^4": (81, [1] * 81, Fraction(1)),
}

# SHA-256 of the exact output recorded at commit fdbd54b: the --json reports
# of the two corpus commands, and each table's JSON export (what
# `chardeg table <g> --json` prints) at seed 0.
DIGESTS = {
    "verify paper":
        "741e1ecc085b167c52637baa5d8c4a3f5faad1ec29e5d6c819910eaec85d70ae",
    "scan question:7":
        "c87af5a8809b6822074b929def61b83c4bd79389a6c6a46bae8c3c28b0492243",
    "S8":
        "4d840f6c414760805937c206cff098b68e796ed6d34ede9451d288007568bbb8",
    "M12":
        "6afd6295d65ddb3f6fa30939d62cffdf0f748d107e9b878ec7d40b3dd2b55a63",
    "C2^6":
        "8debf7c642bc016ea8c525948ea5bfe2389c65cff9b843d5f03507ea5f6c49f8",
    "C3^4":
        "4e3d27cf39ae92925d9de49ba22e62228a8a2899ccfd73032b7d765cebc48f1b",
}
# Checks in each corpus report at that commit; every one counts as an
# operation.
CORPUS_CHECKS = {"verify paper": 48, "scan question:7": 68}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def relabel(cycles: list[str], degree: int, rng: random.Random,
            seed: int) -> list[str]:
    """Conjugate every generator by a seeded permutation of the points and
    shuffle the generator order.  Seed 0 is the identity."""
    points = list(range(1, degree + 1))
    cycles = list(cycles)
    if seed:
        rng.shuffle(points)
        rng.shuffle(cycles)
    return [re.sub(r"\d+", lambda m: str(points[int(m.group()) - 1]), c)
            for c in cycles]


def setup(workload: str, seed: int, chardeg):
    """The inputs of one pass, built from the seed before any timing."""
    if workload == "corpus_checks":
        # the bundled corpus as shipped: the seed does not apply
        cat = chardeg.Catalogue()
        if len(cat.names()) != CORPUS_SIZE:
            raise SystemExit(f"corpus has {len(cat.names())} entries, "
                             f"expected {CORPUS_SIZE}")
        return None
    rng = random.Random(seed)
    inputs = []
    for name in TABLE_GROUPS[workload]:
        degree, cycles = GROUPS[name]
        gens = [chardeg.parse_cycles(c, degree)
                for c in relabel(cycles, degree, rng, seed)]
        inputs.append((name, degree, gens))
    return inputs


class PassResult:
    """Operations attempted and failed in one pass, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ops: int, problems: list[str]):
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems)


def run_pass(workload: str, seed: int, inputs, chardeg) -> PassResult:
    """One cold pass: fresh Catalogue and Group objects throughout."""
    result = PassResult()
    if workload == "corpus_checks":
        for label, argv in CORPUS_COMMANDS:
            result.record(CORPUS_CHECKS[label],
                          _corpus_command(label, argv, chardeg))
    else:
        for name, degree, gens in inputs:
            result.record(1, _table(name, degree, gens, seed, chardeg))
    return result


def _clear_function_caches():
    """Empty every functools cache in chardeg, so a command starts as cold as
    a fresh process would."""
    for name, module in list(sys.modules.items()):
        if name == "chardeg" or name.startswith("chardeg."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _corpus_command(label: str, argv: list[str], chardeg) -> list[str]:
    _clear_function_caches()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = chardeg.cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a crash
        return [f"{label}: {type(exc).__name__}: {exc}"]
    text = out.getvalue()
    problems = []
    if status != 0:
        problems.append(f"{label}: exit status {status}")
    try:
        summary = json.loads(text)["summary"]
    except (ValueError, KeyError) as exc:
        return problems + [f"{label}: unreadable report ({exc})"]
    if summary["failed"] or summary["total"] != CORPUS_CHECKS[label]:
        problems.append(f"{label}: {summary['failed']} of {summary['total']} "
                        f"checks failed, {CORPUS_CHECKS[label]} expected")
    if sha256(text) != DIGESTS[label]:
        problems.append(f"{label}: report digest {sha256(text)} differs "
                        "from the recorded one")
    return problems


def _table(name: str, degree: int, gens, seed: int, chardeg) -> list[str]:
    try:
        table = chardeg.character_table(chardeg.Group(gens, degree, name=name))
        order, degrees, acd = REFERENCE[name]
        problems = []
        if table.group.order != order:
            problems.append(f"{name}: order {table.group.order} != {order}")
        if table.classes.num_classes != len(degrees):
            problems.append(f"{name}: {table.classes.num_classes} classes, "
                            f"{len(degrees)} expected")
        if sorted(table.degrees()) != degrees:
            problems.append(f"{name}: degrees {sorted(table.degrees())}")
        if chardeg.acd(table).value != acd:
            problems.append(f"{name}: acd {chardeg.acd(table)} != {acd}")
        if seed == 0:
            digest = sha256(table.to_data().to_json())
            if digest != DIGESTS[name]:
                problems.append(f"{name}: table digest {digest} differs from "
                                "the recorded one")
        return problems
    except Exception as exc:  # a crash is a failed operation, not a crash
        return [f"{name}: {type(exc).__name__}: {exc}"]
