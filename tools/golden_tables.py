"""Record the SHA-256 of the CLI's table and report output, and of quotients.

Writes four files:

* tests/golden_tables.json: `chardeg table <g> --json` for every corpus
  group, compared by tests/test_golden_tables.py;
* tests/golden_scale_tables.json: the table JSON export (what `table --json`
  prints, without the final newline, as perfbench/workloads.py hashes it)
  of groups beyond the corpus, built from the generators in SCALE_GROUPS,
  compared by tests/test_golden_scale_tables.py;
* tests/golden_reports.json: `verify paper` (text and --json), the corpus
  scans (--json) and the README's `acd` examples, each with its arguments,
  compared by tests/test_golden_reports.py;
* tests/golden_quotients.json: the degree, generator images and projected
  source generators of each corpus quotient (see corpus_quotients),
  compared by tests/test_golden_quotients.py.

Re-record only when a change to the output is intended.

Run from the repository root:  python3 tools/golden_tables.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, "src")

from chardeg.chars import character_table
from chardeg.cli import main
from chardeg.corpusio import Catalogue
from chardeg.groups import (Group, Quotient, center, minimal_normal_subgroups,
                            quotient_group)
from chardeg.perms import parse_cycles

OUT = Path("tests/golden_tables.json")
REPORTS_OUT = Path("tests/golden_reports.json")
SCALE_OUT = Path("tests/golden_scale_tables.json")
QUOTIENTS_OUT = Path("tests/golden_quotients.json")

# name -> (degree, generators in 1-based cycle notation).  S8, M12, C2^6 and
# C3^4 are the benchmark's table groups at seed 0 (perfbench/workloads.py);
# C2^7 extends the C2^k pattern; the split cuts each vector of C3^5 and C4^4
# into 3 and 4 components, where that of C2^k cuts it into 2; M22's exponent
# 9240 has five prime factors; the Gram checks of C_120 and of D_400 (the
# dihedral group of order 400) sum over 32 and 40 classes of order 120 and
# 200, each value with 120 and 200 coefficients; C_240's 64 classes of
# order 240 form one Galois orbit, which the Gram check sums once.
SCALE_GROUPS = {
    "S8": (8, ["(1 2 3 4 5 6 7 8)", "(1 2)"]),
    "M12": (12, ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)",
                 "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"]),
    "C2^6": (12, [f"({2 * i + 1} {2 * i + 2})" for i in range(6)]),
    "C3^4": (12, [f"({3 * i + 1} {3 * i + 2} {3 * i + 3})" for i in range(4)]),
    "C2^7": (14, [f"({2 * i + 1} {2 * i + 2})" for i in range(7)]),
    "C3^5": (15, [f"({3 * i + 1} {3 * i + 2} {3 * i + 3})" for i in range(5)]),
    "C4^4": (16, [f"({4 * i + 1} {4 * i + 2} {4 * i + 3} {4 * i + 4})"
                  for i in range(4)]),
    "M22": (22, ["(1 2 3 4 5 6 7 8 9 10 11)(12 13 14 15 16 17 18 19 20 21 22)",
                 "(1 4 5 9 3)(2 8 10 7 6)(12 15 16 20 14)(13 19 21 18 17)",
                 "(1 21)(2 10 8 6)(3 13 4 17)(5 19 9 18)(11 22)(12 14 16 20)"]),
    "C_120": (16, ["(1 2 3)(4 5 6 7 8 9 10 11)(12 13 14 15 16)"]),
    "D_400": (200, ["(" + " ".join(map(str, range(1, 201))) + ")",
                    "".join(f"({i} {202 - i})" for i in range(2, 101))]),
    "C_240": (24, ["(1 2 3)(4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19)"
                   "(20 21 22 23 24)"]),
}

# the center of SL2_5, as in the README's `acd --rel` example
Z_SL25 = ("(1 4)(2 3)(5 20)(6 24)(7 23)(8 22)(9 21)(10 15)(11 19)(12 18)"
          "(13 17)(14 16)")

SCANS = ["thmA", "thmB", "conj3p", "cs"] + [
    f"question:{p}" for p in (2, 3, 5, 7, 11, 13)]

# report label -> CLI arguments; the label is the command line as typed
REPORTS = {
    "verify paper": ["verify", "paper"],
    "verify paper --json": ["verify", "paper", "--json"],
    **{f"scan --check {s} --json": ["scan", "--check", s, "--json"]
       for s in SCANS},
    "acd A5": ["acd", "A5"],
    "acd SL2_5 --even": ["acd", "SL2_5", "--even"],
    "acd SL2_5 --coprime 3": ["acd", "SL2_5", "--coprime", "3"],
    "acd A5 --div 5": ["acd", "A5", "--div", "5"],
    "acd SL2_5 --rel Z": ["acd", "SL2_5", "--rel", Z_SL25],
    "acd SL2_5 --mod Z": ["acd", "SL2_5", "--mod", Z_SL25],
    "acd SL2_5 --even --rel Z": ["acd", "SL2_5", "--even", "--rel", Z_SL25],
}


def cli_digest(argv: list[str]) -> str:
    """SHA-256 of what `chardeg <argv>` prints; the command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"{' '.join(argv)} exited {status}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def scale_group(name: str) -> Group:
    degree, cycles = SCALE_GROUPS[name]
    return Group([parse_cycles(c, degree) for c in cycles], degree, name=name)


def table_digest(group: Group) -> str:
    """SHA-256 of the group's table JSON export."""
    text = character_table(group).to_data().to_json()
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_quotients(cat: Catalogue) -> dict[str, Quotient]:
    """Each corpus group over its center, when that is proper and
    nontrivial, and over each proper minimal normal subgroup; and each
    central product's quotient (M x C)/Z.  Labels name the group and N.
    """
    quotients = {}
    for name in cat.names():
        entry = cat.entry(name)
        g = entry.group
        z = center(g)
        if 1 < z.order < g.order:
            quotients[f"{name} / Z"] = quotient_group(g, z)
        for i, n in enumerate(minimal_normal_subgroups(g)):
            if n.order < g.order:
                quotients[f"{name} / N{i}"] = quotient_group(g, n)
        if entry.construction is not None:
            quotients[f"{name} construction"] = entry.construction.quotient
    return quotients


def quotient_digest(q: Quotient) -> str:
    """SHA-256 of the quotient's degree, its generators' images and the
    projections of the source's generators, as JSON."""
    data = {"degree": q.group.degree,
            "generators": [list(x.images) for x in q.group.generators],
            "projections": [list(q.project(x).images)
                            for x in q.source.generators]}
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def _write(path: Path, digests: dict) -> None:
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")


if __name__ == "__main__":
    _write(OUT, {name: cli_digest(["table", name, "--json"])
                 for name in Catalogue().names()})
    _write(REPORTS_OUT, {label: {"argv": argv, "sha256": cli_digest(argv)}
                         for label, argv in REPORTS.items()})
    _write(SCALE_OUT, {name: table_digest(scale_group(name))
                       for name in SCALE_GROUPS})
    _write(QUOTIENTS_OUT, {label: quotient_digest(q) for label, q
                           in corpus_quotients(Catalogue()).items()})
