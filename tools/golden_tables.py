"""Record the SHA-256 of the CLI's table and report output.

Writes two files:

* tests/golden_tables.json: `chardeg table <g> --json` for every corpus
  group, compared by tests/test_golden_tables.py;
* tests/golden_reports.json: `verify paper` (text and --json), the corpus
  scans (--json) and the README's `acd` examples, each with its arguments,
  compared by tests/test_golden_reports.py.

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

from chardeg.cli import main
from chardeg.corpusio import Catalogue

OUT = Path("tests/golden_tables.json")
REPORTS_OUT = Path("tests/golden_reports.json")

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


def _write(path: Path, digests: dict) -> None:
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")


if __name__ == "__main__":
    _write(OUT, {name: cli_digest(["table", name, "--json"])
                 for name in Catalogue().names()})
    _write(REPORTS_OUT, {label: {"argv": argv, "sha256": cli_digest(argv)}
                         for label, argv in REPORTS.items()})
