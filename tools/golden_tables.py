"""Record the SHA-256 of `chardeg table <g> --json` for every corpus group.

Writes tests/golden_tables.json, which tests/test_golden_tables.py compares
against freshly built tables.  Re-record only when a change to the table
output is intended.

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


def table_digest(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["table", name, "--json"])
    if status != 0:
        raise SystemExit(f"table {name} exited {status}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    digests = {name: table_digest(name) for name in Catalogue().names()}
    OUT.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {OUT}")
