"""Every report the CLI prints is bit-identical to the recorded one.

tests/golden_reports.json holds, per command, its arguments and the SHA-256
of what `chardeg <arguments>` prints: `verify paper` as text and --json, the
corpus scans, and the README's `acd` examples.  tools/golden_tables.py
records it.  The commands run on the session catalogue, so tables built for
one report are reused by the next.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from chardeg import cli

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_reports.json").read_text())


def test_golden_reports_cover_the_checks():
    assert {"verify paper", "verify paper --json",
            "scan --check question:7 --json"} <= set(GOLDEN)
    assert sum(label.startswith("scan ") for label in GOLDEN) == 10
    assert sum(label.startswith("acd ") for label in GOLDEN) == 7


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_report_matches_golden(cat, monkeypatch, label):
    monkeypatch.setattr(cli, "Catalogue", lambda path=None: cat)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(GOLDEN[label]["argv"])
    assert status == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[label]["sha256"]
