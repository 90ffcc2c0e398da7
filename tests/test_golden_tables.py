"""Every corpus table is bit-identical to the recorded one.

tests/golden_tables.json holds the SHA-256 of what `chardeg table <g> --json`
prints for each corpus group; tools/golden_tables.py records it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from chardeg.chars import character_table

GOLDEN = json.loads((Path(__file__).parent / "golden_tables.json").read_text())


def test_golden_covers_the_corpus(cat):
    assert sorted(GOLDEN) == sorted(cat.names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_table_json_matches_golden(cat, name):
    text = character_table(cat.group(name)).to_data().to_json() + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
