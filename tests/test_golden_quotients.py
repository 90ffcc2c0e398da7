"""Every corpus quotient is the same permutation group as the recorded one.

tests/golden_quotients.json holds, for each quotient that
tools/golden_tables.py's corpus_quotients builds (each corpus group over its
center and over its proper minimal normal subgroups, and each central
product's (M x C)/Z), the SHA-256 of its degree, its generators' images and
the projections of the source's generators.  The set covers both ways of
building G/N: the action on N-orbits and the action on cosets of N.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden_quotients.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "golden_tables", ROOT / "tools" / "golden_tables.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


@pytest.fixture(scope="module")
def quotients(cat):
    return tool.corpus_quotients(cat)


def test_golden_covers_the_corpus_quotients(quotients):
    assert sorted(GOLDEN) == sorted(quotients)
    assert len(GOLDEN) == 136


def test_both_actions_are_covered(quotients):
    # an orbit action has at most as many points as the source; a coset
    # action has |G:N| points, which here exceeds the source's degree
    degrees = [(q.group.degree, q.source.degree) for q in quotients.values()]
    assert any(d < s for d, s in degrees)
    assert any(d > s for d, s in degrees)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_quotient_matches_golden(quotients, label):
    assert tool.quotient_digest(quotients[label]) == GOLDEN[label]
