"""Tables beyond the corpus are bit-identical to the recorded ones.

tests/golden_scale_tables.json holds the SHA-256 of the table JSON export of
each group in tools/golden_tables.py's SCALE_GROUPS, which records it.  S8,
M12, C2^6 and C3^4 are the benchmark's table groups at seed 0, so their
generators and digests must also agree with perfbench/workloads.py.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden_scale_tables.json").read_text())


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load(ROOT / "tools" / "golden_tables.py")
workloads = _load(ROOT / "perfbench" / "workloads.py")
BENCHMARK_GROUPS = [name for names in workloads.TABLE_GROUPS.values()
                    for name in names]


def test_golden_covers_the_scale_set():
    assert sorted(GOLDEN) == sorted(tool.SCALE_GROUPS)


@pytest.mark.parametrize("name", BENCHMARK_GROUPS)
def test_benchmark_groups_and_digests_agree(name):
    assert tool.SCALE_GROUPS[name] == workloads.GROUPS[name]
    assert GOLDEN[name] == workloads.DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scale_table_matches_golden(name):
    assert tool.table_digest(tool.scale_group(name)) == GOLDEN[name]
